"""The benchmark's answer checks flag wrong answers.

Each test takes a right answer from finalg on a small input, confirms that
the check accepts it, then alters it and confirms that the check flags it.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import copy
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from finalg import certificates, identities, witnesses  # noqa: E402
from finalg.fixtures import load_fixture  # noqa: E402


def _rel(w):
    return checks.RelationEvaluator(w.alpha.as_array(), w.beta.as_array(), w.gamma.as_array())


def test_reference_witness_matches_definition():
    for m, q in [(5, 2), (6, 2), (5, 3), (6, 3)]:
        ref = checks.reference_witness(m, q)
        w = witnesses.build_sharpness_witness(m, q, verify_closure=False)
        assert list(ref.good) == list(w.good_ids)
        assert (ref.a, ref.d, ref.lhs_chain) == (w.a, w.d, w.lhs_chain)


def test_reference_tables_match_fixtures():
    for name in ("N:2:4", "N:3:5", "I:4", "If:5"):
        size, ops = checks.reference_algebra(name)
        alg = load_fixture(name)
        assert size == alg.size
        for op in alg.ops:
            assert ops[op.name][0] == op.arity
            assert np.array_equal(ops[op.name][1], op.table_array())


def test_full_mode_check_flags_wrong_verdicts():
    w = witnesses.build_sharpness_witness(6, 3)
    rel = _rel(w)
    params = {"m": 6, "q": 3}
    viol = rel.violations("wedge-power", **params)
    assert sorted(map(tuple, viol.tolist())) == [(61, 217), (217, 61)]
    right = identities.check_identity("wedge-power", w.alpha, w.beta, w.gamma, **params)
    assert workloads.check_full(right, rel, viol, "wedge-power", params) == []
    for wrong in (
        SimpleNamespace(verdict="holds", counterexample=None, lhs_chain=None),
        SimpleNamespace(verdict="fails", counterexample=(0, 96), lhs_chain=right.lhs_chain),
        SimpleNamespace(verdict="fails", counterexample=right.counterexample,
                        lhs_chain=list(reversed(right.lhs_chain))),
    ):
        assert workloads.check_full(wrong, rel, viol, "wedge-power", params)
    holds = rel.violations("zigzag-odd", **params)
    assert len(holds) == 0
    fails = SimpleNamespace(verdict="fails", counterexample=(61, 217), lhs_chain=None)
    assert workloads.check_full(fails, rel, holds, "zigzag-odd", params)


def test_wrapping_counterexamples_are_flagged():
    """Full mode reports (0, 116) on B(6,4) and (0, 96) on B(7,3); the exact
    evaluator finds other violating pairs."""
    for (m, q), reported, exact in [((6, 4), (0, 116), [(537, 117)]),
                                    ((7, 3), (0, 96), [(217, 835), (835, 217)])]:
        ref = checks.reference_witness(m, q)
        rel = checks.RelationEvaluator(ref.alpha, ref.beta, ref.gamma)
        viol = rel.violations("wedge-power", m=m, q=q)
        assert sorted(map(tuple, viol.tolist())) == exact
        inst = SimpleNamespace(verdict="fails", counterexample=reported, lhs_chain=None)
        assert workloads.check_full(inst, rel, viol, "wedge-power", {"m": m, "q": q})


def test_pair_mode_check_flags_wrong_answers():
    w = witnesses.build_sharpness_witness(6, 2)
    rel = _rel(w)
    pair = (w.a, w.d)
    for family, params in [("wedge-power", {"m": 6, "q": 2}), ("dist", {"n": 8})]:
        inst = identities.check_identity(family, w.alpha, w.beta, w.gamma, **params,
                                         pair=pair).to_obj()
        assert workloads.check_pair_instance(rel, inst, family, pair, **params) == []
        wrong = copy.deepcopy(inst)
        if inst["verdict"] == "fails":
            wrong["verdict"] = "pair-not-counterexample"
        else:
            wrong["stats"]["in_rhs"] = not wrong["stats"]["in_rhs"]
        assert workloads.check_pair_instance(rel, wrong, family, pair, **params)


def test_sharpness_check_flags_altered_reports():
    for m, q in [(5, 2), (5, 3)]:
        cert = certificates.sharpness_certificate(m, q)
        ref = checks.reference_witness(m, q)
        assert workloads.check_sharpness(cert, ref) == []
        alterations = [("subuniverse_size",), ("pair",), ("identity", "verdict")]
        if q == 2:
            alterations += [("chains", "bfs_factors"), ("chains", "ab_chain_2m4", "verdict"),
                            ("chains", "bfs_chain")]
        else:
            alterations += [("odd_equivalent", "verdict")]
        for path in alterations:
            bad = copy.deepcopy(cert)
            node = bad["evidence"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = workloads._altered(node[path[-1]])
            assert workloads.check_sharpness(bad, ref), path


def test_shortest_chain_is_2m_minus_4():
    for m in range(3, 8):
        ref = checks.reference_witness(m, 2)
        rel = checks.RelationEvaluator(ref.alpha, ref.beta, ref.gamma)
        assert rel.shortest_alternating(ref.a, ref.d) == 2 * m - 4


def test_induction_check_flags_a_stage_that_holds():
    cert = certificates.induction_certificate(6, 2)
    assert workloads.check_induction(cert, 6) == []
    bad = copy.deepcopy(cert)
    bad["evidence"]["stages"][-1]["identity"]["verdict"] = "holds"
    assert workloads.check_induction(bad, 6)
    bad = copy.deepcopy(cert)
    bad["evidence"]["stages"].pop()
    assert workloads.check_induction(bad, 6)


def test_level_check_flags_wrong_levels_and_terms():
    cases = [("jonsson", "N:2:4", 4), ("alvin", "N:2:4", 5), ("day", "N:2:3", 3),
             ("hagemann-mitschke", "I:4", 3), ("directed-jonsson", "N:2:4", 2)]
    for scheme, fixtures, level in cases:
        cert = certificates.level_certificate(scheme, fixtures, expect=level)
        assert workloads.check_level(cert, scheme, fixtures, level) == []
        assert workloads.check_level(cert, scheme, fixtures, level + 1)
        terms = cert["evidence"]["terms"]
        for wrong in (terms[:1] + ["x1"] + terms[2:], terms[::-1], terms[:-2] + terms[-1:]):
            bad = copy.deepcopy(cert)
            bad["evidence"]["terms"] = wrong
            assert workloads.check_level(bad, scheme, fixtures, level), (scheme, wrong)
    hm = certificates.level_certificate("hagemann-mitschke", "N:2:4")
    assert workloads.check_level(hm, "hagemann-mitschke", "N:2:4", None) == []
    assert workloads.check_level(hm, "hagemann-mitschke", "N:2:4", 3)


def test_search_check_flags_wrong_terms_and_outcomes():
    cert = certificates.search_certificate("nu", "I:4", arity=4, expect="found")
    assert workloads.check_search(cert, "I:4", 4, "found") == []
    assert workloads.check_search(cert, "I:4", 4, "absent")
    bad = copy.deepcopy(cert)
    bad["evidence"]["term"] = "x0"
    assert workloads.check_search(bad, "I:4", 4, "found")
    absent = certificates.search_certificate("nu", "N:2:4", arity=3, expect="absent")
    assert workloads.check_search(absent, "N:2:4", 3, "absent") == []
    assert workloads.check_search(absent, "N:2:4", 3, "found")


def test_recheck_check_flags_accepted_copies():
    assert workloads.check_recheck((True, "ok"), should_pass=True) == []
    assert workloads.check_recheck((True, "ok"), should_pass=False)
    assert workloads.check_recheck((False, "drifted"), should_pass=True)


def test_known_answers():
    assert [checks.known_level("jonsson", m) for m in (3, 4, 5)] == [2, 4, 6]
    assert [checks.known_level("alvin", m) for m in (3, 4, 5)] == [3, 5, 7]
    assert checks.known_level("hagemann-mitschke", 5) is None


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
