"""The benchmark's workloads: set-up, operations and their answer checks.

An operation is one verdict from finalg (the timed call) plus its check
against `checks`, which shares no code with finalg.  `setup(rng, workdir)`
builds a workload's inputs and returns its operations in the order the seed
draws; the same operations run in every round.  finalg functions are looked
up on their modules at call time, so the traced run sees the calls.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from finalg import certificates, identities, witnesses


@dataclass
class Op:
    name: str
    verdict: Callable[[], object]
    check: Callable[[object], list]   # problems found; empty when right
    known_fault: bool = False         # fails through a fault finalg has today


def _expect(problems: list, cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def _chain_fixtures(m: int) -> str:
    """The generator family N:2:m .. N:ell:m of the paper."""
    return ",".join(f"N:{j}:{m}" for j in range(2, (m + 1) // 2 + 1))


# ---------------------------------------------------------------------------
# sharpness: verify sharpness on B(m, q), verify induction


SHARPNESS_CASES = [(m, 2) for m in range(3, 10)] + [(m, 3) for m in range(3, 8)]
INDUCTION_CASES = [(5, 2), (6, 2), (7, 2), (5, 3), (6, 3)]


def check_pair_instance(rel: checks.RelationEvaluator, inst: dict, family: str,
                        pair, **params) -> list:
    """A pair-mode identity answer against the set-image evaluator."""
    problems = []
    in_lhs, in_rhs = rel.pair_answer(family, pair, **params)
    if in_lhs and not in_rhs:
        _expect(problems, inst["verdict"] == "fails", f"{family}: pair is a counterexample")
        _expect(problems, list(inst["counterexample"]) == list(pair), f"{family}: wrong pair")
        lhs, _ = checks.identity_exprs(family, **params)
        _expect(problems, _is_lhs_path(rel, lhs, inst["lhs_chain"], pair),
                f"{family}: left-side chain does not realise the pair")
    else:
        _expect(problems, inst["verdict"] == "pair-not-counterexample",
                f"{family}: pair is no counterexample")
        _expect(problems, (inst["stats"].get("in_lhs"), inst["stats"].get("in_rhs"))
                == (in_lhs, in_rhs), f"{family}: membership differs")
    return problems


def _is_lhs_path(rel, lhs, chain, pair) -> bool:
    """chain runs from pair[0] to pair[1] through the left side's factors."""
    items = lhs[1][1:]  # ("A", ("C", factor, ...))
    if chain is None or len(chain) != len(items) + 1:
        return False
    if (chain[0], chain[-1]) != tuple(pair) or not all(0 <= x < rel.n for x in chain):
        return False
    alpha = rel.ids[checks.A]
    return alpha[chain[0]] == alpha[chain[-1]] and all(
        rel.ids[key][x] == rel.ids[key][y] for (_, key), x, y in zip(items, chain, chain[1:])
    )


def check_sharpness(cert: dict, ref: checks.ReferenceWitness) -> list:
    """A sharpness report against the reference witness and its relations."""
    m, q = ref.m, ref.q
    ev = cert["evidence"]
    rel = checks.RelationEvaluator(ref.alpha, ref.beta, ref.gamma)
    pair = (ref.a, ref.d)
    problems = []
    _expect(problems, cert["verdict"] == "verified", "B(m,q) is a witness")
    _expect(problems, ev["product_size"] == ref.product_size, "product size")
    _expect(problems, ev["subuniverse_size"] == len(ref.good), "good-set size")
    _expect(problems, list(ev["pair"]) == list(pair), "designated pair")
    _expect(problems, list(ev["pair_product_ids"]) == [int(ref.good[x]) for x in pair],
            "designated pair in the product")
    _expect(problems, list(ev["lhs_chain"]) == list(ref.lhs_chain), "left-side chain")
    _expect(problems, rel.is_lhs_chain(ev["lhs_chain"], q), "left-side chain relations")
    problems += check_pair_instance(rel, ev["identity"], "wedge-power", pair, m=m, q=q)
    _expect(problems, ev["identity"]["verdict"] == "fails", "power identity fails")
    if q == 2:
        c = ev["chains"]
        length = rel.shortest_alternating(ref.a, ref.d)
        _expect(problems, length == 2 * m - 4, f"shortest chain {length} != 2m-4")
        _expect(problems, c["bfs_factors"] == length, "reported chain length")
        for key in ("bfs_chain", "canonical_chain"):
            path = c[key]
            _expect(problems, path is not None and len(path) == length + 1
                    and (path[0], path[-1]) == pair and rel.is_alternating_path(path),
                    f"{key} is no shortest alternating chain")
        _expect(problems, c["bfs_matches_canonical"] == (c["bfs_chain"] == c["canonical_chain"]),
                "bfs_matches_canonical")
        for key, family, n, want in (("ab_chain_2m5", "dist", 2 * m - 5, "fails"),
                                     ("ag_chain_2m4", "alvin", 2 * m - 4, "fails"),
                                     ("ab_chain_2m4", "dist", 2 * m - 4,
                                      "pair-not-counterexample")):
            problems += check_pair_instance(rel, c[key], family, pair, n=n)
            _expect(problems, c[key]["verdict"] == want, f"{key} is {want}")
    if q % 2 == 1:
        problems += check_pair_instance(rel, ev["odd_equivalent"], "wedge-power-odd", pair,
                                        m=m, q=q)
        _expect(problems, ev["odd_equivalent"]["verdict"] == "fails", "odd form fails")
    return problems


def check_induction(cert: dict, m: int) -> list:
    """Known answer: one refuted level identity per level j = ell .. 2."""
    problems = []
    stages = cert["evidence"]["stages"]
    _expect(problems, cert["verdict"] == "verified", "induction verified")
    _expect(problems, [s["j"] for s in stages] == list(range((m + 1) // 2, 1, -1)),
            "one stage per level")
    for s in stages:
        ident = s["identity"]
        _expect(problems, ident["verdict"] == "fails"
                and list(ident["counterexample"]) == list(s["pair"]),
                f"stage {s['j']} refutes its identity at the designated pair")
    return problems


def setup_sharpness(rng, workdir) -> list:
    refs = {}

    def ref(m, q):
        if (m, q) not in refs:
            refs[(m, q)] = checks.reference_witness(m, q)
        return refs[(m, q)]

    ops = [Op(f"sharpness B({m},{q})", lambda m=m, q=q: certificates.sharpness_certificate(m, q),
              lambda cert, m=m, q=q: check_sharpness(cert, ref(m, q)))
           for m, q in SHARPNESS_CASES]
    ops += [Op(f"induction ({m},{q})", lambda m=m, q=q: certificates.induction_certificate(m, q),
               lambda cert, m=m: check_induction(cert, m))
            for m, q in INDUCTION_CASES]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# relational: identity verdicts on prebuilt witnesses


def catalogue(m: int, q: int) -> list:
    """The catalogue families at (m, q), each with its parameters."""
    out = [("dist", {"n": 2 * m - 5}), ("dist", {"n": 2 * m - 4}),
           ("alvin", {"n": 2 * m - 4}), ("wedge-power", {"m": m, "q": q}),
           ("wedge-power-j", {"m": m, "q": q, "j": 3})]
    if q % 2 == 0:
        out += [("wedge-power-2", {"m": m}), ("zigzag-even", {"m": m, "q": q}),
                ("zigzag-even-swapped", {"m": m, "q": q})]
    else:
        out += [("wedge-power-odd", {"m": m, "q": q}), ("zigzag-odd", {"m": m, "q": q}),
                ("zigzag-odd-swapped", {"m": m, "q": q})]
    return out


#: full mode composes relations in uint8, so path counts wrap modulo 256;
#: on B(6,4), whose alpha blocks hold 625 elements, the reported wedge-power
#: counterexample (0, 116) is not one (the only violating pair is (537, 117))
WRAPPING_CASE = ((6, 4), "wedge-power")
FULL_CASES = ([((7, 2), f, p) for f, p in catalogue(7, 2)]
              + [((6, 3), f, p) for f, p in catalogue(6, 3)]
              + [((6, 4), "wedge-power", {"m": 6, "q": 4})])
#: pair-mode queries: per witness, the designated pair plus this many seeded
#: pairs inside one alpha block, each asked of these families
PAIR_WITNESSES = {(8, 3): ["wedge-power", "wedge-power-odd", "zigzag-odd",
                           "zigzag-odd-swapped"],
                  (9, 2): ["wedge-power", "dist", "alvin", "zigzag-even"]}
PAIRS_PER_WITNESS = 24


def check_full(inst, rel: checks.RelationEvaluator, violations: np.ndarray, family,
               params) -> list:
    """A full-mode identity verdict against every violating pair."""
    problems = []
    if len(violations) == 0:
        _expect(problems, inst.verdict == "holds", "identity holds")
        return problems
    _expect(problems, inst.verdict == "fails", f"identity fails at {len(violations)} pairs")
    pair = tuple(int(x) for x in inst.counterexample or (-1, -1))
    hits = violations[(violations[:, 0] == pair[0]) & (violations[:, 1] == pair[1])]
    if len(hits) == 0:
        problems.append(f"reported pair {pair} is not a counterexample")
        return problems
    lhs, _ = checks.identity_exprs(family, **params)
    _expect(problems, _is_lhs_path(rel, lhs, inst.lhs_chain, pair),
            "left-side chain does not realise the pair")
    return problems


def _params_text(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


def setup_relational(rng, workdir) -> list:
    """The witnesses are built here, with their closure verified for the
    full-mode ones.  The pair-mode ones, B(8,3) and B(9,2), skip that check
    (the sharpness workload times it), so set-up stays under a second."""
    built = {mq: witnesses.build_sharpness_witness(*mq) for mq in {c[0] for c in FULL_CASES}}
    built.update({mq: witnesses.build_sharpness_witness(*mq, verify_closure=False)
                  for mq in PAIR_WITNESSES})
    rels, viols = {}, {}

    def rel(mq):
        if mq not in rels:
            w = built[mq]
            rels[mq] = checks.RelationEvaluator(w.alpha.as_array(), w.beta.as_array(),
                                                w.gamma.as_array())
        return rels[mq]

    def full_check(inst, mq, family, params):
        key = (mq, family, _params_text(params))
        if key not in viols:
            viols[key] = rel(mq).violations(family, **params)
        return check_full(inst, rel(mq), viols[key], family, params)

    def verdict(mq, family, params, pair=None):
        w = built[mq]
        return identities.check_identity(family, w.alpha, w.beta, w.gamma, **params, pair=pair)

    ops = [Op(f"full {family}({_params_text(params)}) on B{mq}",
              lambda mq=mq, f=family, p=params: verdict(mq, f, p),
              lambda inst, mq=mq, f=family, p=params: full_check(inst, mq, f, p),
              known_fault=(mq, family) == WRAPPING_CASE)
           for mq, family, params in FULL_CASES]
    for (m, q), families in PAIR_WITNESSES.items():
        w = built[(m, q)]
        alpha = w.alpha.as_array()
        pairs = [(w.a, w.d)]
        for _ in range(PAIRS_PER_WITNESS):
            x = rng.randrange(w.size)
            block = np.flatnonzero(alpha == alpha[x])
            pairs.append((x, int(block[rng.randrange(len(block))])))
        for family in families:
            params = ({"n": 2 * m - 5} if family == "dist" else
                      {"n": 2 * m - 4} if family == "alvin" else {"m": m, "q": q})
            ops += [Op(f"pair {family}({_params_text(params)}) on B{(m, q)} at {pair}",
                       lambda mq=(m, q), f=family, p=params, pr=pair: verdict(mq, f, p, pr),
                       lambda inst, mq=(m, q), f=family, p=params, pr=pair:
                           check_pair_instance(rel(mq), inst.to_obj(), f, pr, **p))
                    for pair in pairs]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# varieties: chain levels and term searches over generator families


def _level_cases() -> list:
    """(scheme, fixtures, expected level or None)."""
    cases = []
    for m in range(3, 6):
        for scheme in ("jonsson", "alvin", "hagemann-mitschke", "directed-jonsson"):
            cases.append((scheme, _chain_fixtures(m), checks.known_level(scheme, m)))
    for m in (3, 4):
        cases.append(("day", _chain_fixtures(m), checks.known_level("day", m)))
    for fx in ("I:4", "If:4", "I:5", "If:5"):
        for scheme, level in checks.IMPLICATION_LEVELS.items():
            cases.append((scheme, fx, level))
    return cases


def _search_cases() -> list:
    """(scheme, fixtures, arity, expect): the acceptance gate's answers."""
    cases = []
    for fx in ("I:4", "If:4", "I:5", "If:5"):
        m = int(fx.split(":")[1])
        cases += [("nu", fx, m, "found"), ("nu", fx, m - 1, "absent")]
    cases.append(("nu", "N:2:4", 3, "absent"))
    return cases


def check_level(cert: dict, scheme: str, fixtures: str, level) -> list:
    """A chain level against the known level, its terms against the scheme."""
    ev = cert["evidence"]
    problems = []
    _expect(problems, cert["verdict"] == "verified", "level verified")
    _expect(problems, ev["found"] == (level is not None), "chain exists")
    _expect(problems, ev["level"] == level, f"level {ev['level']} != {level}")
    if ev["found"]:
        terms = ev["terms"]
        count = level + 1 if scheme != "directed-jonsson" else level
        _expect(problems, len(terms) == count, "chain length")
        _expect(problems, checks.check_chain(terms, scheme, fixtures),
                "chain terms fail their equations")
    return problems


def check_search(cert: dict, fixtures: str, arity: int, expect: str) -> list:
    """A near-unanimity term search against the acceptance gate's answer."""
    ev = cert["evidence"]
    problems = []
    _expect(problems, cert["verdict"] == "verified", "search verified")
    _expect(problems, ev["found"] == (expect == "found"), f"term {expect}")
    if ev["found"]:
        _expect(problems, checks.is_nu_term(ev["term"], arity, fixtures),
                "term fails the near-unanimity equations")
    return problems


def setup_varieties(rng, workdir) -> list:
    ops = [Op(f"level {s} {fx}",
              lambda s=s, fx=fx, lv=lv: certificates.level_certificate(s, fx, expect=lv),
              lambda cert, s=s, fx=fx, lv=lv: check_level(cert, s, fx, lv))
           for s, fx, lv in _level_cases()]
    ops += [Op(f"search {s}({a}) {fx}",
               lambda s=s, fx=fx, a=a, e=e: certificates.search_certificate(
                   s, fx, arity=a, expect=e),
               lambda cert, fx=fx, a=a, e=e: check_search(cert, fx, a, e))
            for s, fx, a, e in _search_cases()]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# recheck: replay stored certificates, originals and altered copies


def _certificates() -> list:
    """One or two certificates of each claim kind, small enough to replay."""
    return [
        certificates.sharpness_certificate(6, 2),
        certificates.sharpness_certificate(5, 3),
        certificates.induction_certificate(5, 3),
        certificates.identity_certificate("wedge-power", 6, 3, expect="fails"),
        certificates.identity_certificate("zigzag-even", 5, 2, expect="holds"),
        certificates.level_certificate("jonsson", "N:2:4", expect=4),
        certificates.level_certificate("hagemann-mitschke", "I:4", expect=3),
        certificates.search_certificate("nu", "I:4", arity=4, expect="found"),
        certificates.search_certificate("nu", "N:2:4", arity=3, expect="absent"),
        certificates.toolkit_certificate("LD2"),
    ]


def _altered(value):
    """A different value of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return 0
    if isinstance(value, list):
        return [_altered(value[0])] + value[1:] if value else [0]
    if isinstance(value, dict):
        key = sorted(value)[0] if value else "extra"
        return {**value, key: _altered(value.get(key))}
    raise TypeError(type(value))


def _wrong_expect(claim: str, expect):
    if claim == "level":
        return expect + 1
    return {"fails": "holds", "holds": "fails", "found": "absent", "absent": "found"}[expect]


def altered_copies(cert: dict) -> list:
    """(what, copy): one per evidence entry and one per parameters.expect."""
    out = []
    for key in sorted(cert["evidence"]):
        bad = copy.deepcopy(cert)
        bad["evidence"][key] = _altered(bad["evidence"][key])
        out.append((f"evidence.{key}", bad))
    if cert["parameters"].get("expect") not in (None, ""):
        bad = copy.deepcopy(cert)
        bad["parameters"]["expect"] = _wrong_expect(cert["claim"], cert["parameters"]["expect"])
        out.append(("parameters.expect", bad))
    return out


def check_recheck(result, should_pass: bool) -> list:
    ok, detail = result
    if ok == should_pass:
        return []
    return [f"recheck {'rejected' if should_pass else 'accepted'} it: {detail}"]


def setup_recheck(rng, workdir) -> list:
    certdir = os.path.join(workdir, "certificates")
    os.makedirs(certdir, exist_ok=True)
    ops = []
    for i, cert in enumerate(_certificates()):
        label = f"{cert['claim']} {json.dumps(cert['parameters'], sort_keys=True)}"
        for what, doc, should_pass in [("original", cert, True)] + [
                (w, c, False) for w, c in altered_copies(cert)]:
            path = os.path.join(certdir, f"{i}-{what}.json")
            certificates.save_certificate(doc, path)
            # recheck compares only part of the evidence and never re-derives
            # the verdict from parameters.expect, so some altered copies pass
            ops.append(Op(
                f"recheck {what} {label}",
                lambda path=path: certificates.recheck(certificates.load_certificate(path)),
                lambda res, sp=should_pass: check_recheck(res, sp),
                known_fault=not should_pass))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "sharpness": setup_sharpness,
    "relational": setup_relational,
    "varieties": setup_varieties,
    "recheck": setup_recheck,
}
