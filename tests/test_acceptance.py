"""Acceptance gate: one test per criterion, one printed line each.

Results are discrete; every assertion is exact equality.  Stated runtime
budgets are recorded in the printed lines for audit (they are comfortably
met on a development laptop; they are not hard-asserted to keep the suite
robust on slow shared machines).
"""

import time

import pytest

import property_suites as ps
from equation_oracle import lone_dissent_equations, maltsev_equations, nu_equations
from finalg.algebras import is_k_majority, make_ujm_reduct
from finalg.freealg import build_free_algebra
from finalg.identities import check_identity
from finalg.maltsev import (
    absorption_search,
    chain_level,
    coprime_dissent_pipeline,
    dissent_mixed_composition,
    dissent_self_composition,
    lone_dissent_scheme,
    maltsev_from_dissent,
    nu_half_scheme,
    nu_scheme,
)
from finalg.terms import verify_equations
from finalg.witnesses import (
    dissent_pair_fixture,
    implication_expansion,
    modular_sum_algebra,
    nu_family_generators,
)

MS = range(3, 11)


def _line(n, text, t0):
    print(f"criterion {n}: PASS - {text} ({time.time() - t0:.2f}s)")


def test_criterion_1_sharpness_witnesses(report_cache):
    """Every B(m,q) closes; (a,d) sits on the left; the power identity fails."""
    t0 = time.time()
    for m in MS:
        for q in (2, 3):
            r = report_cache(m, q)
            assert r["subuniverse_ok"], (m, q)
            ident = r["identity"]
            assert ident["verdict"] == "fails", (m, q)
            assert ident["counterexample"] == r["pair"], (m, q)
            assert ident["lhs_chain"][0] == r["pair"][0]
            assert ident["lhs_chain"][-1] == r["pair"][1]
            assert len(r["lhs_chain"]) == q + 1
    _line(1, "B(m,q) closed, pair on the left, identity refuted, m=3..10 q=2,3 (budget 10s)", t0)


def test_criterion_2_exact_distributivity_gap(report_cache):
    t0 = time.time()
    for m in MS:
        c = report_cache(m, 2)["chains"]
        assert c["ab_chain_2m5"]["verdict"] == "fails", m
        assert c["ag_chain_2m4"]["verdict"] == "fails", m
        assert c["ab_chain_2m4"]["verdict"] == "pair-not-counterexample"
        assert c["ab_chain_2m4"]["stats"]["in_rhs"] is True, m
        assert c["bfs_factors"] == 2 * m - 4, m
        assert c["bfs_matches_canonical"], m
    _line(2, "pair misses the 2m-5 and swapped 2m-4 chains, rides the 2m-4 chain, m=3..10 (budget 10s)", t0)


def test_criterion_3_power_instance(report_cache, witness_cache):
    t0 = time.time()
    for m in range(3, 7):
        # q = 2: the pair misses every power of the reversed meet
        r = report_cache(m, 2)
        assert r["identity"]["verdict"] == "fails", m
        w = witness_cache(m, 2)
        rhs_only = check_identity(
            "wedge-power", w.alpha, w.beta, w.gamma, m=m, q=2, pair=(w.a, w.d)
        )
        assert rhs_only.verdict == "fails"
        # q = 3: the odd-q equivalent form fails as well
        r3 = report_cache(m, 3)
        assert r3["odd_equivalent"]["verdict"] == "fails", m
    _line(3, "reversed-meet power misses the pair, and the odd-q equivalent fails, m=3..6 (budget 10s)", t0)


def test_criterion_4_upper_bounds_hold_relationally(witness_cache):
    t0 = time.time()
    for m in range(3, 7):
        for q in (2, 3):
            w = witness_cache(m, q)
            fam = "zigzag-even" if q == 2 else "zigzag-odd"
            hold = check_identity(fam, w.alpha, w.beta, w.gamma, m=m, q=q)
            assert hold.verdict == "holds", (m, q)
            swap = check_identity(fam + "-swapped", w.alpha, w.beta, w.gamma, m=m, q=q)
            assert swap.verdict == "fails", (m, q)
    _line(4, "zigzag bounds hold, swapped starts fail, m=3..6 q=2,3 (budget 10s)", t0)


def test_criterion_5_variety_levels():
    t0 = time.time()
    n23 = make_ujm_reduct(2, 2, 3)
    n24 = make_ujm_reduct(2, 2, 4)
    five = nu_family_generators(5)
    assert chain_level([n23], "jonsson").level == 2
    assert chain_level([n24], "jonsson").level == 4
    assert chain_level(five, "jonsson").level == 6
    assert chain_level([n23], "alvin").level == 3          # 2m-3 at m=3
    assert chain_level([n24], "alvin").level == 5          # 2m-3 at m=4
    assert chain_level([n23], "day").level == 3
    assert chain_level([n24], "day").level == 5
    _line(5, "jonsson 2/4/6, alvin 3/5, day 3/5 (budgets up to 10min)", t0)


def test_criterion_6_nu_existence_boundary():
    t0 = time.time()
    n24 = make_ujm_reduct(2, 2, 4)
    five = nu_family_generators(5)
    assert not absorption_search([n24], nu_scheme(3)).found
    assert not absorption_search(five, nu_scheme(4)).found
    for alg in [n24, *five]:
        m = alg.ops[0].arity
        assert is_k_majority(alg, 0, m - 1)
    assert chain_level([n24], "jonsson").level > 3          # not 3-distributive
    assert chain_level([n24], "day").level > 4              # not 4-modular
    _line(6, "lower-arity near-unanimity refused; 3-distributivity and 4-modularity refused (budget minutes)", t0)


@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("variant", ["i", "f"])
def test_criterion_7_implication_expansions(m, variant):
    t0 = time.time()
    alg = implication_expansion(m, variant)
    free3 = build_free_algebra([alg], 3)
    jonsson = chain_level([alg], "jonsson", free=free3)
    hm = chain_level([alg], "hagemann-mitschke", free=free3)
    assert jonsson.level == 3               # 3-distributive but not 2
    assert hm.level == 3                    # 3-permutable but not permutable
    assert absorption_search([alg], nu_scheme(m)).found
    assert not absorption_search([alg], nu_scheme(m - 1)).found
    _line(7, f"{alg.label}: levels 3/3, m-ary found, (m-1)-ary refused (budget minutes)", t0)


def test_criterion_8_term_toolkit():
    t0 = time.time()
    xor3 = modular_sum_algebra(2, 3)
    sum4 = modular_sum_algebra(3, 4)
    ld2 = dissent_pair_fixture()
    # the two sum fixtures satisfy the dissent scheme
    assert absorption_search([xor3], lone_dissent_scheme(3)).found
    assert absorption_search([sum4], lone_dissent_scheme(4)).found
    # compositions at composed arities
    term, arity = dissent_self_composition(sum4, 0, 2)
    assert arity == 7
    assert verify_equations(lone_dissent_equations(term, 7), [sum4], 2)[0]
    term, arity = dissent_mixed_composition(ld2, 0, 1)
    assert arity == 6
    assert verify_equations(lone_dissent_equations(term, 6), [ld2], 2)[0]
    # the Maltsev derivation
    assert verify_equations(maltsev_equations(maltsev_from_dissent(xor3, 0)), [xor3], 2)[0]
    # consecutive arities give a verified near-unanimity composite, and the
    # coprime pipeline certifies a majority plus a Maltsev term
    out = coprime_dissent_pipeline(ld2, 0, 1)
    assert verify_equations(nu_equations(out["nu_term"], out["nu_arity"]), [ld2], 2)[0]
    majority = out["majority"]
    assert majority.found and majority.verified and majority.scheme == "nu"
    assert verify_equations(maltsev_equations(out["maltsev_term"]), [ld2], 2)[0]
    # directed chains: length m-2 found, m-3 refused
    assert chain_level([make_ujm_reduct(2, 2, 3)], "directed-jonsson").level == 1
    assert chain_level([make_ujm_reduct(2, 2, 4)], "directed-jonsson").level == 2
    # an m-ary lone dissent yields directed minority terms of length <= m-2
    cert = chain_level([sum4], "directed-minority")
    assert cert.found and cert.level <= 2
    # the doubled-lead scheme: found alongside an m-ary near-unanimity term,
    # refused one family up
    assert absorption_search([make_ujm_reduct(2, 2, 3)], nu_half_scheme(3)).found
    assert absorption_search([make_ujm_reduct(2, 2, 4)], nu_half_scheme(4)).found
    assert not absorption_search([make_ujm_reduct(2, 2, 4)], nu_half_scheme(3)).found
    assert not absorption_search(nu_family_generators(5), nu_half_scheme(4)).found
    _line(8, "dissent toolkit, directed chains, doubled-lead boundary (budget 1min)", t0)


def test_criterion_9_property_suites(tmp_path):
    t0 = time.time()
    notes = [
        ps.suite_odd_equivalence(trials=500),
        ps.suite_order_statistic(),
        ps.suite_filtered_closure(instances=200),
        ps.suite_certificate_recheck(tmp_path),
    ]
    _line(9, "; ".join(notes), t0)
