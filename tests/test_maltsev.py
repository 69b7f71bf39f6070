import itertools

import numpy as np
import pytest

from finalg.algebras import AlgebraError, CapExceeded, make_ujm_reduct
from finalg.freealg import build_free_algebra
from finalg.maltsev import (
    absorption_search,
    chain_level,
    compose_dissent,
    coprime_dissent_pipeline,
    dissent_mixed_composition,
    dissent_self_composition,
    lone_dissent_scheme,
    maltsev_from_dissent,
    maltsev_scheme,
    nu_from_consecutive_dissent,
    nu_half_scheme,
    nu_scheme,
    dissent_unanimity_scheme,
    _op_term,
)
from finalg.terms import App, Var, verify_equations
from finalg.witnesses import (
    dissent_pair_fixture,
    implication_expansion,
    modular_sum_algebra,
    nu_family_generators,
)

import equation_oracle as oracle
from equation_oracle import lone_dissent_equations, maltsev_equations, nu_equations, term_arity


N23 = make_ujm_reduct(2, 2, 3)
N24 = make_ujm_reduct(2, 2, 4)


# ---------------------------------------------------------------------------
# chain levels


def test_jonsson_levels():
    assert chain_level([N23], "jonsson").level == 2
    assert chain_level([N24], "jonsson").level == 4


def test_alvin_levels():
    assert chain_level([N23], "alvin").level == 3
    assert chain_level([N24], "alvin").level == 5


def test_day_levels():
    assert chain_level([N23], "day").level == 3


def test_trivial_variety_level_zero():
    from finalg.algebras import one_element_algebra

    cert = chain_level([one_element_algebra(3)], "jonsson")
    assert cert.found and cert.level == 0


def test_level_certificate_chain_reverifies():
    cert = chain_level([N24], "jonsson")
    assert cert.found and cert.verified
    assert len(cert.terms) == cert.level + 1


def test_directed_jonsson():
    assert chain_level([N23], "directed-jonsson").level == 1
    assert chain_level([N24], "directed-jonsson").level == 2


def test_directed_minority_on_sums():
    assert chain_level([modular_sum_algebra(2, 3)], "directed-minority").level == 1
    cert = chain_level([modular_sum_algebra(3, 4)], "directed-minority")
    assert cert.found and cert.level <= 2  # an m-ary lone dissent gives m - 2


def test_hagemann_mitschke_level():
    assert chain_level([implication_expansion(4)], "hagemann-mitschke").level == 3
    # lattice reducts are not congruence permutable at any level
    cert = chain_level([N23], "hagemann-mitschke")
    assert not cert.found


def test_unknown_scheme():
    with pytest.raises(AlgebraError):
        chain_level([N23], "no-such-scheme")


def test_level_with_prebuilt_free_algebra():
    free = build_free_algebra([N24], 3)
    assert chain_level([N24], "jonsson", free=free).level == 4
    assert chain_level([N24], "alvin", free=free).level == 5


@pytest.mark.parametrize("scheme, level", [("jonsson", 4), ("alvin", 5),
                                           ("directed-jonsson", 2)])
def test_level_cap_refuses_below_the_level(scheme, level):
    # the cap counts levels, also for the directed chains, which start at t_1
    with pytest.raises(CapExceeded, match=f"^chain search exceeded {level - 1} levels$"):
        chain_level([N24], scheme, max_level=level - 1)
    assert chain_level([N24], scheme, max_level=level).level == level


# ---------------------------------------------------------------------------
# absorption searches


def test_nu_search_finds_basic_op():
    cert = absorption_search([N23], nu_scheme(3))
    assert cert.found and cert.verified
    ok, _ = verify_equations(nu_equations(cert.term, 3), [N23], 2)
    assert ok


def test_nu_search_boundary():
    assert not absorption_search([N24], nu_scheme(3)).found
    assert absorption_search([N24], nu_scheme(4)).found
    five = nu_family_generators(5)
    assert not absorption_search(five, nu_scheme(4)).found
    assert absorption_search(five, nu_scheme(5)).found


def test_nu_search_refusals_are_complete():
    cert = absorption_search([N24], nu_scheme(3))
    assert not cert.found and cert.complete


def test_lone_dissent_search():
    assert absorption_search([modular_sum_algebra(2, 3)], lone_dissent_scheme(3)).found
    assert absorption_search([modular_sum_algebra(3, 4)], lone_dissent_scheme(4)).found
    assert not absorption_search([modular_sum_algebra(3, 4)], lone_dissent_scheme(3)).found
    assert not absorption_search([N23], lone_dissent_scheme(3)).found


def test_maltsev_search():
    assert absorption_search([modular_sum_algebra(2, 3)], maltsev_scheme()).found
    assert not absorption_search([N23], maltsev_scheme()).found


def test_half_scheme_found_with_matching_nu():
    for m in (3, 4):
        alg = make_ujm_reduct(2, 2, m)
        cert = absorption_search([alg], nu_half_scheme(m))
        assert cert.found and cert.verified


def test_half_scheme_refused_one_step_up():
    assert not absorption_search([N24], nu_half_scheme(3)).found


def test_dissent_unanimity_smallest():
    cert = absorption_search([modular_sum_algebra(2, 3)], dissent_unanimity_scheme(3))
    assert cert.complete  # decided either way on the smallest fixture
    ld = dissent_pair_fixture()
    cert2 = absorption_search([ld], dissent_unanimity_scheme(3))
    assert cert2.complete


# ---------------------------------------------------------------------------
# lone-dissent toolkit


def test_self_composition_arities():
    sum4 = modular_sum_algebra(3, 4)
    term, arity = dissent_self_composition(sum4, 0, 2)
    assert arity == 7 and term_arity(term) == 7
    term, arity = dissent_self_composition(sum4, 0, 3)
    assert arity == 10
    ok, _ = verify_equations(lone_dissent_equations(term, 10), [sum4], 2)
    assert ok


def test_mixed_composition():
    ld = dissent_pair_fixture()
    term, arity = dissent_mixed_composition(ld, 0, 1)
    assert arity == 6
    ok, _ = verify_equations(lone_dissent_equations(term, 6), [ld], 2)
    assert ok


def test_maltsev_from_dissent():
    xor3 = modular_sum_algebra(2, 3)
    term = maltsev_from_dissent(xor3, 0)
    ok, _ = verify_equations(maltsev_equations(term), [xor3], 2)
    assert ok
    sum4 = modular_sum_algebra(3, 4)
    term = maltsev_from_dissent(sum4, 0)
    ok, _ = verify_equations(maltsev_equations(term), [sum4], 2)
    assert ok


def test_toolkit_rejects_non_dissent_input():
    with pytest.raises(AlgebraError, match="not a lone-dissent"):
        maltsev_from_dissent(N23, 0)
    with pytest.raises(AlgebraError, match="not a lone-dissent"):
        dissent_self_composition(N24, 0, 2)


def test_consecutive_composite_is_nu():
    ld = dissent_pair_fixture()
    d3, d4 = _op_term(ld, 0), _op_term(ld, 1)
    term = nu_from_consecutive_dissent(ld, d3, 3, d4, 4)
    ok, _ = verify_equations(nu_equations(term, 4), [ld], 2)
    assert ok
    with pytest.raises(AlgebraError):
        nu_from_consecutive_dissent(ld, d3, 3, d3, 3)


def test_coprime_pipeline():
    ld = dissent_pair_fixture()
    out = coprime_dissent_pipeline(ld, 0, 1)
    assert out["nu_arity"] == 4  # steps 2 and 3 are already consecutive
    assert out["majority"].found and out["majority"].verified
    ok, _ = verify_equations(maltsev_equations(out["maltsev_term"]), [ld], 2)
    assert ok
    ok, _ = verify_equations(nu_equations(out["nu_term"], out["nu_arity"]), [ld], 2)
    assert ok


# ---------------------------------------------------------------------------
# cross-laws


def test_nu_implies_chain_bound():
    # an m-ary near-unanimity term bounds the jonsson level by 2m - 4
    cases = [
        ([N23], 3),
        ([N24], 4),
        (nu_family_generators(5), 5),
        ([implication_expansion(4)], 4),
        ([implication_expansion(5)], 5),
        ([implication_expansion(4, "f")], 4),
    ]
    for gens, m in cases:
        assert absorption_search(gens, nu_scheme(m)).found
        level = chain_level(gens, "jonsson").level
        assert level is not None and level <= 2 * m - 4, (m, level)


def test_nu_implies_directed_bound():
    for m in (3, 4):
        gens = [make_ujm_reduct(2, 2, m)]
        cert = chain_level(gens, "directed-jonsson")
        assert cert.found and cert.level <= m - 2


def test_level_monotone_under_added_generators():
    # joins only grow the free algebra, so levels never decrease
    pairs = [
        ([make_ujm_reduct(2, 2, 5)], nu_family_generators(5), "jonsson"),
        ([make_ujm_reduct(2, 2, 5)], nu_family_generators(5), "alvin"),
        ([make_ujm_reduct(2, 2, 6)], [make_ujm_reduct(2, 2, 6), make_ujm_reduct(2, 3, 6)],
         "jonsson"),
        ([make_ujm_reduct(2, 3, 5)], nu_family_generators(5), "directed-jonsson"),
    ]
    for small, large, scheme in pairs:
        a = chain_level(small, scheme).level
        b = chain_level(large, scheme).level
        assert a is not None and b is not None and a <= b, (scheme, a, b)


def _brute_force_chains(gens, free, scheme, length):
    """Every chain of `length` elements that meets the scheme, in lex order,
    read off the element vectors valuation by valuation."""
    index = {key: k for k, key in enumerate(free.assignments)}
    vals = [(ai, val) for ai, alg in enumerate(gens)
            for val in itertools.product(range(alg.size), repeat=scheme.arity)]

    def image(args):  # the vectors' entries at the coordinates t(args) reads
        return free.vectors[:, [index[(ai, tuple(val[v] for v in args))] for ai, val in vals]]

    def holds(value):
        args, result = value
        return (image(args) == [val[result] for _, val in vals]).all(axis=1)

    eligible = holds(scheme.every) if scheme.every else np.ones(free.size, dtype=bool)
    pool = [int(e) for e in np.flatnonzero(eligible)]
    starts = [int(e) for e in np.flatnonzero(eligible & holds(scheme.first))]
    ends = eligible & holds(scheme.last)
    links = [(image(left), image(right)) for left, right in scheme.links]
    found = []
    stack = [[s] for s in reversed(starts)]
    while stack:
        chain = stack.pop()
        if len(chain) == length:
            if ends[chain[-1]]:
                found.append(chain)
            continue
        left, right = links[(len(chain) - 1) % 2]
        for e in reversed(pool):
            if (left[chain[-1]] == right[e]).all():
                stack.append(chain + [e])
    return found


def test_chain_is_lex_least_among_minimal():
    # brute-force every chain up to the found length and compare
    from finalg.maltsev import CHAIN_SCHEMES

    for gens, scheme_name in [
        ([N23], "jonsson"),
        ([N23], "alvin"),
        ([N23], "day"),
        ([N24], "jonsson"),
        ([implication_expansion(4)], "hagemann-mitschke"),
        ([N23], "directed-jonsson"),
        ([N24], "directed-jonsson"),
        ([modular_sum_algebra(3, 4)], "directed-minority"),
    ]:
        scheme = CHAIN_SCHEMES[scheme_name]
        free = build_free_algebra(gens, scheme.arity)
        cert = chain_level(gens, scheme_name)
        assert cert.found
        length = cert.level + 1 - scheme.first_index
        for shorter in range(1, length):
            assert _brute_force_chains(gens, free, scheme, shorter) == [], (scheme_name, shorter)
        chains = _brute_force_chains(gens, free, scheme, length)
        assert chains and cert.chain == min(chains), (scheme_name, cert.chain, chains[:1])


# the hand-written equations of each chain scheme and their variable counts
_CHAIN_ORACLE = {
    "jonsson": (oracle.jonsson_chain_equations, 3),
    "alvin": (oracle.alvin_chain_equations, 3),
    "day": (oracle.day_chain_equations, 4),
    "hagemann-mitschke": (oracle.hagemann_mitschke_chain_equations, 3),
    "directed-jonsson": (oracle.directed_jonsson_chain_equations, 3),
    "directed-minority": (oracle.directed_minority_chain_equations, 2),
}


def test_scheme_equations_match_the_oracle():
    from finalg.maltsev import CHAIN_SCHEMES

    assert CHAIN_SCHEMES.keys() == _CHAIN_ORACLE.keys()
    for name, scheme in CHAIN_SCHEMES.items():
        builder, nvars = _CHAIN_ORACLE[name]
        for length in range(1, 7):
            # a different symbol per term, so a term in the wrong place shows
            terms = [App(i, tuple(Var(v) for v in range(scheme.arity))) for i in range(length)]
            assert scheme.equations(terms) == (builder(terms), nvars), (name, length)

    def op(arity):
        return App(0, tuple(Var(v) for v in range(arity)))

    cases = [(nu_scheme(a), oracle.nu_equations(op(a), a), 2) for a in (3, 4, 5, 6)]
    cases += [(lone_dissent_scheme(a), oracle.lone_dissent_equations(op(a), a), 2)
              for a in (3, 4, 7)]
    cases += [(nu_half_scheme(m), oracle.half_nu_equations(op(m + 2), m), 2) for m in (3, 4, 5)]
    cases += [(dissent_unanimity_scheme(m), oracle.dissent_unanimity_equations(op(2 * m), m), 3)
              for m in (3, 4)]
    cases += [(maltsev_scheme(), oracle.maltsev_equations(op(3)), 2)]
    for scheme, equations, nvars in cases:
        assert scheme.equations(op(scheme.arity)) == (equations, nvars), scheme
