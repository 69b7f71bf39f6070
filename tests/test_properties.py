import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import image_oracle
import property_suites as ps
from finalg import freealg
from finalg.algebras import AlgebraError, FiniteAlgebra, TableOp
from finalg.congruences import Partition
from finalg.identities import FAMILIES, check_identity, family_exprs
from finalg.kernel import _prepare_tables
from finalg.witnesses import HypothesisError, filtered_subproduct
from relation_oracle import expr_matrix, matrix_context


def test_odd_equivalence_500_trials():
    print(ps.suite_odd_equivalence(trials=500))


def test_order_statistic_vs_subset_oracle():
    print(ps.suite_order_statistic())


def test_filtered_closure_200_instances():
    print(ps.suite_filtered_closure(instances=200))


def test_certificates_recheck(tmp_path):
    print(ps.suite_certificate_recheck(tmp_path))


def test_filtered_hypotheses_individually_falsifiable():
    """Flipping one hypothesis of a passing instance raises its named error."""
    import random

    rng = random.Random(7)
    algs, h, k, a, d, f = ps.random_filtered_instance(rng)
    filtered_subproduct(algs[0], algs[1], algs[2], algs[3], 0, 0, 0, h, k, a, d, f)

    import numpy as np
    from finalg.algebras import FiniteAlgebra, TableOp

    def with_table(i, table):
        out = list(algs)
        out[i] = FiniteAlgebra(algs[i].size, [TableOp("u", algs[i].ops[0].arity,
                                                      algs[i].size, table)])
        return out

    def break_absorbing(alg, kk):
        table = alg.ops[0].table.copy()
        m = alg.ops[0].arity
        for idx in range(len(table)):
            digits = np.base_repr(idx, alg.size).zfill(m)
            if digits.count("0") >= kk and table[idx] == 0:
                table[idx] = 1
                return table
        raise RuntimeError

    mutated = with_table(0, break_absorbing(algs[0], h))
    with pytest.raises(HypothesisError, match="absorb-1"):
        filtered_subproduct(mutated[0], mutated[1], mutated[2], mutated[3],
                            0, 0, 0, h, k, a, d, f)
    mutated = with_table(3, break_absorbing(algs[3], 2))
    with pytest.raises(HypothesisError, match="absorb-4"):
        filtered_subproduct(mutated[0], mutated[1], mutated[2], mutated[3],
                            0, 0, 0, h, k, a, d, f)
    with pytest.raises(HypothesisError, match="h-bounds"):
        filtered_subproduct(algs[0], algs[1], algs[2], algs[3],
                            0, 0, 0, k + 1, k, a, d, f)


@st.composite
def table_of(draw, size, arity, symmetric):
    """A flat table; a symmetric one reads each tuple at its sorted tuple."""
    table = draw(st.lists(st.integers(0, size - 1), min_size=size**arity,
                          max_size=size**arity))
    if symmetric:
        tuples = list(itertools.product(range(size), repeat=arity))
        at = {t: i for i, t in enumerate(tuples)}
        table = [table[at[tuple(sorted(t))]] for t in tuples]
    return table


@st.composite
def walk_instances(draw):
    """One or two similar algebras of 2-3 elements with 1-2 operations of
    arity 2-4, coordinates over them, and rows: random, a subuniverse, or a
    subuniverse less one row."""
    shapes = draw(st.lists(st.tuples(st.integers(2, 4), st.booleans()), min_size=1, max_size=2))
    gens = [FiniteAlgebra(size, [TableOp(f"o{oi}", r, size, draw(table_of(size, r, sym)))
                                 for oi, (r, sym) in enumerate(shapes)])
            for size in draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))]
    coord_algs = draw(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=3))
    count = draw(st.integers(1, 4))
    rows = [[draw(st.integers(0, gens[ai].size - 1)) for ai in coord_algs] for _ in range(count)]
    kind = draw(st.sampled_from(["random", "closed", "short"]))
    if kind != "random":
        rows = image_oracle.closed(gens, coord_algs, rows)
        if kind == "short":
            del rows[draw(st.integers(0, len(rows) - 1))]
    return gens, coord_algs, np.asarray(rows, dtype=np.int16).reshape(-1, len(coord_algs)), kind


@settings(deadline=None, max_examples=60)
@given(walk_instances())
def test_walk_predicts_the_new_rows_of_every_tuple(instance):
    """The closure's round prediction: the walk's values less the rows are
    the values of every r-tuple of rows, by table lookup, less the rows;
    none for a subuniverse."""
    gens, coord_algs, rows, kind = instance
    tables = _prepare_tables(gens)
    values = freealg._image_rows(tables, gens, coord_algs, rows, budget=1 << 40)
    predicted = set(map(tuple, values.tolist())) - set(map(tuple, rows.tolist()))
    assert predicted == image_oracle.new_rows(gens, coord_algs, rows)
    if kind == "closed":
        assert not predicted


@st.composite
def pair_instances(draw):
    """A triple on at most 12 elements whose alpha has several blocks, a
    source a, and (m, q, j) for the catalogue."""
    n = draw(st.integers(2, 12))
    alpha = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
        lambda ids: len(set(ids)) > 1))
    beta, gamma = (draw(st.lists(st.integers(0, n // 2), min_size=n, max_size=n))
                   for _ in "bg")
    m = draw(st.integers(3, 6))
    q = draw(st.integers(2, 5))
    j = draw(st.integers(2, (m + 1) // 2))
    return Partition(alpha), Partition(beta), Partition(gamma), draw(st.integers(0, n - 1)), (m, q, j)


@settings(deadline=None, max_examples=80)
@given(pair_instances())
def test_pair_mode_answers_match_the_oracle(instance):
    """Pair mode at (a, d) for every d, inside a's alpha block and outside
    it, against the oracle matrices, for every catalogue family that takes
    (m, q, j); the verdict fails exactly when (a, d) is in the left side and
    not in the right."""
    alpha, beta, gamma, a, (m, q, j) = instance
    rels = matrix_context(alpha, beta, gamma)
    for family in FAMILIES:
        params = {"m": m, "q": q, "j": j, "n": 2 * m - 4}
        try:
            lhs, rhs = family_exprs(family, **params)
        except AlgebraError:
            continue
        left, right = expr_matrix(lhs, rels)[a], expr_matrix(rhs, rels)[a]
        for d in range(alpha.size):
            inst = check_identity(family, alpha, beta, gamma, **params, pair=(a, d))
            got = ((True, False) if inst.verdict == "fails"
                   else (inst.stats["in_lhs"], inst.stats["in_rhs"]))
            assert got == (left[d], right[d]), (family, params, a, d)
            assert (inst.verdict == "fails") == (left[d] and not right[d])
