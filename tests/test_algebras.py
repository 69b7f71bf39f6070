import itertools

import numpy as np
import pytest

from finalg import algebras
from finalg.algebras import (
    AlgebraError,
    BoxUnion,
    DEFAULT_TABLE_CAP,
    STORED_TABLE_CAP,
    CapExceeded,
    FactorIndexing,
    FiniteAlgebra,
    TableOp,
    _op_symmetrical,
    direct_product,
    is_k_absorbing,
    is_k_majority,
    is_near_unanimity,
    is_subuniverse,
    make_chain_lattice,
    make_ujm_reduct,
    one_element_algebra,
    order_statistic_table,
)
from finalg.witnesses import modular_sum_algebra

from conftest import product_subpower, subset_formula_table
from scalar_oracle import apply, term_value
import predicate_oracle
import scalar_oracle
import slice_route_oracle


def test_apply_op_values():
    n23 = make_ujm_reduct(2, 2, 3)
    assert apply(n23.ops[0], (0, 1, 1)) == 1
    n24c3 = make_ujm_reduct(3, 2, 4)
    assert apply(n24c3.ops[0], (0, 0, 2, 2)) == 0
    # idempotence on a constant tuple
    for x in range(3):
        assert apply(n24c3.ops[0], (x,) * 4) == x


def test_chain_lattice():
    c3 = make_chain_lattice(3)
    assert apply(c3.ops[0], (1, 2)) == 2  # join
    assert apply(c3.ops[1], (1, 2)) == 1  # meet
    c2 = make_chain_lattice(2)
    assert c2.size == 2 and c2.signature() == (2, 2)
    c4 = make_chain_lattice(4)
    for x, y in itertools.product(range(4), repeat=2):
        assert apply(c4.ops[0], (x, y)) == max(x, y) and apply(c4.ops[1], (x, y)) == min(x, y)
    with pytest.raises(AlgebraError):
        make_chain_lattice(1)


def test_table_validation():
    with pytest.raises(AlgebraError):
        TableOp("bad", 2, 2, [0, 1, 0])  # wrong length
    with pytest.raises(AlgebraError):
        TableOp("bad", 2, 2, [0, 1, 0, 5])  # out of range
    with pytest.raises(AlgebraError):
        TableOp("bad", 0, 2, [])  # constants are out of the data model


def test_table_is_stored_narrow_after_its_range_check():
    assert TableOp("t", 2, 2, [0, 1, 1, 0]).table.dtype == np.uint8
    # an entry that would wrap into range in uint8 is refused, list or array
    for bad in ([0, 1, 1, -1], [0, 1, 1, 256], np.array([0, 1, 1, 256]), np.array([0, 1, 1, -1])):
        with pytest.raises(AlgebraError, match="out-of-range"):
            TableOp("bad", 2, 2, bad)
    wide = TableOp("w", 1, 257, range(256, -1, -1))
    assert wide.table.dtype == np.uint16
    assert apply(wide, [0]) == 256 and wide.table_array()[0] == 256


@pytest.mark.parametrize("chain_size,j,m", [(2, 2, 3), (2, 2, 4), (3, 2, 3), (3, 2, 5), (4, 3, 5)])
def test_ujm_is_order_statistic(chain_size, j, m):
    alg = make_ujm_reduct(chain_size, j, m)
    assert np.array_equal(alg.ops[0].table, subset_formula_table(chain_size, j, m))


def _sorted_digit_table(chain_size, j, m):
    """The order-statistic table built from sorted int64 digit columns."""
    idx = np.arange(chain_size**m, dtype=np.int64)
    cols = np.empty((chain_size**m, m), dtype=np.int64)
    for pos in range(m - 1, -1, -1):
        cols[:, pos] = idx % chain_size
        idx //= chain_size
    cols.sort(axis=1)
    return cols[:, j - 1]


def test_order_statistic_table_matches_sorted_digits():
    for chain_size in (2, 3, 4, 5):
        for m in range(3, 8 if chain_size < 4 else 6):
            for j in range(1, m + 1):
                table = order_statistic_table(chain_size, j, m)
                assert table.dtype == np.uint8 and not table.flags.writeable
                assert np.array_equal(table, _sorted_digit_table(chain_size, j, m))


def test_oversized_tables_are_refused_before_allocation(monkeypatch):
    def allocate(*args, **kwargs):
        raise MemoryError("allocated")

    monkeypatch.setattr(np, "zeros", allocate)
    with pytest.raises(CapExceeded, match=rf"table of N\(2,30\)@3 would need 205891132094649 "
                                          f"entries, past the stored-table cap {STORED_TABLE_CAP}"):
        order_statistic_table(3, 2, 30)
    with pytest.raises(MemoryError):  # 4^12 entries, the 12-ary reducts on four elements
        order_statistic_table(4, 2, 12)
    monkeypatch.setattr(np, "arange", allocate)
    with pytest.raises(CapExceeded, match="table of C5000 would need 25000000 entries"):
        make_chain_lattice(5000)
    with pytest.raises(CapExceeded, match="table of sum:2:30 would need 1073741824 entries"):
        modular_sum_algebra(2, 30)


def test_ujm_majority_reduct_is_median():
    table = make_ujm_reduct(2, 2, 3).ops[0].table
    for a, b, c in itertools.product(range(2), repeat=3):
        want = 1 if a + b + c >= 2 else 0
        assert table[(a * 2 + b) * 2 + c] == want


def test_ujm_parameter_errors():
    with pytest.raises(AlgebraError):
        make_ujm_reduct(2, 0, 3)
    with pytest.raises(AlgebraError):
        make_ujm_reduct(2, 4, 3)
    with pytest.raises(AlgebraError):
        make_ujm_reduct(1, 2, 3)


def test_factor_indexing_roundtrip():
    idx = FactorIndexing((3, 2, 4))
    for coords in itertools.product(range(3), range(2), range(4)):
        assert idx.decode(idx.encode(coords)) == coords
    dec = idx.digits(np.arange(idx.size))
    assert dec.shape == (24, 3)
    assert [tuple(row) for row in dec.tolist()] == [idx.decode(i) for i in range(idx.size)]
    with pytest.raises(AlgebraError):
        idx.encode((3, 0, 0))


def test_digits_refuse_ids_outside_the_product():
    # -1 and 6 used to wrap to the digits of 5 and of 0
    idx = FactorIndexing((2, 3))
    for ids in ([-1, 6], [6], [-1]):
        with pytest.raises(AlgebraError, match="out of range"):
            idx.digits(ids)
    assert idx.digits([0, 5]).tolist() == [[0, 0], [1, 2]]


def test_direct_product_identity_and_projection():
    n23 = make_ujm_reduct(2, 2, 3)
    single = direct_product([n23])
    assert single.size == n23.size
    assert np.array_equal(single.ops[0].table_array(), n23.ops[0].table)
    # the lazy operation's values project onto the factor tables exactly
    prod = direct_product([n23, make_ujm_reduct(3, 2, 3)])
    dec = prod.indexing.digits(np.arange(prod.size))
    cols = np.asarray(list(itertools.product(range(prod.size), repeat=3))).T
    for args, out in zip(cols.T.tolist(), prod.ops[0].apply_cols(cols).tolist()):
        for c in range(2):
            factor = prod.factors[c]
            assert dec[out][c] == apply(factor.ops[0], [dec[a][c] for a in args])


def test_direct_product_dissimilar():
    with pytest.raises(AlgebraError):
        direct_product([make_ujm_reduct(2, 2, 3), make_ujm_reduct(2, 2, 4)])
    with pytest.raises(CapExceeded):
        direct_product([make_chain_lattice(3)] * 20, cap=1000)


def test_subalgebra_closure_basics():
    # generated by generate_subpower over the cube's factors
    n23 = make_ujm_reduct(2, 2, 3)
    cube = direct_product([n23] * 3)
    assert sorted(product_subpower(cube, range(cube.size))[1]) == list(range(cube.size))
    # the three one-zero tuples generate the top under the majority, and each
    # element's provenance term evaluates to it
    gens = [0b011, 0b101, 0b110]
    sub, closed = product_subpower(cube, gens)
    assert sorted(closed) == gens + [0b111]
    for element, term in zip(closed, sub.terms):
        assert term_value(term, cube, gens) == element


def test_subalgebra_closure_cube_minus_top_is_closed():
    m = 4
    power = direct_product([make_ujm_reduct(2, 2, m)] * (m - 1))
    subset = list(range(power.size - 1))
    assert sorted(product_subpower(power, subset)[1]) == subset


def test_is_subuniverse_empty_and_full():
    n23 = make_ujm_reduct(2, 2, 3)
    assert is_subuniverse(n23, [])[0] is True
    assert is_subuniverse(n23, [0, 1])[0] is True


def test_is_subuniverse_witness():
    cube = direct_product([make_ujm_reduct(2, 2, 3)] * 3)
    ok, witness = is_subuniverse(cube, range(7))
    assert not ok
    oi, args, result = witness
    assert result == 7 and apply(cube.ops[oi], args) == 7
    assert all(a < 7 for a in args)


def test_absorbing_basics():
    for m in (3, 4, 5):
        for j in (2, 3):
            if j > m:
                continue
            alg = make_ujm_reduct(3, j, m)
            assert is_k_absorbing(alg, 0, 0, j)  # the minimum absorbs at j
            if j > 1:
                assert not is_k_absorbing(alg, 0, 0, j - 1)
    # 0 is not 1-absorbing for the 5-ary two-subset operation
    assert not is_k_absorbing(make_ujm_reduct(2, 2, 5), 0, 0, 1)
    # k = arity with an idempotent operation: only the constant tuple
    assert is_k_absorbing(make_ujm_reduct(2, 2, 3), 0, 1, 3)


def test_majority_levels():
    # p-majority exactly at p = max(j, m - j + 1)
    for m in (3, 4, 5, 6):
        for j in range(2, (m + 1) // 2 + 1):
            alg = make_ujm_reduct(2, j, m)
            p = max(j, m - j + 1)
            assert is_k_majority(alg, 0, p)
            assert not is_k_majority(alg, 0, p - 1)
            assert is_near_unanimity(alg, 0)
    assert is_k_majority(one_element_algebra(4), 0, 1)


def _random_predicate_op(rng, size, arity):
    """A random table, or one forced to absorb one value from some count on,
    or to return any value held by more than half of the arguments, so that
    both verdicts of each predicate occur."""
    mode = rng.choice(["random", "absorbing", "majority"])
    zero, k = rng.randrange(size), rng.randint(1, arity)
    if mode == "majority":
        k = rng.randint(arity // 2 + 1, arity)
    entries = []
    for args in itertools.product(range(size), repeat=arity):
        counts = [args.count(v) for v in range(size)]
        if mode == "absorbing" and counts[zero] >= k:
            entries.append(zero)
        elif mode == "majority" and max(counts) >= k:
            entries.append(counts.index(max(counts)))
        else:
            entries.append(rng.randrange(size))
    return TableOp("r", arity, size, entries)


def _assert_predicates_match_the_oracle(alg):
    op = alg.ops[0]
    verdicts = set()
    for k in range(1, op.arity + 1):
        for zero in range(alg.size):
            want = predicate_oracle.k_absorbing(op, zero, k)
            assert is_k_absorbing(alg, 0, zero, k) == want, (op.table_array(), zero, k)
            verdicts.add(("absorbing", want))
        want = predicate_oracle.k_majority(op, k)
        assert is_k_majority(alg, 0, k) == want, (op.table_array(), k)
        verdicts.add(("majority", want))
    want = predicate_oracle.near_unanimity(op)
    assert is_near_unanimity(alg, 0) == want
    verdicts.add(("near-unanimity", want))
    return verdicts


def test_predicates_match_the_brute_force_oracle():
    import random

    rng = random.Random(20261018)
    verdicts = set()
    for size in range(1, 5):
        for arity in range(1, 6):
            for _ in range(3):
                op = _random_predicate_op(rng, size, arity)
                verdicts |= _assert_predicates_match_the_oracle(FiniteAlgebra(size, [op]))
    assert verdicts == {(p, v) for p in ("absorbing", "majority", "near-unanimity")
                        for v in (True, False)}


def test_count_grid_holds_counts_past_255_arguments():
    assert algebras._count_grid(np.ones(1, dtype=bool), 300).tolist() == [300]
    assert algebras._count_grid(np.array([True, False]), 3).tolist() == [3, 2, 2, 1, 2, 1, 1, 0]
    triv = one_element_algebra(300)
    assert is_k_absorbing(triv, 0, 0, 300) and is_k_majority(triv, 0, 1)


def test_predicates_on_a_product_with_a_factor_that_does_not_absorb():
    good = make_ujm_reduct(3, 2, 4)                     # 0 is 2-absorbing
    top = FiniteAlgebra(2, [TableOp("u", 4, 2, [int(any(args)) for args in
                                                itertools.product(range(2), repeat=4)])])
    prod = direct_product([good, top])                  # max: 0 absorbs only at 4
    zero = prod.indexing.encode((0, 0))
    assert is_k_absorbing(good, 0, 0, 2) and not is_k_absorbing(prod, 0, zero, 2)
    assert is_k_absorbing(prod, 0, zero, 4)
    _assert_predicates_match_the_oracle(prod)


def test_majority_monotone_in_k():
    alg = make_ujm_reduct(2, 3, 6)
    rising = [is_k_majority(alg, 0, k) for k in range(1, 7)]
    assert rising == sorted(rising)  # once true, stays true


def test_majority_on_lazy_product():
    prod = direct_product([make_ujm_reduct(2, 2, 4), make_ujm_reduct(3, 2, 4)])
    assert is_k_majority(prod, 0, 3)
    assert not is_k_majority(prod, 0, 2)
    zero = prod.indexing.encode((0, 0))
    assert is_k_absorbing(prod, 0, zero, 2)


def test_symmetry_generator_pair_vs_all_permutations():
    cases = [
        make_ujm_reduct(2, 2, 4).ops[0],
        make_ujm_reduct(2, 2, 5).ops[0],
        make_ujm_reduct(3, 2, 3).ops[0],
        TableOp("i", 2, 2, [0, 0, 1, 0]),
        TableOp("f", 3, 2, [0, 0, 0, 0, 1, 1, 0, 1]),
        make_chain_lattice(3).ops[0],
        # invariant under the transposition only, and under the cycle only
        TableOp("t", 3, 3, [max(x, y) if z else min(x, y)
                            for x, y, z in itertools.product(range(3), repeat=3)]),
        TableOp("c", 3, 3, [(x * y * y + y * z * z + z * x * x) % 3
                            for x, y, z in itertools.product(range(3), repeat=3)]),
    ]
    for op in cases:
        assert _op_symmetrical(op) == _symmetric_all_permutations(op)


def _symmetric_all_permutations(op):
    for args in itertools.product(range(op.size), repeat=op.arity):
        base = apply(op, args)
        for perm in itertools.permutations(range(op.arity)):
            if apply(op, [args[p] for p in perm]) != base:
                return False
    return True


def test_unary_op_symmetrical():
    assert _op_symmetrical(TableOp("u", 1, 3, [2, 0, 1]))


def test_stored_table_over_the_table_cap_is_checked_not_refused():
    size = 2049                                        # 2049**2 entries: over the cap
    assert size**2 > DEFAULT_TABLE_CAP
    grid = np.add.outer(np.arange(size), np.arange(size)) % size
    assert _op_symmetrical(TableOp("s", 2, size, grid.ravel()))
    grid[0, 1] = 0
    assert not _op_symmetrical(TableOp("a", 2, size, grid.ravel()))


def _random_symmetric_absorbing_factor(rng, size, arity, k):
    """Random symmetric table where 0 is k-absorbing: values depend only on
    the argument multiset, forced to 0 at k zeros."""
    values = {}
    entries = []
    for args in itertools.product(range(size), repeat=arity):
        key = tuple(sorted(args))
        if key not in values:
            if key.count(0) >= k:
                values[key] = 0
            else:
                values[key] = rng.randrange(size)
        entries.append(values[key])
    return FiniteAlgebra(size, [TableOp("r", arity, size, entries)])


def test_absorbing_slice_reduction_vs_direct_enumeration():
    # an absorbing slice plus a few elements off it, as one slice box and one
    # point box per extra element, decided on the boxes; direct enumeration
    # must agree, and so must the slice-route oracle, under a cap that forces
    # its reduction, where it applies
    import random

    rng = random.Random(20240817)
    refused = agreements = 0
    for trial in range(40):
        arity = rng.choice([3, 4])
        nfac = rng.choice([2, 3])
        k = 2
        factors = [
            _random_symmetric_absorbing_factor(rng, rng.choice([2, 3]), arity, k)
            for _ in range(nfac)
        ]
        prod = direct_product(factors)
        dec = prod.indexing.digits(np.arange(prod.size))
        cstar = nfac - 1
        slice_ids = [e for e in range(prod.size) if dec[e][cstar] == 0]
        others = [e for e in range(prod.size) if dec[e][cstar] != 0]
        rng.shuffle(others)
        extra = others[: rng.randrange(0, min(6, len(others)) + 1)]
        subset = slice_ids + extra
        sizes = prod.indexing.sizes
        slice_box = [(0,) if c == cstar else range(s) for c, s in enumerate(sizes)]
        union = BoxUnion(sizes, [slice_box] + [[(v,) for v in dec[e]] for e in extra])
        assert union.ids().tolist() == sorted(subset)
        direct = scalar_oracle.closed(prod, subset)
        boxed = is_subuniverse(prod, union)
        assert direct == boxed[0], (trial, subset)
        if not boxed[0]:
            oi, args, result = boxed[1]
            assert apply(prod.ops[oi], args) == result
            assert result not in set(subset) and set(args) <= set(subset)
            refused += 1
        try:
            assert slice_route_oracle.closed(prod, subset, tuple_cap=10) == direct, trial
            agreements += 1
        except CapExceeded:
            pass  # the reduction's preconditions may fail on random tables
    assert 0 < refused < 40 and agreements >= 20
