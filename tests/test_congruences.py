import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finalg.algebras import (
    AlgebraError,
    CapExceeded,
    FiniteAlgebra,
    TableOp,
    direct_product,
    make_chain_lattice,
    make_ujm_reduct,
)
from finalg.congruences import Partition, induced_product_congruence, partition_meet
from finalg.witnesses import staircase_partitions

from scalar_oracle import _canonical, apply, is_congruence


def test_partition_canonical():
    p = Partition((5, 5, 2, 2, 5))
    assert p.as_array().tolist() == [0, 0, 1, 1, 0]
    q = Partition.from_blocks(5, [[2, 3], [0, 1, 4]])
    assert p == q
    assert p.n_blocks == 2 and p.size == 5


def test_partition_bounds():
    assert Partition.zero(4).n_blocks == 4
    assert Partition.one(4).n_blocks == 1


def test_partition_from_blocks_validation():
    with pytest.raises(AlgebraError):
        Partition.from_blocks(3, [[0, 1]])
    with pytest.raises(AlgebraError):
        Partition.from_blocks(3, [[0, 1], [1, 2]])
    # array assignment would take -1 as the last element and let a repeat overwrite
    with pytest.raises(AlgebraError, match="element -1 out of range"):
        Partition.from_blocks(3, [[0, -1], [1, 2]])
    with pytest.raises(AlgebraError, match="element 3 out of range"):
        Partition.from_blocks(3, [[0, 1], [2, 3]])
    with pytest.raises(AlgebraError, match="out of range"):
        Partition.from_blocks(3, [[0, 2**70], [1, 2]])
    with pytest.raises(AlgebraError, match="element 1 listed twice"):
        Partition.from_blocks(3, [[0, 1, 1], [2]])
    assert Partition.from_blocks(0, []) == Partition(())


def test_partition_array_is_read_only():
    # the cached block view is only right while the ids never change
    p = Partition((3, 1, 3))
    assert p.order.tolist() == [0, 2, 1] and p.starts.tolist() == [0, 2]
    with pytest.raises(ValueError):
        p.as_array()[0] = 1
    with pytest.raises(AttributeError):
        p.block_id = np.array([0, 0, 0])
    assert p == Partition((0, 1, 0)) and p.order.tolist() == [0, 2, 1]
    keys = np.array([4, 4, 0])
    q = Partition(keys)
    keys[0] = 0
    assert q.blocks() == [[0, 1], [2]]


def test_partition_json_roundtrip():
    p = Partition.from_blocks(5, [[4, 2], [0], [1, 3]])
    obj = p.to_obj()
    assert obj["blocks"] == [[0], [1, 3], [2, 4]]  # sorted by least element
    assert Partition.from_obj(obj) == p


def test_is_congruence_identity_always():
    assert is_congruence(make_chain_lattice(4), Partition.zero(4))[0]


def test_is_congruence_interval_blocks_on_reducts():
    bs, gs = staircase_partitions(2)
    for m in (3, 4, 5):
        for j in range(2, (m + 1) // 2 + 1):
            alg = make_ujm_reduct(3, j, m)
            assert is_congruence(alg, bs)[0]
            assert is_congruence(alg, gs)[0]


def test_is_congruence_failure_witness():
    c3 = make_chain_lattice(3)
    bad = Partition.from_blocks(3, [[0, 2], [1]])
    ok, witness = is_congruence(c3, bad)
    assert not ok
    oi, pos, (x, y), rest, (vx, vy) = witness
    args_x = rest[:pos] + (x,) + rest[pos:]
    args_y = rest[:pos] + (y,) + rest[pos:]
    assert apply(c3.ops[oi], args_x) == vx and apply(c3.ops[oi], args_y) == vy
    assert bad.block_id[vx] != bad.block_id[vy]


def test_is_congruence_raises_past_its_cap():
    # 2 operations x 2 positions x 3 translations x 1 related pair
    c3 = make_chain_lattice(3)
    p = Partition.from_blocks(3, [[0, 1], [2]])
    assert is_congruence(c3, p, work_cap=12)[0]
    with pytest.raises(CapExceeded):
        is_congruence(c3, p, work_cap=11)


def test_meet_of_staircases():
    bs, gs = staircase_partitions(2)
    assert partition_meet(bs, gs) == Partition.zero(3)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_partition_lattice_laws(data):
    n = data.draw(st.integers(2, 7))
    ids_p = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    ids_q = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    p, q = Partition(tuple(ids_p)), Partition(tuple(ids_q))
    assert partition_meet(p, p) == p
    assert partition_meet(p, q) == partition_meet(q, p)
    assert partition_meet(p, Partition.one(n)) == p
    assert partition_meet(p, Partition.zero(n)) == Partition.zero(n)


# keys over a range of at most 4n take the table branch; sparse and negative
# keys take the np.unique branch
_KEYS = st.one_of(
    st.integers(1, 24).flatmap(
        lambda n: st.lists(st.integers(-n, 3 * n - 1), min_size=n, max_size=n)),
    st.lists(st.integers(0, 2**40), min_size=2, max_size=24),
    st.lists(st.integers(-2**40, -1), min_size=1, max_size=24),
    st.just([]),
)


@settings(deadline=None, max_examples=200)
@given(_KEYS)
def test_partition_is_the_first_occurrence_relabelling(keys):
    p = Partition(keys)
    assert p.as_array().tolist() == list(_canonical(keys))
    assert p.n_blocks == len(set(keys)) and p.size == len(keys)
    assert Partition.from_blocks(p.size, p.blocks()) == p


@settings(deadline=None, max_examples=100)
@given(_KEYS.flatmap(lambda keys: st.tuples(
    st.just(keys), st.lists(st.integers(0, 2**40), min_size=len(keys), max_size=len(keys)))))
def test_meet_is_the_relabelling_of_zipped_keys(drawn):
    first, second = drawn
    got = partition_meet(Partition(first), Partition(second))
    assert got.as_array().tolist() == list(_canonical(list(zip(first, second))))


def test_induced_product_congruence():
    prod = direct_product([make_ujm_reduct(3, 2, 4), make_ujm_reduct(2, 2, 4)])
    dec = prod.indexing.digits(np.arange(prod.size))
    alpha = induced_product_congruence(dec.T, [Partition.one(3), Partition.zero(2)])
    # related iff the second coordinates agree
    for x, y in itertools.combinations(range(prod.size), 2):
        assert alpha.related(x, y) == (dec[x][1] == dec[y][1])
    with pytest.raises(AlgebraError, match="one partition per column"):
        induced_product_congruence(dec.T, [Partition.one(3)])
    with pytest.raises(AlgebraError, match="empty subset"):
        induced_product_congruence(dec[:0].T, [Partition.one(3), Partition.zero(2)])
    # a value past its partition would read another column's block ids
    with pytest.raises(AlgebraError, match="out of range"):
        induced_product_congruence([[0, 1], [0, 2]], [Partition.one(2), Partition.zero(2)])


def test_induced_product_congruence_takes_any_index_column():
    # a column may index a subset of other factors, here the pairs
    # {(0, 0), (1, 1), (2, 0)} of a 3 x 2 product, carrying its own partition
    pairs = Partition((0, 0, 1))
    cols = [[0, 0, 1, 1], [0, 2, 0, 1]]
    got = induced_product_congruence(cols, [Partition.zero(2), pairs])
    assert got.blocks() == [[0], [1], [2, 3]]


def test_induced_product_congruence_renumbers_before_keys_wrap():
    # 70 columns of two blocks each would need keys up to 2^70, and the
    # first column's bit would be shifted out of an int64 key
    cols = np.zeros((70, 3), dtype=np.int64)
    cols[0, 1] = cols[69, 2] = 1
    got = induced_product_congruence(cols, [Partition.zero(2)] * 70)
    assert got == Partition.zero(3)


def test_induced_restriction_is_congruence_on_subalgebra():
    # restriction of a product congruence to a closed subset stays compatible
    m = 4
    power = direct_product([make_ujm_reduct(2, 2, m)] * (m - 1))
    subset = list(range(power.size - 1))
    local = {x: i for i, x in enumerate(subset)}  # the subalgebra's table over local indices
    table = [local[apply(power.ops[0], [subset[i] for i in args])]
             for args in itertools.product(range(len(subset)), repeat=m)]
    sub = FiniteAlgebra(len(subset), [TableOp("u", m, len(subset), table)])
    parts = [Partition.one(2), Partition.zero(2), Partition.one(2)]
    induced = induced_product_congruence(power.indexing.digits(subset).T, parts)
    assert is_congruence(sub, induced)[0]

