import itertools

import numpy as np
import pytest

from finalg.algebras import (
    AlgebraError,
    BoxUnion,
    CapExceeded,
    direct_product,
    is_k_majority,
    is_near_unanimity,
    is_subuniverse,
    make_ujm_reduct,
    one_element_algebra,
)
from finalg import congruences, witnesses
from finalg.congruences import Partition, partition_meet
from finalg.identities import check_identity
from finalg.witnesses import (
    HypothesisError,
    SharpnessParams,
    build_sharpness_witness,
    canonical_witness_chain,
    cube_minus_top,
    dissent_pair_fixture,
    ell_of,
    filtered_subproduct,
    good_boxes,
    implication_expansion,
    modular_sum_algebra,
    nu_family_generators,
    staircase_partitions,
)
from good_set_oracle import good_coords, minus_point
from scalar_oracle import apply, is_congruence
from triple_oracle import product_relation, relation, role_relations
import scalar_oracle


def test_ell():
    assert [ell_of(m) for m in (3, 4, 5, 6, 7, 8)] == [2, 2, 3, 3, 4, 4]
    with pytest.raises(AlgebraError):
        SharpnessParams(2, 2)
    with pytest.raises(AlgebraError):
        SharpnessParams(3, 1)


def test_staircase_partitions():
    bs2, gs2 = staircase_partitions(2)
    assert bs2.blocks() == [[0], [1, 2]]
    assert gs2.blocks() == [[0, 1], [2]]
    bs3, gs3 = staircase_partitions(3)
    assert bs3.blocks() == [[0, 1], [2, 3]]
    assert gs3.blocks() == [[0], [1, 2], [3]]
    bs4, gs4 = staircase_partitions(4)
    assert bs4.blocks() == [[0], [1, 2], [3, 4]]
    assert gs4.blocks() == [[0, 1], [2, 3], [4]]


def test_staircases_are_congruences_of_every_reduct():
    for q in (2, 3, 4):
        parts = staircase_partitions(q)
        for m in (3, 4, 5, 6):
            for j in range(2, ell_of(m) + 1):
                alg = make_ujm_reduct(q + 1, j, m)
                for part in parts:
                    assert is_congruence(alg, part)[0]


# ---------------------------------------------------------------------------
# the template-filtered subproduct


def _standard_inputs(m=4, q=2):
    ell = ell_of(m)
    a1 = a2 = make_ujm_reduct(q + 1, ell, m)
    a3 = one_element_algebra(m)
    a4 = make_ujm_reduct(2, 2, m)
    f = list(range(2))
    return a1, a2, a3, a4, f


def test_filtered_subproduct_base_case():
    a1, a2, a3, a4, f = _standard_inputs()
    ell = ell_of(4)
    built = filtered_subproduct(a1, a2, a3, a4, 0, 0, 0, ell, ell, 0, 0, f)
    # nonempty via the all-zero template and contains the diagonal corner
    assert built.b_ids
    c0 = built.ambient.indexing.encode((2, 0, 0, 1))
    assert c0 in built.b_ids and 1 in built.tags[c0]
    cq = built.ambient.indexing.encode((0, 2, 0, 1))
    assert cq in built.b_ids and 3 in built.tags[cq]
    # nonempty via the all-zero template
    zero = built.ambient.indexing.encode((0, 0, 0, 0))
    assert zero in built.b_ids and 2 in built.tags[zero]
    # free first and last coordinates under the anchored-third template
    for x1, x4 in itertools.product(range(3), range(2)):
        assert built.ambient.indexing.encode((x1, 0, 0, x4)) in built.b_ids


def test_filtered_subproduct_hypothesis_failures_are_named():
    a1, a2, a3, a4, f = _standard_inputs()
    with pytest.raises(HypothesisError, match="h-bounds"):
        filtered_subproduct(a1, a2, a3, a4, 0, 0, 0, 3, 2, 0, 0, f)
    with pytest.raises(HypothesisError, match="h-bounds"):
        filtered_subproduct(a1, a2, a3, a4, 0, 0, 0, 2, 3, 0, 0, f)  # h + k > m
    with pytest.raises(HypothesisError, match="absorb-1"):
        # the top of the chain never absorbs for these reducts
        filtered_subproduct(a1, a2, a3, a4, 2, 0, 0, 2, 2, 0, 0, f)
    with pytest.raises(HypothesisError, match="absorb-2"):
        filtered_subproduct(a1, a2, a3, a4, 0, 2, 0, 2, 2, 0, 0, f)
    with pytest.raises(HypothesisError, match="absorb-4"):
        filtered_subproduct(a1, a2, a3, a4, 0, 0, 1, 2, 2, 0, 0, f)
    with pytest.raises(HypothesisError, match="majority-3"):
        # a two-element reduct is not 2-majority when the operation needs 3
        filtered_subproduct(a1, a2, make_ujm_reduct(2, 2, 4), a4, 0, 0, 0, 2, 2, 0, 0,
                            list(range(4)))
    with pytest.raises(HypothesisError, match="f-subuniverse"):
        # {(0,1), (1,0)} in the third-step shape is not closed: three copies
        # of (0,1) against two of (1,0) land on (0,0)
        b1 = b2 = make_ujm_reduct(3, 2, 5)
        b3 = make_ujm_reduct(3, 3, 5)
        b4 = make_ujm_reduct(2, 2, 5)
        filtered_subproduct(b1, b2, b3, b4, 0, 0, 0, 2, 3, 0, 0, [1, 2])
    with pytest.raises(HypothesisError, match="similarity"):
        filtered_subproduct(a1, a2, a3, make_ujm_reduct(2, 2, 5), 0, 0, 0, 2, 2, 0, 0, f)


def test_filtered_subproduct_respects_f():
    # third-step shape: F a proper subuniverse of A3 x A4
    m, q = 5, 2
    a1 = a2 = make_ujm_reduct(q + 1, 2, m)
    a3 = make_ujm_reduct(q + 1, 3, m)
    a4 = make_ujm_reduct(2, 2, m)
    f = [0, 2, 4, 5]  # pairs (x, 0) plus the top pair; closed on the chain pair
    built = filtered_subproduct(a1, a2, a3, a4, 0, 0, 0, 2, 3, 2, 0, f)
    assert built.b_ids
    for x1, x2, x3, x4 in built.ambient.indexing.digits(built.b_ids).tolist():
        assert (x3 * 2 + x4) in set(f)


# ---------------------------------------------------------------------------
# cube minus top


def test_cube_minus_top():
    power, subset = cube_minus_top(4)
    assert power.size == 8 and len(subset) == 7
    with pytest.raises(AlgebraError):
        cube_minus_top(3)


def test_cube_minus_top_is_decided_on_its_boxes_up_to_m_10():
    for m in range(4, 11):
        power, subset = cube_minus_top(m)
        assert power.size == 2 ** (m - 1) and subset == list(range(power.size - 1))


def test_cube_minus_top_closes_below_the_cube_only():
    # N(2,3)^2 minus its top is closed; in N(2,3)^3 the majority of the
    # three one-zero tuples is the top
    n23 = make_ujm_reduct(2, 2, 3)
    square = direct_product([n23] * 2)
    assert is_subuniverse(square, range(square.size - 1)) == (True, None)
    cube = direct_product([n23] * 3)
    ok, (oi, args, result) = is_subuniverse(cube, range(cube.size - 1))
    assert not ok and result == cube.size - 1
    assert sorted(args) == [0b011, 0b101, 0b110]


def test_cube_minus_top_contradiction_device():
    # the one-zero tuples map to the top under any near-unanimity output row
    m = 4
    power, subset = cube_minus_top(m)
    one_zero = [power.size - 1 - (1 << i) for i in range(m - 1)]
    assert all(e in subset for e in one_zero)
    # applying the operation to them (padded by repetition) stays inside,
    # because the operation needs m - 1 = 3 agreeing arguments per coordinate
    out = apply(power.ops[0], one_zero + [one_zero[0]])
    assert out in subset


# ---------------------------------------------------------------------------
# generator families and small fixtures


def test_nu_family_generators():
    assert [a.label for a in nu_family_generators(3)] == ["N(2,3)@2"]
    assert [a.label for a in nu_family_generators(4)] == ["N(2,4)@2"]
    assert [a.label for a in nu_family_generators(5)] == ["N(2,5)@2", "N(3,5)@2"]
    for m in (3, 4, 5, 6):
        for alg in nu_family_generators(m):
            assert is_near_unanimity(alg, 0)


def test_implication_expansion_tables():
    i4 = implication_expansion(4, "i")
    assert apply(i4.ops[0], (1, 0)) == 1
    assert apply(i4.ops[0], (1, 1)) == 0
    assert apply(i4.ops[0], (0, 0)) == 0 and apply(i4.ops[0], (0, 1)) == 0
    f4 = implication_expansion(4, "f")
    assert apply(f4.ops[0], (1, 0, 1)) == 1
    assert apply(f4.ops[0], (1, 0, 0)) == 1
    assert apply(f4.ops[0], (1, 1, 0)) == 0
    # the m-ary operation is shared with the plain reduct
    assert np.array_equal(i4.ops[1].table, make_ujm_reduct(2, 2, 4).ops[0].table)
    with pytest.raises(AlgebraError):
        implication_expansion(3)


def test_sum_fixture_lone_dissent():
    s = modular_sum_algebra(3, 4)
    for x, y in itertools.product(range(3), repeat=2):
        assert apply(s.ops[0], (y, x, x, x)) == y
    ld2 = dissent_pair_fixture()
    assert apply(ld2.ops[1], (1, 0, 0, 0)) == 1
    assert apply(ld2.ops[1], (0, 1, 1, 1)) == 0
    assert apply(ld2.ops[1], (0, 0, 1, 1)) == 0  # pinned free row


# ---------------------------------------------------------------------------
# the explicit sharpness witness


def test_witness_m4_matches_printed_elements(witness_cache):
    w = witness_cache(4, 2)
    assert w.product.size == 18 and w.size == 14
    assert w.coords_of_local(w.a) == (2, 0, 1)
    assert w.coords_of_local(w.c) == (1, 1, 0)
    assert w.coords_of_local(w.d) == (0, 2, 1)
    chain = canonical_witness_chain(w)
    coords = [w.coords_of_local(e) for e in chain]
    assert coords == [
        (2, 0, 1), (1, 0, 1), (0, 0, 1), (0, 1, 1), (0, 2, 1)
    ]


def test_witness_m5_matches_printed_elements(witness_cache):
    w = witness_cache(5, 2)
    assert w.coords_of_local(w.a) == (2, 0, 2, 1)
    assert w.coords_of_local(w.c) == (1, 1, 1, 0)
    assert w.coords_of_local(w.d) == (0, 2, 0, 1)
    chain = [w.coords_of_local(e) for e in canonical_witness_chain(w)]
    assert chain == [
        (2, 0, 2, 1), (1, 0, 2, 1), (0, 0, 2, 1),   # first components step down
        (0, 0, 1, 1), (0, 0, 0, 1),                 # the odd-m half steps down
        (0, 1, 0, 1), (0, 2, 0, 1),                 # second components step up
    ]


def test_factor_shapes():
    for m, q, labels in [
        (3, 2, ["N(2,3)@3", "N(2,3)@2"]),
        (4, 2, ["N(2,4)@3", "N(2,4)@3", "N(2,4)@2"]),
        (5, 2, ["N(2,5)@3", "N(2,5)@3", "N(3,5)@3", "N(2,5)@2"]),
        (5, 3, ["N(2,5)@4", "N(2,5)@4", "N(3,5)@4", "N(2,5)@2"]),
    ]:
        w = build_sharpness_witness(m, q, verify_closure=False)
        assert [f.label for f in w.product.factors] == labels
        assert len(w.product.factors) == m - 1


def test_each_distinct_factor_is_built_once(monkeypatch):
    # (9, 2) has three pairs, a half and the last factor: N(2,9), N(3,9)
    # and N(4,9) on the 3-element chain, and N(2,9) on the 2-element one
    made = []
    build = witnesses.make_ujm_reduct
    monkeypatch.setattr(witnesses, "make_ujm_reduct",
                        lambda chain, j, m: made.append((chain, j)) or build(chain, j, m))
    w = build_sharpness_witness(9, 2, verify_closure=False)
    assert made == [(3, 2), (3, 3), (3, 4), (3, 5), (2, 2)]
    assert [f.label for f in w.product.factors] == [
        "N(2,9)@3", "N(2,9)@3", "N(3,9)@3", "N(3,9)@3", "N(4,9)@3", "N(4,9)@3",
        "N(5,9)@3", "N(2,9)@2"]
    assert w.product.factors[0] is w.product.factors[1]


def test_product_cap_is_checked_before_any_factor_table(monkeypatch):
    # 2 * 3**13 and 2 * 3**12 elements, each past the default cap of 2**20:
    # refused with the product's message before a table is built
    def unbuilt(chain, j, m):
        raise AssertionError("a factor table was built")

    monkeypatch.setattr(witnesses, "make_ujm_reduct", unbuilt)
    for m, size in ((15, 2 * 3**13), (14, 2 * 3**12)):
        with pytest.raises(CapExceeded) as info:
            build_sharpness_witness(m, 2)
        assert str(info.value) == f"product size {size} exceeds cap {1 << 20}"
    # a table past its own cap is still named first, as at m = 30
    with pytest.raises(CapExceeded, match=r"^table of N\(2,30\)@3 would need "):
        build_sharpness_witness(30, 2)


@pytest.mark.parametrize("m,q", [(m, q) for m in range(3, 7) for q in (2, 3)])
def test_triple_matches_the_pairwise_role_oracle(witness_cache, m, q):
    w = witness_cache(m, q)
    coords = w.product.indexing.digits(w.good_ids)
    for k, part in enumerate((w.alpha, w.beta, w.gamma)):
        want = product_relation(coords, [role_relations(r["role"], q)[k] for r in w.factor_roles])
        assert (relation(part) == want).all(), ("alpha", "beta", "gamma")[k]


def test_witness_m3_is_everything(witness_cache):
    w = witness_cache(3, 2)
    assert w.size == w.product.size


def test_good_boxes_match_the_good_coords_filter():
    for m in range(3, 9):
        for q in (2, 3, 4):
            w = build_sharpness_witness(m, q, verify_closure=False)
            roles = w.factor_roles
            filtered = [e for e, coords in enumerate(itertools.product(
                *(range(s) for s in w.product.indexing.sizes))) if good_coords(coords, roles, q)]
            assert w.good_ids == filtered, (m, q)
            assert len(good_boxes(roles, q)) == 2 + 2 * sum(
                r["role"] == "pair-first" for r in roles)


def test_good_rule_m_odd_half_branches():
    w = build_sharpness_witness(5, 2, verify_closure=False)
    roles, q = w.factor_roles, 2
    assert good_coords((0, 0, 1, 1), roles, q)       # all-null pairs, half free
    assert good_coords((1, 0, 2, 1), roles, q)       # (-,0) branch forces half q
    assert not good_coords((1, 0, 1, 1), roles, q)
    assert good_coords((0, 1, 0, 1), roles, q)       # (0,-) branch forces half 0
    assert not good_coords((0, 1, 2, 1), roles, q)
    assert not good_coords((1, 2, 2, 1), roles, q)   # mixed first pair is bad
    assert good_coords((1, 2, 2, 0), roles, q)       # final coordinate 0 is free


def test_witness_operation_is_near_unanimity(witness_cache):
    w = witness_cache(4, 2)
    assert is_k_majority(w.product, 0, 3)


def test_designated_elements_are_good_and_chain_verified(witness_cache):
    for (m, q) in [(4, 2), (5, 2), (4, 3), (5, 3)]:
        w = witness_cache(m, q)
        # the builder already verifies the left-side chain; spot-check alpha
        assert w.alpha.related(w.a, w.d)
        for e in w.lhs_chain[1:-1]:
            assert w.coords_of_local(e)[-1] == 0


def test_canonical_chain_rejected_for_q3(witness_cache):
    with pytest.raises(AlgebraError):
        canonical_witness_chain(witness_cache(4, 3))


def test_subuniverse_verified_against_direct_enumeration():
    # cross-check the box route, on the good boxes and on the good ids as
    # point boxes, against plain enumeration of the element multisets
    for (m, q) in [(4, 2), (5, 2), (4, 3)]:
        w = build_sharpness_witness(m, q, verify_closure=False)
        assert scalar_oracle.closed(w.product, w.good_ids)
        assert is_subuniverse(w.product, w.good_ids) == (True, None)
        union = BoxUnion(w.product.indexing.sizes, good_boxes(w.factor_roles, q))
        assert is_subuniverse(w.product, union, tuple_cap=1_000) == (True, None)


def test_q3_chain_lengths_bounded_by_identities(witness_cache):
    """For q = 3 the path may move two components at once, so only bounds are
    asserted: the two-sided search stays within the holding zigzag bound,
    while a forced swapped start cannot make that bound (its zigzag fails)."""
    from finalg.identities import shortest_alternating_chain
    from relation_oracle import _bfs_alternating, relation

    for m in (3, 4, 5):
        w = witness_cache(m, 3)
        ab = partition_meet(w.alpha, w.beta)
        ag = partition_meet(w.alpha, w.gamma)
        bound = 2 * m - 3  # the factor count of the holding zigzag bound
        path, factors = shortest_alternating_chain(w.a, w.d, ab, ag, cap=4 * m)
        assert factors <= bound
        try:
            swapped = _bfs_alternating(w.a, w.d, relation(ag), relation(ab), cap=bound)
        except CapExceeded:
            swapped = None  # still searching past the bound: long enough
        assert swapped is None or len(swapped) - 1 > bound


def test_subuniverse_fast_path_detects_violations():
    # drop one good element off the zero-slice, splitting its box around it:
    # the box route must notice
    w = build_sharpness_witness(5, 2, verify_closure=False)
    f1 = w.good_ids[canonical_witness_chain(w)[1]]
    assert w.product.indexing.decode(f1) == (1, 0, 2, 1)
    broken = [e for e in w.good_ids if e != f1]
    union = BoxUnion(w.product.indexing.sizes,
                     [part for box in good_boxes(w.factor_roles, 2)
                      for part in minus_point(box, [(1,), (0,), (2,), (1,)])])
    assert union.ids().tolist() == broken
    ok_fast, wit_fast = is_subuniverse(w.product, union, tuple_cap=1_000)
    assert not scalar_oracle.closed(w.product, broken) and not ok_fast
    oi, args, result = wit_fast
    assert apply(w.product.ops[oi], args) == result
    assert result not in set(broken) and all(a in set(broken) for a in args)


def test_each_alpha_meet_is_built_once(monkeypatch):
    # every partition goes through _canonical once; after the witness is
    # built, the report builds only the meets of alpha with beta and gamma
    made = []
    canonical = congruences._canonical
    monkeypatch.setattr(congruences, "_canonical",
                        lambda keys: made.append(len(keys)) or canonical(keys))
    build = witnesses.build_sharpness_witness
    built = []

    def recorded_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        made.clear()
        return built[-1]

    monkeypatch.setattr(witnesses, "build_sharpness_witness", recorded_build)
    witnesses.sharpness_report(9, 2)
    w = built[0]
    assert made == [w.size, w.size]
    made.clear()
    check_identity("dist", w.alpha, w.beta, w.gamma, n=13, pair=(w.a, w.d))
    assert made == []
    assert partition_meet(w.alpha, w.beta) is partition_meet(w.alpha, w.beta)
