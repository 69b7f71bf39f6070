"""The box route of `is_subuniverse` against the element routes."""

import itertools
import math
import random

import pytest

from finalg import algebras
from finalg.algebras import (
    AlgebraError,
    BoxUnion,
    CapExceeded,
    FiniteAlgebra,
    TableOp,
    direct_product,
    is_subuniverse,
    make_ujm_reduct,
)
from finalg.witnesses import build_sharpness_witness, cube_minus_top, good_boxes

import scalar_oracle
import slice_route_oracle


def _assert_escape(alg, ids, witness):
    """The witness is a real escape: members in, the op's value out."""
    oi, args, result = witness
    members = {int(x) for x in ids}
    assert len(args) == alg.ops[oi].arity
    assert all(a in members for a in args)
    assert scalar_oracle.apply(alg.ops[oi], args) == result
    assert result not in members


def _minus_top(power):
    """The power of a two-element algebra minus its top, as one box per coordinate."""
    k = len(power.indexing.sizes)
    return BoxUnion(power.indexing.sizes,
                    [[(0,) if c == i else (0, 1) for c in range(k)] for i in range(k)])


def _broken_variants(sizes, boxes):
    """Each box dropped, and each value set of each box widened to its whole chain."""
    for b in range(len(boxes)):
        yield boxes[:b] + boxes[b + 1:]
    for b, box in enumerate(boxes):
        for c, vals in enumerate(box):
            if len(vals) < sizes[c]:
                wide = list(box)
                wide[c] = tuple(range(sizes[c]))
                yield boxes[:b] + [wide] + boxes[b + 1:]


def _disjoint_boxes(roles, q):
    """`good_boxes` with each shaped pair's free value set narrowed to 1..q.

    `good_boxes` lets a shape's free coordinate take the whole chain, so its
    boxes overlap and widening that set changes nothing; narrowed, no element
    lies in two boxes and the same set has ten more breakable value sets over
    the four witnesses below.
    """
    boxes = good_boxes(roles, q)
    firsts = [i for i, r in enumerate(roles) if r["role"] == "pair-first"]
    for k, i in enumerate(firsts):
        for shape, free in enumerate((i, i + 1)):  # (-,0), then (0,-)
            boxes[2 + 2 * k + shape][free] = tuple(range(1, q + 1))
    return boxes


def test_box_route_agrees_with_the_element_route_on_broken_good_sets():
    cases = []
    for m, q in [(4, 2), (5, 2), (5, 3), (6, 2)]:
        w = build_sharpness_witness(m, q, verify_closure=False)
        sizes = w.product.indexing.sizes
        disjoint = _disjoint_boxes(w.factor_roles, q)
        union = BoxUnion(sizes, disjoint)
        assert union.ids().tolist() == w.good_ids
        assert len(union) == sum(math.prod(map(len, box)) for box in disjoint)
        for boxes in (good_boxes(w.factor_roles, q), disjoint):
            cases += [(w.product, BoxUnion(sizes, broken))
                      for broken in _broken_variants(sizes, boxes)]
    n23 = make_ujm_reduct(2, 2, 3)
    cube = direct_product([n23] * 3)
    cases.append((cube, _minus_top(cube)))  # the majority of the one-zero tuples is the top
    agreed = refused = skipped = 0
    element_verdicts = {}  # the two decompositions' variants share many element sets
    for alg, union in cases:
        ok, witness = is_subuniverse(alg, union)
        ids = union.ids().tolist()
        if not ok:
            refused += 1
            _assert_escape(alg, ids, witness)
        else:
            assert witness is None
        key = (alg.label, tuple(ids))
        if key not in element_verdicts:
            try:
                element_verdicts[key] = slice_route_oracle.closed(alg, ids)
            except CapExceeded:
                element_verdicts[key] = None
        if element_verdicts[key] is None:
            skipped += 1
            continue
        assert ok == element_verdicts[key], (alg.label, union.boxes)
        agreed += 1
    # overlapping boxes: 68 variants, 16 refuse, 1 skipped; disjoint: 78, 18, 1
    assert (len(cases), agreed, refused, skipped) == (147, 145, 35, 2)


def _random_factor(rng, size, arities, sym):
    ops = []
    for k, arity in enumerate(arities):
        values = {}
        table = []
        for args in itertools.product(range(size), repeat=arity):
            key = tuple(sorted(args)) if sym else args
            if key not in values:
                # mostly a value among the arguments, so that closed unions occur
                values[key] = rng.choice(args) if rng.random() < 0.9 else rng.randrange(size)
            table.append(values[key])
        ops.append(TableOp(f"o{k}", arity, size, table))
    return FiniteAlgebra(size, ops)


def test_box_route_agrees_with_direct_enumeration_on_random_products(monkeypatch):
    splits = []
    real = algebras._uncovered_point

    def recorded(cube, boxes):
        point = real(cube, boxes)
        splits.append(point is None)
        return point
    monkeypatch.setattr(algebras, "_uncovered_point", recorded)
    rng = random.Random(20261018)
    verdicts = []
    for trial in range(600):
        sym = trial % 2 == 0
        arities = rng.choice([[2], [3], [2, 3]])
        factors = [_random_factor(rng, rng.choice([2, 3]), arities, sym)
                   for _ in range(rng.choice([2, 3]))]
        if trial % 5 == 1:  # a nested product: the coordinates are its leaves
            alg = direct_product([direct_product(factors[:2]), *factors[2:]])
        else:
            alg = direct_product(factors)
        sizes = [f.size for f in factors]
        boxes = [[rng.sample(range(s), rng.randrange(1, s + 1)) for s in sizes]
                 for _ in range(rng.randrange(1, 5))]
        union = BoxUnion(sizes, boxes)
        ok, witness = is_subuniverse(alg, union)
        ids = union.ids().tolist()
        assert ids == sorted({sum(v * math.prod(sizes[c + 1:]) for c, v in enumerate(row))
                              for box in boxes for row in itertools.product(*box)})
        assert ok == is_subuniverse(alg, ids, tuple_cap=10_000_000)[0], trial
        if not ok:
            _assert_escape(alg, ids, witness)
        verdicts.append(ok)
    assert 120 < sum(verdicts) < 480
    assert True in splits and False in splits  # the split both covers and escapes


def test_a_restricted_factor_is_one_coordinate():
    n23 = make_ujm_reduct(3, 2, 3)
    low = make_ujm_reduct(2, 2, 3)  # the median on {0, 1}: n23 restricted to a chain of two
    prod = direct_product([low, n23])
    union = BoxUnion((2, 3), [[(0, 1), (0,)], [(0,), (2,)], [(1,), (1,)]])
    ok, witness = is_subuniverse(prod, union)
    assert not ok and not is_subuniverse(prod, union.ids())[0]
    _assert_escape(prod, union.ids(), witness)  # the median of (0,0), (0,2), (1,1)
    assert witness[2] == prod.indexing.encode((0, 1))


def test_box_route_caps_name_their_counts():
    with pytest.raises(CapExceeded, match=f"needs {math.comb(10, 6)} box multisets"):
        cube_minus_top(6, tuple_cap=10)
    w = build_sharpness_witness(5, 2, verify_closure=False)
    sizes = w.product.indexing.sizes
    whole = BoxUnion(sizes, [[range(s) for s in sizes]])
    # five arguments drawn from a chain of three: C(7, 5) multisets
    with pytest.raises(CapExceeded, match=f"needs {math.comb(7, 5)} argument rows"):
        is_subuniverse(w.product, whole, tuple_cap=10)
    assert is_subuniverse(w.product, whole, tuple_cap=21) == (True, None)


def test_box_union_elements_and_validation():
    union = BoxUnion((3, 2), [[(0, 2), (1,)], [(2,), (0, 1)], [(), (0,)]])
    assert union.ids().tolist() == [1, 4, 5] and len(union) == 3
    assert not union.ids().flags.writeable
    assert len(BoxUnion((3, 2), [])) == 0
    with pytest.raises(AlgebraError, match="needs 2 value sets"):
        BoxUnion((3, 2), [[(0,)]])
    with pytest.raises(AlgebraError, match="out of range"):
        BoxUnion((3, 2), [[(0,), (2,)]])
    prod = direct_product([make_ujm_reduct(3, 2, 3), make_ujm_reduct(2, 2, 3)])
    assert is_subuniverse(prod, BoxUnion((3, 2), [])) == (True, None)
    assert is_subuniverse(prod, BoxUnion((3, 2), [[(), (0,)]])) == (True, None)
    with pytest.raises(AlgebraError, match="does not match"):
        is_subuniverse(prod, BoxUnion((2, 3), [[(0,), (0,)]]))
