"""The box route of `is_subuniverse` against the element-level oracles:
direct enumeration (`scalar_oracle.closed`) and the absorbing-slice route
(`slice_route_oracle`), neither of which shares code with the box route."""

import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest

from finalg import algebras
from finalg.algebras import (
    DEFAULT_TUPLE_CAP,
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

import residual_class_oracle
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


def _digest(witnesses):
    """sha256 of a list of `(op_index, args, result)` witnesses, as JSON."""
    rows = [[oi, list(args), result] for oi, args, result in witnesses]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


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
    witnesses = []
    element_verdicts = {}  # the two decompositions' variants share many element sets
    for alg, union in cases:
        ok, witness = is_subuniverse(alg, union)
        ids = union.ids().tolist()
        if not ok:
            refused += 1
            witnesses.append(witness)
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
    # the witnesses depend on the numbering of classes and joint states
    assert _digest(witnesses) == (
        "eb0cee0bdbfb53951a87da63d733a7451e00d7ef208ab81c729e50659427f0a0")


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
    verdicts, witnesses = [], []
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
        assert ok == scalar_oracle.closed(alg, ids), trial
        points_ok, points_witness = is_subuniverse(alg, ids)  # one box per element
        assert points_ok == ok, trial
        if not ok:
            _assert_escape(alg, ids, witness)
            _assert_escape(alg, ids, points_witness)
            witnesses += [witness, points_witness]
        verdicts.append(ok)
    assert 120 < sum(verdicts) < 480
    assert _digest(witnesses) == (
        "1356f486bf643863e8851c2247158f65bda8fb74f3ef8150aaebc34c9ea276d9")
    assert True in splits and False in splits  # the split both covers and escapes


def test_a_restricted_factor_is_one_coordinate():
    n23 = make_ujm_reduct(3, 2, 3)
    low = make_ujm_reduct(2, 2, 3)  # the median on {0, 1}: n23 restricted to a chain of two
    prod = direct_product([low, n23])
    union = BoxUnion((2, 3), [[(0, 1), (0,)], [(0,), (2,)], [(1,), (1,)]])
    ok, witness = is_subuniverse(prod, union)
    assert not ok and not scalar_oracle.closed(prod, union.ids())
    _assert_escape(prod, union.ids(), witness)  # the median of (0,0), (0,2), (1,1)
    assert witness == (0, (2, 0, 4), 1)


def test_box_route_caps_name_their_counts(monkeypatch):
    # N(2,6)^5 minus its top: each of the five coordinates has the value sets
    # {0} and {0, 1}, so its class table holds the C(8, 6) multisets of at
    # most six of them, and the reach pass forms no image past the cap
    def no_images(*args):
        raise AssertionError("an image was formed despite the cap")
    with monkeypatch.context() as patch:
        patch.setattr(algebras, "_image_classes", no_images)
        with pytest.raises(CapExceeded, match=f"needs {math.comb(8, 6)} class-table entries"):
            cube_minus_top(6, tuple_cap=math.comb(8, 6) - 1)
    # its five boxes reach 15 joint states in two arguments, times five boxes
    with pytest.raises(CapExceeded, match=f"needs {math.comb(6, 2) * 5} candidate joint "
                                          f"states at argument 3 against the cap 28"):
        cube_minus_top(6, tuple_cap=math.comb(8, 6))
    w = build_sharpness_witness(5, 2, verify_closure=False)
    sizes = w.product.indexing.sizes
    whole = BoxUnion(sizes, [[range(s) for s in sizes]])
    # five arguments drawn from a chain of three: C(7, 5) multisets, refused
    # before the reach pass
    with monkeypatch.context() as patch:
        patch.setattr(algebras, "_image_classes", no_images)
        with pytest.raises(CapExceeded, match=f"needs {math.comb(7, 5)} argument rows"):
            is_subuniverse(w.product, whole, tuple_cap=10)
    assert is_subuniverse(w.product, whole, tuple_cap=21) == (True, None)


def test_residual_classes_match_the_per_entry_enumeration(monkeypatch):
    """The reach pass gives exactly the class tables of the per-entry
    enumeration (`residual_class_oracle`), from one `apply_cols` call, and
    under a smaller cap refuses the first full list with too many argument
    rows, naming its count."""
    real, calls = TableOp.apply_cols, []

    def counted(self, cols):
        calls.append(cols.shape)
        return real(self, cols)
    monkeypatch.setattr(TableOp, "apply_cols", counted)
    rng = random.Random(20261020)
    cases = [(make_ujm_reduct(3, 2, 3).ops[0], ((0,), (0, 1, 2), (2,)), True),
             (make_ujm_reduct(2, 2, 4).ops[0], ((0, 1),), False)]  # one set
    for trial in range(240):
        sym = trial % 2 == 0
        size, r = rng.randint(1, 4), rng.randint(1, 4)
        leaf = _random_factor(rng, size, [r], sym).ops[0]
        # distinct sets, sorted, as `_box_images` passes them: singletons and overlaps
        sets = tuple(sorted({tuple(sorted(rng.sample(range(size), rng.randint(1, size))))
                             for _ in range(rng.randint(1, 4))}))
        cases += [(leaf, sets, as_sym) for as_sym in ((True, False) if sym else (False,))]
    shapes, refusals = set(), 0
    for leaf, sets, sym in cases:
        calls.clear()
        trans, images = algebras._residual_classes(leaf, sets, leaf.arity, sym,
                                                   DEFAULT_TUPLE_CAP, {})
        assert len(calls) == 1
        want_trans, want_images = residual_class_oracle.residual_classes(
            leaf, sets, leaf.arity, sym)
        assert images == want_images
        assert len(trans) == len(want_trans) == leaf.arity
        for got, want in zip(trans, want_trans):
            assert got.shape == want.shape and np.array_equal(got, want)
        shapes.add((len(sets) == 1, leaf.arity == 1, sym))
        rows = residual_class_oracle.image_rows(sets, leaf.arity, sym)
        cap = max(residual_class_oracle.table_entries(len(sets), leaf.arity, sym),
                  rng.randrange(1, max(rows) + 1))
        refused = [count for count in rows if count > cap]
        if refused:
            refusals += 1
            with pytest.raises(CapExceeded, match=f"image of {leaf.name} on the box route "
                                                  f"needs {refused[0]} argument rows against "
                                                  f"the cap {cap}$"):
                algebras._residual_classes(leaf, sets, leaf.arity, sym, cap, {})
    assert len(shapes) == 8  # d = 1 and r = 1, each with multisets and sequences
    assert refusals > 20


def test_reach_entries_are_refused_before_the_pass():
    # 18 point boxes of a symmetric ternary operation: one coordinate with 18
    # singleton sets; the draws at r pair the C(19, 2) multisets of two
    # values and the 18 values with the C(20, 3) multisets of three sets,
    # more than the cap of 10,000 or the least bound of 2^20
    size = 18
    table = [sorted(args)[1] for args in itertools.product(range(size), repeat=3)]
    alg = FiniteAlgebra(size, [TableOp("median", 3, size, table)])
    draws = math.comb(19, 2) * size * math.comb(20, 3)
    with pytest.raises(CapExceeded, match=f"image of median on the box route needs {draws} "
                                          f"reach entries against the cap {2**20}"):
        is_subuniverse(alg, range(size), tuple_cap=10_000)
    assert is_subuniverse(alg, range(size), tuple_cap=draws) == (True, None)


def test_b92_is_decided_under_a_small_cap():
    # its eight good boxes make C(16, 9) = 11,440 box multisets, but the fold
    # forms at most 1,824 candidate joint states in one step
    w = build_sharpness_witness(9, 2, verify_closure=False)
    union = BoxUnion(w.product.indexing.sizes, good_boxes(w.factor_roles, 2))
    assert len(union.boxes) == 8
    assert is_subuniverse(w.product, union, tuple_cap=5_000) == (True, None)
    with pytest.raises(CapExceeded, match="needs 1824 candidate joint states"):
        is_subuniverse(w.product, union, tuple_cap=1_823)


def _image_box(grids, args, memo):
    """The image box of the argument boxes, each coordinate's image read off
    its leaf's table."""
    cube = []
    for c, grid in enumerate(grids):
        sets = tuple(box[c] for box in args)
        if (c, sets) not in memo:
            memo[c, sets] = frozenset(np.unique(grid[np.ix_(*sets)]).tolist())
        cube.append(memo[c, sets])
    return tuple(cube)


def _assert_fold_reaches_every_image(alg, union, sym):
    """The fold yields each image box once, exactly those of every box
    multiset (every box tuple unless `sym`), and the argument boxes it names
    give the box it yields with them."""
    boxes = [box for box in union.boxes if all(box)]
    for op in alg.ops:
        grids = [leaf.table.reshape((leaf.size,) * op.arity) for leaf in algebras._leaf_ops(op)]
        memo = {}
        brute = {_image_box(grids, args, memo)
                 for args in (itertools.combinations_with_replacement(boxes, op.arity) if sym
                              else itertools.product(boxes, repeat=op.arity))}
        reached = list(algebras._box_images(op, algebras._leaf_ops(op), boxes,
                                            algebras._op_symmetrical(op), DEFAULT_TUPLE_CAP, {}))
        cubes = [cube for cube, _ in reached]
        assert len(set(cubes)) == len(cubes)
        assert set(cubes) == brute
        for cube, args in reached:
            assert _image_box(grids, [boxes[b] for b in args], memo) == cube


def test_fold_reaches_the_image_boxes_of_every_box_multiset():
    for m, q in [(m, q) for m in range(3, 7) for q in (2, 3)]:
        w = build_sharpness_witness(m, q, verify_closure=False)
        sizes = w.product.indexing.sizes
        good = good_boxes(w.factor_roles, q)
        for boxes in [good, *_broken_variants(sizes, good)]:
            _assert_fold_reaches_every_image(w.product, BoxUnion(sizes, boxes), True)
    rng = random.Random(20261019)
    for trial in range(80):
        sym = trial % 2 == 0
        arities = rng.choice([[2], [3], [2, 3]])
        factors = [_random_factor(rng, rng.choice([2, 3]), arities, sym)
                   for _ in range(rng.choice([2, 3]))]
        sizes = [f.size for f in factors]
        boxes = [[rng.sample(range(s), rng.randrange(1, s + 1)) for s in sizes]
                 for _ in range(rng.randrange(1, 5))]
        _assert_fold_reaches_every_image(direct_product(factors), BoxUnion(sizes, boxes), sym)


def test_joint_state_keys_over_many_coordinates_do_not_wrap():
    # 70 coordinates of join on {0, 1}: every coordinate has two classes at
    # each step, so an unranked mixed-radix key would be a multiple of 2^64
    # in the first coordinates and merge (0,1,...,1) with the top
    join = make_ujm_reduct(2, 3, 3)
    power = direct_product([join] * 70, cap=2**70)
    low, high, one_off = (0,) * 70, (1,) * 70, (0,) + (1,) * 69
    for boxes, closed in [([low, one_off, high], True),
                          ([low, one_off, (1, 0) + (1,) * 68], False)]:
        union = BoxUnion(power.indexing.sizes, [[(v,) for v in box] for box in boxes])
        _assert_fold_reaches_every_image(power, union, True)
        ok, witness = is_subuniverse(power, union)
        assert ok == closed
        if not ok:
            assert witness == (0, tuple(map(power.indexing.encode, boxes)),
                               power.indexing.encode(high))
    # 44 coordinates of random three-element factors
    rng = random.Random(44)
    for sym in (True, False):
        factors = [_random_factor(rng, 3, [3], sym) for _ in range(44)]
        sizes = [3] * 44
        boxes = [[rng.sample(range(3), rng.randrange(1, 3)) for _ in sizes] for _ in range(3)]
        _assert_fold_reaches_every_image(direct_product(factors, cap=3**44),
                                         BoxUnion(sizes, boxes), sym)


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
    for outside in ([0, prod.size], [-1, 2]):  # digits would wrap these ids silently
        with pytest.raises(AlgebraError, match="out of range"):
            is_subuniverse(prod, outside)


def test_box_union_ranks_its_elements():
    union = BoxUnion((3, 2), [[(0, 2), (1,)], [(2,), (0, 1)], [(2,), (1,)]])
    assert union.ids().tolist() == [1, 4, 5]
    assert union.rank([5, 1, 4, 5]).tolist() == [2, 0, 1, 2]
    for missing, pids in ((3, [1, 3, 0]), (6, [6]), (0, [0, 1])):
        with pytest.raises(AlgebraError, match=f"element {missing} is not in the union"):
            union.rank(pids)
    with pytest.raises(AlgebraError, match="element 0 is not"):
        BoxUnion((3, 2), []).rank([0])
