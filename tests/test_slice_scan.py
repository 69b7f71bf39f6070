"""Absorbing-slice subsets, decided on their boxes.

These are the cases the absorbing-slice route of `is_subuniverse` was tested
on; the route is deleted, and the tests keep their names.  Each good set is
checked as a `BoxUnion` and, where that stays small, as an id list, which
`is_subuniverse` turns into one box of singletons per element.  The
verdicts are compared with direct enumeration of the elements
(`scalar_oracle.closed`) under a large cap, or past it with the slice route
itself, kept as `slice_route_oracle`; every refusal's witness must be a
real escape.
"""

import itertools
import math

import pytest

from finalg import algebras
from finalg.algebras import DEFAULT_TUPLE_CAP, BoxUnion, CapExceeded, is_subuniverse
from finalg.kernel import _arg_blocks
from finalg.witnesses import build_sharpness_witness, good_boxes

import scalar_oracle
import slice_route_oracle
from good_set_oracle import minus_point
from tree_oracle import tree_rows

_LARGE_CAP = 10_000_000
#: the good sets also checked as id lists, up to B(6,2)'s 90 elements; the
#: 269 and 254 point boxes of B(6,3) and B(7,2) take seconds each
_ID_LISTS = {(m, q) for m in range(3, 7) for q in (2, 3)} - {(6, 3)}


@pytest.mark.parametrize("sym", [True, False])
def test_arg_blocks_yield_all_multisets_or_tuples(sym):
    for n in range(6):
        for r in range(1, 5):
            want = sorted(itertools.combinations_with_replacement(range(n), r) if sym
                          else itertools.product(range(n), repeat=r))
            for chunk in (1, 3, 7, 250_000):
                got = [tuple(int(v) for v in row)
                       for tree in _arg_blocks(n, 0, r, sym, chunk)
                       for row in tree_rows(tree)]
                assert sorted(got) == want, (n, r, chunk)


def _union(w, boxes):
    return BoxUnion(w.product.indexing.sizes, boxes)


@pytest.mark.parametrize("m, q", [(m, q) for m in range(3, 8) for q in (2, 3)])
def test_slice_scan_matches_scalar_oracle(m, q):
    """B(m, q) is closed on its boxes and, up to B(6,2), as an id list; so
    it is element by element: by direct enumeration where that fits under
    the large cap, else by the slice-route oracle."""
    w = build_sharpness_witness(m, q, verify_closure=False)
    assert is_subuniverse(w.product, _union(w, good_boxes(w.factor_roles, q))) == (True, None)
    if (m, q) in _ID_LISTS:
        assert is_subuniverse(w.product, w.good_ids) == (True, None)
    if math.comb(len(w.good_ids) + m - 1, m) <= _LARGE_CAP:
        assert scalar_oracle.closed(w.product, w.good_ids, cap=_LARGE_CAP)
    else:
        assert slice_route_oracle.closed(w.product, w.good_ids)


def _check_broken(w, gone, pinned):
    """The good set less one element: the box route, on its boxes and on the
    id list, direct enumeration and the slice-route oracle all refuse it,
    and each witness of the box route is a real escape, the pinned one."""
    point = [(v,) for v in w.product.indexing.decode(gone)]
    union = _union(w, [part for box in good_boxes(w.factor_roles, w.params.q)
                       for part in minus_point(box, point)])
    broken = [e for e in w.good_ids if e != gone]
    assert union.ids().tolist() == broken
    for subset, pin in zip((union, broken), pinned):
        ok, witness = is_subuniverse(w.product, subset)
        assert not ok
        assert witness == pin
        oi, args, result = witness
        assert all(a in set(broken) for a in args)
        assert result not in set(broken)
        assert scalar_oracle.apply(w.product.ops[oi], args) == result
    assert scalar_oracle.closed(w.product, broken, cap=_LARGE_CAP) is False
    assert slice_route_oracle.closed(w.product, broken, tuple_cap=5_000) is False


def test_violation_only_in_wildcard_dependent_rows():
    """B(5,2) less (0,1,0,1): the slice scan met this escape only in rows
    whose value depends on the wildcard argument."""
    w = build_sharpness_witness(5, 2, verify_closure=False)
    _check_broken(w, w.product.indexing.encode((0, 1, 0, 1)),
                  [(0, (1, 13, 6, 13, 13), 7), (0, (1, 6, 13, 13, 13), 7)])


def test_violation_in_a_plain_row():
    """B(4,3) less (0,0,1): the escape lies among arguments off the slice."""
    w = build_sharpness_witness(4, 3, verify_closure=False)
    _check_broken(w, w.product.indexing.encode((0, 0, 1)), 
                  [(0, (3, 3, 9, 9), 1), (0, (0, 3, 9, 3), 1)])


def test_slice_cap_raises_before_scanning(monkeypatch):
    """An id list is refused under a small cap by the box route's own count,
    before the reach pass forms any image: the 34 good points of B(5,2) give
    each coordinate its values as singletons, so the first coordinate, a
    chain of three, needs the C(3 + 5, 5) multisets of at most five of them."""
    w = build_sharpness_witness(5, 2, verify_closure=False)

    def no_images(*args):
        raise AssertionError("an image was formed despite the cap")
    monkeypatch.setattr(algebras, "_image_classes", no_images)
    with pytest.raises(CapExceeded, match=f"needs {math.comb(8, 5)} class-table entries "
                                          f"at one coordinate against the cap 10"):
        is_subuniverse(w.product, w.good_ids, tuple_cap=10)


def test_b53_good_ids_are_decided():
    # the smallest direct count at or above 4M among the B(m, q): too many
    # element multisets to enumerate under the default cap, but as an id
    # list its 74 elements are 74 point boxes, decided like its own boxes
    w = build_sharpness_witness(5, 3, verify_closure=False)
    count = math.comb(len(w.good_ids) + 4, 5)
    assert count > DEFAULT_TUPLE_CAP
    assert is_subuniverse(w.product, w.good_ids) == (True, None)
    assert is_subuniverse(w.product, _union(w, good_boxes(w.factor_roles, 3))) == (True, None)
