"""Absorbing-slice subsets, decided on their boxes.

These are the cases the absorbing-slice route of `is_subuniverse` was tested
on; the route is deleted, and the tests keep their names.  Each case is now
a `BoxUnion` checked on the box route and compared with direct enumeration
of its elements under a large cap, or past it with the route itself, kept as
`slice_route_oracle`; every refusal's witness must be a real escape.
"""

import itertools
import math

import pytest

from finalg import algebras
from finalg.algebras import (
    DEFAULT_TUPLE_CAP,
    BoxUnion,
    CapExceeded,
    _arg_blocks,
    is_subuniverse,
)
from finalg.witnesses import build_sharpness_witness, good_boxes

import scalar_oracle
import slice_route_oracle
from good_set_oracle import minus_point

_LARGE_CAP = 10_000_000


@pytest.mark.parametrize("sym", [True, False])
def test_arg_blocks_yield_all_multisets_or_tuples(sym):
    for n in range(6):
        for r in range(1, 5):
            want = sorted(itertools.combinations_with_replacement(range(n), r) if sym
                          else itertools.product(range(n), repeat=r))
            for chunk in (1, 3, 7, 250_000):
                got = [tuple(int(v) for v in row)
                       for block in _arg_blocks(n, 0, r, sym, chunk) for row in block]
                assert sorted(got) == want, (n, r, chunk)


def _union(w, boxes):
    return BoxUnion(w.product.indexing.sizes, boxes)


@pytest.mark.parametrize("m, q", [(m, q) for m in range(3, 8) for q in (2, 3)])
def test_slice_scan_matches_scalar_oracle(m, q):
    """B(m, q) is closed on its boxes, and element by element: by direct
    enumeration where that fits under the large cap, else by the slice-route
    oracle; past the cap, the id list is refused by its count."""
    w = build_sharpness_witness(m, q, verify_closure=False)
    assert is_subuniverse(w.product, _union(w, good_boxes(w.factor_roles, q))) == (True, None)
    direct = math.comb(len(w.good_ids) + m - 1, m)
    if direct <= _LARGE_CAP:
        assert is_subuniverse(w.product, w.good_ids, tuple_cap=_LARGE_CAP) == (True, None)
    else:
        with pytest.raises(CapExceeded, match=f"needs {direct} element multisets"):
            is_subuniverse(w.product, w.good_ids, tuple_cap=_LARGE_CAP)
        assert slice_route_oracle.closed(w.product, w.good_ids)


def _check_broken(w, gone):
    """The good set less one element, as boxes: the box route, direct
    enumeration and the slice-route oracle all refuse it, and the box
    route's witness is a real escape."""
    point = [(v,) for v in w.product.indexing.decode(gone)]
    union = _union(w, [part for box in good_boxes(w.factor_roles, w.params.q)
                       for part in minus_point(box, point)])
    broken = [e for e in w.good_ids if e != gone]
    assert union.ids().tolist() == broken
    ok, witness = is_subuniverse(w.product, union)
    assert not ok
    oi, args, result = witness
    assert all(a in set(broken) for a in args)
    assert result not in set(broken)
    assert scalar_oracle.apply(w.product.ops[oi], args) == result
    assert is_subuniverse(w.product, broken, tuple_cap=_LARGE_CAP)[0] is False
    assert slice_route_oracle.closed(w.product, broken, tuple_cap=5_000) is False


def test_violation_only_in_wildcard_dependent_rows():
    """B(5,2) less (0,1,0,1): the slice scan met this escape only in rows
    whose value depends on the wildcard argument."""
    w = build_sharpness_witness(5, 2, verify_closure=False)
    _check_broken(w, w.product.indexing.encode((0, 1, 0, 1)))


def test_violation_in_a_plain_row():
    """B(4,3) less (0,0,1): the escape lies among arguments off the slice."""
    w = build_sharpness_witness(4, 3, verify_closure=False)
    _check_broken(w, w.product.indexing.encode((0, 0, 1)))


def test_slice_cap_raises_before_scanning(monkeypatch):
    """An id list past the cap is refused by its count before any scanning."""
    w = build_sharpness_witness(5, 2, verify_closure=False)

    def no_scan(*args):
        raise AssertionError("scanned despite the cap")
    monkeypatch.setattr(algebras, "_enumerate_violation", no_scan)
    count = math.comb(len(w.good_ids) + 4, 5)
    with pytest.raises(CapExceeded, match=f"needs {count} element multisets against "
                                          f"the cap 10; pass the subset as a BoxUnion"):
        is_subuniverse(w.product, w.good_ids, tuple_cap=10)


def test_b53_needs_its_boxes():
    # the smallest direct count at or above 4M among the B(m, q): above the
    # default cap, so its good ids as an id list are refused; its boxes decide it
    w = build_sharpness_witness(5, 3, verify_closure=False)
    count = math.comb(len(w.good_ids) + 4, 5)
    assert count > DEFAULT_TUPLE_CAP
    with pytest.raises(CapExceeded, match=f"needs {count} element multisets"):
        is_subuniverse(w.product, w.good_ids)
    assert is_subuniverse(w.product, _union(w, good_boxes(w.factor_roles, 3))) == (True, None)
