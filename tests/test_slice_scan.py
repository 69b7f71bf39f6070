"""The absorbing-slice subuniverse check against its scalar predecessor."""

import functools
import itertools
import math
import random

import numpy as np
import pytest

from finalg import algebras
from finalg.algebras import (
    DEFAULT_TUPLE_CAP,
    CapExceeded,
    FiniteAlgebra,
    Operation,
    TableOp,
    _arg_blocks,
    _coord_absorbs,
    flat_view,
    is_subuniverse,
)
from finalg.witnesses import build_sharpness_witness
from slice_oracle import scalar_slice_scan


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


def _slice_outcome(prod, subset, monkeypatch, scan):
    """The slice route's answer on the one operation, or the cap it raised."""
    monkeypatch.setattr(algebras, "_slice_scan", scan)
    ids = np.asarray(sorted(subset), dtype=np.int64)
    try:
        return algebras._absorbing_slice_violation(
            flat_view(prod), 0, prod.ops[0], ids, DEFAULT_TUPLE_CAP)
    except CapExceeded as exc:
        return f"cap: {exc}"


@pytest.mark.parametrize("m, q", [(m, q) for m in range(3, 8) for q in (2, 3)])
def test_slice_scan_matches_scalar_oracle(monkeypatch, m, q):
    w = build_sharpness_witness(m, q, verify_closure=False)
    new = _slice_outcome(w.product, w.good_ids, monkeypatch, algebras._slice_scan)
    old = _slice_outcome(w.product, w.good_ids, monkeypatch, scalar_slice_scan)
    assert new == old
    if m >= 4:
        assert new is None  # the route engages and finds the set closed


def _recorded_scan(calls):
    real = algebras._slice_scan

    def scan(oi, ops_c, rest_rows, rest_ids, boxes, e, *rest):
        calls.append(e)
        return real(oi, ops_c, rest_rows, rest_ids, boxes, e, *rest)
    return scan


def _escapes_by_kind(prod, subset, monkeypatch):
    """Every escaping application the scalar scan meets, as (e, row kind)."""
    found = []
    monkeypatch.setattr(algebras, "_slice_scan",
                        functools.partial(scalar_slice_scan, found=found))
    is_subuniverse(prod, subset, tuple_cap=5_000)
    monkeypatch.undo()
    return found


def _check_broken(prod, broken, monkeypatch):
    """Slice route and direct enumeration both refuse; return the pass of the hit."""
    members = set(broken)
    assert math.comb(len(broken) + prod.ops[0].arity - 1, prod.ops[0].arity) > 5_000
    calls = []
    monkeypatch.setattr(algebras, "_slice_scan", _recorded_scan(calls))
    ok, witness = is_subuniverse(prod, broken, tuple_cap=5_000)
    monkeypatch.undo()
    assert not ok and calls
    oi, args, result = witness
    assert all(a in members for a in args)
    assert result not in members
    assert prod.ops[oi].apply(args) == result
    monkeypatch.setattr(algebras, "_slice_scan", scalar_slice_scan)
    assert is_subuniverse(prod, broken, tuple_cap=5_000)[0] is False
    monkeypatch.undo()
    assert is_subuniverse(prod, broken, tuple_cap=10_000_000)[0] is False
    return calls[-1]


def test_violation_only_in_wildcard_dependent_rows(monkeypatch):
    w = build_sharpness_witness(5, 2, verify_closure=False)
    gone = w.product.indexing.encode((0, 1, 0, 1))
    broken = [e for e in w.good_ids if e != gone]
    kinds = _escapes_by_kind(w.product, broken, monkeypatch)
    assert kinds and set(kinds) == {(1, "multi")}
    assert _check_broken(w.product, broken, monkeypatch) == 1


def test_violation_in_a_plain_row(monkeypatch):
    w = build_sharpness_witness(4, 3, verify_closure=False)
    gone = w.product.indexing.encode((0, 0, 1))
    broken = [e for e in w.good_ids if e != gone]
    kinds = _escapes_by_kind(w.product, broken, monkeypatch)
    assert (0, "plain") in kinds  # the first pass (no wildcards) already escapes
    assert _check_broken(w.product, broken, monkeypatch) == 0


def test_expansion_in_small_key_groups(monkeypatch):
    # with groups of two keys, most rows expand alone or in groups of their own
    monkeypatch.setattr(algebras, "_EXPAND_KEYS", 2)
    counts = []
    real = algebras._expanded_escape

    def expand(outs, *rest):
        keys = np.ones(outs[0].shape[1], dtype=np.int64)
        for out in outs:
            ordered = np.sort(out, axis=0)
            keys *= 1 + (ordered[1:] != ordered[:-1]).sum(axis=0)
        counts.append(int(keys.max()))
        return real(outs, *rest)
    monkeypatch.setattr(algebras, "_expanded_escape", expand)
    w = build_sharpness_witness(5, 3, verify_closure=False)
    assert is_subuniverse(w.product, w.good_ids) == (True, None)  # an id list: slice route
    assert max(counts) > 2
    w = build_sharpness_witness(5, 2, verify_closure=False)
    gone = w.product.indexing.encode((0, 1, 0, 1))
    broken = [e for e in w.good_ids if e != gone]
    ok, (oi, args, result) = is_subuniverse(w.product, broken, tuple_cap=5_000)
    assert not ok and result not in set(broken) and set(args) <= set(broken)
    assert w.product.ops[oi].apply(args) == result


def test_slice_cap_raises_before_scanning(monkeypatch):
    w = build_sharpness_witness(5, 2, verify_closure=False)

    def no_scan(*args):
        raise AssertionError("scanned despite the cap")
    monkeypatch.setattr(algebras, "_slice_scan", no_scan)
    monkeypatch.setattr(algebras, "_enumerate_violation", no_scan)
    with pytest.raises(CapExceeded, match="slice reduction still needs"):
        is_subuniverse(w.product, w.good_ids, tuple_cap=10)


def test_b53_stays_on_the_slice_route(monkeypatch):
    # the smallest direct count at or above 4M among the B(m, q): above the
    # default cap.  The builder checks its boxes; its good ids as an id list
    # still take the slice route.
    w = build_sharpness_witness(5, 3, verify_closure=False)
    assert math.comb(len(w.good_ids) + 4, 5) > DEFAULT_TUPLE_CAP
    routes = []
    real = algebras._absorbing_slice_violation

    def slice_route(*args):
        routes.append("slice")
        return real(*args)
    monkeypatch.setattr(algebras, "_absorbing_slice_violation", slice_route)
    assert is_subuniverse(w.product, w.good_ids) == (True, None)
    assert routes == ["slice"]


def _scalar_coord_absorbs(cop, proj, box, k, r):
    box_set = {int(v) for v in box}
    if {int(v) for v in proj} <= box_set:
        return True
    for combo in itertools.combinations_with_replacement([int(v) for v in proj], r):
        if sum(v in box_set for v in combo) >= k and cop.apply(combo) not in box_set:
            return False
    return True


def test_coord_absorbs_matches_scalar_loop():
    rng = random.Random(7)
    verdicts = set()
    for _ in range(60):
        size, r = rng.choice([3, 4]), rng.choice([3, 4])
        proj = sorted(rng.sample(range(size), rng.randrange(2, size + 1)))
        box = sorted(rng.sample(proj, rng.randrange(1, len(proj))))
        k = rng.randrange(1, r)
        values = {}
        table = []
        for args in itertools.product(range(size), repeat=r):
            key = tuple(sorted(args))
            if key not in values:
                absorbed = sum(a in box for a in key) >= k and rng.random() < 0.97
                values[key] = rng.choice(box) if absorbed else rng.randrange(size)
            table.append(values[key])
        cop = FiniteAlgebra(size, [TableOp("u", r, size, table)]).ops[0]
        got = _coord_absorbs(cop, np.asarray(proj), np.asarray(box), k, r)
        assert got == _scalar_coord_absorbs(cop, proj, box, k, r)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_coord_absorbs_keeps_its_cap():
    class Unapplied(Operation):
        name, arity, size = "u", 4, 60  # C(63, 4) = 595,665 multisets

    with pytest.raises(CapExceeded, match="absorption check too large"):
        _coord_absorbs(Unapplied(), np.arange(60), np.arange(2), 2, 4)
