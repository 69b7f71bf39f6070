"""The absorbing-slice route that `is_subuniverse` once took for large id lists.

`is_subuniverse` checks every subset on its boxes; this is an element-level
route it replaced, kept as an independent oracle for the tests.  `closed`
decides an id list operation by operation: by direct enumeration
(`scalar_oracle.op_closed`) while its multisets fit under `tuple_cap`, else
through an absorbing slice of the flattened product (`_slice_closed`).  It
evaluates operations only through `scalar_oracle.values`, returns the
verdict only, and raises CapExceeded when no usable slice exists or the
reduced scan is too large.
"""

import itertools
import math

import numpy as np

from finalg.algebras import DEFAULT_TABLE_CAP, DEFAULT_TUPLE_CAP, CapExceeded

import scalar_oracle

_EXPAND_KEYS = 1 << 20  # wildcard-expanded keys held at once by the scan


def closed(alg, ids, tuple_cap=DEFAULT_TUPLE_CAP) -> bool:
    ids_arr = np.asarray(sorted({int(x) for x in ids}), dtype=np.int64)
    if not len(ids_arr):
        return True
    for oi, op in enumerate(alg.ops):
        sym = scalar_oracle.symmetric(op)
        n, r = len(ids_arr), op.arity
        direct = math.comb(n + r - 1, r) if sym else n**r
        if direct <= tuple_cap:
            ok = scalar_oracle.op_closed(op, ids_arr, sym)
        elif sym and (view := _flat_view(alg)) is not None:
            ok = _slice_closed(view, oi, op, ids_arr, tuple_cap)
        else:
            raise CapExceeded(f"{direct} tuples on {op.name} and no product reduction applies")
        if not ok:
            return False
    return True


def _flat_view(alg):
    """(coord_ops, decode): per operation the operations of the flattened
    coordinates, and the coordinate rows of every element; None when the
    algebra has no product structure."""
    if alg.factors is None:
        return None
    per_op = [[] for _ in alg.ops]
    decodes = []
    dec = alg.indexing.digits(np.arange(alg.size))
    for fi, factor in enumerate(alg.factors):
        inner = _flat_view(factor)
        if inner is None:
            for k, op in enumerate(factor.ops):
                per_op[k].append(op)
            decodes.append(dec[:, fi: fi + 1])
        else:
            for k in range(len(alg.ops)):
                per_op[k].extend(inner[0][k])
            decodes.append(inner[1][dec[:, fi]])
    return per_op, np.concatenate(decodes, axis=1)


def _min_absorbing(op, zero, r):
    """Least k < r making `zero` k-absorbing, from one table scan."""
    if op.size**op.arity > DEFAULT_TABLE_CAP:
        return None
    cols = np.indices((op.size,) * op.arity).reshape(op.arity, -1)  # table order
    bad = scalar_oracle.values(op, cols.T) != zero
    k = int((cols == zero).sum(axis=0)[bad].max()) + 1 if bad.any() else 1
    return k if k < r else None


def _slice_closed(view, oi, op, ids_arr, tuple_cap):
    """Closure under one symmetric op through an absorbing coordinate value.

    Needs a coordinate c* and a value z, k-absorbing there, such that the
    slice {s in S : s[c*] = z} is a full box of its coordinate projections
    and every coordinate's occurring values absorb into the box.  Then an
    application with >= k slice arguments stays in the box, and the others
    (e < k slice arguments, ranging as per-coordinate wildcards over the box)
    are enumerated.
    """
    coord_ops, decode = view
    ops_c = coord_ops[oi]
    r = op.arity
    sub = decode[ids_arr]
    ncoords = sub.shape[1]
    weights = np.ones(ncoords, dtype=np.int64)  # mixed radix over the coordinates
    for c in range(ncoords - 2, -1, -1):
        weights[c] = weights[c + 1] * ops_c[c + 1].size
    virtual = int(weights[0]) * ops_c[0].size
    if virtual > (1 << 24):
        raise CapExceeded("flattened coordinate space too large to index")
    key_to_id = np.full(virtual, -1, dtype=np.int64)
    key_to_id[decode @ weights] = np.arange(len(decode))
    member = np.zeros(len(decode), dtype=bool)
    member[ids_arr] = True

    candidates = []
    for c in range(ncoords):
        for z in np.unique(sub[:, c]):
            k = _min_absorbing(ops_c[c], int(z), r)
            in_slice = sub[:, c] == z
            if k is not None and not in_slice.all():
                cost = math.comb(int((~in_slice).sum()) + r - 1, r)
                candidates.append((cost, c, k, in_slice))
    candidates.sort(key=lambda t: t[0])
    projs = [np.unique(sub[:, c]) for c in range(ncoords)]
    for _, cstar, k, in_slice in candidates:
        rows = sub[in_slice]
        boxes = [np.unique(rows[:, c]) for c in range(ncoords)]
        if len(rows) == math.prod(len(b) for b in boxes) and all(
                c == cstar or _coord_absorbs(ops_c[c], projs[c], boxes[c], k, r)
                for c in range(ncoords)):
            break
    else:
        raise CapExceeded(f"no usable absorbing slice for {op.name}")

    rest_rows = sub[~in_slice]
    count = math.comb(len(rest_rows) + r - 1, r)  # e = 0 has the most rows
    if count > tuple_cap:
        raise CapExceeded(f"slice reduction still needs {count} tuples on {op.name}")
    return not any(_slice_escapes(ops_c, rest_rows, boxes, e, weights, key_to_id, member)
                   for e in range(k))


def _coord_absorbs(cop, proj, box, k, r):
    """All r-multisets over proj with >= k entries from box map into box."""
    if np.isin(proj, box).all():
        return True
    if math.comb(len(proj) + r - 1, r) > 200_000:
        raise CapExceeded("per-coordinate absorption check too large")
    for idx in scalar_oracle.argument_rows(len(proj), r, True):
        vals = proj[idx]
        enough = np.isin(vals, box).sum(axis=1) >= k
        if not np.isin(scalar_oracle.values(cop, vals[enough]), box).all():
            return False
    return True


def _slice_escapes(ops_c, rest_rows, boxes, e, weights, key_to_id, member):
    """Whether an application with exactly `e` box-wildcard arguments escapes.

    The box is a full product, so the wildcards' values at distinct
    coordinates vary independently: per coordinate, the candidate outputs
    are computed for every e-multiset of box values, and every combination
    of candidates across coordinates is realised by some wildcard choice.
    """
    t = ops_c[0].arity - e
    wild = []  # per coordinate: the e-multisets of its box values, (count, e)
    for b in boxes:
        combos = list(itertools.combinations_with_replacement(b, e))
        wild.append(np.asarray(combos, dtype=np.int64).reshape(len(combos), e))
    cols = np.ascontiguousarray(rest_rows.T)
    for rows in scalar_oracle.argument_rows(len(rest_rows), t, True):
        args = np.empty((t + e, len(rows)), dtype=np.int64)
        outs = []  # per coordinate: (wildcard multisets, rows) output values
        for c, cop in enumerate(ops_c):
            np.take(cols[c], rows.T, out=args[:t])
            out = np.empty((len(wild[c]), len(rows)), dtype=np.int64)
            for w, combo in enumerate(wild[c]):
                args[t:] = combo[:, None]
                out[w] = scalar_oracle.values(cop, args.T)
            outs.append(out)
        if _expanded_escapes(outs, weights, key_to_id, member):
            return True
    return False


def _expanded_escapes(outs, weights, key_to_id, member):
    """Whether an output combination of some row lies outside the subset.

    outs[c] holds the candidate values of coordinate c, one column per row.
    Each row stands for the product of its distinct candidates; the products
    are expanded coordinate by coordinate into mixed-radix keys, in groups of
    rows holding at most `_EXPAND_KEYS` keys, and looked up with one gather
    per group.
    """
    nrows = outs[0].shape[1]
    base = sum(out[0] * weights[c] for c, out in enumerate(outs))
    count = np.ones(nrows, dtype=np.int64)
    varying = []  # (key shifts of the distinct values row after row, offset, count)
    for c, out in enumerate(outs):
        if len(out) == 1:
            continue
        vals = np.sort(out, axis=0).T
        keep = np.ones(vals.shape, dtype=bool)
        keep[:, 1:] = vals[:, 1:] != vals[:, :-1]
        nvals = keep.sum(axis=1)
        if (nvals == 1).all():
            continue
        flat = (vals[keep] - np.repeat(out[0], nvals)) * weights[c]
        varying.append((flat, np.cumsum(nvals) - nvals, nvals))
        count *= nvals
    ends = np.cumsum(count)
    lo = 0
    while lo < nrows:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - count[lo] + _EXPAND_KEYS,
                                             side="right")))
        owner = np.arange(lo, hi)
        key = base[lo:hi]
        for flat, offset, nvals in varying:
            reps = nvals[owner]
            step = np.repeat(np.cumsum(reps) - reps - offset[owner], reps)
            key = np.repeat(key, reps) + flat[np.arange(len(step)) - step]
            owner = np.repeat(owner, reps)
        ids = key_to_id[key]
        if ((ids < 0) | ~member[ids]).any():
            return True
        lo = hi
    return False
