"""Scalar oracles: one argument tuple at a time, sharing no code with
`Operation.apply_cols` or the closure kernel.

`apply` reads a `TableOp`'s stored table at the mixed-radix index of its
arguments and evaluates a `ProductOp` factor by factor on the decoded
digits.  `term_value` walks a term with it, and `is_congruence` checks every
translation of every related pair with it.  `values` reads the tables the
same way for many argument rows at once, and `closed` decides whether an id
list is a subuniverse by enumerating its element multisets (tuples for an
operation that is not symmetric) and applying `values` to them, sharing no
code with the subuniverse check or the argument blocks of the closure.
`_canonical` renumbers partition keys by first occurrence one key at a time.
"""

import itertools
import math

import numpy as np

from finalg.algebras import CapExceeded, ProductOp
from finalg.terms import Var

_BLOCK = 100_000  # argument rows evaluated at once by `closed`


def _digits(index, sizes):
    out = []
    for s in reversed(sizes):
        out.append(index % s)
        index //= s
    return out[::-1]


def apply(op, args):
    """The value of `op` at one argument tuple."""
    assert len(args) == op.arity, (op.name, args)
    assert all(0 <= a < op.size for a in args), (op.name, args)
    if isinstance(op, ProductOp):
        sizes = op.indexing.sizes
        coords = [_digits(int(a), sizes) for a in args]
        out = 0
        for i, (factor, s) in enumerate(zip(op.factor_ops, sizes)):
            out = out * s + apply(factor, [c[i] for c in coords])
        return out
    idx = 0
    for a in args:
        idx = idx * op.size + int(a)
    return int(op.table[idx])


def term_value(term, alg, env):
    """The value of a term at one assignment of its variables; shared
    subterms are evaluated once."""
    memo = {}

    def walk(t):
        if id(t) not in memo:
            memo[id(t)] = (int(env[t.index]) if isinstance(t, Var) else
                           apply(alg.ops[t.op_index], [walk(a) for a in t.args]))
        return memo[id(t)]

    return walk(term)


def _canonical(keys):
    """Block ids numbered by first occurrence: the reference for `Partition`."""
    remap = {}
    out = []
    for b in keys:
        if b not in remap:
            remap[b] = len(remap)
        out.append(remap[b])
    return tuple(out)


def is_congruence(alg, part, work_cap=20_000_000):
    """Exhaustive compatibility check.

    Returns (True, None) or (False, (op_index, position, (x, y), rest,
    (out_x, out_y))) for one incompatible translation.  Raises CapExceeded
    when the check would need more than `work_cap` evaluations.
    """
    assert part.size == alg.size
    ids = part.block_id
    pairs = [(x, y) for block in part.blocks() for x, y in itertools.combinations(block, 2)]
    cost = sum(op.arity * alg.size ** (op.arity - 1) * len(pairs) for op in alg.ops)
    if cost > work_cap:
        raise CapExceeded(f"congruence check needs ~{cost} evaluations")
    for oi, op in enumerate(alg.ops):
        for x, y in pairs:
            for pos in range(op.arity):
                for rest in itertools.product(range(alg.size), repeat=op.arity - 1):
                    vx = apply(op, rest[:pos] + (x,) + rest[pos:])
                    vy = apply(op, rest[:pos] + (y,) + rest[pos:])
                    if ids[vx] != ids[vy]:
                        return False, (oi, pos, (x, y), rest, (vx, vy))
    return True, None


def values(op, rows):
    """The values of `op` at many argument rows, shape (n, arity), read off
    the stored tables as `apply` reads them."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, op.arity)
    if isinstance(op, ProductOp):
        sizes = op.indexing.sizes
        out = np.zeros(len(rows), dtype=np.int64)
        rest = rows.copy()
        digits = []
        for s in reversed(sizes):
            digits.append(rest % s)
            rest //= s
        for factor, s, digit in zip(op.factor_ops, sizes, reversed(digits)):
            out = out * s + values(factor, digit)
        return out
    idx = np.zeros(len(rows), dtype=np.int64)
    for pos in range(op.arity):
        idx = idx * op.size + rows[:, pos]
    return op.table[idx].astype(np.int64)


def symmetric(op):
    """Whether the stored tables are invariant under every swap of two
    adjacent arguments, which generate all argument permutations."""
    if isinstance(op, ProductOp):
        return all(symmetric(f) for f in op.factor_ops)
    grid = op.table.reshape((op.size,) * op.arity)
    return all(np.array_equal(grid, np.swapaxes(grid, i, i + 1)) for i in range(op.arity - 1))


def argument_rows(n, r, sym):
    """Every sorted r-multiset of range(n) if `sym`, else every r-tuple, as
    index rows in blocks of about `_BLOCK` rows."""
    if not sym:
        for start in range(0, n**r, _BLOCK):
            idx = np.arange(start, min(start + _BLOCK, n**r), dtype=np.int64)
            yield np.stack([idx // n ** (r - 1 - pos) % n for pos in range(r)], axis=1)
        return
    yield from _multisets(0, n, r)


def _multisets(lo, n, r):
    """The sorted r-multisets of range(lo, n); split on the first entry
    while there are more than `_BLOCK` of them."""
    if r > 1 and math.comb(n - lo + r - 1, r) > _BLOCK:
        for first in range(lo, n):
            for rest in _multisets(first, n, r - 1):
                yield np.column_stack([np.full(len(rest), first), rest])
        return
    rows = np.arange(lo, n, dtype=np.int64)[:, None]
    for _ in range(r - 1):  # append each value from the row's last one up
        last = rows[:, -1]
        reps = n - last
        step = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), np.repeat(last, reps) + step])
    yield rows


def op_closed(op, ids, sym):
    """Whether the sorted id array is closed under `op`: every multiset of
    its elements (every tuple unless `sym`) has its value in it."""
    return all(np.isin(values(op, ids[rows]), ids).all()
               for rows in argument_rows(len(ids), op.arity, sym))


def closed(alg, ids, cap=10_000_000):
    """Whether the id list is closed under every operation of `alg`, by
    direct enumeration.  Raises CapExceeded, before enumerating anything,
    when that takes more than `cap` argument rows."""
    ids = np.asarray(sorted({int(x) for x in ids}), dtype=np.int64)
    plan = [(op, symmetric(op)) for op in alg.ops]
    count = sum(math.comb(len(ids) + op.arity - 1, op.arity) if sym else len(ids)**op.arity
                for op, sym in plan)
    if count > cap:
        raise CapExceeded(f"direct enumeration needs {count} argument rows")
    return all(op_closed(op, ids, sym) for op, sym in plan)
