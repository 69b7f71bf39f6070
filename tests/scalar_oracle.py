"""Scalar oracles: one argument tuple at a time, sharing no code with
`Operation.apply_cols` or the closure kernel.

`apply` reads a `TableOp`'s stored table at the mixed-radix index of its
arguments and evaluates a `ProductOp` factor by factor on the decoded
digits.  `term_value` walks a term with it, and `is_congruence` checks every
translation of every related pair with it.
"""

import itertools

from finalg.algebras import CapExceeded, ProductOp
from finalg.terms import Var


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
