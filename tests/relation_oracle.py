"""Relations as boolean n x n matrices, composed by float32 products.

This is how full-mode identity checks and the shortest alternating-chain
search worked before `identities` evaluated everything by block images; the
tests keep it as an oracle.  Path counts in a product are at most n, which
float32 holds exactly below 2**24, so unlike a uint8 product a count cannot
wrap to 0.
"""

import numpy as np

from finalg.algebras import AlgebraError, CapExceeded
from finalg.congruences import partition_meet
from finalg.identities import (
    ALPHA,
    ALPHA_BETA,
    ALPHA_GAMMA,
    BETA,
    GAMMA,
    Comp,
    MeetAlpha,
    Power,
    Prim,
)


def relation(part) -> np.ndarray:
    ids = part.as_array()
    return ids[:, None] == ids[None, :]


def matrix_context(alpha, beta, gamma) -> dict:
    return {
        ALPHA: relation(alpha),
        BETA: relation(beta),
        GAMMA: relation(gamma),
        ALPHA_BETA: relation(partition_meet(alpha, beta)),
        ALPHA_GAMMA: relation(partition_meet(alpha, gamma)),
    }


def bool_product(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    return (r.astype(np.float32) @ s.astype(np.float32)) > 0


def expr_matrix(expr, rels: dict) -> np.ndarray:
    """Full boolean matrix of the expression over `matrix_context` relations."""
    n = rels[ALPHA].shape[0]
    if isinstance(expr, Prim):
        return rels[expr.key]
    if isinstance(expr, Comp):
        out = np.eye(n, dtype=bool)
        for item in expr.items:
            out = bool_product(out, expr_matrix(item, rels))
        return out
    if isinstance(expr, MeetAlpha):
        return expr_matrix(expr.inner, rels) & rels[ALPHA]
    if isinstance(expr, Power):
        base = expr_matrix(expr.inner, rels)
        out = np.eye(n, dtype=bool)
        for _ in range(expr.k):
            out = bool_product(out, base)
        return out
    raise AlgebraError(f"bad expression node {expr!r}")


def _bfs_alternating(start, goal, lead, other, cap):
    """Lex-least shortest path from start to goal alternating lead, other, ...

    `lead` and `other` are boolean matrices.  Returns None when no path
    exists and raises CapExceeded when `cap` steps pass without settling.
    """
    rels = (lead, other)
    dist = {(start, 0): 0}
    levels = [[(start, 0)]]
    hit = False
    while levels[-1] and not hit:
        if len(levels) - 1 >= cap:
            raise CapExceeded("alternating-path cap reached")
        nxt = []
        for x, parity in levels[-1]:
            for y in np.nonzero(rels[parity][x])[0]:
                state = (int(y), 1 - parity)
                if state not in dist:
                    dist[state] = len(levels)
                    nxt.append(state)
                    if y == goal:
                        hit = True
        levels.append(nxt)
    if not hit:
        return None
    # filter each level down to states on some shortest path, then walk
    # forward choosing the least element, giving the lex-least sequence
    length = len(levels) - 1
    on_path = [set() for _ in range(length + 1)]
    on_path[length] = {s for s in levels[length] if s[0] == goal}
    for i in range(length - 1, -1, -1):
        keep = set()
        for x, parity in levels[i]:
            row = rels[parity][x]
            if any(row[y] for y, p in on_path[i + 1] if p == 1 - parity):
                keep.add((x, parity))
        on_path[i] = keep
    path = [start]
    state = (start, 0)
    for i in range(length):
        x, parity = state
        row = rels[parity][x]
        y = min(y for y, p in on_path[i + 1] if p == 1 - parity and row[y])
        path.append(y)
        state = (y, 1 - parity)
    return path
