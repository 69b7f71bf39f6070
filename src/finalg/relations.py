"""Binary relations as boolean matrices: composition, chains, inclusion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraError, CapExceeded
from .congruences import Partition


class BinRelation:
    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2 or bits.shape[0] != bits.shape[1]:
            raise AlgebraError("relation matrix must be square")
        self.bits = bits
        self.bits.setflags(write=False)

    @property
    def size(self) -> int:
        return self.bits.shape[0]

    @staticmethod
    def identity(size: int) -> "BinRelation":
        return BinRelation(np.eye(size, dtype=bool))

    @staticmethod
    def full(size: int) -> "BinRelation":
        return BinRelation(np.ones((size, size), dtype=bool))

    @staticmethod
    def from_pairs(size: int, pairs) -> "BinRelation":
        m = np.zeros((size, size), dtype=bool)
        for x, y in pairs:
            m[x, y] = True
        return BinRelation(m)

    def pairs(self) -> list[tuple[int, int]]:
        xs, ys = np.nonzero(self.bits)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    def __eq__(self, other):
        return isinstance(other, BinRelation) and np.array_equal(self.bits, other.bits)

    def __hash__(self):  # pragma: no cover
        return hash(self.bits.tobytes())

    def __repr__(self):  # pragma: no cover
        return f"BinRelation(size={self.size}, pairs={int(self.bits.sum())})"


def rel_of_partition(part: Partition) -> BinRelation:
    ids = part.as_array()
    return BinRelation(ids[:, None] == ids[None, :])


def bool_product(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Relational product of two boolean n x n matrices.

    Path counts are at most n; float32 holds them exactly below 2**24, far
    above any matrix built here (check_identity keeps n <= 1414 through its
    matrix_cap), so unlike a uint8 product the count cannot wrap to 0.
    """
    return (r.astype(np.float32) @ s.astype(np.float32)) > 0


def rel_compose(r: BinRelation, s: BinRelation) -> BinRelation:
    if r.size != s.size:
        raise AlgebraError("relation sizes differ")
    return BinRelation(bool_product(r.bits, s.bits))


def rel_meet(r: BinRelation, s: BinRelation) -> BinRelation:
    if r.size != s.size:
        raise AlgebraError("relation sizes differ")
    return BinRelation(r.bits & s.bits)


@dataclass(frozen=True)
class ChainPattern:
    """Alternating composition first . second . first . ... with a factor count.

    Count 0 is the minimal congruence (the diagonal); count 1 is the first
    relation alone.
    """

    first: BinRelation
    second: BinRelation
    factor_count: int

    def __post_init__(self):
        if self.first.size != self.second.size:
            raise AlgebraError("relation sizes differ")
        if self.factor_count < 0:
            raise AlgebraError("factor count must be >= 0")


def eval_chain(pattern: ChainPattern) -> BinRelation:
    out = BinRelation.identity(pattern.first.size)
    for i in range(pattern.factor_count):
        out = rel_compose(out, pattern.first if i % 2 == 0 else pattern.second)
    return out


def check_inclusion(lhs: BinRelation, rhs: BinRelation):
    """Subset test; on failure returns the lexicographically least violating pair."""
    if lhs.size != rhs.size:
        raise AlgebraError("relation sizes differ")
    viol = lhs.bits & ~rhs.bits
    if not viol.any():
        return True, None
    flat = int(np.argmax(viol.reshape(-1)))
    return False, (flat // lhs.size, flat % lhs.size)


def rel_power(r: BinRelation, k: int) -> BinRelation:
    out = BinRelation.identity(r.size)
    for _ in range(k):
        out = rel_compose(out, r)
    return out


def shortest_alternating_chain(
    start: int,
    goal: int,
    first: BinRelation,
    second: BinRelation,
    cap: int = 64,
):
    """Shortest alternating path, both starting relations tried.

    Returns (path, factor_count) where path lists the visited elements
    (start and goal included) and consecutive steps alternate between the
    two relations; the starting relation is whichever gives the shorter
    chain, ties broken by the lexicographically least element sequence.
    Returns None if no path exists at all, and raises CapExceeded if the
    search hits the factor cap while paths might still exist.
    """
    n = first.size
    if not (0 <= start < n and 0 <= goal < n):
        raise AlgebraError("endpoints out of range")
    if start == goal:
        return [start], 0
    best = None
    capped = False
    for lead in (first, second):
        try:
            found = _bfs_alternating(start, goal, lead, first if lead is second else second, cap)
        except CapExceeded:
            capped = True
            continue
        if found is None:
            continue
        if best is None or (len(found), found) < (len(best), best):
            best = found
    if best is None:
        if capped:
            raise CapExceeded(f"no alternating path within {cap} factors")
        return None
    return best, len(best) - 1


def _bfs_alternating(start, goal, lead, other, cap):
    rels = (lead.bits, other.bits)
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
