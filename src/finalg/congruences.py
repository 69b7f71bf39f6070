"""Partitions of a finite universe and congruence machinery.

Partitions are canonical: block numbers appear in order of first occurrence,
so two equal set-partitions compare equal structurally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebras import AlgebraError, CapExceeded, FactorIndexing, FiniteAlgebra


@dataclass(frozen=True)
class Partition:
    block_id: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "block_id", _canonical(self.block_id))

    @property
    def size(self) -> int:
        return len(self.block_id)

    @property
    def n_blocks(self) -> int:
        return max(self.block_id) + 1 if self.block_id else 0

    @staticmethod
    def zero(size: int) -> "Partition":
        """The identity partition (minimal congruence)."""
        return Partition(tuple(range(size)))

    @staticmethod
    def one(size: int) -> "Partition":
        """The all-block partition (largest congruence)."""
        return Partition((0,) * size)

    @staticmethod
    def from_blocks(size: int, blocks: Sequence[Sequence[int]]) -> "Partition":
        ids = [-1] * size
        for b, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < size:
                    raise AlgebraError(f"element {x} out of range")
                if ids[x] != -1:
                    raise AlgebraError(f"element {x} in two blocks")
                ids[x] = b
        if any(i == -1 for i in ids):
            raise AlgebraError("blocks do not cover the universe")
        return Partition(tuple(ids))

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for x, b in enumerate(self.block_id):
            out[b].append(x)
        return out

    def related(self, x: int, y: int) -> bool:
        return self.block_id[x] == self.block_id[y]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.block_id, dtype=np.int64)

    def to_obj(self) -> dict:
        return {"size": self.size, "blocks": self.blocks()}

    @staticmethod
    def from_obj(obj: dict) -> "Partition":
        return Partition.from_blocks(int(obj["size"]), obj["blocks"])


def _canonical(ids: Sequence[int]) -> tuple[int, ...]:
    remap: dict[int, int] = {}
    out = []
    for b in ids:
        if b not in remap:
            remap[b] = len(remap)
        out.append(remap[b])
    return tuple(out)


# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def partition(self) -> Partition:
        return Partition(tuple(self.find(x) for x in range(len(self.parent))))


def congruence_generated(
    alg: FiniteAlgebra, pairs: Iterable[tuple[int, int]], work_cap: int = 20_000_000
) -> Partition:
    """Least congruence containing the pairs.

    Union-find merges alternate with closure under all unary translations
    op(c1,..,x,..,cr) until a fixpoint.  Every merged pair costs one pass over
    all translations; more than `work_cap` translations raise CapExceeded.
    """
    uf = _UnionFind(alg.size)
    work = []
    for a, b in pairs:
        if not (0 <= a < alg.size and 0 <= b < alg.size):
            raise AlgebraError(f"pair ({a},{b}) out of range")
        if uf.union(a, b):
            work.append((a, b))
    per_pair = sum(op.arity * alg.size ** (op.arity - 1) for op in alg.ops)
    done = 0
    while work:
        done += per_pair
        if done > work_cap:
            raise CapExceeded(
                f"congruence generation needs more than {work_cap} translations",
                explored=done - per_pair,
            )
        a, b = work.pop()
        for op in alg.ops:
            r = op.arity
            for pos in range(r):
                for rest in itertools.product(range(alg.size), repeat=r - 1):
                    args_a = rest[:pos] + (a,) + rest[pos:]
                    args_b = rest[:pos] + (b,) + rest[pos:]
                    va, vb = op.apply(args_a), op.apply(args_b)
                    if uf.union(va, vb):
                        work.append((va, vb))
    return uf.partition()


def is_congruence(alg: FiniteAlgebra, part: Partition, work_cap: int = 20_000_000):
    """Exhaustive compatibility check.

    Returns (True, None) or (False, (op_index, position, (x, y), args,
    (out_x, out_y))) for one incompatible translation.
    """
    if part.size != alg.size:
        raise AlgebraError("partition size does not match the algebra")
    ids = part.block_id
    pairs = [
        (x, y)
        for block in part.blocks()
        for x, y in itertools.combinations(block, 2)
    ]
    cost = sum(
        op.arity * (alg.size ** (op.arity - 1)) * len(pairs) for op in alg.ops
    )
    if cost > work_cap:
        raise CapExceeded(f"congruence check needs ~{cost} evaluations")
    for oi, op in enumerate(alg.ops):
        r = op.arity
        for x, y in pairs:
            for pos in range(r):
                for rest in itertools.product(range(alg.size), repeat=r - 1):
                    vx = op.apply(rest[:pos] + (x,) + rest[pos:])
                    vy = op.apply(rest[:pos] + (y,) + rest[pos:])
                    if ids[vx] != ids[vy]:
                        return False, (oi, pos, (x, y), rest, (vx, vy))
    return True, None


def induced_product_congruence(
    indexing: FactorIndexing,
    factor_parts: Sequence[Partition],
    subuniverse: Iterable[int],
) -> Partition:
    """Restriction of a product congruence to a subuniverse.

    Output is re-indexed over the subuniverse's sorted order: position i of
    the result corresponds to the i-th smallest subuniverse element.
    """
    if len(factor_parts) != len(indexing.sizes):
        raise AlgebraError("one partition per factor required")
    for p, s in zip(factor_parts, indexing.sizes):
        if p.size != s:
            raise AlgebraError(f"partition sized {p.size}, factor sized {s}")
    sub = sorted(set(int(x) for x in subuniverse))
    if not sub:
        raise AlgebraError("empty subuniverse")
    dec = indexing.digits(sub)
    keys = np.zeros(len(sub), dtype=np.int64)
    for i, p in enumerate(factor_parts):
        keys = keys * (p.n_blocks) + p.as_array()[dec[:, i]]
    return Partition(tuple(int(k) for k in keys))


def partition_meet(p: Partition, q: Partition) -> Partition:
    if p.size != q.size:
        raise AlgebraError("partition sizes differ")
    nb = q.n_blocks
    return Partition(tuple(pb * nb + qb for pb, qb in zip(p.block_id, q.block_id)))


def partition_join(alg: FiniteAlgebra, p: Partition, q: Partition) -> Partition:
    """Least congruence above two congruences.

    For congruence inputs this is the transitive closure of the union, no
    operation closure needed; inputs are checked when affordable.
    """
    if p.size != q.size or p.size != alg.size:
        raise AlgebraError("partition sizes differ")
    for part in (p, q):
        try:
            ok, witness = is_congruence(alg, part)
        except CapExceeded:
            continue
        if not ok:
            raise AlgebraError(f"input is not a congruence: {witness}")
    uf = _UnionFind(p.size)
    for part in (p, q):
        for block in part.blocks():
            for x in block[1:]:
                uf.union(block[0], x)
    return uf.partition()


def restrict_partition(part: Partition, subset: Sequence[int]) -> Partition:
    """Partition induced on a subset, re-indexed over its sorted order."""
    sub = sorted(set(int(x) for x in subset))
    return Partition(tuple(part.block_id[x] for x in sub))
