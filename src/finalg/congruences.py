"""Partitions of a finite universe, their meets, and induced product congruences.

Partitions are canonical: block numbers appear in order of first occurrence,
so two equal set-partitions compare equal structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebras import AlgebraError, FactorIndexing


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
