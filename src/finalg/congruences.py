"""Partitions of a finite universe, their meets, and induced product congruences.

A partition is a read-only int64 array of block ids, numbered in order of
first occurrence, so two equal set-partitions hold equal arrays.  Its block
view (`order`, `starts`) is computed once and cached, and every relation
image in `identities` reads it directly.  So are its meets: `partition_meet`
keeps each one on its left partition, keyed by the right one's identity (a
partition is read-only, so it need not be hashed by content).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebras import AlgebraError


class Partition:
    """A set-partition of 0..size-1, given by any keys equal exactly within a block."""

    def __init__(self, keys):
        ids, n_blocks = _canonical(np.asarray(keys, dtype=np.int64))
        ids.setflags(write=False)
        self.__dict__.update(block_id=ids, n_blocks=n_blocks)

    def __setattr__(self, name, value):
        raise AttributeError(f"a partition is read-only; cannot set {name}")

    @property
    def size(self) -> int:
        return len(self.block_id)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and np.array_equal(self.block_id, other.block_id)

    def __repr__(self) -> str:
        return f"Partition({self.block_id.tolist()})"

    @cached_property
    def order(self) -> np.ndarray:
        """The elements listed block by block, each block in increasing order."""
        return np.argsort(self.block_id, kind="stable")

    @cached_property
    def starts(self) -> np.ndarray:
        """Where each block begins in `order`."""
        counts = np.bincount(self.block_id, minlength=self.n_blocks)
        return np.cumsum(counts) - counts

    @cached_property
    def _meets(self) -> dict:
        """id(q): (q, partition_meet(self, q)); holding q keeps its id unique."""
        return {}

    @staticmethod
    def zero(size: int) -> "Partition":
        """The identity partition (minimal congruence)."""
        return Partition(np.arange(size))

    @staticmethod
    def one(size: int) -> "Partition":
        """The all-block partition (largest congruence)."""
        return Partition(np.zeros(size, dtype=np.int64))

    @staticmethod
    def from_blocks(size: int, blocks: Sequence[Sequence[int]]) -> "Partition":
        lengths = [len(block) for block in blocks]
        try:
            elems = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.int64)
        except OverflowError:
            raise AlgebraError("an element is out of range") from None
        outside = (elems < 0) | (elems >= size)
        if outside.any():
            raise AlgebraError(f"element {elems[outside][0]} out of range")
        counts = np.bincount(elems, minlength=size)
        if (counts > 1).any():
            raise AlgebraError(f"element {np.flatnonzero(counts > 1)[0]} listed twice")
        if (counts == 0).any():
            raise AlgebraError("blocks do not cover the universe")
        ids = np.empty(size, dtype=np.int64)
        ids[elems] = np.repeat(np.arange(len(lengths)), lengths)
        return Partition(ids)

    def blocks(self) -> list[list[int]]:
        flat = self.order.tolist()
        bounds = [*self.starts.tolist(), self.size]
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def related(self, x: int, y: int) -> bool:
        return bool(self.block_id[x] == self.block_id[y])

    def as_array(self) -> np.ndarray:
        """The block ids themselves (read-only, not a copy)."""
        return self.block_id

    def to_obj(self) -> dict:
        return {"size": self.size, "blocks": self.blocks()}

    @staticmethod
    def from_obj(obj: dict) -> "Partition":
        return Partition.from_blocks(int(obj["size"]), obj["blocks"])


def _canonical(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Keys renumbered by first occurrence, and the number of blocks.

    Each element goes to where its key first occurs, found through a table
    over the key range when that is at most 4n (faster than a sort, and at
    most four times the keys' memory), else through the sorted keys.
    """
    n = len(keys)
    if n == 0:
        return keys.copy(), 0
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1
    if span <= 4 * n:
        offset = keys - lo
        first = np.full(span, n, dtype=np.int64)
        np.minimum.at(first, offset, np.arange(n))
        at = first[offset]
    else:
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        at = first[inverse]
    is_first = np.zeros(n, dtype=bool)
    is_first[at] = True
    label = np.cumsum(is_first) - 1
    return label[at], int(label[-1]) + 1


def induced_product_congruence(
    cols: Sequence[np.ndarray], parts: Sequence[Partition]
) -> Partition:
    """The congruence a product congruence induces on a subset of the product.

    Column i lists, for each element of the subset in order, its value in
    the universe of `parts[i]`: a factor coordinate, or any index into that
    universe, such as the element's position in a subuniverse of a group of
    factors.  Two elements are related when every column's values lie in one
    block of its partition.  Position i of the result is the subset's i-th
    element.
    """
    if len(cols) != len(parts) or not parts:
        raise AlgebraError("one partition per column required")
    n = len(cols[0])
    if not n:
        raise AlgebraError("empty subset")
    keys, span = np.zeros(n, dtype=np.int64), 1
    for col, p in zip(cols, parts):
        col = np.asarray(col)
        if len(col) != n:
            raise AlgebraError("columns differ in length")
        if col.min() < 0 or col.max() >= p.size:
            raise AlgebraError(f"column value out of range 0..{p.size - 1}")
        if span * p.n_blocks > 1 << 62:  # renumber before the keys could wrap
            keys, span = _canonical(keys)
        keys = keys * p.n_blocks + p.block_id[col]
        span *= p.n_blocks
    return Partition(keys)


def partition_meet(p: Partition, q: Partition) -> Partition:
    """The meet of p and q, built once and then kept on p, keyed by q's identity."""
    if p.size != q.size:
        raise AlgebraError("partition sizes differ")
    kept = p._meets.get(id(q))
    if kept is None:
        kept = p._meets[id(q)] = (q, Partition(p.block_id * q.n_blocks + q.block_id))
    return kept[1]
