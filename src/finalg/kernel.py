"""The closure kernel's tables, super-coordinates and argument trees.

`freealg` closes subpowers on this layer (its module docstring tells how):
`_Tables` concatenates each operation's flat tables over the generating
algebras, `_packing` groups consecutive coordinates into super-coordinates
over product tables, `_arg_blocks` unranks the argument tuples of a round
in blocks, each as its prefix tree, `_TreeMemo` keeps the trees of small
rounds, and `_Kernel` evaluates an operation along a tree by table gathers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .algebras import DEFAULT_TABLE_CAP, CapExceeded, _op_symmetrical


_INDEX_LIMIT = 1 << 31  # the concatenated tables are indexed in int32


@dataclass
class _Tables:
    """Each basic operation's flat tables, one after another per algebra."""
    flat: list[np.ndarray]                  # op -> int16 concatenation
    base: list[np.ndarray]                  # op -> int32 start of each algebra's table
    sizes: np.ndarray                       # algebra -> universe size (int32)
    arity: list[int]
    sym: list[bool]                         # op -> symmetric on every algebra
    plans: dict = field(default_factory=dict, repr=False)     # coord_algs -> _Packing
    products: dict = field(default_factory=dict, repr=False)  # algebra tuple -> tables
    classes: dict = field(default_factory=dict, repr=False)   # (algebra, op) -> classes


def _prepare_tables(gens) -> _Tables:
    """Check every table against the caps, then build the tables once."""
    sizes = np.asarray([a.size for a in gens], dtype=np.int32)
    arity = [op.arity for op in gens[0].ops]
    counts = [[a.size**r for a in gens] for r in arity]
    for op, count in zip(gens[0].ops, counts):
        if max(count) > DEFAULT_TABLE_CAP:
            raise CapExceeded(f"table of {op.name} would need {max(count)} entries",
                              explored=0)
        if sum(count) >= _INDEX_LIMIT:
            raise CapExceeded(f"tables of {op.name} need {sum(count)} entries together",
                              explored=0)
    flat = [np.concatenate([a.ops[oi].table_array().astype(np.int16) for a in gens])
            for oi in range(len(arity))]
    base = [(np.cumsum(count) - count).astype(np.int32) for count in counts]
    sym = [all(_op_symmetrical(a.ops[oi]) for a in gens) for oi in range(len(arity))]
    return _Tables(flat, base, sizes, arity, sym)


_GROUP_TABLE = 1 << 16  # entries of a super-coordinate's largest operation table


class _Packing(NamedTuple):
    """Consecutive coordinates grouped into super-coordinates.

    A group's value is the mixed-radix code of its coordinates' values, the
    first coordinate highest; `tables` holds one product algebra per group
    kind.
    """
    tables: _Tables
    kinds: np.ndarray                       # group -> its product algebra in tables
    group: np.ndarray                       # coordinate -> its group
    inner: np.ndarray                       # coordinate -> its place value in the code
    radix: np.ndarray                       # coordinate -> its algebra's size
    weights: np.ndarray                     # (coordinate, group) -> inner or 0, int16
    place: np.ndarray                       # group -> int64 place value of its code in
                                            # a row's key, (group, word) past 2**62 vectors
    space: int                              # vectors in the box: the keys it may take

    def pack(self, rows: np.ndarray) -> np.ndarray:
        return (rows @ self.weights).astype(np.int16, copy=False)  # sums fit int16

    def unpack(self, codes: np.ndarray) -> np.ndarray:
        return (codes.take(self.group, axis=1) // self.inner % self.radix).astype(np.int16)


def _packing(tables: _Tables, coord_algs) -> _Packing:
    """The super-coordinates of `coord_algs`, planned once per coordinate
    tuple and kept on `tables`.

    A group takes the next coordinate while its product's universe stays
    within 2**15 and the product's largest operation table within
    `_GROUP_TABLE` entries.  Where no two coordinates group, or the product
    tables together would pass int32 indexing, every coordinate is a group
    of one, read through its algebra's table in `tables` itself.
    """
    key = tuple(coord_algs)
    plan = tables.plans.get(key)
    if plan is not None:
        return plan
    sizes = tables.sizes[list(key)].tolist()
    top = max(tables.arity, default=1)
    bounds = _runs(sizes, lambda width: width <= 1 << 15 and width**top <= _GROUP_TABLE)
    kinds = [key[a:b] for a, b in zip(bounds, bounds[1:])]
    ids = {kind: i for i, kind in enumerate(dict.fromkeys(kinds))}
    universe = [math.prod(tables.sizes[list(kind)].tolist()) for kind in ids]
    counts = [[u**r for u in universe] for r in tables.arity]
    if len(kinds) < len(key) and max(map(sum, counts), default=0) < _INDEX_LIMIT:
        flat = [np.concatenate([_product_tables(tables, kind)[oi] for kind in ids])
                for oi in range(len(tables.arity))]
        base = [(np.cumsum(c) - c).astype(np.int32) for c in counts]
        grouped = _Tables(flat, base, np.asarray(universe, dtype=np.int32),
                          tables.arity, tables.sym)
        kinds = [ids[kind] for kind in kinds]
        inner = np.concatenate([_place(sizes[a:b]) for a, b in zip(bounds, bounds[1:])])
    else:                                   # groups of one
        bounds = list(range(len(key) + 1))
        grouped, kinds, inner = tables, list(key), np.ones(len(key), dtype=np.int64)
    # a row's key has its codes as digits in the mixed radix of the group
    # sizes (its coordinates' values as digits in theirs), in int64 words of
    # consecutive groups whose radix fits 2**62: one word up to 2**62 vectors
    radix = grouped.sizes[kinds].tolist()
    words = _runs(radix, lambda width: width <= 1 << 62)
    place = np.zeros((len(radix), len(words) - 1), dtype=np.int64)
    for w, (a, b) in enumerate(zip(words, words[1:])):
        place[a:b, w] = _place(radix[a:b])
    group = np.repeat(np.arange(len(kinds)), np.diff(bounds))
    weights = np.zeros((len(key), len(kinds)), dtype=np.int16)
    weights[np.arange(len(key)), group] = inner
    plan = _Packing(grouped, np.asarray(kinds, dtype=np.intp), group, inner.astype(np.int32),
                    np.asarray(sizes, dtype=np.int32), weights,
                    place[:, 0] if len(words) == 2 else place, math.prod(sizes))
    tables.plans[key] = plan
    return plan


def _runs(sizes, fits) -> list[int]:
    """Bounds of the runs that split `sizes` from the left: each run one size
    long, or as long as the product of its sizes `fits`.  Empty `sizes` make
    one empty run."""
    bounds, width = [0], 1
    for k, size in enumerate(sizes):
        width *= size
        if k and not fits(width):
            bounds.append(k)
            width = size
    return [*bounds, len(sizes)]


def _product_tables(tables: _Tables, kind: tuple) -> list[np.ndarray]:
    """Each operation's flat int16 table over the direct product of the
    algebras `kind`, kept on `tables`: the sum over the factors of the
    factor's table, scaled to its digit and read at every argument's digit
    of that factor."""
    got = tables.products.get(kind)
    if got is None:
        sizes = tables.sizes[list(kind)].tolist()
        codes = np.arange(math.prod(sizes))
        got = []
        for oi, r in enumerate(tables.arity):
            out = np.zeros((len(codes),) * r, dtype=np.int16)
            for ai, size, step in zip(kind, sizes, _place(sizes)):
                start = tables.base[oi][ai]
                part = tables.flat[oi][start:start + size**r].reshape((size,) * r)
                part = part * np.int16(step)
                digit = codes // step % size
                for axis in reversed(range(r)):     # the last first: long runs to copy
                    part = part.take(digit, axis=axis)
                out += part
            got.append(out.reshape(-1))
        tables.products[kind] = got
    return got


class _Kernel:
    """Evaluates one operation at every column of a chunk of lanes with one
    table gather.

    Column k of an argument row (x_0, ..., x_{r-1}) reads entry
    base_k + sum_j x_j * radix_k**(r-1-j) of the concatenated table, where
    base_k starts the table of column k's algebra (`kinds[k]` in `tables`)
    and radix_k is that algebra's size.  `weigh` scales a chunk's element
    matrix once per round; `apply` then sums those scaled rows along a
    block's prefix tree, one gather-add per level, the levels above the last
    once per block and the last level in tiles of `_TILE // closures` rows
    (so a tile of a chunk of `closures` lanes holds no more cells than one
    lane's tile of `_TILE` rows).  It sums into two buffers that it keeps
    from call to call, for every chunk it serves, each as long as the level
    above the last (no level of a tree has fewer nodes than the one above
    it) plus one tile.
    """

    def __init__(self, tables: _Tables):
        self.tables = tables
        self._buf: Optional[tuple] = None

    def weigh(self, oi: int, stacked: np.ndarray, kinds: np.ndarray) -> np.ndarray:
        """(r, n, columns) int32: copy j is stacked * radix**(r-1-j), plus base in copy 0."""
        r = self.tables.arity[oi]
        scale = self.tables.sizes[kinds] ** np.arange(r - 1, -1, -1, dtype=np.int32)[:, None, None]
        weighted = np.multiply(stacked, scale, dtype=np.int32)
        weighted[0] += self.tables.base[oi][kinds]
        return weighted

    def apply(self, oi: int, weighted: np.ndarray, tree, closures: int = 1):
        """Values on the rows of a prefix tree `(cols, trail)` (see
        `_arg_blocks`), one row per node of its last level, in tiles: yields
        (first row, (rows, columns) int16 values) per tile.

        The levels above the last are summed once; each tile then gathers
        its rows' parents and values.  A tile is a view of a buffer that the
        next tile overwrites.
        """
        cols, trail = tree
        above = len(trail[-2][1]) if len(trail) > 1 else 0   # nodes above the last level
        rows = len(trail[-1][1])
        tile = max(1, _TILE // closures)
        need = above + min(rows, tile)
        width = weighted.shape[2]
        if self._buf is None or len(self._buf[0]) < need * width:
            self._buf = (np.empty(need * width, dtype=np.int32),
                         np.empty(need * width, dtype=np.int32))
        acc, part = (buf[:need * width].reshape(need, width) for buf in self._buf)
        # every level sums into the head of acc, where the level above left
        # its sums: they are gathered into part before the values overwrite
        # them.  Indices are in range by construction, and 'clip' lets numpy
        # skip the bounds-checked copy it makes for out= under the default mode
        nodes = 0                               # of the level above
        for col, (parent, value) in zip(cols[:-1], trail[:-1]):
            k = len(value)
            if nodes:
                acc[:nodes].take(parent, axis=0, out=part[:k], mode="clip")
            weighted[col].take(value, axis=0, out=acc[:k], mode="clip")
            if nodes:
                acc[:k] += part[:k]
            nodes = k
        # the upper sums stay at the head of acc; a tile sums after them and
        # gathers its parents' sums into part
        upper, sums = acc[:above], acc[above:]
        parent, value = trail[-1]
        last = weighted[cols[-1]]
        flat = self.tables.flat[oi]
        for start in range(0, rows, tile):
            stop = min(start + tile, rows)
            s, g = sums[:stop - start], part[:stop - start]
            last.take(value[start:stop], axis=0, out=s, mode="clip")
            if above:
                upper.take(parent[start:stop], axis=0, out=g, mode="clip")
                s += g
            # the values go into the first half of `g`, which is free by now
            out = g.reshape(-1).view(np.int16)[: s.size].reshape(s.shape)
            yield start, flat.take(s, out=out, mode="clip")


_CHUNK = 250_000  # argument rows per block of the closure kernel
_TILE = 1 << 15    # rows per lane of a tile of a block's last level, evaluated together


def _arg_blocks(n: int, old: int, r: int, sym: bool, chunk: int):
    """Argument-index blocks over range(n) whose rows touch an index >= old.

    Symmetric operations get the sorted r-multisets, ordered by their
    largest entry t and then lexicographically; the others get all r-tuples
    in lexicographic order.  This order fixes which argument tuple first
    yields each new element, and so every provenance term of the closure.
    Every block but the last has `chunk` rows.

    A block [a, b) of that sequence is unranked column by column.  The rows
    sharing a prefix form a group with a known row count; each level expands
    the groups into children, one per value of the next column, and keeps
    the children whose rows meet [a, b).  Every child holds at least one row,
    so a level handles at most b - a + 2n children.  Counts are clamped at b,
    which keeps them in int64 and still ends every group that runs past b.
    The last level, the largest, has one row per child for symmetric and
    asymmetric operations alike, so its children [a - start, b - start),
    where `start` is the first row of the level's first group, are kept by
    slicing, with no counts.

    Each block is yielded as its prefix tree `(cols, trail)`: level l of
    `trail` is a pair (parent, value) of arrays, one entry per kept child,
    where parent indexes the nodes of level l - 1 (level 0 hangs off one
    root) and value is the child's entry in argument position cols[l].  The
    last level has one node per row, in the order of the block, and
    `_tree_args` reads a row's tuple back by walking its parents.
    """
    total = _round_size(n, old, r, sym)
    if sym:
        cols = [r - 1, *range(r - 1)]      # t first, then left to right
        # multisets[k][d]: number of k-multisets over d values (float, exact
        # below 2**53; larger counts are clamped anyway)
        multisets = [np.ones(n + 1)]
        for _ in range(r - 1):
            multisets.append(np.concatenate(([0.0], np.cumsum(multisets[-1][1:]))))
    else:
        cols = list(range(r))
    for a in range(0, total, chunk):
        b = min(a + chunk, total)
        start = 0                           # first row of the first group
        lo = np.full(1, old if sym else 0, dtype=np.int64)
        hi = np.full(1, n, dtype=np.int64)
        fresh = np.zeros(1, dtype=bool)     # prefix already holds an index >= old
        trail = []
        for level in range(r):
            left = r - 1 - level            # columns still open below a child
            if not sym and left == 0:
                lo = np.where(fresh, 0, old)
            width = hi - lo
            offset = np.cumsum(width) - width
            parent = np.repeat(np.arange(len(width)), width)
            value = np.arange(len(parent)) - np.repeat(offset - lo, width)
            if left == 0:                   # one row per child: rows a..b by slicing
                trail.append((parent[a - start:b - start], value[a - start:b - start]))
                break
            if sym:
                d = value + 1 if level == 0 else hi[parent] - value
                count = np.minimum(multisets[left][d], b).astype(np.int64)
            else:
                fresh = fresh[parent] | (value >= old)
                count = np.where(fresh, min(n**left, b), min(n**left - old**left, b))
            end = start + np.cumsum(count)
            # keep the first child ending after a up to the first ending at or after b
            first = int(np.searchsorted(end, a, side="right"))
            stop = int(np.searchsorted(end, b)) + 1
            parent, value = parent[first:stop], value[first:stop]
            start = int(end[first] - count[first])
            trail.append((parent, value))
            if sym:
                hi = value + 1 if level == 0 else hi[parent]
                lo = np.zeros_like(value) if level == 0 else value
            else:
                fresh = fresh[first:stop]
                hi = np.full(len(value), n, dtype=np.int64)
                lo = np.zeros_like(hi)
        yield cols, trail


def _tree_args(tree, at: np.ndarray) -> np.ndarray:
    """(len(at), r) argument tuples of the rows `at` of a prefix tree."""
    cols, trail = tree
    args = np.empty((len(at), len(cols)), dtype=np.int64)
    for col, (parent, value) in zip(reversed(cols), reversed(trail)):
        args[:, col] = value[at]
        at = parent[at]
    return args


def _round_size(n: int, old: int, r: int, sym: bool) -> int:
    """Argument tuples over range(n) that touch an index >= old."""
    if sym:
        return math.comb(n + r - 1, r) - math.comb(old + r - 1, r)
    return n**r - old**r


@dataclass
class _TreeMemo:
    """Prefix trees of whole rounds, shared by the batches of a local engine.

    Its closures are small and run through the same few round shapes, so a
    round that fits in one block is unranked once per (n, old, r, sym) and
    its tree kept, read-only, while the trees kept hold at most `_CHUNK`
    rows in all.  Within a batch, the lanes of one shape read one tree per
    block; the batches of `members`'s doubling windows reuse the trees of the
    shapes their predecessors met.  The memo lives as long as its engine's
    subpower.
    """
    rounds: dict = field(default_factory=dict)  # (n, old, r, sym) -> [tree] or []
    rows: int = 0                               # rows of the trees kept


def _round_trees(n: int, old: int, r: int, sym: bool, memo: Optional[_TreeMemo]):
    """The blocks of one round: `_arg_blocks`, or the trees kept in `memo`."""
    if memo is None:
        return _arg_blocks(n, old, r, sym, _CHUNK)
    key = (n, old, r, sym)
    kept = memo.rounds.get(key)
    if kept is not None:
        return kept
    rows = _round_size(n, old, r, sym)
    if memo.rows + rows > _CHUNK:
        return _arg_blocks(n, old, r, sym, _CHUNK)
    kept = list(_arg_blocks(n, old, r, sym, _CHUNK))
    for _, trail in kept:
        for level in trail:
            for array in level:
                array.flags.writeable = False
    memo.rounds[key] = kept
    memo.rows += rows
    return kept


def _place(sizes) -> np.ndarray:
    """int64 place values of the mixed radix of `sizes`, last digit lowest."""
    return np.asarray([math.prod(sizes[c + 1:]) for c in range(len(sizes))],
                      dtype=np.int64)
