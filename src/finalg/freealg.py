"""Generated subpowers and free algebras of finitely generated varieties.

A subpower is the subalgebra of a product of generating algebras (one
coordinate = one algebra index) generated by explicit vectors.  The free
algebra on g generators is the special case with one coordinate per
(algebra, assignment of the generators) and the projections as generators.

One closure kernel, `_build_closure`, runs in frontier rounds: each round
applies every operation to the argument-index tuples that touch an element
found in the previous round, and records a provenance term for each new
element.  `_arg_blocks` unranks those tuples in numpy, in blocks of
`_CHUNK` tuples, each block as its prefix tree, in a fixed order (multisets
for symmetric operations), so the work count, the point where the work cap
bites and every provenance term are deterministic.

Each argument tuple is applied once, in the round after its newest element
was found, so a completed closure over N elements does exactly
`_closure_work(tables, N)` work: the sum over the operations of
C(N+r-1, r) (symmetric, arity r) or N**r.  That sum only grows with N, so
once the elements found so far put it over the work cap the closure cannot
finish under the cap, and it raises `CapExceeded` then, before the first
round or after the block that pushed it over, not when the cap bites.

A closure may be given a `stop` predicate: it sees the generators and then
each block of new elements, and the closure returns as soon as one of them
meets it, ending on that element.  Witnesses of small depth appear within a
few hundred tuples, often past the point where the work bound would already
refuse the whole closure, so a closure with `stop` applies the bound only
once its work would pass `SHALLOW_WORK`.

An operation is evaluated at every coordinate by one gather (`_Kernel`).
Once per generate_subpower call, each operation's flat tables over the
generating algebras are concatenated into one int16 array (`_Tables`,
checked against `DEFAULT_TABLE_CAP` per table and int32 indexing in all).  A
closure runs on super-coordinates (`_packing`): consecutive coordinates are
grouped into one coordinate over the direct product of their algebras, its
value the mixed-radix code of theirs, while that product's universe fits
int16 and its largest operation table has at most `_GROUP_TABLE` entries; a
coordinate that fits with no neighbour is a group of one.  The product
tables are built once per group kind (tuple of algebras) from the factors'
tables, and the grouping once per coordinate tuple, both kept on the
`_Tables`.  Packing is a bijection on rows that keeps each row's key below,
so the argument tuples, their order, the first tuple that yields each
element, the work count and every provenance term are those of the ungrouped
closure, at 2.5-4x fewer columns where the algebras are small; rows are
unpacked only for `stop` and for the result.  Super-coordinate k has a base
offset (where its product's table starts) and a radix (its product's size).
Once per round, the element matrix is scaled into r int32 copies, copy j by
radix**(r-1-j), the base folded into copy 0.  Per argument block, the kernel
walks the block's prefix tree one level (one argument position) at a time: a
node's partial sum is its parent's plus the scaled row of its value, one
gather-add per level into reused buffers, and the sums of the last level
index the concatenated table.

The block of `_CHUNK` rows is the unit of all bookkeeping: the work count
and the work cap, `SHALLOW_WORK` and the work bound, the element cap and its
message, `stop`, and the trees kept by `_TreeMemo`.  The tile of `_TILE`
rows is the unit of evaluation: the levels above the last are small (one
node per prefix) and are summed once per block, and the last level, one node
per row and kept by `_arg_blocks` by slicing, is gathered, looked up in the
table, keyed and checked against the elements found before the block in
tiles, so that a block's working set stays in cache.  A row's key is its
values as digits in the mixed radix of the coordinate sizes: one int64 up
to 2**62 vectors, past that a record of int64 words, each over a run of
super-coordinates whose radix fits 2**62, sorted and compared field by
field.  A tile's rows whose keys are missing from the sorted keys of the
elements known at the block's start are its candidates, and the block keeps
each new row at its first occurrence in the block.  An argument tuple is
decoded from the tree only for a row that yields a new element, for its
provenance term.  Three engines sit on the kernel, tried in this order:

* closure engine - the kernel over all coordinates, with a provenance term
  for every element.
* local engine - when some basic operation is near-unanimity on every
  generator, the generated subpower is determined by its projections onto
  (arity-1)-sized coordinate sets (Baker-Pixley), each closed by the same
  kernel under the same caps and kept as a closed Subpower of its own.
  These small closures run through few distinct round shapes, so they share
  one memo of the argument prefix trees of their rounds (`_TreeMemo`).  One
  function, `members`, decides membership from them: it filters a box of
  candidate vectors (some coordinates pinned, some held equal in groups,
  the rest free) through the local closures, one key lookup per subset.
  Enumeration is `members` over the whole coordinate box, and provenance
  terms are reconstructed on demand by the interpolation recursion behind
  that decomposition.
* membership engine - the same subpower when its coordinate box is too big
  to enumerate: callers ask `members` about smaller boxes.

`Subpower.eval_term` evaluates a term with `terms.term_eval_cols`, once per
generating algebra on that algebra's generator columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .algebras import (
    DEFAULT_TABLE_CAP,
    AlgebraError,
    CapExceeded,
    FiniteAlgebra,
    _op_symmetrical,
    is_near_unanimity,
    similar,
)
from .terms import App, Term, Var, term_eval_cols


@dataclass
class Subpower:
    gens: tuple[FiniteAlgebra, ...]
    coord_algs: list[int]                   # coordinate -> generating algebra
    gen_rows: np.ndarray                    # (G, ncoords) generator vectors
    vectors: np.ndarray                     # (N, ncoords) all elements
    terms: Optional[list[Term]]             # provenance, closure engine only
    engine: str
    stats: dict = field(default_factory=dict)
    class_of: Optional[np.ndarray] = None   # original coord -> coord here
    _rows: Optional[dict] = field(default=None, repr=False)  # see _index
    _local: Optional["_LocalData"] = field(default=None, repr=False)
    _tables: Optional["_Tables"] = field(default=None, repr=False)  # the kernel tables

    @property
    def size(self) -> int:
        return len(self.vectors)

    @property
    def ncoords(self) -> int:
        return len(self.coord_algs)

    @property
    def _index(self) -> dict:
        """Row bytes -> element index, built on first use."""
        if self._rows is None:
            self._rows = {row.tobytes(): i for i, row in enumerate(self.vectors)}
        return self._rows

    def index_of(self, vec) -> Optional[int]:
        return self._index.get(np.asarray(vec, dtype=np.int16).tobytes())

    def term_for_vector(self, vec) -> Term:
        vec = np.asarray(vec, dtype=np.int16)
        i = self.index_of(vec)
        if i is not None and self.terms is not None:
            return self.terms[i]
        if self._local is None:
            raise AlgebraError("no provenance available")
        return _interpolate_term(self, vec)

    def eval_term(self, term: Term) -> np.ndarray:
        """Value vector of a term across all coordinates: each generating
        algebra evaluates it on its coordinates' generator columns."""
        out = np.empty(self.ncoords, dtype=np.int16)
        coord_algs = np.asarray(self.coord_algs)
        for ai, alg in enumerate(self.gens):
            at = np.flatnonzero(coord_algs == ai)
            if len(at):
                out[at] = term_eval_cols(term, alg, self.gen_rows[:, at])
        return out


ELEMENT_CAP = 1 << 20      # elements of a closure, vectors of a local engine's box
SHALLOW_WORK = 300_000     # tuples a closure with `stop` applies before the work bound


def generate_subpower(
    gens: Sequence[FiniteAlgebra],
    coord_algs: Sequence[int],
    gen_rows: np.ndarray,
    *,
    work_cap: int = 80_000_000,
    stop: Optional[Callable[[np.ndarray], Optional[int]]] = None,
) -> Subpower:
    """Close the generator vectors under all componentwise operations.

    The closure engine runs first, until the work its elements already force
    passes the work cap; then the local engine, then the membership engine,
    whose stats name why the other two refused ('closure', 'local').

    stop(rows) sees the generator rows, then each block of newly generated
    rows, in the caller's coordinates and in generation order, and returns
    the position of the first row that ends the search, or None.  The
    closure engine then returns at once, ending on that row.  The local and
    membership engines ignore `stop`.
    """
    gens = tuple(gens)
    for a in gens[1:]:
        if not similar(gens[0], a):
            raise AlgebraError("generating algebras must be similar")
    gen_rows = np.asarray(gen_rows, dtype=np.int16)
    coord_algs = list(coord_algs)
    tables = _prepare_tables(gens)
    if gen_rows.ndim != 2 or gen_rows.shape[1] != len(coord_algs):
        raise AlgebraError("generator rows must have one entry per coordinate")
    if not len(gen_rows):
        raise AlgebraError("need at least one generator row")
    if ((gen_rows < 0) | (gen_rows >= tables.sizes[coord_algs])).any():
        raise AlgebraError("generator entry outside its coordinate's algebra")

    # coordinates with identical (algebra, generator column) carry identical
    # values in every generated vector; collapse them
    classes: dict[tuple, int] = {}
    class_of = np.empty(len(coord_algs), dtype=np.int64)
    for k, ai in enumerate(coord_algs):
        sig = (ai, tuple(int(v) for v in gen_rows[:, k]))
        class_of[k] = classes.setdefault(sig, len(classes))
    collapsed = len(classes) < len(coord_algs)
    if collapsed:
        # classes are numbered by first occurrence: their firsts come in class order
        firsts = np.unique(class_of, return_index=True)[1]
        coord_algs = [coord_algs[int(k)] for k in firsts]
        gen_rows = gen_rows[:, firsts]
        if stop is not None:
            caller_stop = stop
            stop = lambda rows: caller_stop(rows[:, class_of])
    sub = _generate(tables, gens, coord_algs, gen_rows, work_cap, stop)
    if collapsed:
        sub.class_of = class_of
    return sub


def _generate(tables, gens, coord_algs, gen_rows, work_cap, stop):
    try:
        return _build_closure(tables, gens, coord_algs, gen_rows, work_cap, stop)
    except CapExceeded as exc:
        closure_reason = str(exc)
    sub = _build_local(tables, gens, coord_algs, gen_rows, work_cap)
    try:
        sub.vectors = members(sub, {}, [])
    except CapExceeded as exc:
        sub.stats.update(closure=closure_reason, local=str(exc))
        return sub
    sub.engine = "local"
    sub.stats["space"] = math.prod(gens[ai].size for ai in coord_algs)
    return sub


# ---------------------------------------------------------------------------
# the free algebra


@dataclass
class FreeAlgebra:
    sub: Subpower
    assignments: list[tuple[int, tuple[int, ...]]]  # coordinate -> (alg, assignment)

    @property
    def size(self) -> int:
        return self.sub.size

    @property
    def vectors(self) -> np.ndarray:
        return self.sub.vectors


def build_free_algebra(gens: Sequence[FiniteAlgebra], g: int) -> FreeAlgebra:
    """Free algebra on g generators, realised inside the product of A^(A^g)."""
    gens = tuple(gens)
    if not gens:
        raise AlgebraError("need at least one generating algebra")
    if g < 2:
        raise AlgebraError("need at least 2 generators")
    assignments: list[tuple[int, tuple[int, ...]]] = []
    for ai, alg in enumerate(gens):
        for asg in itertools.product(range(alg.size), repeat=g):
            assignments.append((ai, asg))
    coord_algs = [ai for ai, _ in assignments]
    gen_rows = np.asarray(
        [[asg[j] for _, asg in assignments] for j in range(g)], dtype=np.int16
    )
    sub = generate_subpower(gens, coord_algs, gen_rows)
    if sub.engine == "membership":
        why = "".join(f"; {stage}: {sub.stats[stage]}" for stage in ("closure", "local")
                      if stage in sub.stats)
        raise CapExceeded(f"free algebra too large to enumerate{why}", explored=0)
    return FreeAlgebra(sub, assignments)


# ---------------------------------------------------------------------------
# closure engine


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
                    place[:, 0] if len(words) == 2 else place)
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
    """Evaluates one operation at every coordinate with one table gather.

    Coordinate k of an argument row (x_0, ..., x_{r-1}) reads entry
    base_k + sum_j x_j * radix_k**(r-1-j) of the concatenated table, where
    base_k starts the table of coordinate k's algebra and radix_k is that
    algebra's size.  `weigh` scales the element matrix once per round;
    `apply` then sums those scaled rows along a block's prefix tree, one
    gather-add per level, the levels above the last once per block and the
    last level in tiles of `_TILE` rows, in two buffers it keeps from call
    to call, each as long as the level above the last (no level of a tree
    has fewer nodes than the one above it) plus one tile.
    """

    def __init__(self, tables: _Tables, coord_algs):
        coord_algs = np.asarray(coord_algs, dtype=np.intp)
        self.tables = tables
        self.radix = tables.sizes[coord_algs]
        self.base = [b[coord_algs] for b in tables.base]
        self._buf: Optional[tuple] = None

    def weigh(self, oi: int, stacked: np.ndarray) -> np.ndarray:
        """(r, n, ncoords) int32: copy j is stacked * radix**(r-1-j), plus base in copy 0."""
        r = self.tables.arity[oi]
        scale = self.radix ** np.arange(r - 1, -1, -1, dtype=np.int32)[:, None, None]
        weighted = np.multiply(stacked, scale, dtype=np.int32)
        weighted[0] += self.base[oi]
        return weighted

    def apply(self, oi: int, weighted: np.ndarray, tree):
        """Values on the rows of a prefix tree `(cols, trail)` (see
        `_arg_blocks`), one row per node of its last level, in tiles of
        `_TILE` rows: yields (first row, (rows, ncoords) int16 values) per tile.

        The levels above the last are summed once; each tile then gathers
        its rows' parents and values.  A tile is a view of a buffer that the
        next tile overwrites.
        """
        cols, trail = tree
        above = len(trail[-2][1]) if len(trail) > 1 else 0   # nodes above the last level
        rows = len(trail[-1][1])
        need = above + min(rows, _TILE)
        if self._buf is None or len(self._buf[0]) < need:
            shape = (need, len(self.radix))
            self._buf = (np.empty(shape, dtype=np.int32), np.empty(shape, dtype=np.int32))
        acc, part = self._buf
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
        for start in range(0, rows, _TILE):
            stop = min(start + _TILE, rows)
            s, g = sums[:stop - start], part[:stop - start]
            last.take(value[start:stop], axis=0, out=s, mode="clip")
            if above:
                upper.take(parent[start:stop], axis=0, out=g, mode="clip")
                s += g
            # the values go into the first half of `g`, which is free by now
            out = g.reshape(-1).view(np.int16)[: s.size].reshape(s.shape)
            yield start, flat.take(s, out=out, mode="clip")


_CHUNK = 250_000  # argument rows per block of the closure kernel
_TILE = 1 << 15    # rows per tile of a block's last level, evaluated together


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
    """Prefix trees of whole rounds, shared by the closures of a local engine.

    Its closures are small and run through the same few round shapes, so a
    round that fits in one block is unranked once per (n, old, r, sym) and
    its tree kept, read-only, while the trees kept hold at most `_CHUNK`
    rows in all.  The memo lives as long as its engine's subpower.
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


def _closure_work(tables: _Tables, n: int) -> int:
    """Argument tuples a completed closure over n elements applies."""
    return sum(_round_size(n, 0, r, sym) for r, sym in zip(tables.arity, tables.sym))


def _refuse_doomed(tables: _Tables, n: int, work_cap: int) -> None:
    """Raise once n elements already force more work than the cap allows."""
    need = _closure_work(tables, n)
    if need > work_cap:
        raise CapExceeded(f"subpower work cap exceeded: {n} elements need at least "
                          f"{need} argument tuples, cap {work_cap}", explored=n)


def _place(sizes) -> np.ndarray:
    """int64 place values of the mixed radix of `sizes`, last digit lowest."""
    return np.asarray([math.prod(sizes[c + 1:]) for c in range(len(sizes))],
                      dtype=np.int64)


def _keys(vecs: np.ndarray, place: np.ndarray) -> np.ndarray:
    """Key of each row: the sum of its entries times their place values.

    A 1-D `place` gives int64 keys.  A (column, word) `place` gives one int64
    per word, as a record with one field per word, which numpy's sort,
    search and comparisons take field by field.
    """
    if place.ndim == 1:
        return np.einsum("ij,j->i", vecs, place, dtype=np.int64, casting="unsafe")
    record = [(f"w{w}", np.int64) for w in range(place.shape[1])]
    return (vecs @ place).view(record)[:, 0]


def _firsts(ids: np.ndarray) -> np.ndarray:
    """Positions of the first occurrence of each distinct id, in order."""
    _, first = np.unique(ids, return_index=True)
    return np.sort(first)


def _build_closure(tables, gens, coord_algs, gen_rows, work_cap, stop=None,
                   trees: Optional[_TreeMemo] = None) -> Subpower:
    # the rounds run on super-coordinates: rows here are packed
    plan = _packing(tables, coord_algs)
    codes = plan.pack(gen_rows)
    place = plan.place
    keys = _keys(codes, place)
    first = _firsts(keys)               # the generators, each at its first occurrence
    rows: list[np.ndarray] = list(codes[first])
    terms: list[Term] = [Var(int(j)) for j in first]
    known = np.unique(keys)             # sorted row keys
    kernel = _Kernel(plan.tables, plan.kinds)
    work = 0
    old = 0
    hit = None if stop is None else stop(plan.unpack(np.array(rows)))
    bounded = stop is None              # the work bound applies
    if bounded:
        _refuse_doomed(tables, len(rows), work_cap)
    while hit is None:
        n = len(rows)
        stacked = np.array(rows)
        for oi, r in enumerate(tables.arity):
            weighted = kernel.weigh(oi, stacked)
            for tree in _round_trees(n, old, r, tables.sym[oi], trees):
                work += len(tree[1][-1][1])
                if work > work_cap:
                    raise CapExceeded(f"subpower work cap exceeded: {work} argument tuples "
                                      f"applied, cap {work_cap}", explored=n)
                if not bounded and work > SHALLOW_WORK:
                    bounded = True
                    _refuse_doomed(tables, len(rows), work_cap)
                # each tile's rows new as of the block's start, at their first
                # occurrence in the tile: positions, rows and keys
                found = []
                for at, out in kernel.apply(oi, weighted, tree):
                    ids = _keys(out, place)
                    pos = known.searchsorted(ids)
                    np.minimum(pos, len(known) - 1, out=pos)
                    fresh = np.flatnonzero(known[pos] != ids)
                    if len(fresh):
                        fresh = fresh[_firsts(ids[fresh])]
                        found.append((fresh + at if at else fresh, out[fresh], ids[fresh]))
                if not found:
                    continue
                fresh, new, ids = found[0]
                if len(found) > 1:          # a row new to several tiles counts at its first
                    fresh, new, ids = (np.concatenate(part) for part in zip(*found))
                    first = _firsts(ids)
                    fresh, new, ids = fresh[first], new[first], ids[first]
                known = np.union1d(known, ids)
                if len(rows) + len(fresh) > ELEMENT_CAP:
                    raise CapExceeded(f"subpower element cap: {len(rows) + len(fresh)} "
                                      f"elements, cap {ELEMENT_CAP}", explored=len(rows))
                before = len(rows)
                rows.extend(new)
                terms += [App(oi, tuple(terms[i] for i in args))
                          for args in _tree_args(tree, fresh)]
                if stop is not None:
                    hit = stop(plan.unpack(new))
                    if hit is not None:
                        hit += before
                        break
                if bounded:
                    _refuse_doomed(tables, len(rows), work_cap)
            if hit is not None:
                break
        if len(rows) == n:
            break
        old = n
    if hit is not None:                 # end on the row that met `stop`
        del rows[hit + 1:], terms[hit + 1:]
    return Subpower(gens, coord_algs, gen_rows, plan.unpack(np.array(rows)), terms,
                    "closure", {"work": work}, _tables=tables)


# ---------------------------------------------------------------------------
# local (projection) engine


@dataclass
class _LocalData:
    nu_op: int
    width: int
    local_closures: dict                     # ordered coord tuple -> its closed Subpower
    work_cap: int                            # of each local closure
    trees: _TreeMemo = field(default_factory=_TreeMemo)  # shared by the local closures


def shared_nu_op(gens: Sequence[FiniteAlgebra]) -> Optional[int]:
    """Index of a basic operation that is near-unanimity on every generator."""
    for oi in range(len(gens[0].ops)):
        if all(is_near_unanimity(a, oi) for a in gens):
            return oi
    return None


def _build_local(tables, gens, coord_algs, gen_rows, work_cap) -> Subpower:
    """The subpower as a membership engine: no elements yet, and local
    closures built as `members` needs them."""
    nu = shared_nu_op(gens)
    if nu is None:
        raise CapExceeded("no shared near-unanimity operation; local engine unavailable")
    width = gens[0].ops[nu].arity - 1
    sub = Subpower(
        gens, coord_algs, gen_rows,
        np.empty((0, len(coord_algs)), dtype=np.int16), None,
        "membership", {"width": width}, _tables=tables,
    )
    sub._local = _LocalData(nu, width, {}, work_cap)
    return sub


def _local_closure_for(sub: Subpower, subset: tuple[int, ...]) -> Subpower:
    """Generated subalgebra of the projection onto `subset`, with terms."""
    local = sub._local
    closed = local.local_closures.get(subset)
    if closed is None:
        closed = _build_closure(sub._tables, sub.gens, [sub.coord_algs[k] for k in subset],
                                sub.gen_rows[:, list(subset)], local.work_cap,
                                trees=local.trees)
        local.local_closures[subset] = closed
    return closed


def members(sub: Subpower, pinned: dict[int, int],
            groups: Sequence[Sequence[int]]) -> np.ndarray:
    """The vectors of a local engine's subpower that read `pinned[k]` at each
    pinned coordinate k and one value across each group of coordinates.

    A coordinate neither pinned nor grouped is free: a group of its own,
    after the given groups.  Candidates run through the group values in
    lexicographic order, the first group slowest (with no pins and no
    groups, the order of `np.indices` over the coordinate box), and the
    members keep that order.  A candidate is a member when its projection
    onto every (arity-1)-set of coordinates lies in that set's local closure
    (Baker-Pixley); each pass filters only the candidates that survived the
    previous ones.  Raises CapExceeded before building any candidate when
    there are more than ELEMENT_CAP of them.
    """
    ncoords = sub.ncoords
    sizes = [sub.gens[ai].size for ai in sub.coord_algs]
    grouped = {int(k) for g in groups for k in g}
    groups = [[int(k) for k in g] for g in groups]
    groups += [[k] for k in range(ncoords) if k not in pinned and k not in grouped]
    lengths = [min(sizes[k] for k in g) for g in groups]   # the values a group can take
    count = math.prod(lengths)
    if count > ELEMENT_CAP:
        raise CapExceeded(f"coordinate box of {count} vectors exceeds the element cap "
                          f"{ELEMENT_CAP}")
    values = np.indices(lengths, dtype=np.int16).reshape(len(groups), count)
    first = {}                              # unpinned coordinate -> its first group
    keep = np.ones(count, dtype=bool)       # pins and groups that share a coordinate agree
    for gi, g in enumerate(groups):
        for k in g:
            if k in pinned:
                keep &= values[gi] == pinned[k]
            elif first.setdefault(k, gi) != gi:
                keep &= values[first[k]] == values[gi]
    cols = [values[first[k]] if k in first else np.broadcast_to(np.int16(pinned[k]), count)
            for k in range(ncoords)]
    # the surviving candidates: all of them as a slice, so that the first
    # pass reads views and makes a mask, then their indices
    rows = slice(None) if keep.all() else np.flatnonzero(keep)
    for subset in itertools.combinations(range(ncoords), min(sub._local.width, ncoords)):
        if not keep.any():
            break
        closed = _local_closure_for(sub, subset)
        place = _place([sizes[k] for k in subset])
        allowed = np.zeros(math.prod(sizes[k] for k in subset), dtype=bool)
        allowed[_keys(closed.vectors, place)] = True
        keep = allowed[sum(cols[k][rows] * step for k, step in zip(subset, place))]
        rows = np.flatnonzero(keep) if isinstance(rows, slice) else rows[keep]
    return np.stack([col[rows] for col in cols], axis=1)


def _interpolate_term(sub: Subpower, target: np.ndarray) -> Term:
    """Provenance by near-unanimity interpolation.

    A term agreeing with the target on a coordinate set S is assembled from
    terms agreeing on S minus one coordinate: applying the shared
    near-unanimity operation to arity-many of them fixes every coordinate of
    S, because at most one argument disagrees there.
    """
    local = sub._local
    ncoords = sub.ncoords
    width = min(local.width, ncoords)
    memo: dict[frozenset, Term] = {}

    def build(subset: frozenset) -> Term:
        got = memo.get(subset)
        if got is not None:
            return got
        ordered = tuple(sorted(subset))
        if len(ordered) <= width:
            closed = _local_closure_for(sub, ordered)
            i = closed.index_of(target[list(ordered)])
            if i is None:
                raise AlgebraError("target vector is not in the generated subpower")
            term = closed.terms[i]
        else:
            arity = sub.gens[0].ops[local.nu_op].arity
            assert len(ordered) >= arity  # width = arity - 1, base case is <= width
            drop = ordered[:arity]
            term = App(local.nu_op, tuple(build(subset - {c}) for c in drop))
        memo[subset] = term
        return term

    term = build(frozenset(range(ncoords)))
    if not np.array_equal(sub.eval_term(term), target):
        raise AlgebraError("interpolated term failed to reproduce its vector")
    return term
