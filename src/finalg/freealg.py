"""Generated subpowers and free algebras of finitely generated varieties.

A subpower is the subalgebra of a product of generating algebras (one
coordinate = one algebra index) generated by explicit vectors.  The free
algebra on g generators is the special case with one coordinate per
(algebra, assignment of the generators) and the projections as generators.

One closure kernel, `_build_closures`, closes a batch of independent
closures in lockstep, in frontier rounds: each round applies every
operation to the argument-index tuples that touch an element found in the
previous round, and records a provenance term for each new element.  A
closure of its own (`_build_closure`) is a batch of one.  `_arg_blocks`
unranks those tuples in numpy, in blocks of `_CHUNK` tuples, each block as
its prefix tree, in a fixed order (multisets for symmetric operations), so
the work count, the point where the work cap bites and every provenance
term are deterministic.

Each argument tuple is charged once, in the round after its newest element
was found, so a completed closure over N elements is charged exactly
`_closure_work(tables, N)` work: the sum over the operations of
C(N+r-1, r) (symmetric, arity r) or N**r.  That sum only grows with N, so
once the elements found so far put it over the work cap the closure cannot
finish under the cap, and it raises `CapExceeded` then, before the first
round or after the block that pushed it over, not when the cap bites.  The
work is what the caps count; the tuples the kernel evaluates,
`stats["evaluated"]`, are fewer where a round is predicted.

A round of more than `_WALK_FLOOR` tuples (one block) whose work stays
within the work cap is predicted first (`_new_rows`).  Every tuple over the
rows known before the previous round was applied already, so the round's
new rows are the image of the rows under every operation less the rows.
The image comes from the box route's walk over residual classes
(`algebras._joint_step`), each row a box of singletons, abandoned when one
of its steps would form more than 1/`_WALK_SHARE` of the round's tuples, or
more than one block's `_CHUNK` rows, in candidates.  A predicted round stops
after the tile that holds its last new row, or is skipped when it adds
none, and the tuples it leaves are charged as applied.  They add no row and
pass no cap, and where they would start the work bound (`SHALLOW_WORK`,
below) the bound is checked at the round's end, so rows, terms, `stop`
calls, refusals and work are the full round's.  On
the benchmark's largest closures (best of 5 rounds and of 20 walks, 2-vCPU
Xeon) the kernel takes 33-54 ns a tuple and the walk 89 ns a candidate at
8-10 coordinates, plus about 0.6 ms a walk.  So a step at the budget costs
at most about a sixth of the round it may save, and the walk's fixed cost
is a few per cent of a round at the floor, which takes 8-13 ms.  The cap of
one block per step keeps the walk's arrays as small as a block's.

A batch of one may be given a `stop` predicate: it sees the generators and
then each block of new elements, and the closure returns as soon as one of
them meets it, ending on that element.  Witnesses of small depth appear
within a few hundred tuples, often past the point where the work bound
would already refuse the whole closure, so a closure with `stop` applies
the bound only once its work would pass `SHALLOW_WORK`.

The layer under the closures is the module `kernel`: the tables, the
super-coordinates, the argument trees and the gather kernel described next.
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
message, `stop`, and the trees kept by `_round_trees`.  The tile is the unit
of evaluation: the levels above the last are small (one node per prefix)
and are summed once per block, and the last level, one node per row and
kept by `_arg_blocks` by slicing, is gathered, looked up in the table,
keyed and checked against the elements found before the block in tiles of
`_TILE` rows per closure, so that a block's working set stays in cache.  A
row's key is its values as digits in the mixed radix of the coordinate
sizes: one int64 up to 2**62 vectors, past that a record of int64 words,
each over a run of super-coordinates whose radix fits 2**62, sorted and
compared field by field.  A tile's rows whose keys are missing from the
sorted keys of the elements known at the block's start are its candidates,
and the block keeps each new row at its first occurrence in the block.  An
argument tuple is decoded from the tree only for a row that yields a new
element, for its provenance term.

A batch runs its closures (lanes) side by side.  Each round groups the
running lanes by their shape `(n, old)`, so that they share the trees of
their round's blocks, and by their number of super-coordinates.  A group
runs in chunks of lanes with at most `_TILE` rows of its largest block in
all, one chunk after another, so that a wide batch allocates no more than
one closure does alone.
A chunk's element matrices are stacked column by column, and one `weigh`
and one `apply` per operation and block evaluate all of them, reading one
concatenation of the distinct packed tables of the batch; each block's tree
is unranked once for all the chunks of its group.  Each lane's keys are
offset by the key spaces of the lanes before it, so one membership test and
one `np.unique` serve a whole chunk, and the block's bookkeeping is done per
lane: every lane is charged the same tuples as it would be alone (the work
after round (n, old) is `_closure_work(tables, n)`), and comes out with the
same rows, terms, work and refusal at the same block.  A predicted chunk
ends its round once each of its lanes has found its new rows, so each of
its lanes is said to have evaluated the tuples of the chunk
(`stats["evaluated"]`), which may differ from the tuples it evaluates
alone.  A closure keyed by records runs in a part of the batch of its own.
Three engines sit on the kernel, tried in this order:

* closure engine - the kernel over all coordinates, with a provenance term
  for every element.
* local engine - when some basic operation is near-unanimity on every
  generator, the generated subpower is determined by its projections onto
  (arity-1)-sized coordinate sets (Baker-Pixley), each closed by the same
  kernel under the same caps and kept as a closed Subpower of its own, or
  as the CapExceeded that refused it.  One function, `members`, decides
  membership from them: it filters a box of candidate vectors (some
  coordinates pinned, some held equal in groups, the rest free) through the
  local closures, one key lookup per subset.  It closes the pending subsets
  it walks in lockstep batches, in windows of 1, 2, 4, ... of them, so that
  a query whose candidates run out early builds at most twice the closures
  a one-by-one walk would, and an enumeration takes a logarithmic number of
  batches.  A refusal is raised only when the walk reaches its subset.
  These small closures run through few distinct round shapes, so they
  read the argument prefix trees of their rounds from the process's keeper
  of small rounds (`_round_trees`).
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
    AlgebraError,
    CapExceeded,
    FiniteAlgebra,
    _joint_step,
    _residual_classes,
    is_near_unanimity,
    similar,
)
from .kernel import (
    _CHUNK,
    _INDEX_LIMIT,
    _TILE,
    _Kernel,
    _Packing,
    _packing,
    _place,
    _prepare_tables,
    _round_size,
    _round_trees,
    _Tables,
    _tree_args,
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
    # closure engine: "work" charged, and "evaluated", the tuples the kernel
    # evaluated (in a batch, those of the closure's chunks of lanes)
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


def _closure_work(tables: _Tables, n: int) -> int:
    """Argument tuples a completed closure over n elements is charged: each
    tuple over its elements once, evaluated or left by a predicted round."""
    return sum(_round_size(n, 0, r, sym) for r, sym in zip(tables.arity, tables.sym))


def _doomed(tables: _Tables, n: int, work_cap: int) -> Optional[CapExceeded]:
    """The refusal once n elements already force more work than the cap allows."""
    need = _closure_work(tables, n)
    if need <= work_cap:
        return None
    return CapExceeded(f"subpower work cap exceeded: {n} elements need at least "
                       f"{need} argument tuples, cap {work_cap}", explored=n)


def _keys(vecs: np.ndarray, place: np.ndarray) -> np.ndarray:
    """Key of each row: the sum of its entries times their place values.

    A 1-D `place` gives int64 keys.  A (column, word) `place` gives one int64
    per word, as a record with one field per word, which numpy's sort,
    search and comparisons take field by field.
    """
    if place.ndim == 1:
        return _place_sum(vecs, place)
    record = [(f"w{w}", np.int64) for w in range(place.shape[1])]
    return (vecs @ place).view(record)[:, 0]


def _place_sum(digits: np.ndarray, place: np.ndarray, start=0) -> np.ndarray:
    """`start` plus the digits on the last axis of `digits` times their
    place values, whose last is 1, in int64.

    A pass per column: the packed rows of the closures are narrow (at most
    8 super-coordinates in every closure of the benchmark), and on 32,768
    such rows this is 3.6x faster than one einsum at 2 columns and 1.2x at
    8; at 16 columns the einsum would be 1.6x faster.
    """
    if not digits.shape[-1]:                # rows of no columns all read `start`
        return np.zeros(digits.shape[:-1], dtype=np.int64) + start
    ids = np.add(digits[..., -1], start, dtype=np.int64)
    for c in range(digits.shape[-1] - 1):
        ids += digits[..., c] * place[..., c]
    return ids


def _firsts(ids: np.ndarray) -> np.ndarray:
    """Positions of the first occurrence of each distinct id, in order."""
    _, first = np.unique(ids, return_index=True)
    return np.sort(first)


_KEY_SPACE = 1 << 62    # the keys of one part of a batch, offsets included


class _Lane:
    """One closure of a batch, on its super-coordinates: its rows (in blocks,
    joined at the start of each round), terms and sorted row keys.

    A lane's keys are offset by the key spaces of the lanes before it in its
    part, so the keys of several lanes never meet and the known keys of a
    part's lanes, joined in batch order, stay sorted.
    """
    __slots__ = ("coord_algs", "gen_rows", "plan", "part", "kinds", "offset", "blocks",
                 "count", "old", "terms", "known", "work", "evaluated", "outcome")

    def __init__(self, coord_algs, gen_rows, plan: _Packing, part: int, kinds, offset: int):
        self.coord_algs, self.gen_rows, self.plan = coord_algs, gen_rows, plan
        self.part, self.kinds, self.offset = part, kinds, offset
        self.old = self.work = self.evaluated = 0
        self.outcome = None         # its Subpower or CapExceeded, once it ends

    def rows(self) -> np.ndarray:
        if len(self.blocks) > 1:
            self.blocks = [np.concatenate(self.blocks)]
        return self.blocks[0]

    def closed(self, gens, tables: _Tables, vectors: np.ndarray, hit=None) -> Subpower:
        """The lane's Subpower on its unpacked rows, ending on row `hit`
        when `stop` met it."""
        terms = self.terms if hit is None else self.terms[:hit + 1]
        return Subpower(gens, self.coord_algs, self.gen_rows, vectors, terms,
                        "closure", {"work": self.work, "evaluated": self.evaluated},
                        _tables=tables)


def _lanes(tables: _Tables, batch) -> tuple[list[_Lane], list[_Tables]]:
    """The lanes of `batch`, in parts, and each part's tables.

    A part is a run of consecutive closures whose key spaces fit
    `_KEY_SPACE` together and whose distinct packed tables fit int32
    indexing together; a closure keyed by records is a part of its own.  A
    part's tables are its closures' packed tables, each distinct one once,
    one after another, and a lane's `kinds` index them.
    """
    lanes: list[_Lane] = []
    parts: list[list[_Tables]] = []
    first: dict = {}                    # id of a packed table -> its first kind in the part
    kinds: dict = {}                    # id of a packing -> its kinds in the part
    space = entries = 0
    for coord_algs, gen_rows in batch:
        plan = _packing(tables, coord_algs)
        more = 0 if id(plan.tables) in first else max(map(len, plan.tables.flat), default=0)
        if (not parts or plan.place.ndim == 2 or lanes[-1].plan.place.ndim == 2
                or space + plan.space > _KEY_SPACE or entries + more >= _INDEX_LIMIT):
            parts.append([])
            first.clear()
            kinds.clear()
            space = entries = 0
            more = max(map(len, plan.tables.flat), default=0)
        if id(plan.tables) not in first:
            first[id(plan.tables)] = sum(len(t.sizes) for t in parts[-1])
            parts[-1].append(plan.tables)
            entries += more
        if id(plan) not in kinds:
            kinds[id(plan)] = plan.kinds + first[id(plan.tables)]
        lanes.append(_Lane(coord_algs, gen_rows, plan, len(parts) - 1, kinds[id(plan)], space))
        space += plan.space
    return lanes, [_joined(part) for part in parts]


def _joined(parts: list[_Tables]) -> _Tables:
    """Several packed tables as one: each operation's tables one after another."""
    if len(parts) == 1:
        return parts[0]
    flat, base = [], []
    for oi in range(len(parts[0].arity)):
        flat.append(np.concatenate([t.flat[oi] for t in parts]))
        starts = np.cumsum([0] + [len(t.flat[oi]) for t in parts[:-1]])
        base.append(np.concatenate([t.base[oi] + int(at) for t, at in zip(parts, starts)])
                    .astype(np.int32))
    return _Tables(flat, base, np.concatenate([t.sizes for t in parts]), parts[0].arity,
                   parts[0].sym)


def _by_plan(lanes: list[_Lane]) -> list[list[_Lane]]:
    """`lanes` in runs of one packing each, in order of first appearance."""
    runs: dict = {}
    for lane in lanes:
        runs.setdefault(id(lane.plan), []).append(lane)
    return list(runs.values())


def _start(lanes: list[_Lane]) -> None:
    """Each lane of one part at its generators, each at its first
    occurrence: rows, terms and sorted keys, from one `np.unique` over the
    keys of all of them."""
    count = len(lanes[0].gen_rows)      # generator rows, the same for every lane
    keys = codes = None
    at = {id(lane): i for i, lane in enumerate(lanes)}
    for run in _by_plan(lanes):
        plan = run[0].plan
        packed = plan.pack(np.concatenate([lane.gen_rows for lane in run]))
        got = _keys(packed, plan.place).reshape(len(run), count)
        if keys is None:
            keys = np.empty((len(lanes), count), dtype=got.dtype)
            codes = [None] * len(lanes)
        where = [at[id(lane)] for lane in run]
        keys[where] = got
        if plan.place.ndim == 1:
            keys[where] += np.asarray([lane.offset for lane in run], dtype=np.int64)[:, None]
        for i, block in zip(where, packed.reshape(len(run), count, -1)):
            codes[i] = block
    known, first = np.unique(keys.reshape(-1), return_index=True)
    first.sort()
    lane_of, row = np.divmod(first, count)
    ends = np.cumsum(np.bincount(lane_of, minlength=len(lanes))).tolist()
    gens = [Var(j) for j in range(count)]
    a = 0
    for i, (lane, b) in enumerate(zip(lanes, ends)):
        rows = row[a:b]
        lane.blocks, lane.count = [codes[i][rows]], b - a
        lane.terms = [gens[j] for j in rows.tolist()]
        lane.known = known[a:b]
        a = b


def _finish(gens, tables: _Tables, lanes: list[_Lane]) -> None:
    """The Subpower of each lane, all with as many rows, each unpacked
    together with those of the lanes of its packing."""
    for run in _by_plan(lanes):
        vectors = run[0].plan.unpack(np.concatenate([b for lane in run for b in lane.blocks]))
        for lane, part in zip(run, vectors.reshape(len(run), run[0].count, -1)):
            lane.outcome = lane.closed(gens, tables, part)


def _build_closure(tables, gens, coord_algs, gen_rows, work_cap, stop=None) -> Subpower:
    """One closure: `_build_closures` on a batch of one, its refusal raised."""
    got, = _build_closures(tables, gens, [(coord_algs, gen_rows)], work_cap, stop)
    if isinstance(got, CapExceeded):
        raise got
    return got


class _Batch(NamedTuple):
    """What every round of a batch reads."""
    tables: _Tables
    gens: tuple
    work_cap: int
    stop: Optional[Callable]


def _build_closures(tables, gens, batch, work_cap, stop=None) -> list:
    """Close each `(coord_algs, gen_rows)` of `batch`, all in lockstep.

    Returns, per closure, its closed Subpower or the CapExceeded that refused
    it, each exactly as the closure would come out alone, but for
    `stats["evaluated"]`: a lane's count is that of the tuples its chunks
    evaluated, and a predicted chunk runs, in tiles its lanes share, up to
    the last new row of any of its lanes.  Each round groups the running
    closures by part, shape `(n, old)` and width, and runs each group
    through one kernel call per chunk, operation and block (`_round`).
    Only a batch of one may have a `stop`.
    """
    if stop is not None and len(batch) != 1:
        raise AlgebraError("only a closure of its own may have a stop")
    lanes, joined = _lanes(tables, batch)
    for _, part in itertools.groupby(lanes, key=lambda lane: lane.part):
        _start(list(part))
    run = _Batch(tables, gens, work_cap, stop)
    kernels = [_Kernel(part) for part in joined]
    bounded = stop is None              # the work bound applies
    if stop is not None:
        lane = lanes[0]
        hit = stop(lane.plan.unpack(lane.blocks[0]))
        if hit is not None:
            lane.outcome = lane.closed(gens, tables, lane.plan.unpack(lane.rows()[:hit + 1]),
                                       hit)
    else:
        for lane in lanes:
            lane.outcome = _doomed(tables, lane.count, work_cap)
    live = [lane for lane in lanes if lane.outcome is None]
    while live:
        groups: dict[tuple, list[_Lane]] = {}
        for lane in live:
            groups.setdefault((lane.part, lane.count, lane.old, len(lane.kinds)), []).append(lane)
        for (part, n, old, _), group in groups.items():
            bounded = _round(run, kernels[part], group, n, old, bounded)
            done = []
            for lane in group:
                if lane.outcome is None and lane.count == n:
                    done.append(lane)
                lane.old = n
            if done:
                _finish(gens, tables, done)
        live = [lane for lane in live if lane.outcome is None]
    return [lane.outcome for lane in lanes]


def _round(run: _Batch, kernel: _Kernel, group: list[_Lane], n: int, old: int,
           bounded: bool) -> bool:
    """One round of the lanes `group`, each at n elements, `old` of them
    known before the last round, in chunks of at most `_TILE` rows of the
    round's largest block in all, one chunk after another.  A group of
    several chunks has at most `_TILE / 2` rows per operation in its round,
    one block each, so its trees are unranked once for all of its chunks.
    Sets the `outcome` of each lane that ends, and returns whether the work
    bound applies.
    """
    tables = run.tables
    shapes = list(zip(tables.arity, tables.sym))
    rows = max((min(_round_size(n, old, r, sym), _CHUNK) for r, sym in shapes), default=1)
    size = max(1, _TILE // rows)
    trees = None
    if len(group) > size:
        trees = [list(_round_trees(n, old, r, sym)) for r, sym in shapes]
    for at in range(0, len(group), size):
        bounded = _Chunk(group[at:at + size]).round(run, kernel, n, old, trees, bounded)
    return bounded


class _Chunk:
    """Lanes of one group evaluated side by side: their stacked rows, kinds,
    place values and key offsets, and their joined known keys.  Keys here
    are relative to the first lane's offset.

    A block's rows are keyed per lane from the lanes' place values, offset
    per lane, tested against the joined known keys at once, and kept at
    their first occurrence per lane by one `np.unique`.  The test looks the
    keys up in a table over the lanes' key span where that span is at most
    four keys per row and lane, and otherwise takes one `searchsorted` in
    the sorted known keys.
    """

    def __init__(self, lanes: list[_Lane]):
        self.lanes = lanes
        self.width = len(lanes[0].kinds)
        self.lo = lo = lanes[0].offset
        self.span = lanes[-1].offset + lanes[-1].plan.space - lo
        self.offset = np.zeros(1, dtype=np.int64)
        if len(lanes) == 1:
            self.kinds, self.stacked = lanes[0].kinds, lanes[0].rows()
            self.place, known = lanes[0].plan.place, lanes[0].known
        else:
            self.kinds = np.concatenate([lane.kinds for lane in lanes])
            self.stacked = np.concatenate([lane.rows() for lane in lanes], axis=1)
            self.place = np.stack([lane.plan.place for lane in lanes])
            self.offset = np.asarray([lane.offset - lo for lane in lanes], dtype=np.int64)
            known = np.concatenate([lane.known for lane in lanes])
        self.known = known - lo if lo else known
        self.running = np.ones(len(lanes), dtype=bool)
        self.expect = None              # the rows the round adds, when predicted
        self.found = self.evaluated = 0     # rows added and rows evaluated so far

    def end(self, j: int, outcome) -> None:
        self.lanes[j].outcome = outcome
        self.running[j] = False

    def keys(self, out: np.ndarray) -> np.ndarray:
        """The keys of a tile's values, one per row and lane, row-major."""
        k = len(self.lanes)
        if k == 1:
            return _keys(out, self.place)
        return _place_sum(out.reshape(len(out), k, self.width), self.place,
                          self.offset).reshape(-1)

    def round(self, run: _Batch, kernel: _Kernel, n: int, old: int, trees,
              bounded: bool) -> bool:
        """The chunk's round: each operation weighed once and applied block
        by block, `trees` the blocks of each operation or None to unrank
        them here, up to the tile that holds the last of the new rows
        `predict` counts.  Returns whether the work bound applies."""
        work = _closure_work(run.tables, old)   # every lane has applied the same tuples so far
        total = _closure_work(run.tables, n)
        self.expect = self.predict(run, total - work, total)
        for oi, weighted, tree in self.blocks(run, kernel, n, old, trees):
            work += len(tree[1][-1][1])
            if work > run.work_cap:
                for j in np.flatnonzero(self.running).tolist():
                    self.end(j, CapExceeded(
                        f"subpower work cap exceeded: {work} argument tuples applied, "
                        f"cap {run.work_cap}", explored=n))
                return bounded
            if not bounded and work > SHALLOW_WORK:
                bounded = True
                for j in np.flatnonzero(self.running).tolist():
                    self.end_if_doomed(run, j)
                if not self.running.any():
                    return bounded
            if self.block(run, kernel, oi, weighted, tree, work, bounded):
                return bounded          # `stop` met a row
            if not self.running.any():
                return bounded          # every lane has ended
            if self.found == self.expect:
                break                   # the rest of the round adds no row
        # the tuples left, if any, add no row and stay within the cap
        # (`predict`): charged as applied, and checked as they would be
        if not bounded and total > SHALLOW_WORK:
            bounded = True
            for j in np.flatnonzero(self.running).tolist():
                self.end_if_doomed(run, j)
        self.close(total)
        return bounded

    def blocks(self, run: _Batch, kernel: _Kernel, n: int, old: int, trees):
        """(operation, weighted rows, tree) per block of the round, each
        operation weighed as its first block comes; none when the round is
        predicted to add no row."""
        if self.expect == 0:
            return
        for oi, (r, sym) in enumerate(zip(run.tables.arity, run.tables.sym)):
            weighted = kernel.weigh(oi, self.stacked, self.kinds)
            for tree in _round_trees(n, old, r, sym) if trees is None else trees[oi]:
                yield oi, weighted, tree

    def predict(self, run: _Batch, size: int, total: int) -> Optional[int]:
        """The rows the round of `size` tuples adds to all the lanes, or None.

        A round is predicted when it passes `_WALK_FLOOR` tuples and its
        work `total` stays within the work cap, so that the tuples it
        leaves pass no cap: the element cap, the work bound and `stop` act
        where rows are found, and the work bound that `SHALLOW_WORK` starts
        is checked at the round's end.  Each step of a lane's walk
        (`_new_rows`) may form `size / _WALK_SHARE` candidates, and never
        more than a block's `_CHUNK` rows, so that its arrays stay within a
        block's.
        """
        if size <= _WALK_FLOOR or total > run.work_cap:
            return None
        expect = 0
        for lane in self.lanes:
            got = _new_rows(run, lane, min(size // _WALK_SHARE, _CHUNK))
            if got is None:
                return None
            expect += got
        return expect

    def end_if_doomed(self, run: _Batch, j: int) -> None:
        """End lane j if its elements already force more work than the cap."""
        doomed = _doomed(run.tables, self.lanes[j].count, run.work_cap)
        if doomed is not None:
            self.end(j, doomed)

    def block(self, run: _Batch, kernel: _Kernel, oi: int, weighted, tree, work: int,
              bounded: bool) -> bool:
        """Apply operation `oi` on the rows of one block; returns whether
        `stop` met one of them."""
        k = len(self.lanes)
        known = self.known
        unknown = None                  # key -> not known, over the span
        if self.span <= 4 * len(tree[1][-1][1]) * k:
            unknown = np.ones(self.span, dtype=bool)
            unknown[known] = False
        # each tile's rows new to their lane as of the block's start, at their
        # first occurrence in the tile: positions (row * k + lane), rows, keys
        found = []
        for at, out in kernel.apply(oi, weighted, tree, k):
            self.evaluated += len(out)
            ids = self.keys(out)
            if unknown is not None:
                fresh = np.flatnonzero(unknown.take(ids, mode="clip"))
            else:
                pos = known.searchsorted(ids)
                np.minimum(pos, len(known) - 1, out=pos)
                fresh = np.flatnonzero(known[pos] != ids)
            if len(fresh):
                fresh = fresh[_firsts(ids[fresh])]
                found.append((fresh + at * k if at else fresh,
                              out.reshape(-1, self.width)[fresh], ids[fresh]))
                # a row new to an ended lane counts too, but only rows not
                # yet found do: the count meets `expect` at the last new row
                if self.expect is not None and self.expect == self.found + len(
                        np.unique(np.concatenate([part[2] for part in found]))):
                    break
        if not found:
            return False
        fresh, new, ids = found[0]
        if len(found) > 1:              # a row new to several tiles counts at its first
            fresh, new, ids = (np.concatenate(part) for part in zip(*found))
            first = _firsts(ids)
            fresh, new, ids = fresh[first], new[first], ids[first]
        if k == 1:
            counts = np.asarray([len(fresh)])
        else:                           # each lane's new rows together, in block order
            lane_of = fresh % k
            if not self.running.all():
                keep = self.running[lane_of]
                fresh, new, ids, lane_of = fresh[keep], new[keep], ids[keep], lane_of[keep]
            order = np.argsort(lane_of, kind="stable")
            fresh, new = fresh[order] // k, new[order]
            counts = np.bincount(lane_of, minlength=k)
        self.known = np.union1d(known, ids)
        self.found += len(ids)
        args = _tree_args(tree, fresh).tolist()
        ends = np.cumsum(counts).tolist()
        sizes = counts.tolist()
        for j in np.flatnonzero(counts).tolist():
            lane, b = self.lanes[j], ends[j]
            a = b - sizes[j]
            if lane.count + sizes[j] > ELEMENT_CAP:
                self.end(j, CapExceeded(f"subpower element cap: {lane.count + sizes[j]} "
                                        f"elements, cap {ELEMENT_CAP}", explored=lane.count))
                continue
            before = lane.count
            lane.blocks.append(new[a:b])
            lane.count += sizes[j]
            terms = lane.terms
            terms += [App(oi, tuple(terms[i] for i in row)) for row in args[a:b]]
            if run.stop is not None:
                hit = run.stop(lane.plan.unpack(new[a:b]))
                if hit is not None:
                    lane.work = work
                    lane.evaluated += self.evaluated
                    hit += before
                    self.end(j, lane.closed(run.gens, run.tables,
                                            lane.plan.unpack(lane.rows()[:hit + 1]), hit))
                    return True
            if bounded:
                self.end_if_doomed(run, j)
        return False

    def close(self, work: int) -> None:
        """Hand each lane its work and its known keys at the round's end."""
        known = self.known + self.lo if self.lo else self.known
        cuts = [0, *known.searchsorted(self.offset[1:] + self.lo).tolist(), len(known)]
        for lane, a, b in zip(self.lanes, cuts, cuts[1:]):
            lane.known, lane.work = known[a:b], work
            lane.evaluated += self.evaluated


_WALK_FLOOR = _CHUNK    # tuples a round must pass to be predicted
_WALK_SHARE = 16        # a step of its walk forms at most 1/16 of them in candidates


def _new_rows(run: _Batch, lane: _Lane, budget: int) -> Optional[int]:
    """How many rows the lane's coming round adds, or None when
    `_image_rows` gives no image.

    The round applies the tuples that touch a row found in the last round;
    every other tuple was applied in an earlier round, so its value is a row
    already.  The round's new rows are then the image of the rows under
    every operation less the rows.
    """
    plan = lane.plan
    image = _image_rows(run.tables, run.gens, lane.coord_algs, plan.unpack(lane.rows()), budget)
    if image is None:
        return None
    keys = np.unique(_keys(plan.pack(image), plan.place))
    if plan.place.ndim == 1:
        keys += lane.offset
    pos = np.minimum(lane.known.searchsorted(keys), len(lane.known) - 1)
    return int(np.count_nonzero(lane.known[pos] != keys))


def _image_rows(tables: _Tables, gens, coord_algs, rows: np.ndarray,
                budget: int) -> Optional[np.ndarray]:
    """Every value of every operation on `rows`, each operation's values
    once, or None when a class table is refused or a step of the walk would
    form more than `budget` candidates.

    The box route's walk (`_joint_step`) with each row a box of singletons:
    joint states of one residual class per coordinate (`_singleton_classes`),
    grown by one argument row at a time and deduplicated after each, so that
    the states after the last argument are the distinct values.
    """
    cols = rows.T.astype(np.intp, order="C")
    n = len(rows)
    images = []
    for oi, r in enumerate(tables.arity):
        coords = []
        for ai, col in zip(coord_algs, cols):
            got = _singleton_classes(tables, gens, ai, oi)
            if got is None:
                return None
            coords.append((col, *got))
        states = np.zeros((1, len(coords)), dtype=np.int64)
        for t in range(r):
            if len(states) * n > budget:
                return None
            states = _joint_step(coords, states, n, t)[0]
        image = np.empty(states.shape, dtype=np.int16)
        for c, (_, _, value) in enumerate(coords):
            image[:, c] = value[states[:, c]]
        images.append(image)
    return np.concatenate(images)


def _singleton_classes(tables: _Tables, gens, ai: int, oi: int):
    """The residual classes of operation oi of algebra ai over its values,
    one singleton set each, kept on `tables`: the transitions and the value
    of each class at full arity, or None when `_residual_classes` refuses
    them under a cap of `_CHUNK` (class-table entries)."""
    got = tables.classes.get((ai, oi), False)
    if got is False:
        op, size = gens[ai].ops[oi], gens[ai].size
        try:
            trans, images = _residual_classes(op, tuple((v,) for v in range(size)), op.arity,
                                              tables.sym[oi], _CHUNK)
            got = trans, np.asarray([min(image) for image in images], dtype=np.int16)
        except CapExceeded:
            got = None
        tables.classes[ai, oi] = got
    return got


# ---------------------------------------------------------------------------
# local (projection) engine


@dataclass
class _LocalData:
    nu_op: int
    width: int
    local_closures: dict                     # ordered coord tuple -> its closed
                                             # Subpower or the CapExceeded refusing it
    work_cap: int                            # of each local closure


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


def _build_local_closures(sub: Subpower, subsets: list[tuple[int, ...]]) -> None:
    """Close the projections onto `subsets` in one batch, each kept with
    its Subpower or the CapExceeded that refused it."""
    local = sub._local
    picked = np.asarray(subsets, dtype=np.intp)
    batch = list(zip(np.asarray(sub.coord_algs)[picked].tolist(),
                     sub.gen_rows[:, picked].transpose(1, 0, 2)))
    got = _build_closures(sub._tables, sub.gens, batch, local.work_cap)
    local.local_closures.update(zip(subsets, got))


def _local_closure_for(sub: Subpower, subset: tuple[int, ...]) -> Subpower:
    """Generated subalgebra of the projection onto `subset`, with terms;
    raises the CapExceeded that refused it."""
    local = sub._local
    if subset not in local.local_closures:
        _build_local_closures(sub, [subset])
    closed = local.local_closures[subset]
    if isinstance(closed, CapExceeded):
        # a fresh exception each time: a raised one would keep the frames
        # of every caller it passed through
        raise CapExceeded(str(closed), explored=closed.explored)
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
    built = sub._local.local_closures
    walk = itertools.combinations(range(ncoords), min(sub._local.width, ncoords))
    window = 1                              # subsets the next batch closes
    while keep.any():
        subset = next(walk, None)
        if subset is None:
            break
        if subset not in built:             # close it with the next pending ones
            walk, ahead = itertools.tee(walk)
            pending = (later for later in ahead if later not in built)
            _build_local_closures(sub, [subset, *itertools.islice(pending, window - 1)])
            window *= 2
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
