"""Generated subpowers and free algebras of finitely generated varieties.

A subpower is the subalgebra of a product of generating algebras (one
coordinate = one algebra index) generated by explicit vectors.  The free
algebra on g generators is the special case with one coordinate per
(algebra, assignment of the generators) and the projections as generators.

One closure kernel, `_build_closure`, runs in frontier rounds: each round
applies every operation to the argument-index tuples that touch an element
found in the previous round, and records a provenance term for each new
element.  `algebras._arg_blocks`, shared with the subuniverse check,
unranks those tuples in numpy, in blocks of `_CHUNK` rows of shape (rows,
arity), in a fixed order (multisets for symmetric operations), so the work
count, the point where the work cap bites and every provenance term are
deterministic.  Cost grows as C(N+r-1, r) in the element count N.

An operation is evaluated at every coordinate by one gather (`_Kernel`).
Once per generate_subpower call, each operation's flat tables over the
generating algebras are concatenated into one int16 array (`_Tables`,
checked against `DEFAULT_TABLE_CAP` per table and int32 indexing in all);
coordinate k then has a base offset (where its algebra's table starts) and
a radix (its algebra's size).  Once per round, the element matrix is scaled
into r int32 copies, copy j by radix**(r-1-j), the base folded into copy 0.
Per argument block, r row gathers of those copies are summed in place into
one reused buffer, which indexes the concatenated table.  Term evaluation
(`Subpower.eval_term`) runs on the same kernel.  Two engines sit on it:

* closure engine - the kernel over all coordinates; 'partial' returns
  what was generated when the work cap bites.
* local engine - when some basic operation is near-unanimity on every
  generator, the generated subpower is determined by its projections onto
  (arity-1)-sized coordinate sets, each closed by the same kernel under the
  same caps; elements are enumerated by filtering the coordinate box through
  the local closures, and provenance terms are reconstructed on demand by
  the interpolation recursion behind that decomposition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .algebras import (
    DEFAULT_TABLE_CAP,
    AlgebraError,
    CapExceeded,
    FiniteAlgebra,
    _arg_blocks,
    _op_symmetrical,
    is_k_majority,
    similar,
)
from .terms import App, Term, Var


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
    _index: dict = field(default_factory=dict, repr=False)
    _local: Optional["_LocalData"] = field(default=None, repr=False)
    _tables: Optional["_Tables"] = field(default=None, repr=False)  # the kernel tables

    @property
    def size(self) -> int:
        return len(self.vectors)

    @property
    def ncoords(self) -> int:
        return len(self.coord_algs)

    def coord_class(self, k: int) -> int:
        """Position inside this subpower of the caller's coordinate k."""
        return k if self.class_of is None else int(self.class_of[k])

    def index_of(self, vec) -> Optional[int]:
        return self._index.get(np.asarray(vec, dtype=np.int16).tobytes())

    def contains(self, vec) -> bool:
        if self.engine == "membership":
            return _local_member(self, np.asarray(vec, dtype=np.int16))
        return self.index_of(vec) is not None

    def contains_bulk(self, vecs: np.ndarray) -> np.ndarray:
        """Membership mask for many candidate vectors at once."""
        vecs = np.asarray(vecs, dtype=np.int16)
        if self.engine != "membership":
            return np.asarray([self.contains(v) for v in vecs], dtype=bool)
        mask = np.ones(len(vecs), dtype=bool)
        width = min(self._local.width, self.ncoords)
        sizes = [self.gens[ai].size for ai in self.coord_algs]
        for subset in itertools.combinations(range(self.ncoords), width):
            if not mask.any():
                break
            table = _local_closure_for(self, subset)
            weights = np.ones(len(subset), dtype=np.int64)
            for i in range(len(subset) - 2, -1, -1):
                weights[i] = weights[i + 1] * sizes[subset[i + 1]]
            allowed = np.zeros(int(weights[0]) * sizes[subset[0]], dtype=bool)
            for proj in table:
                allowed[int(np.asarray(proj, dtype=np.int64) @ weights)] = True
            keys = vecs[:, subset].astype(np.int64) @ weights
            mask &= allowed[keys]
        return mask

    def term_for(self, i: int) -> Term:
        if self.terms is not None:
            return self.terms[i]
        if self._local is None:
            raise AlgebraError("no provenance available")
        return _interpolate_term(self, self.vectors[i])

    def term_for_vector(self, vec) -> Term:
        vec = np.asarray(vec, dtype=np.int16)
        i = self.index_of(vec)
        if i is not None and self.terms is not None:
            return self.terms[i]
        if self._local is None:
            raise AlgebraError("no provenance available")
        return _interpolate_term(self, vec)

    def eval_term(self, term: Term) -> np.ndarray:
        """Value vector of a term across all coordinates."""
        kernel = _Kernel(self._tables, self.coord_algs)
        memo: dict[int, np.ndarray] = {}

        def walk(t: Term) -> np.ndarray:
            key = id(t)
            if key in memo:
                return memo[key]
            if isinstance(t, Var):
                out = self.gen_rows[t.index]
            else:
                r = self._tables.arity[t.op_index]
                if len(t.args) != r:
                    raise AlgebraError(f"operation {t.op_index} expects {r} arguments")
                args = np.stack([walk(a) for a in t.args])      # (r, ncoords)
                weighted = kernel.weigh(t.op_index, args)
                out = kernel.apply(t.op_index, weighted, np.arange(r)[None, :])[0].copy()
            memo[key] = out
            return out

        return walk(term)


def generate_subpower(
    gens: Sequence[FiniteAlgebra],
    coord_algs: Sequence[int],
    gen_rows: np.ndarray,
    *,
    element_cap: int = 1 << 20,
    work_cap: int = 80_000_000,
    engine: str = "auto",
) -> Subpower:
    """Close the generator vectors under all componentwise operations.

    engine: 'closure' forces the term-tracking engine; 'partial' is the same
    but returns whatever was generated when the work cap bites (engine field
    'partial' marks the incomplete result); 'local' the projection engine
    (needs a shared near-unanimity basic operation); 'membership' builds only
    the local closures, for containment queries over boxes too big to
    enumerate; 'auto' tries closure first, then local.
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
    if ((gen_rows < 0) | (gen_rows >= tables.sizes[coord_algs])).any():
        raise AlgebraError("generator entry outside its coordinate's algebra")

    # coordinates with identical (algebra, generator column) carry identical
    # values in every generated vector; collapse them
    classes: dict[tuple, int] = {}
    class_of = np.empty(len(coord_algs), dtype=np.int64)
    for k, ai in enumerate(coord_algs):
        sig = (ai, tuple(int(v) for v in gen_rows[:, k]))
        class_of[k] = classes.setdefault(sig, len(classes))
    if len(classes) < len(coord_algs):
        firsts = np.zeros(len(classes), dtype=np.int64)
        seen = set()
        for k in range(len(coord_algs)):
            c = int(class_of[k])
            if c not in seen:
                seen.add(c)
                firsts[c] = k
        coord_algs = [coord_algs[int(k)] for k in firsts]
        gen_rows = gen_rows[:, firsts]
    sub = _generate(tables, gens, coord_algs, gen_rows, element_cap, work_cap, engine)
    if len(classes) < len(class_of):
        sub.class_of = class_of
    return sub


def _generate(tables, gens, coord_algs, gen_rows, element_cap, work_cap, engine):
    if engine == "local":
        return _build_local(tables, gens, coord_algs, gen_rows, element_cap, work_cap,
                            enumerate_all=True)
    if engine == "membership":
        return _build_local(tables, gens, coord_algs, gen_rows, element_cap, work_cap,
                            enumerate_all=False)
    try:
        return _build_closure(tables, gens, coord_algs, gen_rows, element_cap, work_cap,
                              partial_ok=(engine == "partial"))
    except CapExceeded:
        if engine in ("closure", "partial"):
            raise
        try:
            return _build_local(tables, gens, coord_algs, gen_rows, element_cap,
                                work_cap, enumerate_all=True)
        except CapExceeded:
            return _build_local(tables, gens, coord_algs, gen_rows, element_cap,
                                work_cap, enumerate_all=False)


# ---------------------------------------------------------------------------
# the free algebra


@dataclass
class FreeAlgebra:
    sub: Subpower
    g: int
    assignments: list[tuple[int, tuple[int, ...]]]  # coordinate -> (alg, assignment)

    @property
    def size(self) -> int:
        return self.sub.size

    @property
    def vectors(self) -> np.ndarray:
        return self.sub.vectors

    def generator_indices(self) -> list[int]:
        out = []
        for j in range(self.g):
            i = self.sub.index_of(self.sub.gen_rows[j])
            if i is None:
                raise AlgebraError("projection vector missing from the free algebra")
            out.append(i)
        return out


def build_free_algebra(
    gens: Sequence[FiniteAlgebra],
    g: int,
    *,
    element_cap: int = 1 << 20,
    work_cap: int = 80_000_000,
    engine: str = "auto",
) -> FreeAlgebra:
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
    sub = generate_subpower(
        gens, coord_algs, gen_rows,
        element_cap=element_cap, work_cap=work_cap, engine=engine,
    )
    if sub.engine == "membership":
        raise CapExceeded("free algebra too large to enumerate", explored=0)
    return FreeAlgebra(sub, g, assignments)


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


class _Kernel:
    """Evaluates one operation at every coordinate with one table gather.

    Coordinate k of an argument row (x_0, ..., x_{r-1}) reads entry
    base_k + sum_j x_j * radix_k**(r-1-j) of the concatenated table, where
    base_k starts the table of coordinate k's algebra and radix_k is that
    algebra's size.  `weigh` scales the element matrix once per round;
    `apply` then sums r row gathers of it into a reused int32 buffer.
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
        weighted = np.empty((r, *stacked.shape), dtype=np.int32)
        scale = np.ones_like(self.radix)
        for j in range(r - 1, -1, -1):
            np.multiply(stacked, scale, out=weighted[j])
            scale *= self.radix
        weighted[0] += self.base[oi]
        return weighted

    def apply(self, oi: int, weighted: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """(rows, ncoords) values on the argument rows idx (rows, r).

        Returns a view of a buffer that the next call overwrites.
        """
        rows = len(idx)
        if self._buf is None or len(self._buf[0]) < rows:
            shape = (rows, len(self.radix))
            self._buf = (np.empty(shape, dtype=np.int32), np.empty(shape, dtype=np.int32))
        acc, part = (b[:rows] for b in self._buf)
        cols = idx.T
        # indices are in range by construction; 'clip' lets numpy skip the
        # bounds-checked copy it makes for out= under the default mode
        np.take(weighted[0], cols[0], axis=0, out=acc, mode="clip")
        for j in range(1, len(weighted)):
            np.take(weighted[j], cols[j], axis=0, out=part, mode="clip")
            acc += part
        # the values go into the first half of `part`, which is free by now
        out = part.reshape(-1).view(np.int16)[: acc.size].reshape(acc.shape)
        return np.take(self.tables.flat[oi], acc, out=out, mode="clip")


_CHUNK = 250_000  # argument rows per block of the closure kernel


def _build_closure(tables, gens, coord_algs, gen_rows, element_cap, work_cap,
                   partial_ok=False) -> Subpower:
    rows: list[np.ndarray] = []
    terms: list[Term] = []
    index: dict[bytes, int] = {}
    for j in range(len(gen_rows)):
        key = gen_rows[j].tobytes()
        if key not in index:
            index[key] = len(rows)
            rows.append(gen_rows[j])
            terms.append(Var(j))
    kernel = _Kernel(tables, coord_algs)
    sizes = [gens[ai].size for ai in coord_algs]
    pack = np.ones(len(sizes), dtype=np.int64)
    packable = True
    acc = 1
    for c in range(len(sizes) - 1, -1, -1):
        pack[c] = acc
        acc *= sizes[c]
        if acc > 1 << 62:
            packable = False
            break
    work = 0
    old = 0
    complete = True
    while True:
        n = len(rows)
        stacked = np.stack(rows)
        try:
            for oi, r in enumerate(tables.arity):
                weighted = kernel.weigh(oi, stacked)
                for idx in _arg_blocks(n, old, r, tables.sym[oi], _CHUNK):
                    work += len(idx)
                    if work > work_cap:
                        raise CapExceeded("subpower work cap exceeded", explored=n)
                    out = kernel.apply(oi, weighted, idx)
                    if packable:
                        _, first = np.unique(out.astype(np.int64) @ pack,
                                             return_index=True)
                    else:
                        _, first = np.unique(out, axis=0, return_index=True)
                    for where in np.sort(first):
                        row = out[where]
                        key = row.tobytes()
                        if key not in index:
                            if len(index) >= element_cap:
                                raise CapExceeded("subpower element cap",
                                                  explored=len(index))
                            index[key] = len(rows)
                            rows.append(row.copy())
                            terms.append(
                                App(oi, tuple(terms[i] for i in idx[where]))
                            )
        except CapExceeded:
            if not partial_ok:
                raise
            complete = False
            break
        if len(rows) == n:
            break
        old = n
    vectors = np.stack(rows)
    sub = Subpower(
        gens, coord_algs, gen_rows, vectors, terms,
        "closure" if complete else "partial", {"work": work}, _tables=tables,
    )
    sub._index = index
    return sub


# ---------------------------------------------------------------------------
# local (projection) engine


@dataclass
class _LocalData:
    nu_op: int
    width: int
    local_closures: dict                     # ordered coord tuple -> {proj: Term}
    element_cap: int                         # caps of each local closure
    work_cap: int


def shared_nu_op(gens: Sequence[FiniteAlgebra]) -> Optional[int]:
    """Index of a basic operation that is near-unanimity on every generator."""
    for oi, op in enumerate(gens[0].ops):
        if op.arity >= 3 and all(
            is_k_majority(a, oi, a.ops[oi].arity - 1) for a in gens
        ):
            return oi
    return None


def _build_local(tables, gens, coord_algs, gen_rows, element_cap, work_cap,
                 enumerate_all) -> Subpower:
    nu = shared_nu_op(gens)
    if nu is None:
        raise CapExceeded("no shared near-unanimity operation; local engine unavailable")
    width = gens[0].ops[nu].arity - 1
    ncoords = len(coord_algs)
    sizes = [gens[ai].size for ai in coord_algs]
    local = _LocalData(nu, width, {}, element_cap, work_cap)
    sub = Subpower(
        gens, coord_algs, gen_rows,
        np.empty((0, ncoords), dtype=np.int16), None,
        "membership", {"width": width}, _tables=tables,
    )
    sub._local = local
    if not enumerate_all:
        return sub

    space = math.prod(sizes)
    if space > element_cap:
        raise CapExceeded(f"coordinate box of {space} vectors exceeds the cap")
    grids = _box_grid(sizes)
    keep = np.ones(space, dtype=bool)
    for subset in itertools.combinations(range(ncoords), min(width, ncoords)):
        table = _local_closure_for(sub, subset)
        weights = np.ones(len(subset), dtype=np.int64)
        for i in range(len(subset) - 2, -1, -1):
            weights[i] = weights[i + 1] * sizes[subset[i + 1]]
        keys = grids[:, subset].astype(np.int64) @ weights
        allowed = np.zeros(int(weights[0]) * sizes[subset[0]], dtype=bool)
        for proj in table:
            allowed[int(np.asarray(proj, dtype=np.int64) @ weights)] = True
        keep &= allowed[keys]
    vectors = grids[keep]
    sub.vectors = vectors
    sub.engine = "local"
    sub.stats["space"] = space
    sub._index = {row.tobytes(): i for i, row in enumerate(vectors)}
    return sub


def _box_grid(sizes) -> np.ndarray:
    space = math.prod(sizes)
    idx = np.arange(space, dtype=np.int64)
    grid = np.empty((space, len(sizes)), dtype=np.int16)
    for pos in range(len(sizes) - 1, -1, -1):
        grid[:, pos] = idx % sizes[pos]
        idx //= sizes[pos]
    return grid


def _local_closure_for(sub: Subpower, subset: tuple[int, ...]) -> dict:
    """Generated subalgebra of the projection onto `subset`, with terms."""
    local = sub._local
    table = local.local_closures.get(subset)
    if table is not None:
        return table
    closed = _build_closure(sub._tables, sub.gens, [sub.coord_algs[k] for k in subset],
                            sub.gen_rows[:, list(subset)],
                            local.element_cap, local.work_cap)
    table = {tuple(int(v) for v in row): term
             for row, term in zip(closed.vectors, closed.terms)}
    local.local_closures[subset] = table
    return table


def _local_member(sub: Subpower, vec: np.ndarray) -> bool:
    width = min(sub._local.width, sub.ncoords)
    for subset in itertools.combinations(range(sub.ncoords), width):
        table = _local_closure_for(sub, subset)
        if tuple(int(vec[k]) for k in subset) not in table:
            return False
    return True


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
            table = _local_closure_for(sub, ordered)
            proj = tuple(int(target[k]) for k in ordered)
            term = table.get(proj)
            if term is None:
                raise AlgebraError("target vector is not in the generated subpower")
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
