"""Finite algebras: operation tables, products, subuniverses, predicates.

Elements are integers 0..size-1.  Flat tables are row-major with the FIRST
argument most significant; every module in the package shares this encoding,
so printed tuples map to indices deterministically.

Large direct products keep their operations componentwise instead of
materialising tables (a table for an 8-ary operation on a few thousand
elements is physically impossible); the `table_array` of such a lazy
`ProductOp` raises `CapExceeded`.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


class AlgebraError(ValueError):
    """Bad parameters, arity mismatch, or malformed table."""


class CapExceeded(RuntimeError):
    """The computation would exceed its configured resource cap."""

    def __init__(self, message: str, explored: int | None = None):
        super().__init__(message)
        self.explored = explored


def _env_cap(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


DEFAULT_PRODUCT_CAP = _env_cap("FINALG_CAP", 1 << 20)
DEFAULT_TUPLE_CAP = 16_000_000
DEFAULT_TABLE_CAP = 1 << 22
#: the most entries a constructor fills in one stored table, refused before
#: allocation: at least the 4^12 of the 12-ary reducts on four elements, and
#: FINALG_CAP when that is raised to admit larger witness products
STORED_TABLE_CAP = max(1 << 24, DEFAULT_PRODUCT_CAP)


def check_table_entries(name: str, count: int) -> None:
    """Refuse a table of `count` entries past STORED_TABLE_CAP."""
    if count > STORED_TABLE_CAP:
        raise CapExceeded(f"table of {name} would need {count} entries, "
                          f"past the stored-table cap {STORED_TABLE_CAP}", explored=0)


def check_product_size(size: int, cap: int = DEFAULT_PRODUCT_CAP) -> None:
    """Refuse a direct product of `size` elements past `cap`."""
    if size > cap:
        raise CapExceeded(f"product size {size} exceeds cap {cap}")


def check_order_statistic(chain_size: int, j: int, m: int) -> None:
    """Refuse the table of `order_statistic_table(chain_size, j, m)` past
    STORED_TABLE_CAP, before it is built."""
    check_table_entries(f"N({j},{m})@{chain_size}", chain_size**m)


# ---------------------------------------------------------------------------
# operations


class Operation:
    """Abstract m-ary operation on 0..size-1."""

    name: str
    arity: int
    size: int

    def apply_cols(self, cols: np.ndarray) -> np.ndarray:
        """Vectorised apply; `cols` has shape (arity, n)."""
        raise NotImplementedError

    def table_array(self, cap: int = DEFAULT_TABLE_CAP) -> np.ndarray:
        """Flat table, materialised on demand."""
        count = self.size**self.arity
        if count > cap:
            raise CapExceeded(
                f"table of {self.name} would need {count} entries", explored=0
            )
        cols = FactorIndexing((self.size,) * self.arity).digits(np.arange(count)).T
        return self.apply_cols(cols)

    def __repr__(self):  # pragma: no cover
        return f"<{type(self).__name__} {self.name}/{self.arity} on {self.size}>"


class TableOp(Operation):
    """An operation stored as its flat table, in the smallest unsigned dtype
    that holds size - 1."""

    def __init__(self, name: str, arity: int, size: int, table: Sequence[int]):
        if arity < 1:
            raise AlgebraError("arity must be >= 1 (constants are not modelled)")
        if size < 1:
            raise AlgebraError("size must be >= 1")
        tbl = np.asarray(table)
        if tbl.dtype.kind not in "iu":
            tbl = tbl.astype(np.int64)
        if tbl.shape != (size**arity,):
            raise AlgebraError(
                f"table of {name!r} has {tbl.size} entries, expected {size**arity}"
            )
        if tbl.size and (tbl.min() < 0 or tbl.max() >= size):  # before narrowing
            raise AlgebraError(f"table of {name!r} has out-of-range entries")
        self.name = name
        self.arity = arity
        self.size = size
        self.table = tbl.astype(np.min_scalar_type(size - 1), copy=False)
        self.table.setflags(write=False)
        self._least_absorbing: dict[int, int] = {}

    def apply_cols(self, cols: np.ndarray) -> np.ndarray:
        idx = cols[0].astype(np.int64)
        for pos in range(1, self.arity):
            idx *= self.size
            idx += cols[pos]
        return self.table[idx]

    def table_array(self, cap: int = DEFAULT_TABLE_CAP) -> np.ndarray:
        return self.table

    def least_absorbing(self, zero: int) -> int:
        """The least k making `zero` k-absorbing: 1 + the most arguments
        `zero` among the tuples whose value is not `zero` (1 when there are
        none, arity + 1 when no k works).  One count grid per value, kept
        with the operation, which reducts with equal parameters share."""
        if zero not in self._least_absorbing:
            count = _count_grid(np.arange(self.size) == zero, self.arity)[self.table != zero]
            self._least_absorbing[zero] = int(count.max()) + 1 if count.size else 1
        return self._least_absorbing[zero]


class ProductOp(Operation):
    """Componentwise operation of a direct product; evaluated lazily."""

    def __init__(self, name: str, factor_ops: Sequence[Operation], indexing: "FactorIndexing"):
        self.name = name
        self.factor_ops = tuple(factor_ops)
        self.indexing = indexing
        self.arity = self.factor_ops[0].arity
        self.size = indexing.size

    def apply_cols(self, cols: np.ndarray) -> np.ndarray:
        digits = self.indexing.digits(cols)  # one row per entry of cols
        out = np.zeros(cols.shape[1], dtype=np.int64)
        for i, op in enumerate(self.factor_ops):
            out = out * op.size + op.apply_cols(digits[:, i].reshape(cols.shape))
        return out


# ---------------------------------------------------------------------------
# product indexing


@dataclass(frozen=True)
class FactorIndexing:
    """Bijection between tuples over factor universes and flat indices."""

    sizes: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.sizes)

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.sizes):
            raise AlgebraError("coordinate count mismatch")
        idx = 0
        for c, s in zip(coords, self.sizes):
            if not 0 <= c < s:
                raise AlgebraError(f"coordinate {c} out of range 0..{s - 1}")
            idx = idx * s + c
        return idx

    def decode(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise AlgebraError(f"index {index} out of range")
        out = []
        for s in reversed(self.sizes):
            out.append(index % s)
            index //= s
        return tuple(reversed(out))

    def digits(self, ids) -> np.ndarray:
        """The decodings of the given flat indices, shape (len(ids), nfactors).

        Column-major, so each factor's column, and each row of the transpose,
        is contiguous.
        """
        idx = np.array(ids, dtype=np.int64).ravel()
        if len(idx) and (idx.min() < 0 or idx.max() >= self.size):
            raise AlgebraError(f"index out of range 0..{self.size - 1}")
        out = np.empty((len(idx), len(self.sizes)), dtype=np.int64, order="F")
        for pos in range(len(self.sizes) - 1, -1, -1):
            out[:, pos] = idx % self.sizes[pos]
            idx //= self.sizes[pos]
        return out


# ---------------------------------------------------------------------------
# algebras


class FiniteAlgebra:
    """A finite universe 0..size-1 with a fixed sequence of operations."""

    def __init__(
        self,
        size: int,
        ops: Sequence[Operation],
        label: str = "",
        factors: Optional[Sequence["FiniteAlgebra"]] = None,
        indexing: Optional[FactorIndexing] = None,
    ):
        if size < 1:
            raise AlgebraError("size must be >= 1")
        for op in ops:
            if op.size != size:
                raise AlgebraError(f"operation {op.name} sized for {op.size}, not {size}")
        self.size = size
        self.ops = tuple(ops)
        self.label = label
        self.factors = tuple(factors) if factors is not None else None
        self.indexing = indexing

    def op(self, index: int) -> Operation:
        if not 0 <= index < len(self.ops):
            raise AlgebraError(f"no operation with index {index}")
        return self.ops[index]

    def signature(self) -> tuple[int, ...]:
        return tuple(op.arity for op in self.ops)

    def __repr__(self):  # pragma: no cover
        sig = ",".join(map(str, self.signature()))
        return f"FiniteAlgebra({self.label or '?'}, size={self.size}, arities=[{sig}])"


def similar(a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    """Same number of operations with matching arities."""
    return a.signature() == b.signature()


# ---------------------------------------------------------------------------
# constructors


def make_chain_lattice(size: int) -> FiniteAlgebra:
    """Chain 0 < 1 < ... < size-1 with join (max) and meet (min)."""
    if size < 2:
        raise AlgebraError("a chain lattice needs at least 2 elements")
    check_table_entries(f"C{size}", size * size)
    x = np.arange(size)
    join = TableOp("join", 2, size, np.maximum.outer(x, x).ravel())
    meet = TableOp("meet", 2, size, np.minimum.outer(x, x).ravel())
    return FiniteAlgebra(size, [join, meet], label=f"C{size}")


_UJM_OPS: dict[tuple[int, int, int], TableOp] = {}


def order_statistic_table(chain_size: int, j: int, m: int) -> np.ndarray:
    """Table of the m-ary chain operation returning the j-th smallest argument.

    On a chain this agrees with the lattice term 'meet over all j-element
    subsets of the join of the chosen arguments'; the subset form is kept in
    the test suite as an independent oracle.
    """
    check_order_statistic(chain_size, j, m)
    # the j-th smallest argument is the number of values v below which fewer
    # than j arguments lie (at or below v)
    table = np.zeros(chain_size**m, dtype=np.min_scalar_type(chain_size - 1))
    for v in range(chain_size - 1):
        table += _count_grid(np.arange(chain_size) <= v, m) < j
    table.setflags(write=False)
    return table


def make_ujm_reduct(chain_size: int, j: int, m: int) -> FiniteAlgebra:
    """Chain reduct whose only operation picks the j-th smallest of m arguments;
    reducts with equal parameters share one operation object."""
    if m < 3:
        raise AlgebraError("the subset operation needs arity >= 3")
    if not 1 <= j <= m:
        raise AlgebraError(f"j={j} out of range 1..{m}")
    if chain_size < 2:
        raise AlgebraError("chain must have at least 2 elements")
    key = (chain_size, j, m)
    if key not in _UJM_OPS:
        _UJM_OPS[key] = TableOp("u", m, chain_size, order_statistic_table(chain_size, j, m))
    return FiniteAlgebra(chain_size, [_UJM_OPS[key]], label=f"N({j},{m})@{chain_size}")


def one_element_algebra(arity: int, label: str = "triv") -> FiniteAlgebra:
    return FiniteAlgebra(1, [TableOp("u", arity, 1, [0])], label=label)


def direct_product(
    factors: Sequence[FiniteAlgebra], cap: int = DEFAULT_PRODUCT_CAP, label: str = ""
) -> FiniteAlgebra:
    """Componentwise product; operations stay lazy."""
    factors = list(factors)
    if not factors:
        raise AlgebraError("direct_product needs at least one factor")
    first = factors[0]
    for f in factors[1:]:
        if not similar(first, f):
            raise AlgebraError(
                f"dissimilar factors: {first.label!r} {first.signature()} vs "
                f"{f.label!r} {f.signature()}"
            )
    indexing = FactorIndexing(tuple(f.size for f in factors))
    check_product_size(indexing.size, cap)
    ops = [
        ProductOp(first.ops[i].name, [f.ops[i] for f in factors], indexing)
        for i in range(len(first.ops))
    ]
    if not label:
        label = " x ".join(f.label or "?" for f in factors)
    return FiniteAlgebra(indexing.size, ops, label=label, factors=factors, indexing=indexing)


# ---------------------------------------------------------------------------
# pointwise predicates


def _count_grid(hit: np.ndarray, arity: int) -> np.ndarray:
    """For each argument tuple in flat-table order, the number of its
    arguments x with hit[x]."""
    hit = np.asarray(hit, dtype=np.min_scalar_type(arity))
    count = hit
    for _ in range(arity - 1):
        count = (count[:, None] + hit).ravel()  # first argument most significant
    return count


def is_k_absorbing(alg: FiniteAlgebra, op_index: int, zero: int, k: int) -> bool:
    """True iff the op returns `zero` whenever >= k arguments equal `zero`."""
    op = alg.op(op_index)
    if not 1 <= k <= op.arity:
        raise AlgebraError(f"k={k} out of range 1..{op.arity}")
    if not 0 <= zero < alg.size:
        raise AlgebraError(f"element {zero} out of range")
    return _op_k_absorbing(op, zero, k)


def _op_k_absorbing(op: Operation, zero: int, k: int) -> bool:
    if isinstance(op, ProductOp):
        coords = op.indexing.decode(zero)
        return all(_op_k_absorbing(f, c, k) for f, c in zip(op.factor_ops, coords))
    if op.size**op.arity > DEFAULT_TABLE_CAP:
        raise CapExceeded(f"absorption check on {op.name} needs a table")
    return op.least_absorbing(zero) <= k


def is_k_majority(alg: FiniteAlgebra, op_index: int, k: int) -> bool:
    """True iff every element is k-absorbing for the op."""
    op = alg.op(op_index)
    if not 1 <= k <= op.arity:
        raise AlgebraError(f"k={k} out of range 1..{op.arity}")
    return _op_k_majority(op, k)


def _op_k_majority(op: Operation, k: int) -> bool:
    if isinstance(op, ProductOp):
        return all(_op_k_majority(f, k) for f in op.factor_ops)
    if op.size**op.arity > DEFAULT_TABLE_CAP:
        raise CapExceeded(f"majority check on {op.name} needs a table")
    return all(op.least_absorbing(z) <= k for z in range(op.size))


def is_near_unanimity(alg: FiniteAlgebra, op_index: int) -> bool:
    op = alg.op(op_index)
    if op.arity < 3:
        return False
    return is_k_majority(alg, op_index, op.arity - 1)


def _op_symmetrical(op: Operation) -> bool:
    """Invariance under all argument permutations.

    Checked on the adjacent transposition and the full cycle, which generate
    the whole symmetric group; the full-permutation check is kept in the test
    suite as a cross-check.
    """
    if op.arity == 1:
        return True
    if isinstance(op, ProductOp):
        return all(_op_symmetrical(f) for f in op.factor_ops)
    grid = op.table_array(DEFAULT_TABLE_CAP).reshape((op.size,) * op.arity)
    return all(np.array_equal(grid, grid.transpose(perm))
               for perm in (_transposition(op.arity), _cycle(op.arity)))


def _transposition(m: int) -> list[int]:
    p = list(range(m))
    p[0], p[1] = p[1], p[0]
    return p


def _cycle(m: int) -> list[int]:
    return list(range(1, m)) + [0]


# ---------------------------------------------------------------------------
# subuniverse check


def _leaf_ops(op: Operation) -> list[Operation]:
    """The operations of the flattened coordinates of a (nested) product op."""
    if isinstance(op, ProductOp):
        return [leaf for f in op.factor_ops for leaf in _leaf_ops(f)]
    return [op]


def coordinate_sizes(alg: FiniteAlgebra) -> tuple[int, ...]:
    """The coordinate sizes of a `BoxUnion` over `alg`: its operations' leaves."""
    if not alg.ops:
        return (alg.size,)
    return tuple(leaf.size for leaf in _leaf_ops(alg.ops[0]))


def sorted_distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, in increasing order."""
    ids = np.sort(ids)
    return np.concatenate((ids[:1], ids[1:][ids[1:] != ids[:-1]]))


class BoxUnion:
    """A subset given as a union of boxes over the coordinates of a product.

    The coordinates are the leaves of the product's nested factors, left to
    right (`coordinate_sizes`).  A box holds one value set per coordinate.
    Its elements are the product ids of its coordinate rows, mixed radix over
    `sizes` with the first coordinate most significant, which is also the id
    of a nested product.
    """

    def __init__(self, sizes: Sequence[int], boxes: Iterable[Sequence[Iterable[int]]]):
        self.sizes = tuple(int(s) for s in sizes)
        self.boxes = tuple(tuple(tuple(sorted({int(v) for v in vals})) for vals in box)
                           for box in boxes)
        for box in self.boxes:
            if len(box) != len(self.sizes):
                raise AlgebraError(f"a box needs {len(self.sizes)} value sets, not {len(box)}")
            if any(vals and not 0 <= vals[0] <= vals[-1] < s
                   for vals, s in zip(box, self.sizes)):
                raise AlgebraError("box value out of range")
        self._ids = None

    @classmethod
    def whole(cls, alg: FiniteAlgebra) -> "BoxUnion":
        """All of `alg` as one box."""
        sizes = coordinate_sizes(alg)
        return cls(sizes, [[range(s) for s in sizes]])

    @classmethod
    def points(cls, alg: FiniteAlgebra, ids: Iterable[int]) -> "BoxUnion":
        """The elements `ids` of `alg`, one box of singletons each."""
        ids = sorted({int(x) for x in ids})
        sizes = coordinate_sizes(alg)
        return cls(sizes, [[(v,) for v in row]
                           for row in FactorIndexing(sizes).digits(ids).tolist()])

    def ids(self) -> np.ndarray:
        """The sorted element ids (read-only)."""
        if self._ids is None:
            parts = [np.zeros(0, dtype=np.int64)]
            for box in self.boxes:
                ids = np.zeros(1, dtype=np.int64)
                for vals, s in zip(box, self.sizes):
                    ids = (ids[:, None] * s + np.asarray(vals, dtype=np.int64)).ravel()
                parts.append(ids)
            self._ids = sorted_distinct(np.concatenate(parts))
            self._ids.setflags(write=False)
        return self._ids

    def rank(self, pids) -> np.ndarray:
        """The positions of the elements `pids` in `ids()`."""
        ids, pids = self.ids(), np.asarray(pids, dtype=np.int64)
        pos = np.searchsorted(ids, pids)
        missing = pids[ids.take(pos, mode="clip") != pids] if len(ids) else pids
        if len(missing):
            raise AlgebraError(f"element {missing[0]} is not in the union")
        return pos

    def __len__(self) -> int:
        return len(self.ids())


def is_subuniverse(
    alg: FiniteAlgebra,
    subset: Iterable[int] | BoxUnion,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
):
    """Exact closure test.

    Returns (True, None) or (False, witness) with witness = (op_index, args,
    result) for one application leaving the subset.  The subset is checked on
    its boxes (`_box_union_check`), whatever its element count: a `BoxUnion`
    as it is, an id list as one box of singletons per element
    (`BoxUnion.points`).  `tuple_cap` bounds the class-table entries of one
    coordinate and the candidate joint states of one step there.
    """
    if not isinstance(subset, BoxUnion):
        subset = BoxUnion.points(alg, subset)
    return _box_union_check(alg, subset, tuple_cap)


def _count_multisets(n: int, r: int) -> int:
    return math.comb(n + r - 1, r)


# ---------------------------------------------------------------------------
# box route


# argument rows one coordinate image may need: a refusal bound, as the images
# come from one reach pass, but `_box_witness` enumerates the rows of one;
# also the least bound of a coordinate's reach array
_IMAGE_ROWS = 1 << 20


def _box_union_check(alg, union, tuple_cap):
    """Closure of a union of boxes, checked image box by image box.

    Each op acts coordinatewise, so its image of r boxes is the box of the
    per-coordinate images, and the union is closed iff every such image box
    lies in the union (`_uncovered_point`), however many elements the boxes
    hold.  `_box_images` gives each image box once.
    """
    if coordinate_sizes(alg) != union.sizes:
        raise AlgebraError(
            f"box union over sizes {union.sizes} does not match the coordinates of "
            f"{alg.label or 'the algebra'}"
        )
    boxes = [box for box in union.boxes if all(box)]  # an empty value set: no elements
    if not boxes:
        return True, None
    frozen = [tuple(map(frozenset, box)) for box in boxes]
    lattices: dict = {}  # (n, r, sym) -> list lattice, shared by every op and coordinate
    for oi, op in enumerate(alg.ops):
        sym, leaves = _op_symmetrical(op), _leaf_ops(op)
        for cube, args in _box_images(op, leaves, boxes, sym, tuple_cap, lattices):
            point = _uncovered_point(cube, frozen)
            if point is not None:
                return False, _box_witness(oi, leaves, [boxes[b] for b in args], point, sym)
    return True, None


def _box_images(op, leaves, boxes, sym, cap, lattices):
    """Every image box of r of the boxes, once each, with the indices of
    argument boxes that give it.

    The boxes are added one argument at a time to joint states, one residual
    class per coordinate (`_residual_classes`, shared by coordinates with one
    leaf and one list of value sets, over the list lattices in `lattices`).
    Argument lists in one joint state give the same image box under every
    completion, so the states are deduplicated after each step, keeping the
    first candidate of each, and a back-pointer per state rebuilds its
    arguments.  The candidates of a step, states times boxes, are checked
    against `cap` first.
    """
    r, nbox = op.arity, len(boxes)
    classes: dict = {}  # (leaf, value sets of the coordinate) -> transitions, images
    coords = []
    for c, leaf in enumerate(leaves):
        box_sets = [box[c] for box in boxes]
        sets = tuple(sorted(set(box_sets)))
        if (leaf, sets) not in classes:
            classes[leaf, sets] = _residual_classes(leaf, sets, r, sym, cap, lattices)
        set_of_box = np.asarray([sets.index(s) for s in box_sets], dtype=np.int64)
        coords.append((set_of_box, *classes[leaf, sets]))
    states = np.zeros((1, len(coords)), dtype=np.int64)  # one class per coordinate
    steps = []  # per step, the candidate each state came from: parent * K + box
    for t in range(r):
        count = len(states) * nbox
        if count > cap:
            raise CapExceeded(
                f"box route on {op.name} needs {count} candidate joint states at "
                f"argument {t + 1} against the cap {cap}"
            )
        parent, box = np.divmod(np.arange(count), nbox)
        key = _mixed_radix_keys(count, (
            (trans[t][states[parent, c], set_of_box[box]],
             len(trans[t + 1]) if t + 1 < r else len(images))
            for c, (set_of_box, trans, images) in enumerate(coords)))
        first = np.unique(key, return_index=True)[1]
        parent, box = parent[first], box[first]
        states = np.stack([trans[t][states[parent, c], set_of_box[box]]
                           for c, (set_of_box, trans, _) in enumerate(coords)], axis=1)
        steps.append(first)
    args = np.empty((len(states), r), dtype=np.int64)
    at = np.arange(len(states))
    for t in range(r - 1, -1, -1):
        at, args[:, t] = np.divmod(steps[t][at], nbox)
    for row, arg in zip(states.tolist(), args.tolist()):
        yield tuple(images[k] for (_, _, images), k in zip(coords, row)), arg


def _mixed_radix_keys(count, digits):
    """One int64 key per row of `count` rows, given as (digit column, radix)
    pairs, with equal keys exactly for equal rows.  The key so far is
    re-ranked whenever the next digit could make it wrap."""
    key = np.zeros(count, dtype=np.int64)
    bound = 1  # key < bound
    for col, radix in digits:
        if bound * radix > 1 << 63:
            key = np.unique(key, return_inverse=True)[1].ravel()
            bound = int(key.max()) + 1
        key = key * radix + col
        bound *= radix
    return key


@dataclass(frozen=True)
class _ListLattice:
    """The lists of at most r entries from 0..n-1, multisets (sorted tuples)
    or sequences, one level per length t, each level in lex order."""

    parent: list  # parent[t]: (N_t,), each list's index at t - 1, less its last entry
    last: list    # last[t]: (N_t,), its last entry (0 for the empty list)
    child: list   # child[t]: (N_t, n), the index at t + 1 of the list plus entry k
    fold: list    # fold[t]: the rows of child[t - 1], flat, by the list they make,
                  # and the first of each list
    full: np.ndarray  # (N_r, r), the lists of length r


def _list_lattice(n, r, sym):
    """The lattice of lists of at most r entries from 0..n-1, multisets if `sym`.

    Level t + 1 holds each list of level t followed by each entry k, in lex
    order, keeping only k >= its last entry for a multiset.  A multiset plus
    a smaller k sorts to its parent plus k (a child at level t) followed by
    its last entry.
    """
    parent, last, child, fold = [None], [np.zeros(1, np.int64)], [], [None]
    entries = np.arange(n)
    for t in range(r):
        low = last[t]
        if sym:
            grows = entries >= low[:, None]  # the children, by entries from the last one up
            par, k = np.nonzero(grows)
            base = np.cumsum(n - low) - n  # child k of a list is at base + k
            ch = base[:, None] + entries
            if t:
                ch = np.where(grows, ch, base[child[t - 1][parent[t]]] + low[:, None])
        else:
            par, k = np.divmod(np.arange(len(low) * n), n)
            ch = np.arange(len(low) * n).reshape(len(low), n)
        order = np.argsort(ch, axis=None, kind="stable")
        parent.append(par)
        last.append(k)
        child.append(ch)
        fold.append((order, np.searchsorted(ch.ravel()[order], np.arange(len(k)))))
    full = np.empty((len(last[r]), r), dtype=np.int64)
    at = np.arange(len(full))
    for t in range(r, 0, -1):
        full[:, t - 1] = last[t][at]
        at = parent[t][at]
    return _ListLattice(parent, last, child, fold, full)


def _lattice(lattices, n, r, sym):
    if (n, r, sym) not in lattices:
        lattices[n, r, sym] = _list_lattice(n, r, sym)
    return lattices[n, r, sym]


def _residual_classes(leaf, sets, r, sym, cap, lattices):
    """The residual classes of partial argument lists of `leaf` drawn from `sets`.

    A list of t value sets (a multiset for a symmetric op, a sequence
    otherwise) is classed by the images of its completions to r arguments: at
    t = r by its image (`_image_classes`), at t < r by the classes reached by
    adding each value set, read off the lattice's child map.  Returns the
    transitions (trans[t][class at t, index in sets] = class at t + 1) and
    the image value set of each class at r.  The table's entries, one per
    partial list, are checked against `cap` before any is formed, and the
    argument rows of each image against `_IMAGE_ROWS` or a smaller `cap`.
    `lattices` holds the list lattices (`_list_lattice`) that the caller's
    operations and coordinates share.
    """
    d = len(sets)
    # the multisets of at most r of the d sets, or the sequences
    entries = _count_multisets(d + 1, r) if sym else sum(d**t for t in range(r + 1))
    if entries > cap:
        raise CapExceeded(
            f"box route on {leaf.name} needs {entries} class-table entries at one "
            f"coordinate against the cap {cap}"
        )
    lat = _lattice(lattices, d, r, sym)
    _check_image_rows(leaf, sets, lat.full, sym, min(cap, _IMAGE_ROWS))
    cls, images = _image_classes(leaf, sets, lat, sym, cap, lattices)
    nclass = len(images)
    trans = [None] * r
    for t in range(r - 1, -1, -1):
        rows = cls[lat.child[t]]
        key = _mixed_radix_keys(len(rows), ((col, nclass) for col in rows.T))
        _, first, cls = np.unique(key, return_index=True, return_inverse=True)
        trans[t], cls, nclass = rows[first], cls.ravel(), len(first)
    return trans, images


def _check_image_rows(leaf, sets, full, sym, cap):
    """Refuse at the first full list whose image would need more than `cap`
    argument rows, as `_arg_choices` forms them.

    No list needs more rows than the largest set size to the power r.  Else
    the counts are float products of at most r factors, close enough to be
    rounded exactly where they can meet the cap, and the refused count is
    recomputed exactly.
    """
    if max(map(len, sets)) ** full.shape[1] <= cap:
        return
    c = np.ones(full.shape)  # for a multiset, each entry's place in its run of equal sets
    if sym:
        pos = np.arange(full.shape[1])
        head = np.where(np.diff(full, axis=1, prepend=-1) != 0, pos, 0)
        c = pos - np.maximum.accumulate(head, axis=1) + 1
    sizes = np.asarray([len(vals) for vals in sets], dtype=np.float64)
    over = np.flatnonzero(np.rint(np.prod((sizes[full] + c - 1) / c, axis=1)) > cap)
    if len(over):
        row = full[over[0]].tolist()
        runs = collections.Counter(row).items() if sym else [(k, 1) for k in row]
        count = math.prod(_count_multisets(len(sets[k]), times) for k, times in runs)
        raise CapExceeded(
            f"image of {leaf.name} on the box route needs {count} argument rows "
            f"against the cap {cap}"
        )


def _image_classes(leaf, sets, lat, sym, cap, lattices):
    """The class of each full list of `lat` by its image, numbered by first
    occurrence in lex order, and the image value set of each class.

    One reach pass over lists of the values the sets hold: reach[value list,
    set list] at length t holds when the value list can be drawn from the
    set list.  It is an OR over the draws at t, each a value list at t - 1
    reached by the set list's parent plus one value its last set holds,
    grouped by the value list they make (the value lattice's `fold`).  At r
    the draws are grouped by the leaf value of the list they make instead,
    all from one `apply_cols` call, which gives each full list's image.  The
    draws at r, the largest array, are counted before any is formed and
    checked against `cap` or `_IMAGE_ROWS` if larger: a small cap bounds the
    class tables and joint states, not this array.
    """
    r = lat.full.shape[1]
    # only the values the sets hold can be drawn: member[set, value]
    values, at = np.unique(np.concatenate(sets), return_inverse=True)
    member = np.zeros((len(sets), len(values)), dtype=bool)
    member[np.repeat(np.arange(len(sets)), [len(vals) for vals in sets]), at] = True
    s = len(values)
    size = (_count_multisets(s, r - 1) if sym else s**(r - 1)) * s * len(lat.full)
    if size > max(cap, _IMAGE_ROWS):
        raise CapExceeded(
            f"image of {leaf.name} on the box route needs {size} reach entries "
            f"against the cap {max(cap, _IMAGE_ROWS)}"
        )
    vlat = _lattice(lattices, s, r, sym)
    made = leaf.apply_cols(values[vlat.full].T)[vlat.child[r - 1]].ravel()  # by draw
    order = np.argsort(made, kind="stable")
    made = made[order]
    head = np.flatnonzero(np.concatenate(([True], made[1:] != made[:-1])))
    reach = np.ones((1, 1), dtype=bool)
    for t in range(1, r + 1):
        prior, hold = reach[:, lat.parent[t]], member.T[:, lat.last[t]]
        draws = (prior[:, None, :] & hold).reshape(-1, prior.shape[1])
        by, first = vlat.fold[t] if t < r else (order, head)
        reach = np.logical_or.reduceat(draws[by], first, axis=0)
    # reach[image value, full list]
    key = _mixed_radix_keys(len(lat.full), ((row, 256) for row in np.packbits(reach, axis=0)))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    seen = np.argsort(first)  # the classes in order of first occurrence
    images = [frozenset(made[head][reach[:, first[c]]].tolist()) for c in seen]
    return np.argsort(seen)[inverse.ravel()], images


def _arg_choices(leaf, arg_sets, sym, cap):
    """Argument rows of `leaf` with row[i] drawn from arg_sets[i].

    For a symmetric operation, positions with equal value sets take one
    multiset of values between them, so the rows still reach every value.
    """
    groups: dict = {}
    for pos, vals in enumerate(arg_sets):
        groups.setdefault(vals if sym else pos, []).append(pos)
    count = math.prod(_count_multisets(len(arg_sets[pos[0]]), len(pos))
                      for pos in groups.values())
    if count > cap:
        raise CapExceeded(
            f"image of {leaf.name} on the box route needs {count} argument rows "
            f"against the cap {cap}"
        )
    rows = np.zeros((1, len(arg_sets)), dtype=np.int64)
    for pos in groups.values():
        combos = np.asarray(
            list(itertools.combinations_with_replacement(arg_sets[pos[0]], len(pos))),
            dtype=np.int64,
        )
        prior = len(rows)
        rows = np.repeat(rows, len(combos), axis=0)
        rows[:, pos] = np.tile(combos, (prior, 1))
    return rows


def _uncovered_point(cube, boxes):
    """A point of `cube` (one value set per coordinate) in none of `boxes`, or None.

    The multiple-valued cube-cover test (Rudell & Sangiovanni-Vincentelli,
    IEEE TCAD 1987): boxes missing the cube are dropped; a box holding it
    covers it; otherwise the cube is split on a coordinate that a remaining
    box cuts, into the part inside that box's value set and the part outside,
    and both halves are tested.
    """
    live = [b for b in boxes if all(c & v for c, v in zip(cube, b))]
    if not live:
        return tuple(min(c) for c in cube)
    if any(all(c <= v for c, v in zip(cube, b)) for b in live):
        return None
    box = live[0]
    k = next(k for k, (c, v) in enumerate(zip(cube, box)) if not c <= v)
    for part in (cube[k] & box[k], cube[k] - box[k]):
        point = _uncovered_point(cube[:k] + (part,) + cube[k + 1:], live)
        if point is not None:
            return point
    return None


def _box_witness(oi, leaves, arg_boxes, point, sym):
    """Argument elements, one from each box, whose image is the escaping point."""
    cols = []
    for c, leaf in enumerate(leaves):
        choices = _arg_choices(leaf, tuple(box[c] for box in arg_boxes), sym, _IMAGE_ROWS)
        cols.append(choices[int(np.argmax(leaf.apply_cols(choices.T) == point[c]))])
    indexing = FactorIndexing(tuple(leaf.size for leaf in leaves))
    args = tuple(indexing.encode(row) for row in np.asarray(cols).T.tolist())
    return (oi, args, indexing.encode(point))
