"""Witness algebras showing the sharpness of near-unanimity level bounds.

Three constructions live here:

* `filtered_subproduct` - a subalgebra of a four-factor product carved out by
  four membership templates anchored at absorbing elements, plus a designated
  pair (a, d) of the third factor and a subuniverse F of the last two.
* `cube_minus_top` - the power of the two-element reduct minus its top, the
  classic device refusing a lower-arity near-unanimity term.
* `build_sharpness_witness` - the explicit product of chain reducts with its
  distinguished "good" subuniverse, congruence triple, and canonical witness
  chain; the object all the counterexample certificates are computed on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .algebras import (
    DEFAULT_TUPLE_CAP,
    AlgebraError,
    BoxUnion,
    FiniteAlgebra,
    check_order_statistic,
    check_product_size,
    check_table_entries,
    coordinate_sizes,
    direct_product,
    is_k_absorbing,
    is_k_majority,
    is_subuniverse,
    make_ujm_reduct,
    TableOp,
)
from .congruences import Partition, induced_product_congruence, partition_meet
from .identities import check_identity, shortest_alternating_chain


class HypothesisError(AlgebraError):
    """A named precondition of a construction failed."""

    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"hypothesis {name} failed" + (f": {detail}" if detail else ""))
        self.name = name


def ell_of(m: int) -> int:
    """Top subset size used by the generator family: (m+1)//2, i.e. m/2 for even m."""
    return (m + 1) // 2


@dataclass(frozen=True)
class SharpnessParams:
    m: int
    q: int

    def __post_init__(self):
        if self.m < 3:
            raise AlgebraError("m must be >= 3")
        if self.q < 2:
            raise AlgebraError("q must be >= 2")

    @property
    def ell(self) -> int:
        return ell_of(self.m)


# ---------------------------------------------------------------------------
# staircase partitions of the chain 0..q


def staircase_partitions(q: int) -> tuple[Partition, Partition]:
    """The two interval partitions pairing the chain from the top.

    First: {q, q-1}, {q-2, q-3}, ...   (singleton {0} iff q is even)
    Second: {q}, {q-1, q-2}, ...       (singleton {0} iff q is odd)
    """
    if q < 1:
        raise AlgebraError("q must be >= 1")
    down = q - np.arange(q + 1)  # distance from the top
    return Partition(down // 2), Partition((down + 1) // 2)


def role_partitions(q: int) -> dict[str, tuple[Partition, Partition, Partition]]:
    """The (alpha, beta, gamma) factor partitions of each factor role.

    The chain factors carry the full partition in alpha and the two
    staircases in beta and gamma; the second factor of a pair swaps them when
    q is even.  The two-element factor ("last") is split by alpha and glued
    by beta and gamma.
    """
    first, second = staircase_partitions(q)
    whole, glued = Partition.one(q + 1), Partition.one(2)
    return {
        "pair-first": (whole, first, second),
        "pair-second": (whole, second, first) if q % 2 == 0 else (whole, first, second),
        "half": (whole, first, second),
        "last": (Partition.zero(2), glued, glued),
    }


def induced_triple(
    cols: Sequence[np.ndarray], triples: Sequence[tuple[Partition, Partition, Partition]]
) -> tuple[Partition, Partition, Partition]:
    """alpha, beta and gamma on a subset, induced column by column from one
    (alpha, beta, gamma) triple of partitions per column."""
    return tuple(induced_product_congruence(cols, [t[k] for t in triples]) for k in range(3))


# ---------------------------------------------------------------------------
# template-filtered four-factor subproduct

#: the four membership templates; '-' entries are free, and the pair of the
#: last two coordinates must additionally lie in F
TEMPLATES = ("(-,0,a,-)", "(0,0,-,-)", "(0,-,d,-)", "(-,-,-,0)")


@dataclass
class FilteredSubproduct:
    ambient: FiniteAlgebra
    union: BoxUnion
    h: int
    k: int
    a: int
    d: int
    zeros: tuple[int, int, int]

    @cached_property
    def b_ids(self) -> list[int]:
        return self.union.ids().tolist()

    @cached_property
    def tags(self) -> dict[int, tuple[int, ...]]:
        """The templates (numbered from 1 as in TEMPLATES) each element matches."""
        x1, x2, x3, x4 = self.ambient.indexing.digits(self.b_ids).T
        z1, z2, z4 = self.zeros
        hits = np.stack([(x2 == z2) & (x3 == self.a), (x1 == z1) & (x2 == z2),
                         (x1 == z1) & (x3 == self.d), x4 == z4], axis=1)
        named = [tuple(t + 1 for t in range(4) if code >> t & 1) for code in range(16)]
        return {eid: named[code] for eid, code in zip(self.b_ids, (hits @ (1, 2, 4, 8)).tolist())}


def filtered_subproduct(
    a1: FiniteAlgebra,
    a2: FiniteAlgebra,
    a3: FiniteAlgebra,
    a4: FiniteAlgebra,
    zero1: int,
    zero2: int,
    zero4: int,
    h: int,
    k: int,
    a: int,
    d: int,
    f_pairs: Sequence[int] | BoxUnion,
) -> FilteredSubproduct:
    """Subalgebra of A1 x A2 x A3 x A4 cut out by the four templates.

    Hypotheses (each verified, failures named):
      h-bounds: 1 <= h <= k and h + k <= m (the shared arity, >= 3);
      absorb-1 / absorb-2: zero1 / zero2 is h-absorbing in A1 / A2;
      majority-3: the operation of A3 is a k-majority operation;
      absorb-4: zero4 is 2-absorbing in A4;
      f-subuniverse: F is a subuniverse of A3 x A4, given as a `BoxUnion` or
      as flat indices, which become one box of singletons each
      (`BoxUnion.points`); either way it is checked on its boxes.

    The result is built as a union of boxes, from each box (b3, b4) of F:
    template 1 gives (A1, zero2, a, b4) when b3 holds a, template 3 gives
    (zero1, A2, d, b4) when b3 holds d, template 4 gives (A1, A2, b3, zero4)
    when b4 holds zero4, and template 2 gives (zero1, zero2, b3, b4).  A box
    inside another is dropped.  Closure of the result is re-verified on its
    boxes; a failure there is a bug, not an input error, and raises
    AlgebraError.
    """
    for alg in (a2, a3, a4):
        if alg.signature() != a1.signature():
            raise HypothesisError("similarity", "factors must share one signature")
    if len(a1.ops) != 1:
        raise HypothesisError("similarity", "factors must have exactly one operation")
    m = a1.ops[0].arity
    if m < 3:
        raise HypothesisError("h-bounds", "arity must be >= 3")
    if not (1 <= h <= k and h + k <= m):
        raise HypothesisError("h-bounds", f"need 1 <= h <= k and h + k <= {m}")
    if not is_k_absorbing(a1, 0, zero1, h):
        raise HypothesisError("absorb-1", f"{zero1} is not {h}-absorbing")
    if not is_k_absorbing(a2, 0, zero2, h):
        raise HypothesisError("absorb-2", f"{zero2} is not {h}-absorbing")
    if not is_k_majority(a3, 0, k):
        raise HypothesisError("majority-3", f"operation is not {k}-majority")
    if not is_k_absorbing(a4, 0, zero4, 2):
        raise HypothesisError("absorb-4", f"{zero4} is not 2-absorbing")
    if not (0 <= a < a3.size and 0 <= d < a3.size):
        raise HypothesisError("anchors", "a and d must lie in A3")

    prod34 = direct_product([a3, a4], label="A3 x A4")
    f_union = f_pairs if isinstance(f_pairs, BoxUnion) else BoxUnion.points(prod34, f_pairs)
    ok, witness = is_subuniverse(prod34, f_union)
    if not ok:
        raise HypothesisError("f-subuniverse", f"violated at {witness}")

    ambient = direct_product([a1, a2, a3, a4], label="A1 x A2 x A3 x A4")
    whole1, whole2 = ([tuple(range(s)) for s in coordinate_sizes(x)] for x in (a1, a2))
    pt1, pt2, pt_a, pt_d, pt4 = (list(BoxUnion.points(alg, [x]).boxes[0]) for alg, x in
                                 ((a1, zero1), (a2, zero2), (a3, a), (a3, d), (a4, zero4)))
    n3 = len(pt_a)
    boxes = []
    for b3, b4 in ((list(box[:n3]), list(box[n3:])) for box in f_union.boxes):
        if _holds(b3, pt_a):
            boxes.append(whole1 + pt2 + pt_a + b4)
        if _holds(b3, pt_d):
            boxes.append(pt1 + whole2 + pt_d + b4)
        if _holds(b4, pt4):
            boxes.append(whole1 + whole2 + b3 + pt4)
        boxes.append(pt1 + pt2 + b3 + b4)
    union = BoxUnion(coordinate_sizes(ambient), _maximal(boxes))
    ok, witness = is_subuniverse(ambient, union)
    if not ok:
        raise AlgebraError(f"template subproduct failed to close at {witness}")
    return FilteredSubproduct(ambient, union, h, k, a, d, (zero1, zero2, zero4))


def _holds(box, point) -> bool:
    return all(p in vals for vals, (p,) in zip(box, point))


def _maximal(boxes) -> list:
    """The boxes inside no other box; of equal boxes, the first."""
    sets = [[set(vals) for vals in box] for box in boxes]

    def inside(i, j):
        return all(x <= y for x, y in zip(sets[i], sets[j]))
    return [box for i, box in enumerate(boxes)
            if not any(inside(i, j) and (j < i or not inside(j, i))
                       for j in range(len(boxes)) if j != i)]


# ---------------------------------------------------------------------------
# the cube-minus-top example


def cube_minus_top(m: int, tuple_cap: int = DEFAULT_TUPLE_CAP):
    """The (m-1)-th power of the two-element reduct N(2,m), minus the all-ones tuple.

    Closed: a tuple is sent to the top only when at most one argument has a
    zero in each coordinate, but m arguments from the subset carry at least m
    zeros in m - 1 coordinates.  The count needs the power to stay below m:
    in N(2,3)^3 the majority of the three one-zero tuples is the top.  The
    subset is the union of the m - 1 boxes "coordinate i is 0", and closure
    is checked on those boxes.  The construction is only offered for m >= 4.
    """
    if m < 4:
        raise AlgebraError("needs m >= 4")
    power = direct_product([make_ujm_reduct(2, 2, m)] * (m - 1), label=f"N(2,{m})^{m-1}")
    union = BoxUnion(power.indexing.sizes,
                     [[(0,) if c == i else (0, 1) for c in range(m - 1)] for i in range(m - 1)])
    ok, witness = is_subuniverse(power, union, tuple_cap=tuple_cap)
    if not ok:
        raise AlgebraError(f"cube-minus-top failed to close at {witness}")
    return power, union.ids().tolist()


# ---------------------------------------------------------------------------
# generator families


def nu_family_generators(m: int) -> list[FiniteAlgebra]:
    """Two-element reducts for every subset size from 2 up to ell."""
    if m < 3:
        raise AlgebraError("m must be >= 3")
    return [make_ujm_reduct(2, j, m) for j in range(2, ell_of(m) + 1)]


def implication_expansion(m: int, variant: str = "i") -> FiniteAlgebra:
    """Two-element implication-algebra reduct expanded by the m-ary operation.

    variant 'i': binary x & ~y; variant 'f': ternary x & (~y | z).
    """
    if m < 4:
        raise AlgebraError("m must be >= 4")
    if variant == "i":
        base = TableOp("i", 2, 2, [0, 0, 1, 0])
    elif variant == "f":
        base = TableOp("f", 3, 2, [0, 0, 0, 0, 1, 1, 0, 1])
    else:
        raise AlgebraError(f"unknown variant {variant!r}")
    u = make_ujm_reduct(2, 2, m).ops[0]
    return FiniteAlgebra(2, [base, u], label=f"I{'' if variant == 'i' else 'f'}:{m}")


def modular_sum_algebra(n: int, arity: int) -> FiniteAlgebra:
    """Z_n with the single operation summing its arguments mod n."""
    if n < 2 or arity < 2:
        raise AlgebraError("need n >= 2 and arity >= 2")
    count = n**arity
    check_table_entries(f"sum:{n}:{arity}", count)
    idx = np.arange(count, dtype=np.int64)
    total = np.zeros(count, dtype=np.int64)
    for _ in range(arity):
        total += idx % n
        idx //= n
    return FiniteAlgebra(n, [TableOp("s", arity, n, total % n)], label=f"sum:{n}:{arity}")


def dissent_pair_fixture() -> FiniteAlgebra:
    """Two-element algebra with a ternary minority and a 4-ary lone-dissent op.

    The 4-ary table is forced on every tuple with at least three equal
    arguments; the 2-2 splits are free and pinned to 0 for determinism.
    """
    minority = TableOp("d3", 3, 2, [0, 1, 1, 0, 1, 0, 0, 1])
    rows = []
    for eid in range(16):
        bits = [(eid >> s) & 1 for s in (3, 2, 1, 0)]
        w = sum(bits)
        rows.append(1 if w in (1, 4) else 0)
    d4 = TableOp("d4", 4, 2, rows)
    return FiniteAlgebra(2, [minority, d4], label="LD2")


# ---------------------------------------------------------------------------
# the explicit sharpness witness


@dataclass
class SharpnessWitness:
    params: SharpnessParams
    product: FiniteAlgebra
    factor_roles: list[dict]
    union: BoxUnion      # the good elements; local index i is union.ids()[i]
    alpha: Partition
    beta: Partition
    gamma: Partition
    a: int               # positions within good_ids (local indices)
    d: int
    c: Optional[int]     # the single mid witness, q = 2 only
    lhs_chain: list[int]  # a, c_1 .. c_{q-1}, d as local indices

    @property
    def size(self) -> int:
        return len(self.union)

    @cached_property
    def good_ids(self) -> list[int]:
        return self.union.ids().tolist()

    def coords_of_local(self, i: int) -> tuple[int, ...]:
        return self.product.indexing.decode(int(self.union.ids()[i]))


def _factor_plan(params: SharpnessParams) -> list[dict]:
    """Factor order: pairs for j = 2..ell (minus the half), then the half for
    odd m, then the two-element reduct."""
    m, q, ell = params.m, params.q, params.ell
    roles = []
    top_pair = ell - 1 if m % 2 == 1 else ell
    pair_no = 0
    for j in range(2, top_pair + 1):
        pair_no += 1
        roles.append({"role": "pair-first", "pair": pair_no, "j": j, "chain": q + 1})
        roles.append({"role": "pair-second", "pair": pair_no, "j": j, "chain": q + 1})
    if m % 2 == 1:
        roles.append({"role": "half", "j": ell, "chain": q + 1})
    roles.append({"role": "last", "j": 2, "chain": 2})
    assert len(roles) == m - 1
    return roles


def good_boxes(roles: Sequence[dict], q: int) -> list[list[tuple[int, ...]]]:
    """The distinguished subuniverse as a union of boxes, one value set per factor.

    Elements whose final coordinate is 0 are always good (box 0).  Otherwise
    the pair sequence must be a run of null pairs, then one pair of shape
    (-,0) or (0,-), then a constant run of (q,0) or (0,q) respectively; the
    half coordinate of odd m behaves as the first component of one more pair
    and is free when every pair is null (box 1).  Each pair position gives one
    box per shape, 2 + 2 * (number of pairs) boxes in all.  An element of a
    shape's box whose shaped pair is null lies in the next pair's box of that
    shape, or in box 1 after the last pair, so the union is the good set.
    """
    chain = tuple(range(q + 1))
    firsts = [i for i, r in enumerate(roles) if r["role"] == "pair-first"]
    halves = [i for i, r in enumerate(roles) if r["role"] == "half"]
    null = [(0,)] * (len(roles) - 1) + [(1,)]
    for i in halves:
        null[i] = chain
    boxes = [[chain] * (len(roles) - 1) + [(0,)], null]
    for k, i in enumerate(firsts):
        for free, later, half in ((i, (q, 0), q), (i + 1, (0, q), 0)):
            box = list(null)
            box[free] = chain
            for j in firsts[k + 1:]:
                box[j], box[j + 1] = (later[0],), (later[1],)
            for j in halves:
                box[j] = (half,)
            boxes.append(box)
    return boxes


def build_sharpness_witness(m: int, q: int, *, verify_closure: bool = True) -> SharpnessWitness:
    """The product of chain reducts with its good subuniverse and congruences.

    Each factor carries the congruences of its role (`role_partitions`), so
    the distinguishing congruence alpha relates elements agreeing in the
    final coordinate.
    """
    params = SharpnessParams(m, q)
    roles = _factor_plan(params)
    # every cap is checked before any factor table is built: the tables,
    # then the product's size; each distinct factor is built once
    kinds = dict.fromkeys((r["chain"], r["j"]) for r in roles)
    for chain, j in kinds:
        check_order_statistic(chain, j, m)
    check_product_size(math.prod(r["chain"] for r in roles))
    made = {(chain, j): make_ujm_reduct(chain, j, m) for chain, j in kinds}
    factors = [made[r["chain"], r["j"]] for r in roles]
    product = direct_product(factors, label=f"P({m},{q})")
    union = BoxUnion(product.indexing.sizes, good_boxes(roles, q))
    if verify_closure:
        ok, witness = is_subuniverse(product, union)
        if not ok:
            raise AlgebraError(f"good set failed to close at {witness}")

    parts = role_partitions(q)
    alpha, beta, gamma = induced_triple(product.indexing.digits(union.ids()).T,
                                        [parts[r["role"]] for r in roles])

    def encode(first, second, last):
        """The element with `first` on each pair's first factor and on the
        half, `second` on each pair's second factor and `last` on the last."""
        value = {"pair-first": first, "half": first, "pair-second": second, "last": last}
        return product.indexing.encode([value[r["role"]] for r in roles])

    chain_ids = [encode(q, 0, 1), *(encode(q - i, i, 0) for i in range(1, q)), encode(0, q, 1)]
    lhs_chain = union.rank(chain_ids).tolist()
    a_loc, d_loc = lhs_chain[0], lhs_chain[-1]
    c_loc = lhs_chain[1] if q == 2 else None

    witness = SharpnessWitness(
        params, product, roles, union, alpha, beta, gamma,
        a_loc, d_loc, c_loc, lhs_chain,
    )
    _check_lhs_chain(witness)
    return witness


def lhs_chain_break(triple, chain: Sequence[int]) -> Optional[int]:
    """The first step of a left-side chain a, c_1, .., c_{q-1}, d that leaves
    its relation, or None.  `triple` has the congruences alpha, beta and
    gamma.  The steps lie in beta, then in the meets of alpha with gamma and
    beta in turn, then in the trailing relation (gamma for even q, beta for
    odd q)."""
    q = len(chain) - 1
    alpha, beta, gamma = triple.alpha, triple.beta, triple.gamma
    middle = (partition_meet(alpha, gamma if i % 2 == 0 else beta) for i in range(q - 2))
    rels = [beta, *middle, gamma if q % 2 == 0 else beta]
    for i, rel in enumerate(rels):
        if not rel.related(chain[i], chain[i + 1]):
            return i
    return None


def _check_lhs_chain(w: SharpnessWitness) -> None:
    """The designated chain must realise membership of (a, d) on the left side:
    alpha on the endpoints, then beta, alternating meets, trailing swap."""
    if not w.alpha.related(w.a, w.d):
        raise AlgebraError("endpoints are not alpha-related")
    step = lhs_chain_break(w, w.lhs_chain)
    if step is not None:
        raise AlgebraError(f"left-side chain breaks at step {step}")


# ---------------------------------------------------------------------------
# canonical alternating chain (q = 2)


def canonical_witness_chain(w: SharpnessWitness) -> list[int]:
    """The forced alternating path from a to d for q = 2, as local indices.

    Moves, one coordinate at a time: each pair's first component steps down
    q -> .. -> 0 in pair order, then the half (odd m) steps down, then each
    pair's second component steps up 0 -> .. -> q in reverse pair order.
    Consecutive elements alternate between the two meet relations, which is
    re-verified here.
    """
    if w.params.q != 2:
        raise AlgebraError("the printed chain is the q = 2 case; use the path search")
    roles = w.factor_roles
    coords = list(w.coords_of_local(w.a))
    moves: list[tuple[int, int]] = []
    firsts = [i for i, r in enumerate(roles) if r["role"] == "pair-first"]
    for i in firsts:
        moves += [(i, 1), (i, 0)]
    if roles[-2]["role"] == "half":
        moves += [(len(roles) - 2, 1), (len(roles) - 2, 0)]
    for i in reversed(firsts):
        moves += [(i + 1, 1), (i + 1, 2)]
    path_ids = []
    for pos_i, val in moves:
        coords[pos_i] = val
        path_ids.append(w.product.indexing.encode(coords))
    path = [w.a, *w.union.rank(path_ids).tolist()]
    if path[-1] != w.d:
        raise AlgebraError("canonical chain did not land on d")
    for s in range(len(path) - 1):
        rel = partition_meet(w.alpha, w.beta if s % 2 == 0 else w.gamma)
        if not rel.related(path[s], path[s + 1]):
            raise AlgebraError(f"canonical chain breaks alternation at step {s}")
    return path


# ---------------------------------------------------------------------------
# bundled verification used by the CLI and the acceptance suite


def sharpness_report(m: int, q: int) -> dict:
    """Build the witness and collect every checkable claim about it."""
    w = build_sharpness_witness(m, q)
    ident = check_identity(
        "wedge-power", w.alpha, w.beta, w.gamma, m=m, q=q, pair=(w.a, w.d)
    )
    report = {
        "m": m,
        "q": q,
        "product_size": w.product.size,
        "subuniverse_size": w.size,
        "subuniverse_ok": True,  # build_sharpness_witness verified closure
        "pair": [w.a, w.d],
        "pair_product_ids": w.union.ids()[[w.a, w.d]].tolist(),
        "lhs_chain": w.lhs_chain,
        "identity": ident.to_obj(),
    }
    if q == 2:
        canonical = canonical_witness_chain(w)
        found = shortest_alternating_chain(w.a, w.d, partition_meet(w.alpha, w.beta),
                                           partition_meet(w.alpha, w.gamma), cap=4 * m)
        path, factors = found if found else (None, None)
        report["chains"] = {
            "canonical_chain": canonical,
            "bfs_chain": path,
            "bfs_factors": factors,
            "bfs_matches_canonical": path == canonical,
            "ab_chain_2m5": check_identity(
                "dist", w.alpha, w.beta, w.gamma, n=2 * m - 5, pair=(w.a, w.d)
            ).to_obj(),
            "ag_chain_2m4": check_identity(
                "alvin", w.alpha, w.beta, w.gamma, n=2 * m - 4, pair=(w.a, w.d)
            ).to_obj(),
            "ab_chain_2m4": check_identity(
                "dist", w.alpha, w.beta, w.gamma, n=2 * m - 4, pair=(w.a, w.d)
            ).to_obj(),
        }
    if q % 2 == 1:
        report["odd_equivalent"] = check_identity(
            "wedge-power-odd", w.alpha, w.beta, w.gamma, m=m, q=q, pair=(w.a, w.d)
        ).to_obj()
    return report
