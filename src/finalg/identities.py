"""Congruence-identity instances over a triple (alpha, beta, gamma).

Each identity family builds a left and right relation expression from the
triple; an instance is checked either in full (every pair) or for a
designated pair (which also handles universes far too large for all pairs).
Both modes run on one evaluator: the image of a set under a partition is the
union of the blocks it meets.

Two rules keep the evaluator at the fixpoint of its work, and both are
exact.  (1) Full mode evaluates each side on one source per block of
alpha ^ L, where L is the side's lead relation (the first `Prim` reached
through `MeetAlpha`, `Comp` and `Power`), and gives every element the image
of its block's source.  The image of {x} depends only on x's L-block, which
the first step reaches, and on x's alpha-block, the home of every enclosing
`MeetAlpha`; both are shared across a block of alpha ^ L, so the size x size
violation matrix, and with it the lex-least counterexample, is unchanged.
(2) Evaluation stops once the images are closed.  Every relation is an
equivalence and every node's image contains its source (partitions are
reflexive, and a `MeetAlpha` source lies in its home block), so images only
grow and an equal count means an equal set: a `Comp` skips a `Prim` its rows
are already closed under, which ends it once every remaining item is such a
`Prim`, and a `Power` returns once an iteration adds nothing.

One lex-least shortest-path search runs through relations given as key
pairs, x -> y iff left[x] == right[y], so that a partition is the pair
(block_id, block_id): `shortest_length` finds the fewest steps, and
`least_path` the lex-least path of that many.  It finds the left-side chain
of a failing pair, the shortest alternating chain between two partitions,
and the chain levels of `maltsev`.

Families (parameters in brackets):

  dist [n]               a(b o g)  <=  ab o ag o ... (n factors)
  alvin [n]              a(b o g)  <=  ag o ab o ... (n factors)
  wedge-power [m,q]      a(b o M o g*) <= (a(g o b o ...q...))^(m-2), where M
                         alternates ag, ab (q-2 middle factors) and trailing
                         relations flip when q is odd
  wedge-power-2 [m]      the q = 2 instance of wedge-power
  wedge-power-j [m,q,j]  wedge-power with right-hand exponent m - 2j + 2
  wedge-power-odd [m,q]  the equivalent form for odd q with the alpha*gamma
                         meet pushed through both sides
  zigzag-even [m,q]      a(b o g o ...q...) <= ab o ag o ... ((m-2)q factors)
  zigzag-odd [m,q]       a(b o g o ...q... o b) <= ab o ... (1+(m-2)(q-1))
  zigzag-even-swapped / zigzag-odd-swapped
                         the same with ab and ag exchanged on the right
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .algebras import AlgebraError, CapExceeded
from .congruences import Partition, partition_meet

ALPHA, BETA, GAMMA = "alpha", "beta", "gamma"
ALPHA_BETA, ALPHA_GAMMA = "alpha_beta", "alpha_gamma"

#: full mode builds a size x size violation matrix; above this many pairs it
#: is refused and callers ask about their designated pair instead.  It still
#: bounds size^2, not the (blocks of alpha ^ L) x size images evaluated, so
#: which mode runs, and so every certificate, stays as it was
FULL_PAIR_CAP = 2_000_000

FAMILIES = (
    "dist",
    "alvin",
    "wedge-power",
    "wedge-power-2",
    "wedge-power-j",
    "wedge-power-odd",
    "zigzag-even",
    "zigzag-odd",
    "zigzag-even-swapped",
    "zigzag-odd-swapped",
)


@dataclass(frozen=True)
class Prim:
    key: str


@dataclass(frozen=True)
class Comp:
    items: tuple


@dataclass(frozen=True)
class MeetAlpha:
    inner: object


@dataclass(frozen=True)
class Power:
    inner: object
    k: int


def _alt(first: str, second: str, count: int) -> list:
    return [Prim(first) if i % 2 == 0 else Prim(second) for i in range(count)]


def family_exprs(family: str, m: int = 0, q: int = 0, j: int = 0, n: int = 0):
    """Left and right expressions of an identity instance."""
    if family == "dist":
        if n < 1:
            raise AlgebraError("dist needs n >= 1")
        return MeetAlpha(Comp((Prim(BETA), Prim(GAMMA)))), Comp(tuple(_alt(ALPHA_BETA, ALPHA_GAMMA, n)))
    if family == "alvin":
        if n < 1:
            raise AlgebraError("alvin needs n >= 1")
        return MeetAlpha(Comp((Prim(BETA), Prim(GAMMA)))), Comp(tuple(_alt(ALPHA_GAMMA, ALPHA_BETA, n)))
    if family == "wedge-power-2":
        return family_exprs("wedge-power", m=m, q=2)
    if family in ("wedge-power", "wedge-power-j"):
        if m < 3 or q < 2:
            raise AlgebraError("wedge-power needs m >= 3 and q >= 2")
        exponent = m - 2
        if family == "wedge-power-j":
            if j < 2:
                raise AlgebraError("wedge-power-j needs j >= 2")
            exponent = m - 2 * j + 2
            if exponent < 1:
                raise AlgebraError(f"exponent m-2j+2 = {exponent} must be >= 1")
        beta_b = Prim(BETA) if q % 2 == 0 else Prim(GAMMA)   # trailing swap for odd q
        gamma_b = Prim(GAMMA) if q % 2 == 0 else Prim(BETA)
        lhs = MeetAlpha(Comp((Prim(BETA), *_alt(ALPHA_GAMMA, ALPHA_BETA, q - 2), gamma_b)))
        inner = Comp(tuple(_alt(GAMMA, BETA, q)))  # ends with beta_b by parity
        return lhs, Power(MeetAlpha(inner), exponent)
    if family == "wedge-power-odd":
        if m < 3 or q < 3 or q % 2 == 0:
            raise AlgebraError("wedge-power-odd needs m >= 3 and odd q >= 3")
        lhs = MeetAlpha(Comp((Prim(BETA), *_alt(ALPHA_GAMMA, ALPHA_BETA, q - 2), Prim(BETA))))
        mid = MeetAlpha(Comp(tuple(_alt(BETA, ALPHA_GAMMA, q - 2))))
        rhs = Comp((Prim(ALPHA_GAMMA), Power(Comp((mid, Prim(ALPHA_GAMMA))), m - 2)))
        return lhs, rhs
    if family in ("zigzag-even", "zigzag-even-swapped"):
        if m < 3 or q < 2 or q % 2 != 0:
            raise AlgebraError("zigzag-even needs m >= 3 and even q >= 2")
        lhs = MeetAlpha(Comp(tuple(_alt(BETA, GAMMA, q))))
        start = ALPHA_GAMMA if family.endswith("swapped") else ALPHA_BETA
        other = ALPHA_BETA if family.endswith("swapped") else ALPHA_GAMMA
        return lhs, Comp(tuple(_alt(start, other, (m - 2) * q)))
    if family in ("zigzag-odd", "zigzag-odd-swapped"):
        if m < 3 or q < 3 or q % 2 == 0:
            raise AlgebraError("zigzag-odd needs m >= 3 and odd q >= 3")
        lhs = MeetAlpha(Comp(tuple(_alt(BETA, GAMMA, q))))
        start = ALPHA_GAMMA if family.endswith("swapped") else ALPHA_BETA
        other = ALPHA_BETA if family.endswith("swapped") else ALPHA_GAMMA
        return lhs, Comp(tuple(_alt(start, other, 1 + (m - 2) * (q - 1))))
    raise AlgebraError(f"unknown identity family {family!r}")


# ---------------------------------------------------------------------------
# evaluation


def _context(alpha: Partition, beta: Partition, gamma: Partition) -> dict:
    return {ALPHA: alpha, BETA: beta, GAMMA: gamma,
            ALPHA_BETA: partition_meet(alpha, beta), ALPHA_GAMMA: partition_meet(alpha, gamma)}


def _block_image(rows: np.ndarray, part: Partition) -> np.ndarray:
    """Each row's image under the partition: the union of the blocks it meets."""
    return np.logical_or.reduceat(rows[:, part.order], part.starts, axis=1)[:, part.block_id]


def expr_image(expr, ctx: dict, rows: np.ndarray) -> np.ndarray:
    """Images of source sets under the expression, one per row.

    `rows` is a (k, n) boolean matrix; row i of the result is the image of
    row i.  The identity rows would give the whole relation (full mode
    passes one row per block instead, `_full_image`), one row a single
    pair's query.  MeetAlpha nodes require each incoming row to sit inside
    one alpha block; that holds along every expression of the catalogue when
    each source is a single element, and is asserted here.  Every image
    contains its source, so a step that keeps the count of True entries
    changed nothing: a `Comp` skips a `Prim` its rows are closed under and a
    `Power` stops at its fixpoint (see the module docstring).
    """
    if isinstance(expr, Prim):
        return _block_image(rows, ctx[expr.key])
    if isinstance(expr, Comp):
        closed, count = set(), np.count_nonzero(rows)
        for item in expr.items:
            if isinstance(item, Prim) and item.key in closed:
                continue
            rows = expr_image(item, ctx, rows)
            grown = np.count_nonzero(rows)
            if grown != count:
                closed.clear()
                count = grown
            if isinstance(item, Prim):
                closed.add(item.key)
        return rows
    if isinstance(expr, MeetAlpha):
        ids = ctx[ALPHA].block_id
        home = ids[None, :] == ids[rows.argmax(axis=1)][:, None]
        if (rows & ~home).any():
            raise AlgebraError("image through a meet needs a single alpha block")
        return expr_image(expr.inner, ctx, rows) & home
    if isinstance(expr, Power):
        count = np.count_nonzero(rows)
        for _ in range(expr.k):
            rows = expr_image(expr.inner, ctx, rows)
            grown = np.count_nonzero(rows)
            if grown == count:
                break
            count = grown
        return rows
    raise AlgebraError(f"bad expression node {expr!r}")


def _full_image(expr, ctx: dict) -> np.ndarray:
    """The expression as a size x size matrix: row x is the image of {x}.

    Evaluated on the least element of each block of alpha ^ L, L the lead
    relation, whose image every element of the block shares.
    """
    lead = expr
    while not isinstance(lead, Prim):
        lead = lead.items[0] if isinstance(lead, Comp) else lead.inner
    blocks = partition_meet(ctx[ALPHA], ctx[lead.key])
    rows = np.zeros((blocks.n_blocks, blocks.size), dtype=bool)
    rows[np.arange(blocks.n_blocks), blocks.order[blocks.starts]] = True
    return expr_image(expr, ctx, rows)[blocks.block_id]


def _comp_chain_witness(expr, ctx: dict, a: int, d: int) -> Optional[list[int]]:
    """Element path a .. d through the factors of a composition expression.

    Only used on left-hand sides, whose factors are all primitive relations.
    Returns None when (a, d) is not in the composition.
    """
    if isinstance(expr, MeetAlpha):
        if not ctx[ALPHA].related(a, d):
            return None
        return _comp_chain_witness(expr.inner, ctx, a, d)
    assert isinstance(expr, Comp)
    rels = [(ctx[item.key].block_id,) * 2 for item in expr.items]
    ids = np.arange(ctx[ALPHA].size)
    return least_path(ids == a, ids == d, rels, len(rels))


def shortest_alternating_chain(start: int, goal: int, first: Partition, second: Partition,
                               cap: int = 64):
    """Shortest alternating path between two partitions, both leads tried.

    Returns (path, factor_count) where path lists the visited elements
    (start and goal included) and consecutive steps alternate between the
    two relations; the starting relation is whichever gives the shorter
    chain, ties broken by the lexicographically least element sequence.
    Returns None if no path exists at all, and raises CapExceeded if the
    search hits the factor cap while paths might still exist.
    """
    if first.size != second.size:
        raise AlgebraError("partition sizes differ")
    n = first.size
    if not (0 <= start < n and 0 <= goal < n):
        raise AlgebraError("endpoints out of range")
    ids = np.arange(n)
    message = f"no alternating path within {cap} factors"
    best = None
    capped = False
    for lead in ((first, second), (second, first)):
        rels = [(part.block_id,) * 2 for part in lead]
        try:
            length = shortest_length(ids == start, ids == goal, rels, cap, message)
        except CapExceeded:
            capped = True
            continue
        if length is None:
            continue
        found = least_path(ids == start, ids == goal, rels, length)
        if best is None or (len(found), found) < (len(best), best):
            best = found
    if best is None:
        if capped:
            raise CapExceeded(message)
        return None
    return best, len(best) - 1


# ---------------------------------------------------------------------------
# lex-least shortest paths; step i goes through rels[i % len(rels)], so two
# relations alternate with the parity of the depth


def _image(left: np.ndarray, right: np.ndarray, src: np.ndarray) -> np.ndarray:
    """The elements y with left[x] == right[y] for some x in the mask src."""
    hit = np.zeros(max(left.max(), right.max()) + 1, dtype=bool)
    hit[left[src]] = True
    return hit[right]


def shortest_length(starts: np.ndarray, goals: np.ndarray, rels: Sequence, cap: int,
                    message: str, eligible: np.ndarray | bool = True) -> Optional[int]:
    """Fewest steps from a start to a goal through eligible elements.

    starts and goals are element masks inside the mask eligible (True: all
    elements).  A depth keeps only the elements not reached yet at a depth
    of its residue mod len(rels): from there the same steps were open
    before, on a shorter path.  Returns None once a depth reaches nothing
    new, and raises CapExceeded(message) when `cap` steps are used up while
    one still does.
    """
    seen = [starts.copy(), *(np.zeros_like(starts) for _ in rels[1:])]
    front, depth = starts, 0
    while not (front & goals).any():
        if not front.any():
            return None
        if depth >= cap:
            raise CapExceeded(message)
        front = _image(*rels[depth % len(rels)], front) & eligible
        depth += 1
        front &= ~seen[depth % len(rels)]
        seen[depth % len(rels)] |= front
    return depth


def least_path(starts: np.ndarray, goals: np.ndarray, rels: Sequence, length: int,
               eligible: np.ndarray | bool = True) -> Optional[list[int]]:
    """The lex-least path of `length` steps from a start to a goal, or None.

    The preimages back from the goals mark, per depth, the elements that
    still reach a goal; the forward walk then takes the least such element
    at every step.
    """
    back = [goals]
    for depth in reversed(range(length)):
        left, right = rels[depth % len(rels)]
        back.insert(0, _image(right, left, back[0]) & eligible)
    if not (starts & back[0]).any():
        return None
    path = [int(np.argmax(starts & back[0]))]
    for depth in range(length):
        left, right = rels[depth % len(rels)]
        path.append(int(np.argmax(back[depth + 1] & (right == left[path[-1]]))))
    return path


@dataclass
class IdentityInstance:
    family: str
    params: dict
    verdict: str  # "holds" | "fails" | "pair-not-counterexample"
    counterexample: Optional[tuple[int, int]] = None
    lhs_chain: Optional[list[int]] = None
    stats: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "verdict": self.verdict,
            "counterexample": list(self.counterexample) if self.counterexample else None,
            "lhs_chain": self.lhs_chain,
            "stats": self.stats,
        }


def check_identity(
    family: str,
    alpha: Partition,
    beta: Partition,
    gamma: Partition,
    *,
    m: int = 0,
    q: int = 0,
    j: int = 0,
    n: int = 0,
    pair: Optional[tuple[int, int]] = None,
) -> IdentityInstance:
    """Evaluate one identity instance.

    Without `pair`: full verdict over all pairs (needs size^2 <= FULL_PAIR_CAP).
    Each side is evaluated on one source per block of alpha ^ L, L its lead
    relation, at a cost of (blocks) x size rather than size^2; exact because
    the image of {x} depends only on x's L-block and alpha-block.
    With `pair`: decides whether that pair is a counterexample from its
    images alone; scales to universes where all pairs are hopeless.
    Both modes stop each `Comp` and `Power` at its fixpoint, exact because
    images only grow, so an equal count of elements is an equal set.
    """
    if alpha.size != beta.size or alpha.size != gamma.size:
        raise AlgebraError("partition sizes differ")
    lhs, rhs = family_exprs(family, m=m, q=q, j=j, n=n)
    params = {k: v for k, v in (("m", m), ("q", q), ("j", j), ("n", n)) if v}
    size = alpha.size

    if pair is None and size * size > FULL_PAIR_CAP:
        raise CapExceeded(f"full check needs {size}x{size} pairs; pass a pair")
    ctx = _context(alpha, beta, gamma)
    if pair is not None:
        a, d = pair
        if not (0 <= a < size and 0 <= d < size):
            raise AlgebraError(f"pair {pair} out of range 0..{size - 1}")
        src = np.zeros((1, size), dtype=bool)
        src[0, a] = True
        in_lhs = bool(expr_image(lhs, ctx, src)[0, d])
        in_rhs = bool(expr_image(rhs, ctx, src)[0, d])
        if in_lhs and not in_rhs:
            return IdentityInstance(
                family, params, "fails", (a, d), _comp_chain_witness(lhs, ctx, a, d),
                {"mode": "pair", "size": size},
            )
        return IdentityInstance(
            family, params, "pair-not-counterexample", (a, d), None,
            {"mode": "pair", "in_lhs": in_lhs, "in_rhs": in_rhs, "size": size},
        )

    viol = _full_image(lhs, ctx) & ~_full_image(rhs, ctx)
    if not viol.any():
        return IdentityInstance(family, params, "holds", stats={"mode": "full", "size": size})
    flat = int(np.argmax(viol.reshape(-1)))
    a, d = flat // size, flat % size
    return IdentityInstance(
        family, params, "fails", (a, d), _comp_chain_witness(lhs, ctx, a, d),
        {"mode": "full", "size": size},
    )
