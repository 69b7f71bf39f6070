"""Congruence-identity instances over a triple (alpha, beta, gamma).

Each identity family builds a left and right relation expression from the
triple; an instance is checked either in full (boolean matrices, every pair)
or for a designated pair (block-image reachability, which also handles
universes far too large for matrices).

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
from typing import Optional

import numpy as np

from .algebras import AlgebraError, CapExceeded, FiniteAlgebra
from .congruences import Partition, is_congruence, partition_meet
from .relations import bool_product

ALPHA, BETA, GAMMA = "alpha", "beta", "gamma"
ALPHA_BETA, ALPHA_GAMMA = "alpha_beta", "alpha_gamma"

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
    return {
        ALPHA: alpha,
        BETA: beta,
        GAMMA: gamma,
        ALPHA_BETA: partition_meet(alpha, beta),
        ALPHA_GAMMA: partition_meet(alpha, gamma),
    }


def expr_matrix(expr, ctx: dict) -> np.ndarray:
    """Full boolean matrix of the expression."""
    if isinstance(expr, Prim):
        ids = ctx[expr.key].as_array()
        return ids[:, None] == ids[None, :]
    if isinstance(expr, Comp):
        n = ctx[ALPHA].size
        out = np.eye(n, dtype=bool)
        for item in expr.items:
            out = bool_product(out, expr_matrix(item, ctx))
        return out
    if isinstance(expr, MeetAlpha):
        ids = ctx[ALPHA].as_array()
        return expr_matrix(expr.inner, ctx) & (ids[:, None] == ids[None, :])
    if isinstance(expr, Power):
        n = ctx[ALPHA].size
        base = expr_matrix(expr.inner, ctx)
        out = np.eye(n, dtype=bool)
        for _ in range(expr.k):
            out = bool_product(out, base)
        return out
    raise AlgebraError(f"bad expression node {expr!r}")


def expr_image(expr, ctx: dict, members: np.ndarray) -> np.ndarray:
    """Image of a set (boolean mask) under the expression.

    MeetAlpha nodes require the incoming set to sit inside one alpha block;
    that holds along every expression of the catalogue when the original
    source is a single element, and is asserted here.
    """
    if isinstance(expr, Prim):
        ids = ctx[expr.key].as_array()
        touched = np.unique(ids[members])
        return np.isin(ids, touched)
    if isinstance(expr, Comp):
        out = members
        for item in expr.items:
            out = expr_image(item, ctx, out)
        return out
    if isinstance(expr, MeetAlpha):
        ids = ctx[ALPHA].as_array()
        src_blocks = np.unique(ids[members])
        if len(src_blocks) > 1:
            raise AlgebraError("image through a meet needs a single alpha block")
        return expr_image(expr.inner, ctx, members) & (ids == src_blocks[0])
    if isinstance(expr, Power):
        out = members
        for _ in range(expr.k):
            out = expr_image(expr.inner, ctx, out)
        return out
    raise AlgebraError(f"bad expression node {expr!r}")


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
    items = expr.items
    n = ctx[ALPHA].size
    fwd = [np.zeros(n, dtype=bool)]
    fwd[0][a] = True
    for item in items:
        fwd.append(expr_image(item, ctx, fwd[-1]))
    if not fwd[-1][d]:
        return None
    back = np.zeros(n, dtype=bool)
    back[d] = True
    stages = [back]
    for item in reversed(items):
        stages.append(expr_image(item, ctx, stages[-1]))  # partitions are symmetric
    stages.reverse()
    path = [a]
    cur = a
    for i, item in enumerate(items[:-1], start=1):
        ids = ctx[item.key].as_array()
        ok = (ids == ids[cur]) & fwd[i] & stages[i]
        cur = int(np.flatnonzero(ok)[0])
        path.append(cur)
    path.append(d)
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
    alg: Optional[FiniteAlgebra] = None,
    pair: Optional[tuple[int, int]] = None,
    matrix_cap: int = 2_000_000,
) -> IdentityInstance:
    """Evaluate one identity instance.

    Without `pair`: full verdict over all pairs (needs size^2 <= matrix_cap).
    With `pair`: decides whether that pair is a counterexample, by block-image
    reachability; scales to universes where matrices are hopeless.

    When `alg` is given the three partitions are verified to be congruences
    if the exhaustive check is affordable.
    """
    if alpha.size != beta.size or alpha.size != gamma.size:
        raise AlgebraError("partition sizes differ")
    if alg is not None:
        for name, part in ((ALPHA, alpha), (BETA, beta), (GAMMA, gamma)):
            try:
                ok, witness = is_congruence(alg, part)
            except CapExceeded:
                break
            if not ok:
                raise AlgebraError(f"{name} is not a congruence: {witness}")
    lhs, rhs = family_exprs(family, m=m, q=q, j=j, n=n)
    ctx = _context(alpha, beta, gamma)
    params = {k: v for k, v in (("m", m), ("q", q), ("j", j), ("n", n)) if v}
    size = alpha.size

    if pair is not None:
        a, d = pair
        src = np.zeros(size, dtype=bool)
        src[a] = True
        in_lhs = bool(expr_image(lhs, ctx, src)[d])
        in_rhs = bool(expr_image(rhs, ctx, src)[d])
        if in_lhs and not in_rhs:
            return IdentityInstance(
                family, params, "fails", (a, d), _comp_chain_witness(lhs, ctx, a, d),
                {"mode": "pair", "size": size},
            )
        return IdentityInstance(
            family, params, "pair-not-counterexample", (a, d), None,
            {"mode": "pair", "in_lhs": in_lhs, "in_rhs": in_rhs, "size": size},
        )

    if size * size > matrix_cap:
        raise CapExceeded(f"full check needs a {size}x{size} matrix; pass a pair")
    lmat = expr_matrix(lhs, ctx)
    rmat = expr_matrix(rhs, ctx)
    viol = lmat & ~rmat
    if not viol.any():
        return IdentityInstance(family, params, "holds", stats={"mode": "full", "size": size})
    flat = int(np.argmax(viol.reshape(-1)))
    a, d = flat // size, flat % size
    return IdentityInstance(
        family, params, "fails", (a, d), _comp_chain_witness(lhs, ctx, a, d),
        {"mode": "full", "size": size},
    )
