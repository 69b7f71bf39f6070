"""Descent driver: iterated template subproducts refuting level identities.

Starting at the top subset size ell and stepping down to 2, each stage holds
a pair algebra F^j inside A3^j x N(2,m) together with a congruence triple and
a designated pair that lies on the left of the level-j identity but not on
its right (exponent m - 2j + 2).  The base stage is the plain chain pair for
odd m and a template subproduct over a one-element third factor for even m;
every later stage feeds the previous one into the third factor.

Stage invariants, re-verified computationally at every level:
  (a) the designated pair is a counterexample to the level-j identity;
  (b) the connecting chain runs through elements whose final coordinate is 0;
  (c) the distinguishing congruence is the one induced by gluing everything
      except the final coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (
    AlgebraError,
    BoxUnion,
    FiniteAlgebra,
    direct_product,
    make_ujm_reduct,
    one_element_algebra,
)
from .congruences import Partition
from .identities import FULL_PAIR_CAP, IdentityInstance, check_identity
from .witnesses import (
    SharpnessParams,
    filtered_subproduct,
    induced_triple,
    lhs_chain_break,
    role_partitions,
)


@dataclass
class InductionState:
    j: int
    algebra3: FiniteAlgebra          # A3^j
    pair_product: FiniteAlgebra      # A3^j x N(2,m)
    f_union: BoxUnion                # subuniverse F^j of the pair product
    alpha: Partition                 # congruences on F^j (local indices)
    beta: Partition
    gamma: Partition
    a3: int                          # designated elements of A3^j
    d3: int
    chain3: list[int]                # middle chain elements of A3^j
    pair: tuple[int, int]            # (a,1), (d,1) as local F^j indices
    identity: IdentityInstance       # the level-j refutation


def _stage_identity(state_args, m, q, j) -> IdentityInstance:
    alpha, beta, gamma, pair, size = state_args
    family = "wedge-power" if j == 2 else "wedge-power-j"
    kwargs = {"m": m, "q": q} if j == 2 else {"m": m, "q": q, "j": j}
    if size * size <= FULL_PAIR_CAP:
        inst = check_identity(family, alpha, beta, gamma, **kwargs)
        if inst.verdict == "fails" and inst.counterexample != pair:
            inst = check_identity(family, alpha, beta, gamma, **kwargs, pair=pair)
    else:
        inst = check_identity(family, alpha, beta, gamma, **kwargs, pair=pair)
    if inst.verdict != "fails":
        raise AlgebraError(f"stage j={j}: identity did not fail at the designated pair")
    return inst


def _verify_stage(st: InductionState) -> None:
    """Invariants (b) and (c); (a) is checked when the stage is built."""
    n2 = st.pair_product.factors[1].size
    assert n2 == 2
    # (b): the chain elements carry final coordinate 0 and sit in F^j
    chain_pairs = [st.pair_product.indexing.encode((c3, 0)) for c3 in st.chain3]
    chain = [st.pair[0], *st.f_union.rank(chain_pairs).tolist(), st.pair[1]]
    step = lhs_chain_break(st, chain)
    if step is not None:
        raise AlgebraError(f"stage j={st.j}: witness chain breaks at step {step}")
    # (c): alpha is exactly the final-coordinate congruence
    want = Partition(st.pair_product.indexing.digits(st.f_union.ids())[:, 1])
    if want != st.alpha:
        raise AlgebraError(f"stage j={st.j}: alpha is not the final-coordinate kernel")


def _base_stage_odd(m: int, q: int) -> InductionState:
    """Odd m: the full chain pair with staircase congruences; exponent 1."""
    ell = SharpnessParams(m, q).ell
    a3_alg = make_ujm_reduct(q + 1, ell, m)
    n2m = make_ujm_reduct(2, 2, m)
    pairalg = direct_product([a3_alg, n2m], label=f"F^{ell}({m},{q})")
    f_union = BoxUnion.whole(pairalg)
    f_ids = f_union.ids()
    parts = role_partitions(q)
    alpha, beta, gamma = induced_triple(pairalg.indexing.digits(f_ids).T,
                                        [parts["half"], parts["last"]])
    enc = pairalg.indexing.encode
    pair = tuple(f_union.rank([enc((q, 1)), enc((0, 1))]).tolist())
    chain3 = list(range(q - 1, 0, -1))
    inst = _stage_identity((alpha, beta, gamma, pair, len(f_ids)), m, q, ell)
    st = InductionState(
        ell, a3_alg, pairalg, f_union, alpha, beta, gamma, q, 0, chain3,
        pair, inst,
    )
    _verify_stage(st)
    return st


def _lifted_stage(m: int, q: int, prev: InductionState | None) -> InductionState:
    """One template-subproduct step; prev is None for the even-m base.

    Builds B inside A1 x A2 x A3 x A4 with A1 = A2 the chain reduct at the
    new level (ell at the even-m base), A3 the previous stage's algebra (or a
    one-element algebra), A4 the two-element reduct, then re-associates B as
    a subuniverse of (A1 x A2 x A3) x A4; the flat index is unchanged by
    that regrouping.
    """
    ell = SharpnessParams(m, q).ell
    parts = role_partitions(q)
    n2m = make_ujm_reduct(2, 2, m)
    if prev is None:
        level = ell
        h = k = ell
        a3 = one_element_algebra(m)
        f_pairs = BoxUnion.whole(direct_product([a3, n2m]))  # F = A3 x A4, all of it
        f_triple = parts["last"]
        anchor_a = anchor_d = 0
        prev_chain3 = [0] * (q - 1)
    else:
        level = prev.j - 1
        h, k = level, m - level
        if not (1 <= h <= k and h + k <= m):
            raise AlgebraError(f"descent bounds broke at j={level}")
        a3 = prev.algebra3
        # F^j lives in A3^j x N(2,m); its flat pair indices transfer directly
        f_pairs = prev.f_union
        f_triple = (prev.alpha, prev.beta, prev.gamma)
        anchor_a, anchor_d = prev.a3, prev.d3
        prev_chain3 = prev.chain3
    a1 = a2 = make_ujm_reduct(q + 1, level, m)

    built = filtered_subproduct(
        a1, a2, a3, n2m, 0, 0, 0, h, k, anchor_a, anchor_d, f_pairs
    )
    amb = built.ambient

    # regroup: ambient id == ((x1*s2 + x2)*s3 + x3)*s4 + x4, so B's ids are
    # also ids of (A1 x A2 x A3) x A4
    algebra3 = direct_product([a1, a2, a3], label=f"A3^{level}({m},{q})")
    pairalg = direct_product([algebra3, n2m], label=f"F^{level}({m},{q})")
    f_ids = built.union.ids()
    x1, x2, x3, x4 = amb.indexing.digits(f_ids).T

    # congruences on B: the pair roles on A1 and A2, and the triple F carries
    # on the (x3, x4) pair, given by its position in F
    f_pos = f_pairs.rank(x3 * 2 + x4)
    alpha, beta, gamma = induced_triple([x1, x2, f_pos],
                                        [parts["pair-first"], parts["pair-second"], f_triple])

    enc = amb.indexing.encode
    a3_new = algebra3.indexing.encode((q, 0, anchor_a))
    d3_new = algebra3.indexing.encode((0, q, anchor_d))
    chain3 = [
        algebra3.indexing.encode((q - i, i, prev_chain3[i - 1]))
        for i in range(1, q)
    ]
    pair = tuple(built.union.rank([enc((q, 0, anchor_a, 1)), enc((0, q, anchor_d, 1))]).tolist())
    inst = _stage_identity((alpha, beta, gamma, pair, len(f_ids)), m, q, level)
    st = InductionState(
        level, algebra3, pairalg, built.union, alpha, beta, gamma,
        a3_new, d3_new, chain3, pair, inst,
    )
    _verify_stage(st)
    return st


def run_level_induction(m: int, q: int) -> list[InductionState]:
    """All stages from the top subset size down to 2."""
    params = SharpnessParams(m, q)
    ell = params.ell
    if ell < 2:
        raise AlgebraError("m must be >= 3")
    states = [_base_stage_odd(m, q) if m % 2 == 1 else _lifted_stage(m, q, None)]
    for _ in range(ell, 2, -1):
        states.append(_lifted_stage(m, q, states[-1]))
    return states
