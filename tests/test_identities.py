import random

import numpy as np
import pytest

from finalg.algebras import AlgebraError
from finalg.congruences import Partition, partition_meet
from finalg import identities
from finalg.identities import (
    ALPHA,
    ALPHA_BETA,
    ALPHA_GAMMA,
    BETA,
    FAMILIES,
    GAMMA,
    Comp,
    MeetAlpha,
    Power,
    Prim,
    check_identity,
    expr_image,
    family_exprs,
    _context,
)
from relation_oracle import bool_product, expr_matrix, matrix_context, relation


def random_partition(rng, n):
    return Partition(tuple(rng.randrange(max(1, n // 2 + 1)) for _ in range(n)))


def random_triple(rng, n):
    return tuple(random_partition(rng, n) for _ in range(3))


def test_family_catalog_complete():
    for family in FAMILIES:
        lhs, rhs = family_exprs(family, m=4, q=3 if "odd" in family else 2, j=2, n=3)
        assert lhs is not None and rhs is not None


def test_family_parameter_validation():
    with pytest.raises(AlgebraError):
        family_exprs("dist", n=0)
    with pytest.raises(AlgebraError):
        family_exprs("wedge-power", m=2, q=2)
    with pytest.raises(AlgebraError):
        family_exprs("wedge-power-odd", m=4, q=2)
    with pytest.raises(AlgebraError):
        family_exprs("zigzag-even", m=4, q=3)
    with pytest.raises(AlgebraError):
        family_exprs("wedge-power-j", m=4, q=2, j=4)  # exponent would drop below 1
    with pytest.raises(AlgebraError):
        family_exprs("no-such-family")


def test_wedge_power_q2_equals_basic_form():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(3, 8)
        alpha, beta, gamma = random_triple(rng, n)
        ctx = matrix_context(alpha, beta, gamma)
        for m in (3, 4, 5):
            l1, r1 = family_exprs("wedge-power", m=m, q=2)
            l2, r2 = family_exprs("wedge-power-2", m=m)
            assert np.array_equal(expr_matrix(l1, ctx), expr_matrix(l2, ctx))
            assert np.array_equal(expr_matrix(r1, ctx), expr_matrix(r2, ctx))


def test_wedge_power_j_at_2_is_wedge_power():
    rng = random.Random(4)
    for _ in range(20):
        alpha, beta, gamma = random_triple(rng, 6)
        ctx = matrix_context(alpha, beta, gamma)
        for m, q in ((4, 2), (5, 3)):
            _, r1 = family_exprs("wedge-power", m=m, q=q)
            _, r2 = family_exprs("wedge-power-j", m=m, q=q, j=2)
            assert np.array_equal(expr_matrix(r1, ctx), expr_matrix(r2, ctx))


def test_meet_chain_contains_meet_composition():
    # ab o ag is always inside a(b o g) for equivalence triples
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randrange(3, 9)
        alpha, beta, gamma = random_triple(rng, n)
        ctx = matrix_context(alpha, beta, gamma)
        lhs2, _ = family_exprs("dist", n=2)
        chain = expr_matrix(family_exprs("dist", n=2)[1], ctx)
        wedge = expr_matrix(lhs2, ctx)
        assert not (chain & ~wedge).any()


def test_dist_chain_monotone_in_n():
    rng = random.Random(10)
    for _ in range(30):
        alpha, beta, gamma = random_triple(rng, 7)
        ctx = matrix_context(alpha, beta, gamma)
        prev = None
        for n in range(1, 6):
            cur = expr_matrix(family_exprs("dist", n=n)[1], ctx)
            if prev is not None:
                assert not (prev & ~cur).any()
            prev = cur


@pytest.mark.parametrize("q", [3, 5])
def test_odd_equivalence_relational_facts(q):
    """The odd-q equivalent form: both sides transform exactly as the
    substitution gamma -> alpha*gamma predicts, and its right side embeds
    back into the original right side."""
    rng = random.Random(100 + q)
    m = 4
    for _ in range(50):
        n = rng.randrange(3, 9)
        alpha, beta, gamma = random_triple(rng, n)
        ctx = matrix_context(alpha, beta, gamma)
        sub_ctx = matrix_context(alpha, beta, partition_meet(alpha, gamma))
        l_orig, r_orig = family_exprs("wedge-power", m=m, q=q)
        l_odd, r_odd = family_exprs("wedge-power-odd", m=m, q=q)
        # for odd q the left side is literally the substituted left side
        assert np.array_equal(expr_matrix(l_odd, ctx), expr_matrix(l_orig, sub_ctx))
        assert np.array_equal(expr_matrix(l_odd, ctx), expr_matrix(l_orig, ctx))
        # the substituted right side collapses to the framed power form
        assert np.array_equal(expr_matrix(r_odd, ctx), expr_matrix(r_orig, sub_ctx))
        # and the framed power form sits inside the original right side
        assert not (expr_matrix(r_odd, ctx) & ~expr_matrix(r_orig, ctx)).any()


def test_check_identity_full_vs_pair(witness_cache):
    w = witness_cache(4, 2)
    full = check_identity("wedge-power", w.alpha, w.beta, w.gamma, m=4, q=2)
    assert full.verdict == "fails"
    a, d = full.counterexample
    again = check_identity("wedge-power", w.alpha, w.beta, w.gamma, m=4, q=2, pair=(a, d))
    assert again.verdict == "fails"


def test_pair_outside_the_universe_is_refused(witness_cache):
    # (-3, 5) used to index from the end and report a counterexample [-3, 5];
    # (11, 17) raised a bare IndexError
    w = witness_cache(4, 2)
    assert w.alpha.size == 14
    for pair in ((-3, 5), (11, 17), (5, 14)):
        with pytest.raises(AlgebraError, match="out of range"):
            check_identity("wedge-power", w.alpha, w.beta, w.gamma, m=4, q=2, pair=pair)


def test_counterexample_reverifies_by_matrices(witness_cache):
    w = witness_cache(5, 2)
    inst = check_identity("wedge-power", w.alpha, w.beta, w.gamma, m=5, q=2,
                          pair=(w.a, w.d))
    assert inst.verdict == "fails"
    ctx = matrix_context(w.alpha, w.beta, w.gamma)
    lhs, rhs = family_exprs("wedge-power", m=5, q=2)
    a, d = inst.counterexample
    assert expr_matrix(lhs, ctx)[a, d]
    assert not expr_matrix(rhs, ctx)[a, d]
    # the witness chain runs through the left side's factors
    chain = inst.lhs_chain
    assert chain[0] == a and chain[-1] == d
    assert w.beta.related(chain[0], chain[1])
    assert w.gamma.related(chain[-2], chain[-1])


def test_expr_image_matches_matrix_rows():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randrange(3, 8)
        alpha, beta, gamma = random_triple(rng, n)
        ctx = _context(alpha, beta, gamma)
        rels = matrix_context(alpha, beta, gamma)
        for family, kwargs in [
            ("dist", {"n": 3}),
            ("wedge-power", {"m": 4, "q": 2}),
            ("wedge-power-odd", {"m": 4, "q": 3}),
            ("zigzag-even", {"m": 3, "q": 2}),
        ]:
            lhs, rhs = family_exprs(family, **kwargs)
            for expr in (lhs, rhs):
                mat = expr_matrix(expr, rels)
                assert np.array_equal(expr_image(expr, ctx, np.eye(n, dtype=bool)), mat)
                for a in range(n):
                    src = np.zeros((1, n), dtype=bool)
                    src[0, a] = True
                    assert np.array_equal(expr_image(expr, ctx, src)[0], mat[a])
            viol = np.argwhere(expr_matrix(lhs, rels) & ~expr_matrix(rhs, rels))
            want = ("fails", tuple(int(v) for v in viol[0])) if len(viol) else ("holds", None)
            full = check_identity(family, alpha, beta, gamma, **kwargs)
            assert (full.verdict, full.counterexample) == want, (family, kwargs)


AB, AG = Prim(ALPHA_BETA), Prim(ALPHA_GAMMA)
B, G = Prim(BETA), Prim(GAMMA)

#: expressions that repeat a relation back to back and run powers well past
#: their fixpoint, so that both early stops of `expr_image` are taken; every
#: MeetAlpha sees rows inside one alpha block when each source row is
FIXPOINT_EXPRS = [
    Comp((AB, AB, AG, AG, AB, AG, AB, AG)),
    MeetAlpha(Comp((B, B, G, G, B))),
    Power(MeetAlpha(Comp((G, B, B))), 12),
    Power(Comp((AB, AG, AG)), 15),
    Comp((AG, Power(Comp((MeetAlpha(Comp((B, AG, AG))), AG)), 10), AB, AB)),
    Comp((B, Prim(ALPHA), Prim(ALPHA), G, G)),
]


def test_expr_image_of_set_sources_matches_the_oracle():
    """Multi-row sources, each a random nonempty subset of one alpha block:
    the image of a set is the union of its elements' matrix rows."""
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(2, 9)
        alpha, beta, gamma = random_triple(rng, n)
        ctx = _context(alpha, beta, gamma)
        rels = matrix_context(alpha, beta, gamma)
        src = np.zeros((6, n), dtype=bool)
        for row in src:
            block = np.flatnonzero(alpha.block_id == rng.randrange(alpha.n_blocks))
            row[rng.sample(block.tolist(), rng.randrange(1, len(block) + 1))] = True
        for expr in FIXPOINT_EXPRS:
            want = bool_product(src, expr_matrix(expr, rels))
            assert np.array_equal(expr_image(expr, ctx, src), want), expr


def test_meet_alpha_refuses_a_source_across_alpha_blocks():
    alpha = Partition([0, 0, 0, 1, 1, 1])
    beta = Partition([0, 1, 2, 0, 1, 2])   # the block {0, 3} meets both alpha blocks
    gamma = Partition([0, 0, 1, 1, 2, 2])
    ctx = _context(alpha, beta, gamma)
    across = np.zeros((1, 6), dtype=bool)
    across[0, [0, 3]] = True               # closed under beta already
    single = np.zeros((1, 6), dtype=bool)
    single[0, 0] = True
    message = "image through a meet needs a single alpha block"
    cases = [
        (MeetAlpha(B), across),
        (Power(MeetAlpha(B), 9), across),             # a fixpoint from the first step on
        (Power(Comp((B, MeetAlpha(AB))), 9), single),
        (Comp((B, B, MeetAlpha(G))), single),         # the second beta step is skipped
        (Comp((B, B, B, MeetAlpha(B))), across),
    ]
    for expr, src in cases:
        with pytest.raises(AlgebraError, match=message):
            expr_image(expr, ctx, src)


def test_full_and_pair_mode_stop_at_the_fixpoint(witness_cache, monkeypatch):
    """Counts of the work removed: full mode evaluates one source row per
    block of alpha ^ L (B(7,2) has 38 blocks of alpha ^ beta where the
    identity rows were its 254 elements), and a chain past its closure stops
    (17 block images at (a, d) on B(9,2) where it ran all 22)."""
    calls = []
    block_image = identities._block_image

    def counted(rows, part):
        calls.append(len(rows))
        return block_image(rows, part)

    monkeypatch.setattr(identities, "_block_image", counted)
    w = witness_cache(7, 2)
    assert check_identity("dist", w.alpha, w.beta, w.gamma, n=10).verdict == "holds"
    assert max(calls) == 38 < w.size == 254

    w = witness_cache(9, 2)
    calls.clear()
    inst = check_identity("dist", w.alpha, w.beta, w.gamma, n=20, pair=(w.a, w.d))
    assert inst.verdict == "pair-not-counterexample"
    assert len(calls) == 17  # 2 on the left, then 15 of the 20 on the right


def test_expr_matrix_vs_raw_relation_composition(witness_cache):
    """The full image against hand-built relation compositions."""
    for (m, q) in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        w = witness_cache(m, q)
        ctx = _context(w.alpha, w.beta, w.gamma)
        eye = np.eye(w.size, dtype=bool)
        alpha, beta, gamma = relation(w.alpha), relation(w.beta), relation(w.gamma)
        ab = alpha & beta
        ag = alpha & gamma

        # the wedge-power left side: alpha ^ (beta o [ag ab ...] o trailing)
        factors = [beta]
        for i in range(q - 2):
            factors.append(ag if i % 2 == 0 else ab)
        factors.append(gamma if q % 2 == 0 else beta)
        comp = eye
        for f in factors:
            comp = bool_product(comp, f)
        expr_l, expr_r = family_exprs("wedge-power", m=m, q=q)
        assert np.array_equal(alpha & comp, expr_image(expr_l, ctx, eye))

        # and the right side: (alpha ^ (gamma o beta o ...q...))^(m-2)
        comp = eye
        for i in range(q):
            comp = bool_product(comp, gamma if i % 2 == 0 else beta)
        rhs = eye
        for _ in range(m - 2):
            rhs = bool_product(rhs, alpha & comp)
        assert np.array_equal(rhs, expr_image(expr_r, ctx, eye))

        # zigzag right side: plain alternating chain of the meets
        fam = "zigzag-even" if q == 2 else "zigzag-odd"
        _, zig_r = family_exprs(fam, m=m, q=q)
        count = (m - 2) * q if q % 2 == 0 else 1 + (m - 2) * (q - 1)
        chain = eye
        for i in range(count):
            chain = bool_product(chain, ab if i % 2 == 0 else ag)
        assert np.array_equal(chain, expr_image(zig_r, ctx, eye))


def test_pair_mode_agrees_with_full_mode(witness_cache):
    for (m, q) in [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3)]:
        w = witness_cache(m, q)
        full = check_identity("wedge-power", w.alpha, w.beta, w.gamma, m=m, q=q)
        assert full.verdict == "fails"
        by_pair = check_identity(
            "wedge-power", w.alpha, w.beta, w.gamma, m=m, q=q, pair=(w.a, w.d)
        )
        assert by_pair.verdict == "fails"
        inside = check_identity(
            "wedge-power", w.alpha, w.beta, w.gamma, m=m, q=q, pair=(w.a, w.a)
        )
        assert inside.verdict == "pair-not-counterexample"
        assert inside.stats["in_lhs"] and inside.stats["in_rhs"]


@pytest.mark.parametrize("m, q, block", [(6, 3, 256), (6, 4, 625)])
def test_full_mode_counts_paths_without_wrapping(witness_cache, m, q, block):
    # alpha-blocks of 256 and 625 elements: path counts through a block pass
    # 255, where a uint8 product wraps to 0 and drops pairs
    w = witness_cache(m, q)
    assert np.bincount(w.alpha.as_array()).max() == block
    ctx = matrix_context(w.alpha, w.beta, w.gamma)
    lhs, rhs = family_exprs("wedge-power", m=m, q=q)
    viol = expr_matrix(lhs, ctx) & ~expr_matrix(rhs, ctx)
    pairs = [tuple(int(v) for v in p) for p in np.argwhere(viol)]
    for pair in pairs:
        inst = check_identity("wedge-power", w.alpha, w.beta, w.gamma, m=m, q=q, pair=pair)
        assert inst.verdict == "fails"
    full = check_identity("wedge-power", w.alpha, w.beta, w.gamma, m=m, q=q)
    assert full.verdict == "fails" and full.counterexample in pairs
    if q == 3:
        assert len(pairs) == 2
    else:
        assert full.counterexample == (537, 117)


def catalogue(m, q):
    """Every catalogue family at (m, q), with the parameters the sharpness
    claims use."""
    out = [("dist", {"n": 2 * m - 5}), ("dist", {"n": 2 * m - 4}),
           ("alvin", {"n": 2 * m - 4}), ("wedge-power", {"m": m, "q": q})]
    if m >= 5:
        out.append(("wedge-power-j", {"m": m, "q": q, "j": 3}))
    if q % 2 == 0:
        out += [("wedge-power-2", {"m": m}), ("zigzag-even", {"m": m, "q": q}),
                ("zigzag-even-swapped", {"m": m, "q": q})]
    else:
        out += [("wedge-power-odd", {"m": m, "q": q}), ("zigzag-odd", {"m": m, "q": q}),
                ("zigzag-odd-swapped", {"m": m, "q": q})]
    return out


@pytest.mark.parametrize("m, q", [(m, 2) for m in range(3, 9)] + [(m, 3) for m in range(3, 8)])
def test_full_mode_violations_match_the_oracle(witness_cache, m, q):
    w = witness_cache(m, q)
    ctx = _context(w.alpha, w.beta, w.gamma)
    rels = matrix_context(w.alpha, w.beta, w.gamma)
    eye = np.eye(w.size, dtype=bool)
    for family, params in catalogue(m, q):
        lhs, rhs = family_exprs(family, **params)
        want = expr_matrix(lhs, rels) & ~expr_matrix(rhs, rels)
        got = expr_image(lhs, ctx, eye) & ~expr_image(rhs, ctx, eye)
        assert np.array_equal(got, want), (family, params)
        full = check_identity(family, w.alpha, w.beta, w.gamma, **params)
        if not want.any():
            assert full.verdict == "holds"
            continue
        assert full.verdict == "fails"
        assert full.counterexample == tuple(int(v) for v in np.argwhere(want)[0])
        by_pair = check_identity(family, w.alpha, w.beta, w.gamma, **params,
                                 pair=full.counterexample)
        assert by_pair.verdict == "fails", (family, params)
