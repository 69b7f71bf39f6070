import itertools

import numpy as np
import pytest

from finalg import freealg
from finalg.algebras import (
    DEFAULT_TABLE_CAP,
    AlgebraError,
    CapExceeded,
    FiniteAlgebra,
    Operation,
    TableOp,
    make_ujm_reduct,
    one_element_algebra,
)
from finalg.fixtures import load_fixtures
from finalg.freealg import (
    _CHUNK,
    _arg_blocks,
    _closure_work,
    _local_closure_for,
    build_free_algebra,
    generate_subpower,
    shared_nu_op,
)
from finalg.maltsev import absorption_search, nu_scheme
from finalg.terms import App, Var
from finalg.witnesses import implication_expansion, modular_sum_algebra, nu_family_generators


def test_one_element_generator():
    free = build_free_algebra([one_element_algebra(3)], 2)
    assert free.size == 1


def test_median_two_generators_stay_projections():
    free = build_free_algebra([make_ujm_reduct(2, 2, 3)], 2)
    assert free.size == 2
    assert sorted(free.sub.index_of(row) for row in free.sub.gen_rows) == [0, 1]


def test_median_three_generators():
    free = build_free_algebra([make_ujm_reduct(2, 2, 3)], 3)
    assert free.size == 4  # three projections and the majority


def test_provenance_reevaluates():
    for gens in ([make_ujm_reduct(2, 2, 4)], nu_family_generators(5)):
        free = build_free_algebra(gens, 3)
        assert free.sub.terms is not None
        rows = free.sub.gen_rows
        for i in range(free.size):
            term = free.sub.term_for(i)
            vec = free.sub.eval_term(term)
            assert np.array_equal(vec, free.vectors[i])


def test_engines_agree_on_enumeration():
    gens = [implication_expansion(4)]
    closure = build_free_algebra(gens, 3, engine="closure")
    local = build_free_algebra(gens, 3, engine="local")
    a = {row.tobytes() for row in closure.vectors}
    b = {row.tobytes() for row in local.vectors}
    assert a == b


def test_local_engine_terms_reevaluate():
    free = build_free_algebra([implication_expansion(4)], 3, engine="local")
    for i in range(0, free.size, 5):
        term = free.sub.term_for(i)
        assert np.array_equal(free.sub.eval_term(term), free.vectors[i])


def test_local_engine_needs_nu():
    assert shared_nu_op([modular_sum_algebra(3, 4)]) is None
    with pytest.raises(CapExceeded):
        build_free_algebra([modular_sum_algebra(3, 4)], 3, engine="local")


def test_shared_nu_detection():
    assert shared_nu_op(nu_family_generators(5)) == 0
    assert shared_nu_op([implication_expansion(4)]) == 1  # the m-ary op, not i


def test_membership_engine():
    gens = [implication_expansion(4)]
    sub_full = build_free_algebra(gens, 3, engine="local").sub
    coord_algs = sub_full.coord_algs
    member = generate_subpower(gens, coord_algs, sub_full.gen_rows, engine="membership")
    assert member.contains_bulk(sub_full.vectors[:: max(1, len(sub_full.vectors) // 15)]).all()
    # a vector violating idempotence can never be generated
    bad = np.zeros(len(coord_algs), dtype=np.int16)
    bad[0] = 1  # value 1 on the all-zero assignment
    assert not member.contains_bulk(bad[None, :]).any()


def test_subpower_dedup_classes():
    # duplicated coordinates collapse and map back through coord_class
    gens = [make_ujm_reduct(2, 2, 3)]
    coord_algs = [0, 0, 0, 0]
    gen_rows = np.asarray([[0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.int16)
    sub = generate_subpower(gens, coord_algs, gen_rows)
    assert sub.vectors.shape[1] == 2  # two distinct columns
    assert sub.coord_class(0) == sub.coord_class(2)
    assert sub.coord_class(1) == sub.coord_class(3)


def test_work_cap_raises():
    with pytest.raises(CapExceeded):
        build_free_algebra([make_ujm_reduct(2, 2, 4)], 3, engine="closure", work_cap=3)


def test_generators_must_be_similar():
    with pytest.raises(AlgebraError):
        build_free_algebra([make_ujm_reduct(2, 2, 3), make_ujm_reduct(2, 2, 4)], 3)


# ---------------------------------------------------------------------------
# the argument-block kernel against the per-tuple generator it replaced


def oracle_combos(n, old, r, sym):
    """Argument tuples over range(n) touching at least one index >= old."""
    if sym:
        for t in range(old, n):
            for combo in itertools.combinations_with_replacement(range(t + 1), r - 1):
                yield combo + (t,)
    else:
        for combo in itertools.product(range(n), repeat=r):
            if max(combo) >= old:
                yield combo


def oracle_blocks(n, old, r, sym, chunk=_CHUNK):
    combos = oracle_combos(n, old, r, sym)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            return
        yield np.asarray(block, dtype=np.int64).reshape(len(block), r)


def assert_same_blocks(n, old, r, sym, chunk=_CHUNK):
    want = list(oracle_blocks(n, old, r, sym, chunk))
    got = [block.copy() for block in _arg_blocks(n, old, r, sym, chunk)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("sym", [True, False])
def test_arg_blocks_match_oracle_small(sym):
    for r in (1, 2, 3, 4, 5):
        for n in (1, 2, 3, 6):
            for old in range(n):
                # one-row blocks only where they stay few
                for chunk in ((1, 2, 5, 64) if n**r <= 256 else (5, 64)):
                    assert_same_blocks(n, old, r, sym, chunk)


@pytest.mark.parametrize("n, old, r, sym", [
    (115, 0, 3, True),     # 260,130 multisets: one full block and a remainder
    (120, 80, 3, True),    # a later round
    (34, 30, 5, True),     # wide operation, late round
    (63, 0, 3, False),     # 250,047 tuples
    (70, 40, 3, False),    # asymmetric, later round
])
def test_arg_blocks_match_oracle_at_block_edges(n, old, r, sym):
    assert_same_blocks(n, old, r, sym)


def test_arg_blocks_exact_block_multiple():
    # C(11, 2) - C(6, 2) = 40 pairs: two full blocks of 20, no remainder
    assert_same_blocks(10, 5, 2, True, 20)
    assert [len(b) for b in _arg_blocks(10, 5, 2, True, 20)] == [20, 20]


def test_partial_run_matches_oracle_loop(monkeypatch):
    # the shallow pass of absorption_search: the cap bites at a block edge
    gens = load_fixtures("I:5")
    fast = build_free_algebra(gens, 3, engine="partial", work_cap=300_000).sub
    monkeypatch.setattr(freealg, "_arg_blocks", oracle_blocks)
    slow = build_free_algebra(gens, 3, engine="partial", work_cap=300_000).sub
    assert fast.engine == slow.engine == "partial"
    assert fast.stats == slow.stats
    assert np.array_equal(fast.vectors, slow.vectors)
    assert fast.terms == slow.terms


def test_local_closure_respects_work_cap():
    gens = load_fixtures("I:4")
    full = build_free_algebra(gens, 3, engine="local").sub
    member = generate_subpower(gens, full.coord_algs, full.gen_rows,
                               engine="membership", work_cap=10)
    with pytest.raises(CapExceeded):
        _local_closure_for(member, (0, 1, 2))


# ---------------------------------------------------------------------------
# the table-gather kernel against the per-coordinate loop it replaced


def oracle_apply_vec(gens, coord_algs, oi, arg_vectors):
    """(arity, N, ncoords) -> (N, ncoords), one apply_cols per coordinate."""
    out = np.empty(arg_vectors.shape[1:], dtype=np.int16)
    for k, ai in enumerate(coord_algs):
        out[:, k] = gens[ai].ops[oi].apply_cols(arg_vectors[:, :, k])
    return out


def oracle_eval_term(sub, term):
    if isinstance(term, Var):
        return sub.gen_rows[term.index]
    args = np.stack([oracle_eval_term(sub, a) for a in term.args])[:, None, :]
    return oracle_apply_vec(sub.gens, sub.coord_algs, term.op_index, args)[0]


def random_algebra(size, arities, seed):
    rng = np.random.default_rng(seed)
    ops = [TableOp(f"f{r}", r, size, rng.integers(0, size, size**r)) for r in arities]
    return FiniteAlgebra(size, ops, label=f"R{size}")


ARITIES = (1, 2, 3, 4, 5)
# smallest n with n**r > _CHUNK: one full block, then a remainder
EDGE_N = {1: _CHUNK + 1, 2: 501, 3: 64, 4: 23, 5: 13}


@pytest.mark.parametrize("r", ARITIES)
def test_kernel_matches_per_coordinate_loop(r):
    gens = (random_algebra(2, ARITIES, 1), random_algebra(3, ARITIES, 2))
    coord_algs = [0, 1, 1, 0, 1, 0, 1]
    oi = ARITIES.index(r)
    n = EDGE_N[r]
    rng = np.random.default_rng(r)
    stacked = np.stack([rng.integers(0, gens[ai].size, n) for ai in coord_algs],
                       axis=1).astype(np.int16)
    kernel = freealg._Kernel(freealg._prepare_tables(gens), coord_algs)
    weighted = kernel.weigh(oi, stacked)
    blocks = [block.copy() for block in _arg_blocks(n, 0, r, False, _CHUNK)]
    assert [len(b) for b in blocks] == [_CHUNK, n**r - _CHUNK]
    for idx in blocks:
        want = oracle_apply_vec(gens, coord_algs, oi, np.take(stacked, idx.T, axis=0))
        assert np.array_equal(kernel.apply(oi, weighted, idx), want)


def test_kernel_matches_loop_on_chain_reducts_of_two_sizes():
    gens = load_fixtures("N:2:4,Nq:2:4:3")
    free = build_free_algebra(gens, 3, engine="partial", work_cap=300_000).sub
    assert len(set(free.coord_algs)) == 2
    for i in range(free.size):
        assert np.array_equal(oracle_eval_term(free, free.terms[i]), free.vectors[i])


def test_eval_term_matches_per_coordinate_loop():
    gens = (random_algebra(2, (2, 3), 3), random_algebra(3, (2, 3), 4))
    gen_rows = np.asarray([[0, 1, 2, 0], [1, 0, 1, 2], [1, 1, 0, 1]], dtype=np.int16)
    sub = generate_subpower(gens, [0, 1, 1, 1], gen_rows, engine="partial",
                            work_cap=2_000)
    x, y, z = Var(0), Var(1), Var(2)
    shared = App(0, (x, z))
    terms = [App(1, (shared, App(0, (y, shared)), x)), App(0, (shared, shared)),
             *sub.terms]
    for term in terms:
        assert np.array_equal(sub.eval_term(term), oracle_eval_term(sub, term))


class Unbuilt(Operation):
    """A binary operation whose table and values must never be computed."""

    def __init__(self, size):
        self.name, self.arity, self.size = "big", 2, size

    def table_array(self, cap=DEFAULT_TABLE_CAP):
        raise AssertionError("table built")

    def apply_cols(self, cols):
        raise AssertionError("operation evaluated")


def _no_rounds(*args):
    raise AssertionError("a closure round started")


def test_table_over_cap_raises_before_any_round(monkeypatch):
    monkeypatch.setattr(freealg, "_arg_blocks", _no_rounds)
    big = FiniteAlgebra(2049, [Unbuilt(2049)])        # 2049**2 entries: over the cap
    assert big.size**2 > DEFAULT_TABLE_CAP
    for engine in ("auto", "closure", "local", "membership"):
        with pytest.raises(CapExceeded, match="would need"):
            generate_subpower([big], [0, 0], [[0, 1], [1, 0]], engine=engine)


def test_concatenated_tables_of_2_31_entries_raise_before_any_round(monkeypatch):
    monkeypatch.setattr(freealg, "_arg_blocks", _no_rounds)
    alg = FiniteAlgebra(2048, [Unbuilt(2048)])        # 2**22 entries: at the cap
    assert alg.size**2 == DEFAULT_TABLE_CAP
    gens = [alg] * 512                                # 2**31 entries together
    with pytest.raises(CapExceeded, match="together"):
        generate_subpower(gens, [0, 511], [[0, 1], [1, 0]])


def test_generator_entries_must_fit_their_algebra():
    gens = load_fixtures("N:2:4,Nq:2:4:3")
    with pytest.raises(AlgebraError):
        generate_subpower(gens, [0, 1], [[0, 2], [2, 1]])


# ---------------------------------------------------------------------------
# the work lower bound: a completed closure applies exactly _closure_work
# tuples, so a closure whose elements already force more is refused at once


# (fixture, generators, partial run at half the total: (size, work)); the
# partial figures are those of the closure before the bound was added
EXACT_CASES = [
    ("N:2:3", 3, (4, 20)),                  # one symmetric ternary operation
    ("N:2:4,N:3:4", 3, (9, 495)),           # symmetric 4-ary, two algebras
    ("I:4", 3, (38, 75040)),                # binary implication: asymmetric
    ("LD2", 3, (64, 546475)),               # minority and lone dissent
]


def test_exact_cases_cover_symmetric_and_asymmetric_operations():
    sym = set()
    for fixture, _, _ in EXACT_CASES:
        sym.update(freealg._prepare_tables(tuple(load_fixtures(fixture))).sym)
    assert sym == {True, False}


@pytest.mark.parametrize("fixture, g, partial", EXACT_CASES)
def test_completed_closure_work_is_exactly_the_bound(fixture, g, partial):
    gens = load_fixtures(fixture)
    full = build_free_algebra(gens, g, engine="closure").sub
    total = _closure_work(full._tables, full.size)
    assert full.stats["work"] == total
    with pytest.raises(CapExceeded, match="work cap exceeded"):
        build_free_algebra(gens, g, engine="closure", work_cap=total - 1)
    tight = build_free_algebra(gens, g, engine="closure", work_cap=total).sub
    assert tight.engine == "closure"
    assert np.array_equal(tight.vectors, full.vectors)
    assert tight.terms == full.terms
    # partial mode keeps generating until the cap bites
    cap = total // 2
    part = build_free_algebra(gens, g, engine="partial", work_cap=cap).sub
    assert part.engine == "partial"
    assert (part.size, part.stats["work"]) == partial
    assert part.stats["work"] > cap
    assert np.array_equal(part.vectors, full.vectors[: part.size])
    assert part.terms == full.terms[: part.size]


def test_doomed_closure_is_refused_before_the_cap_bites(monkeypatch):
    # nu(4) over I:5: the closure behind it needs about 15M tuples, against
    # a 4M cap that the closure used to reach before refusing.  One entry
    # [partial_ok, work_cap, rows applied, raised] per closure; closures
    # never nest, so rows go to the latest one
    calls = []
    apply, build = freealg._Kernel.apply, freealg._build_closure

    def counted_apply(self, oi, weighted, idx):
        calls[-1][2] += len(idx)
        return apply(self, oi, weighted, idx)

    def recorded_build(*args, partial_ok=False):
        calls.append([partial_ok, args[5], 0, False])
        try:
            return build(*args, partial_ok=partial_ok)
        except CapExceeded:
            calls[-1][3] = True
            raise

    monkeypatch.setattr(freealg._Kernel, "apply", counted_apply)
    monkeypatch.setattr(freealg, "_build_closure", recorded_build)
    cert = absorption_search(load_fixtures("I:5"), nu_scheme(4))
    assert not cert.found
    assert cert.stats == {"engine": "local", "size": 94}
    refused = [c for c in calls if c[3]]
    assert len(refused) == 1
    partial_ok, work_cap, applied, _ = refused[0]
    assert not partial_ok and work_cap == 4_000_000
    assert applied < 100_000


def test_refusal_message_names_elements_bound_and_cap():
    # one symmetric 4-ary operation: 9 elements need C(12, 4) = 495 tuples,
    # 10 need C(13, 4) = 715, so the tenth element is the last one found
    gens = load_fixtures("N:2:4,N:3:4")
    with pytest.raises(CapExceeded) as info:
        build_free_algebra(gens, 3, engine="closure", work_cap=600)
    assert str(info.value) == ("subpower work cap exceeded: 10 elements need at least "
                               "715 argument tuples, cap 600")
    assert info.value.explored == 10


def test_refusal_before_the_first_round(monkeypatch):
    monkeypatch.setattr(freealg, "_arg_blocks", _no_rounds)
    gens = load_fixtures("N:2:3")                     # 3 generators: 10 multisets
    with pytest.raises(CapExceeded, match="3 elements need at least 10 "):
        build_free_algebra(gens, 3, engine="closure", work_cap=9)


def test_membership_fallback_records_why():
    # the free algebra on 5 generators over I:4: 32 two-element coordinates
    gens = load_fixtures("I:4")
    assignments = list(itertools.product(range(2), repeat=5))
    gen_rows = np.asarray([[a[j] for a in assignments] for j in range(5)])
    sub = generate_subpower(gens, [0] * 32, gen_rows, work_cap=1000)
    assert sub.engine == "membership"
    assert sub.stats["closure"].startswith("subpower work cap exceeded: ")
    assert sub.stats["closure"].endswith(" argument tuples, cap 1000")
    assert sub.stats["local"] == (f"coordinate box of {2 ** 32} vectors "
                                  f"exceeds the element cap {1 << 20}")
    with pytest.raises(CapExceeded) as info:
        build_free_algebra(gens, 5, work_cap=1000)
    assert str(info.value) == ("free algebra too large to enumerate; closure: "
                               f"{sub.stats['closure']}; local: {sub.stats['local']}")
