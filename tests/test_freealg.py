import hashlib
import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from finalg import algebras, certificates, freealg, kernel
from finalg.algebras import (
    DEFAULT_TABLE_CAP,
    AlgebraError,
    CapExceeded,
    FiniteAlgebra,
    Operation,
    TableOp,
    _op_symmetrical,
    direct_product,
    make_ujm_reduct,
    one_element_algebra,
)
from finalg.fixtures import load_fixtures
from finalg.freealg import (
    SHALLOW_WORK,
    _build_closure,
    _build_closures,
    _build_local,
    _closure_work,
    _local_closure_for,
    build_free_algebra,
    generate_subpower,
    members,
    shared_nu_op,
)
from finalg.kernel import _CHUNK, _arg_blocks, _prepare_tables, _round_trees, _tree_args
from finalg.io import dumps_canonical
from finalg.maltsev import absorption_search, nu_scheme
from finalg.terms import App, Var, term_to_obj
from finalg.witnesses import implication_expansion, modular_sum_algebra, nu_family_generators

from conftest import assert_kept_read_only
from tree_oracle import rows_tree, tree_rows


def free_generators(gens, g):
    """(tables, gens, coord_algs, gen_rows) of the free algebra on g generators."""
    gens = tuple(gens)
    assignments = [(ai, asg) for ai, alg in enumerate(gens)
                   for asg in itertools.product(range(alg.size), repeat=g)]
    gen_rows = np.asarray([[asg[j] for _, asg in assignments] for j in range(g)],
                          dtype=np.int16)
    return _prepare_tables(gens), gens, [ai for ai, _ in assignments], gen_rows


def closure(gens, g, work_cap=80_000_000, stop=None):
    return _build_closure(*free_generators(gens, g), work_cap, stop)


def membership(gens, g, work_cap=80_000_000):
    """The local engine's subpower of the free algebra on g generators,
    before enumeration."""
    return _build_local(*free_generators(gens, g), work_cap)


def local(gens, g, work_cap=80_000_000):
    """The same, enumerated."""
    sub = membership(gens, g, work_cap)
    sub.vectors = members(sub, {}, [])
    return sub


def stop_after(k):
    """A `stop` that ends the closure on its k-th row."""
    seen = [0]

    def stop(rows):
        if seen[0] + len(rows) >= k:
            return k - 1 - seen[0]
        seen[0] += len(rows)
        return None

    return stop


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
            term = free.sub.term_for_vector(free.vectors[i])
            vec = free.sub.eval_term(term)
            assert np.array_equal(vec, free.vectors[i])


def test_engines_agree_on_enumeration():
    gens = [implication_expansion(4)]
    a = {row.tobytes() for row in closure(gens, 3).vectors}
    b = {row.tobytes() for row in local(gens, 3).vectors}
    assert a == b


def test_local_engine_terms_reevaluate():
    sub = local([implication_expansion(4)], 3)
    for i in range(0, sub.size, 5):
        term = sub.term_for_vector(sub.vectors[i])
        assert np.array_equal(sub.eval_term(term), sub.vectors[i])


# sha256 of the term_to_obj JSON (7 to 18 KB each) of the interpolated terms,
# written before the local closures were kept as subpowers: the recursion
# must read the same local terms and nest them the same way
INTERPOLATED_DIGESTS = {
    "00000111": "d1fcdb38bba6be9eda5e0df8e9895f24025d77a63b9316557d25daf8cb4f547b",
    "00001111": "6315661bd0a9081bf086dee1792da5cdb1c8fbe923a9833700128f3253f94481",
    "00010010": "c6eba80ef0aaa38305abd9d8cd62dae59682e80099a3b449abad7e256bef7cb3",
    "00110011": "609f49b09939ef586f3a829f8edce5bea022bf9ed4dda845cb691418ff022c77",
    "01010101": "6d94c4dd6718741067e43ccdc951dee5c42021a9ac87b2b071c43118a0f1bd42",
}


def test_local_engine_terms_match_their_golden_digests():
    sub = local([implication_expansion(4)], 3)
    names = [op.name for op in sub.gens[0].ops]
    for digits, digest in INTERPOLATED_DIGESTS.items():
        term = sub.term_for_vector(np.asarray([int(d) for d in digits], dtype=np.int16))
        text = json.dumps(term_to_obj(term, names), separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, digits


def test_local_engine_needs_nu():
    assert shared_nu_op([modular_sum_algebra(3, 4)]) is None
    with pytest.raises(CapExceeded):
        local([modular_sum_algebra(3, 4)], 3)


def test_shared_nu_detection():
    assert shared_nu_op(nu_family_generators(5)) == 0
    assert shared_nu_op([implication_expansion(4)]) == 1  # the m-ary op, not i


def test_membership_engine():
    gens = [implication_expansion(4)]
    full = closure(gens, 3)
    member = membership(gens, 3)
    assert member.engine == "membership" and member.size == 0
    # every element, pinned at every coordinate, is found as itself
    for vec in full.vectors[:: max(1, full.size // 15)]:
        pinned = dict(enumerate(vec.tolist()))
        assert members(member, pinned, []).tolist() == [vec.tolist()]
    # a vector violating idempotence can never be generated: value 1 on the
    # all-zero assignment
    assert members(member, {0: 1}, []).shape == (0, full.ncoords)
    # with no pins and no groups, the whole box is filtered
    assert sorted(members(member, {}, []).tolist()) == sorted(full.vectors.tolist())


def test_subpower_dedup_classes():
    # duplicated coordinates collapse and map back through class_of
    gens = [make_ujm_reduct(2, 2, 3)]
    coord_algs = [0, 0, 0, 0]
    gen_rows = np.asarray([[0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.int16)
    sub = generate_subpower(gens, coord_algs, gen_rows)
    assert sub.vectors.shape[1] == 2  # two distinct columns
    assert sub.class_of.tolist() == [0, 1, 0, 1]


def test_work_cap_raises():
    with pytest.raises(CapExceeded):
        closure([make_ujm_reduct(2, 2, 4)], 3, work_cap=3)


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


def oracle_trees(n, old, r, sym, chunk=_CHUNK):
    """The oracle's blocks as trees, one chain of nodes per tuple."""
    return map(rows_tree, oracle_blocks(n, old, r, sym, chunk))


def assert_same_blocks(n, old, r, sym, chunk=_CHUNK):
    want = list(oracle_blocks(n, old, r, sym, chunk))
    got = [tree_rows(tree) for tree in _arg_blocks(n, old, r, sym, chunk)]
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
    assert [len(tree_rows(t)) for t in _arg_blocks(10, 5, 2, True, 20)] == [20, 20]


@pytest.mark.parametrize("n, old, r, sym", [(34, 30, 5, True), (70, 40, 3, False)])
def test_provenance_decoder_matches_oracle_at_every_position(n, old, r, sym):
    for tree, want in zip(_arg_blocks(n, old, r, sym, _CHUNK),
                          oracle_blocks(n, old, r, sym), strict=True):
        assert np.array_equal(_tree_args(tree, np.arange(len(want))), want)


def test_partial_run_matches_oracle_loop(monkeypatch, fresh_keepers):
    # the free algebra over I:5 on 3 generators: 38 elements, 852,112 tuples
    # in rounds of several blocks; complete, and stopped on its 30th row
    gens = load_fixtures("I:5")
    runs = [closure(gens, 3), closure(gens, 3, stop=stop_after(30))]
    monkeypatch.setattr(kernel, "_arg_blocks", oracle_trees)
    oracle_runs = [closure(gens, 3), closure(gens, 3, stop=stop_after(30))]
    assert [run.size for run in runs] == [38, 30]
    for fast, slow in zip(runs, oracle_runs):
        assert fast.stats == slow.stats
        assert np.array_equal(fast.vectors, slow.vectors)
        assert fast.terms == slow.terms


def test_local_closure_respects_work_cap():
    member = membership(load_fixtures("I:4"), 3, work_cap=10)
    with pytest.raises(CapExceeded, match="cap 10"):
        members(member, {}, [])


def members_oracle(sub, pinned, groups):
    """`members` by brute force: every candidate in order, tested against
    every local closure."""
    sizes = [sub.gens[ai].size for ai in sub.coord_algs]
    width = min(sub._local.width, sub.ncoords)
    closed = {subset: {tuple(v) for v in _local_closure_for(sub, subset).vectors.tolist()}
              for subset in itertools.combinations(range(sub.ncoords), width)}
    grouped = {k for g in groups for k in g}
    order = [list(g) for g in groups] + [[k] for k in range(sub.ncoords)
                                         if k not in pinned and k not in grouped]
    found = []
    for values in itertools.product(*(range(min(sizes[k] for k in g)) for g in order)):
        vec = [pinned.get(k) for k in range(sub.ncoords)]
        consistent = True
        for g, value in zip(order, values):
            for k in g:
                consistent &= vec[k] in (None, value)
                vec[k] = value
        if consistent and all(tuple(vec[k] for k in subset) in rows
                              for subset, rows in closed.items()):
            found.append(vec)
    return found


@pytest.mark.parametrize("seed", range(8))
def test_members_match_the_brute_force_oracle(seed):
    # a subpower on 7 of the 13 free-algebra coordinates over a 2- and a
    # 3-element algebra; the queries name 10 caller coordinates, collapsed
    # onto the subpower's through class_of as the term search does
    rng = np.random.default_rng(seed)
    tables, gens, coord_algs, gen_rows = free_generators(load_fixtures("N:2:4,Nq:2:4:3"), 2)
    keep = np.sort(rng.choice(len(coord_algs), 7, replace=False))
    sub = _build_local(tables, gens, [coord_algs[k] for k in keep], gen_rows[:, keep],
                       80_000_000)
    everything = members(sub, {}, [])
    assert everything.tolist() == members_oracle(sub, {}, [])
    full = _build_closure(tables, gens, sub.coord_algs, sub.gen_rows, 80_000_000)
    assert sorted(everything.tolist()) == sorted(full.vectors.tolist())
    class_of = rng.integers(0, 7, 10)
    vec = everything[rng.integers(len(everything))]
    for query in range(4):
        callers = rng.permutation(10)
        if query % 2:       # neighbours mostly agree on vec: groups it satisfies
            callers = callers[np.argsort(vec[class_of[callers]], kind="stable")]
        # two pins read off that member, the second in a group that may contradict it
        pinned = {int(class_of[k]): int(vec[class_of[k]]) for k in callers[:2]}
        # two groups sharing a caller coordinate, and a group of one
        groups = [class_of[callers[1:4]], class_of[callers[3:6]], class_of[callers[6:7]]]
        got = members(sub, pinned, groups)
        assert got.dtype == np.int16 and got.shape[1] == 7
        assert got.tolist() == members_oracle(sub, pinned, [g.tolist() for g in groups])


def test_members_refuse_a_large_box_before_building_it():
    # 21 two-element groups: 2**21 candidates, one past the element cap
    sub = _build_local(*random_closure_args(tuple(load_fixtures("I:4")), [0] * 42, 3, 11),
                       80_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as info:
            members(sub, {}, [[k, k + 21] for k in range(21)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == (f"coordinate box of {2**21} vectors exceeds the element cap "
                               f"{freealg.ELEMENT_CAP}")
    assert peak < 1 << 16                      # a column of the box takes 4 MB
    assert not sub._local.local_closures


def nu4_over_i5(monkeypatch):
    """The local engine's subpower behind the nu(4) search over I:5, with
    the local closures that search built."""
    built = []
    build_local = freealg._build_local

    def recorded_local(*args, **kwargs):
        built.append(build_local(*args, **kwargs))
        return built[-1]

    with monkeypatch.context() as patched:
        patched.setattr(freealg, "_build_local", recorded_local)
        assert not absorption_search(load_fixtures("I:5"), nu_scheme(4)).found
    assert built[-1].engine == "local"
    return built[-1]


def local_batch(sub):
    """(coord_algs, gen_rows) of every local closure of `sub`, in the order
    `members` walks them."""
    width = min(sub._local.width, sub.ncoords)
    return [([sub.coord_algs[k] for k in subset], sub.gen_rows[:, list(subset)])
            for subset in itertools.combinations(range(sub.ncoords), width)]


def unshared_trees(monkeypatch):
    """Every round unranked afresh: a keeper of round trees that keeps none."""
    monkeypatch.setattr(kernel, "_TREES", algebras._Keeper(each=-1))


def assert_batch_runs_alone(sub, work_cap):
    """Every local closure of `sub`, closed in one batch on the round trees
    the process keeps, against the same closure as a batch of one on trees
    of its own: the same vectors, terms and stats, or the same refusal.
    Returns the outcomes seen, 'closed' or 'capped'."""
    batch = local_batch(sub)
    together = _build_closures(sub._tables, sub.gens, batch, work_cap)
    seen = set()
    for spec, got in zip(batch, together, strict=True):
        try:
            with pytest.MonkeyPatch.context() as patched:
                unshared_trees(patched)
                alone = _build_closure(sub._tables, sub.gens, *spec, work_cap)
        except CapExceeded as exc:
            assert isinstance(got, CapExceeded)
            assert (str(got), got.explored) == (str(exc), exc.explored)
            seen.add("capped")
            continue
        assert np.array_equal(got.vectors, alone.vectors)
        assert got.terms == alone.terms
        assert got.stats == alone.stats
        seen.add("closed")
    return seen


def test_shared_trees_build_the_same_local_closures(monkeypatch, fresh_keepers):
    # every local closure of the nu(4) search over I:5, built in the
    # search's windows on the round trees the process keeps, against a
    # fresh closure that unranks its own; then all of them in one batch
    sub = nu4_over_i5(monkeypatch)
    local = sub._local
    assert len(local.local_closures) == math.comb(sub.ncoords, local.width) == 210
    assert kernel._TREES.kept
    for subset, shared in local.local_closures.items():
        with monkeypatch.context() as patched:
            unshared_trees(patched)
            fresh = _build_closure(sub._tables, sub.gens, [sub.coord_algs[k] for k in subset],
                                   sub.gen_rows[:, list(subset)], local.work_cap)
        assert np.array_equal(shared.vectors, fresh.vectors)
        assert shared.terms == fresh.terms
        assert shared.stats == fresh.stats
    assert assert_batch_runs_alone(sub, local.work_cap) == {"closed"}
    # under a small cap, one batch holds closures that finish and closures
    # the work bound refuses, each as it finishes or is refused alone
    assert assert_batch_runs_alone(sub, 2_000) == {"closed", "capped"}


def test_a_round_weighs_one_chunk_of_lanes_at_a_time(monkeypatch, fresh_keepers):
    # with chunks of at most 16 rows of a round's largest block, nu(4) over
    # I:5's 210 local closures run in many chunks per group; each chunk's
    # weighted copies are dropped before the next chunk is weighed, and
    # every closure still comes out as it does alone
    sub = nu4_over_i5(monkeypatch)
    monkeypatch.setattr(freealg, "_TILE", 16)
    alive, most = [], [0]
    weigh = kernel._Kernel.weigh

    def watched(self, oi, stacked, kinds):
        alive[:] = [ref for ref in alive if ref() is not None]
        most[0] = max(most[0], len(alive))
        weighted = weigh(self, oi, stacked, kinds)
        alive.append(weakref.ref(weighted))
        return weighted

    monkeypatch.setattr(kernel._Kernel, "weigh", watched)
    chunks = [0]
    chunk = freealg._Chunk.__init__

    def counted(self, lanes):
        chunks[0] += 1
        chunk(self, lanes)

    monkeypatch.setattr(freealg._Chunk, "__init__", counted)
    most_chunks = [0]                       # of one round
    round_ = freealg._round

    def rounded(*args):
        before = chunks[0]
        bounded = round_(*args)
        most_chunks[0] = max(most_chunks[0], chunks[0] - before)
        return bounded

    monkeypatch.setattr(freealg, "_round", rounded)
    assert assert_batch_runs_alone(sub, sub._local.work_cap) == {"closed"}
    assert most_chunks[0] > 10
    assert most[0] == 1                     # the chunk's own copy for its previous operation


def test_a_batch_of_several_packings_runs_as_its_closures_alone(monkeypatch):
    # 4 of the 8 two-element and 10 of the 27 three-element coordinates of
    # the free algebra on 3 generators over N:2:4 and Nq:2:4:3: 364 local
    # closures over four packings, whose product tables one batch reads
    # from one concatenation
    rng = np.random.default_rng(4)
    tables, gens, coord_algs, gen_rows = free_generators(load_fixtures("N:2:4,Nq:2:4:3"), 3)
    assert coord_algs == [0] * 8 + [1] * 27
    keep = np.sort(np.concatenate([rng.choice(8, 4, replace=False),
                                   8 + rng.choice(27, 10, replace=False)]))
    sub = _build_local(tables, gens, [coord_algs[k] for k in keep], gen_rows[:, keep],
                       80_000_000)
    lanes, joined = freealg._lanes(tables, local_batch(sub))
    assert len(lanes) == 364 and len(joined) == 1
    assert len({id(lane.plan) for lane in lanes}) == 4
    assert len({id(lane.plan.tables) for lane in lanes}) > 1
    assert assert_batch_runs_alone(sub, 80_000_000) == {"closed"}
    # the work bound, then the element cap, refuse some lanes of the batch
    assert assert_batch_runs_alone(sub, 15) == {"closed", "capped"}
    with monkeypatch.context() as patched:
        patched.setattr(freealg, "ELEMENT_CAP", 3)
        assert assert_batch_runs_alone(sub, 80_000_000) == {"closed", "capped"}
    # key spaces of at most 64 keys per part: the batch runs in many parts
    monkeypatch.setattr(freealg, "_KEY_SPACE", 64)
    lanes, joined = freealg._lanes(tables, local_batch(sub))
    assert len(joined) > 50 and max(lane.offset + lane.plan.space for lane in lanes) <= 64
    assert assert_batch_runs_alone(sub, 15) == {"closed", "capped"}


def test_refusals_surface_where_the_walk_reaches_them(monkeypatch):
    # nu(4) over I:5's subpower with its coordinates reordered: under a work
    # cap of 4,512 the first local closure the work bound refuses is the
    # 29th the walk reaches.  A vector outside the subpower whose projection
    # fails one of the 16th to 28th closures ends a pinned query before
    # that, in the window of 16 that closes the 29th too
    base = nu4_over_i5(monkeypatch)
    order = [4, 6, 2, 7, 3, 5, 9, 0, 8, 1]
    args = (base._tables, base.gens, [base.coord_algs[k] for k in order],
            base.gen_rows[:, order])
    whole = _build_local(*args, base._local.work_cap)
    assert len(members(whole, {}, [])) == 94
    closed = whole._local.local_closures
    subsets = list(closed)                            # in the order of the walk
    cap = 4_512
    refused = {i for i, subset in enumerate(subsets) if closed[subset].stats["work"] > cap}
    assert min(refused) == 28
    failing = subsets[28]
    with pytest.raises(CapExceeded) as alone:
        _build_closure(*args[:2], [args[2][k] for k in failing], args[3][:, list(failing)],
                       cap)

    def first_rejection(vec):
        return next((i for i, subset in enumerate(subsets)
                     if closed[subset].index_of(vec[list(subset)]) is None), len(subsets))

    box = np.indices([2] * base.ncoords).reshape(base.ncoords, -1).T.astype(np.int16)
    outside = [vec for vec in box if 15 <= first_rejection(vec) < 28]
    assert outside
    for vec in outside[:3]:
        walked = first_rejection(vec) + 1     # the closures a one-by-one walk builds
        sub = _build_local(*args, cap)
        got = members(sub, {k: int(v) for k, v in enumerate(vec)}, [])
        assert got.shape == (0, base.ncoords)
        built = sub._local.local_closures
        assert len(built) == 31 <= 2 * walked          # windows of 1, 2, 4, 8 and 16
        assert list(built) == subsets[:31]
        assert {i for i, subset in enumerate(subsets[:31])
                if isinstance(built[subset], CapExceeded)} == refused & set(range(31))
        assert str(built[failing]) == str(alone.value)
        with pytest.raises(CapExceeded) as info:
            members(sub, {}, [])
        assert str(info.value) == str(alone.value)
        # asked again, the same refusal as a fresh exception: the kept one
        # is never raised, so it pins no caller's frames
        with pytest.raises(CapExceeded) as again:
            members(sub, {}, [])
        assert again.value is not info.value and str(again.value) == str(alone.value)
        assert built[failing].__traceback__ is None


def test_local_engine_applies_once_per_round_shape_and_batch(monkeypatch, fresh_keepers):
    # the kernel calls of nu(4) over I:5's local engine: one per chunk,
    # operation and block of each batch's round shapes, where closing its
    # 210 closures one by one took 988
    calls, shapes = [0], set()
    apply, round_trees = kernel._Kernel.apply, freealg._round_trees

    def counted(self, oi, weighted, tree, closures=1):
        calls[0] += 1
        return apply(self, oi, weighted, tree, closures)

    def seen(n, old, r, sym):
        shapes.add((n, old, r, sym))
        return round_trees(n, old, r, sym)

    sub = nu4_over_i5(monkeypatch)
    sub._local.local_closures.clear()
    monkeypatch.setattr(kernel._Kernel, "apply", counted)
    monkeypatch.setattr(freealg, "_round_trees", seen)
    assert len(members(sub, {}, [])) == 94
    assert len(shapes) == 50                  # (n, old) per operation
    assert len(shapes) <= calls[0] <= 4 * len(shapes)


def assert_same_tree(got, want):
    cols, trail = want
    assert got[0] == cols and len(got[1]) == len(trail)
    for (parent, value), (want_parent, want_value) in zip(got[1], trail):
        assert np.array_equal(parent, want_parent) and np.array_equal(value, want_value)


def test_round_trees_keep_one_block_rounds_within_the_budget(fresh_keepers):
    kept = kernel._TREES
    # 260,130 multisets: two blocks, never kept
    assert len(list(_round_trees(115, 0, 3, True))) == 2
    # 24**3 = 13,824 tuples: one block, past the 4,096 rows of one kept round
    assert len(list(_round_trees(24, 0, 3, False))) == 1
    assert kept.kept == {} and kept.rows == 0
    # one-block rounds within the budget are kept, read-only, and handed out again
    for n, old, r, sym in [(16, 0, 3, False), (10, 4, 3, True)]:
        trees = _round_trees(n, old, r, sym)
        assert _round_trees(n, old, r, sym) is trees
        for got, want in zip(trees, _arg_blocks(n, old, r, sym, _CHUNK), strict=True):
            assert_same_tree(got, want)
        assert_kept_read_only(trees)
    assert kept.rows == 16**3 + math.comb(12, 3) - math.comb(6, 3) == 4_296
    # rounds of 4,096 rows each fill the 65,536 rows kept in all: 14 of them
    # fit, and of the rounds after those only one of the 3,896 rows left
    for k in range(8):
        for sym in (False, True):
            _round_trees(4096 + k, k, 1, sym)
    assert len(kept.kept) == 2 + 14 and kept.rows == 61_640
    _round_trees(3896, 0, 1, False)
    _round_trees(2, 1, 1, False)
    assert (3896, 0, 1, False) in kept.kept and (2, 1, 1, False) not in kept.kept
    assert kept.rows == 65_536 == kept.total


def test_kept_trees_equal_fresh_builds(fresh_keepers):
    # the free algebra on 3 generators over N:2:5,N:3:5 and its local
    # closures keep the trees of their small rounds
    gens = load_fixtures("N:2:5,N:3:5")
    closure(gens, 3)
    local(load_fixtures("I:4"), 4)
    assert len(kernel._TREES.kept) > 5
    for key, trees in kernel._TREES.kept.items():
        for got, want in zip(trees, _arg_blocks(*key, _CHUNK), strict=True):
            assert_same_tree(got, want)
        assert_kept_read_only(trees)


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


def applied(gather, oi, weighted, tree):
    """`_Kernel.apply`'s values on all rows of `tree`: its tiles, which must
    be consecutive, joined."""
    tiles = [(at, out.copy()) for at, out in gather.apply(oi, weighted, tree)]
    assert [at for at, _ in tiles] == list(range(0, len(tree[1][-1][1]), kernel._TILE))
    return np.concatenate([out for _, out in tiles])


@pytest.mark.parametrize("r", ARITIES)
def test_kernel_matches_per_coordinate_loop(r):
    gens = (random_algebra(2, ARITIES, 1), random_algebra(3, ARITIES, 2))
    coord_algs = [0, 1, 1, 0, 1, 0, 1]
    oi = ARITIES.index(r)
    n = EDGE_N[r]
    rng = np.random.default_rng(r)
    stacked = np.stack([rng.integers(0, gens[ai].size, n) for ai in coord_algs],
                       axis=1).astype(np.int16)
    gather = kernel._Kernel(_prepare_tables(gens))
    weighted = gather.weigh(oi, stacked, np.asarray(coord_algs))
    trees = list(_arg_blocks(n, 0, r, False, _CHUNK))
    blocks = [tree_rows(tree) for tree in trees]
    assert [len(b) for b in blocks] == [_CHUNK, n**r - _CHUNK]
    for tree, idx in zip(trees, blocks):
        want = oracle_apply_vec(gens, coord_algs, oi, np.take(stacked, idx.T, axis=0))
        assert np.array_equal(applied(gather, oi, weighted, tree), want)
        # the same rows as a tree without shared prefixes
        assert np.array_equal(applied(gather, oi, weighted, rows_tree(idx[::997])),
                              want[::997])


def test_kernel_matches_loop_on_chain_reducts_of_two_sizes():
    gens = load_fixtures("N:2:4,Nq:2:4:3")
    free = closure(gens, 3, stop=stop_after(300))
    assert len(set(free.coord_algs)) == 2
    for i in range(free.size):
        assert np.array_equal(oracle_eval_term(free, free.terms[i]), free.vectors[i])


def test_eval_term_matches_per_coordinate_loop():
    gens = (random_algebra(2, (2, 3), 3), random_algebra(3, (2, 3), 4))
    gen_rows = np.asarray([[0, 1, 2, 0], [1, 0, 1, 2], [1, 1, 0, 1]], dtype=np.int16)
    sub = _build_closure(_prepare_tables(gens), gens, [0, 1, 1, 1], gen_rows, 80_000_000,
                         stop_after(40))
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


def test_table_over_cap_raises_before_any_round(monkeypatch, fresh_keepers):
    monkeypatch.setattr(kernel, "_arg_blocks", _no_rounds)
    big = FiniteAlgebra(2049, [Unbuilt(2049)])        # 2049**2 entries: over the cap
    assert big.size**2 > DEFAULT_TABLE_CAP
    with pytest.raises(CapExceeded, match="would need"):
        generate_subpower([big], [0, 0], [[0, 1], [1, 0]])


def test_concatenated_tables_of_2_31_entries_raise_before_any_round(monkeypatch,
                                                                     fresh_keepers):
    monkeypatch.setattr(kernel, "_arg_blocks", _no_rounds)
    alg = FiniteAlgebra(2048, [Unbuilt(2048)])        # 2**22 entries: at the cap
    assert alg.size**2 == DEFAULT_TABLE_CAP
    gens = [alg] * 512                                # 2**31 entries together
    with pytest.raises(CapExceeded, match="together"):
        generate_subpower(gens, [0, 511], [[0, 1], [1, 0]])


def test_generator_entries_must_fit_their_algebra():
    gens = load_fixtures("N:2:4,Nq:2:4:3")
    with pytest.raises(AlgebraError):
        generate_subpower(gens, [0, 1], [[0, 2], [2, 1]])


def test_generator_rows_must_not_be_empty():
    with pytest.raises(AlgebraError, match="at least one generator row"):
        generate_subpower(load_fixtures("I:4"), [0, 0], np.zeros((0, 2), dtype=np.int16))


# ---------------------------------------------------------------------------
# the work lower bound: a completed closure applies exactly _closure_work
# tuples, so a closure whose elements already force more is refused at once


# (fixture, generators, a run stopped early: (its rows, its work))
EXACT_CASES = [
    ("N:2:3", 3, (3, 0)),                   # one symmetric ternary operation
    ("N:2:4,N:3:4", 3, (9, 15)),            # symmetric 4-ary, two algebras
    ("I:4", 3, (20, 271)),                  # binary implication: asymmetric
    ("LD2", 3, (40, 235)),                  # minority and lone dissent
]


def test_exact_cases_cover_symmetric_and_asymmetric_operations():
    sym = set()
    for fixture, _, _ in EXACT_CASES:
        sym.update(kernel._prepare_tables(tuple(load_fixtures(fixture))).sym)
    assert sym == {True, False}


@pytest.mark.parametrize("fixture, g, partial", EXACT_CASES)
def test_completed_closure_work_is_exactly_the_bound(fixture, g, partial):
    gens = load_fixtures(fixture)
    full = closure(gens, g)
    total = _closure_work(full._tables, full.size)
    assert full.stats["work"] == total
    with pytest.raises(CapExceeded, match="work cap exceeded"):
        closure(gens, g, work_cap=total - 1)
    tight = closure(gens, g, work_cap=total)
    assert tight.engine == "closure"
    assert np.array_equal(tight.vectors, full.vectors)
    assert tight.terms == full.terms
    # a run stopped on its k-th row is a prefix of the full closure
    k = partial[0]
    part = closure(gens, g, stop=stop_after(k))
    assert (part.size, part.stats["work"]) == partial
    assert k < full.size
    assert np.array_equal(part.vectors, full.vectors[:k])
    assert part.terms == full.terms[:k]
    assert sorted(part._index.values()) == list(range(k))


def count_applied(monkeypatch):
    """One entry [has stop, work cap, tuples applied, messages raised] per
    batch of closures; batches never nest, so tuples go to the latest one.
    A kernel call over several closures applies its rows to each of them."""
    calls = []
    apply, build = kernel._Kernel.apply, freealg._build_closures

    def counted_apply(self, oi, weighted, tree, closures=1):
        calls[-1][2] += len(tree[1][-1][1]) * closures         # last-level nodes
        return apply(self, oi, weighted, tree, closures)

    def recorded_build(tables, gens, batch, work_cap, stop=None):
        calls.append([stop is not None, work_cap, 0, None])
        got = build(tables, gens, batch, work_cap, stop)
        refused = [str(sub) for sub in got if isinstance(sub, CapExceeded)]
        calls[-1][3] = refused[0] if len(refused) == 1 else refused or None
        return got

    monkeypatch.setattr(kernel._Kernel, "apply", counted_apply)
    monkeypatch.setattr(freealg, "_build_closures", recorded_build)
    return calls


def test_doomed_closure_is_refused_before_the_cap_bites(monkeypatch, fresh_keepers):
    # nu(4) over I:5: the closure behind it needs about 15M tuples, against
    # a 4M cap.  With a stop it runs until its work would pass SHALLOW_WORK,
    # then the work bound refuses it and the local engine decides
    calls = count_applied(monkeypatch)
    unranked = []                       # (batch, rows) per block unranked
    blocks = kernel._arg_blocks

    def counted_blocks(*args):
        for tree in blocks(*args):
            unranked.append((len(calls), len(tree[1][-1][1])))
            yield tree

    monkeypatch.setattr(kernel, "_arg_blocks", counted_blocks)
    cert = absorption_search(load_fixtures("I:5"), nu_scheme(4))
    assert not cert.found
    assert cert.stats == {"engine": "local", "size": 94}
    refused = [c for c in calls if c[3] is not None]
    assert len(refused) == 1
    has_stop, work_cap, applied, message = refused[0]
    assert has_stop and work_cap == 4_000_000
    assert applied <= SHALLOW_WORK
    assert "elements need at least" in message
    assert sum(c[2] for c in calls) <= 828_912       # the two-pass search applied this
    # no block past the one whose work met the bound is unranked
    batch = calls.index(refused[0]) + 1
    last = [rows for at, rows in unranked if at == batch]
    assert sum(last[:-1]) <= SHALLOW_WORK < sum(last)


# the found searches of the benchmark's varieties workload and the toolkit's
# majority search, with the terms the two-pass search found before the
# closure learnt to stop at its first witness
FOUND_TERMS = [
    ("I:4", 4, ["u", "x0", "x1", "x2", "x3"]),
    ("If:4", 4, ["u", "x0", "x1", "x2", "x3"]),
    ("I:5", 5, ["u", "x0", "x1", "x2", "x3", "x4"]),
    ("If:5", 5, ["u", "x0", "x1", "x2", "x3", "x4"]),
    ("LD2", 3, ["d3", ["d4", "x0", "x0", "x1", "x1"], ["d4", "x0", "x0", "x2", "x2"],
                ["d4", "x1", "x1", "x2", "x2"]]),
]


@pytest.mark.parametrize("fixture, arity, term", FOUND_TERMS)
def test_found_search_keeps_its_term_within_a_thousand_tuples(monkeypatch, fresh_keepers,
                                                               fixture, arity, term):
    calls = count_applied(monkeypatch)
    gens = load_fixtures(fixture)
    cert = absorption_search(gens, nu_scheme(arity))
    assert cert.found and cert.stats["engine"] == "closure"
    assert term_to_obj(cert.term, [op.name for op in gens[0].ops]) == term
    assert sum(c[2] for c in calls) <= 1_000


def test_witness_past_the_doom_point_is_found_by_the_closure(monkeypatch, fresh_keepers):
    # nu(6) over If:6: the first witness appears after a few hundred tuples,
    # where the work bound would already refuse the closure
    calls = count_applied(monkeypatch)
    cert = absorption_search(load_fixtures("If:6"), nu_scheme(6))
    assert cert.found and cert.stats["engine"] == "closure"
    assert len(calls) == 1 and calls[0][0] and calls[0][3] is None
    assert calls[0][2] < 1_000


def test_refusal_message_names_elements_bound_and_cap():
    # one symmetric 4-ary operation: 9 elements need C(12, 4) = 495 tuples,
    # 10 need C(13, 4) = 715, so the tenth element is the last one found
    gens = load_fixtures("N:2:4,N:3:4")
    with pytest.raises(CapExceeded) as info:
        closure(gens, 3, work_cap=600)
    assert str(info.value) == ("subpower work cap exceeded: 10 elements need at least "
                               "715 argument tuples, cap 600")
    assert info.value.explored == 10


def test_work_cap_message_names_work_and_cap():
    # with a stop, the work bound waits for SHALLOW_WORK, so the cap itself
    # bites: the first round is the C(6, 4) = 15 multisets of 3 generators
    gens = load_fixtures("N:2:4,N:3:4")
    with pytest.raises(CapExceeded) as info:
        closure(gens, 3, work_cap=10, stop=lambda rows: None)
    assert str(info.value) == ("subpower work cap exceeded: 15 argument tuples applied, "
                               "cap 10")


def test_element_cap_message_names_elements_and_cap(monkeypatch):
    # the first block over N:2:4,N:3:4 on 3 generators takes 3 elements to 9;
    # in tiles of 7 rows (2 new in the first) or of 1 row the cap is crossed
    # inside that block, and the message still counts the whole block
    monkeypatch.setattr(freealg, "ELEMENT_CAP", 5)
    for tile in (kernel._TILE, 7, 1):
        monkeypatch.setattr(kernel, "_TILE", tile)
        with pytest.raises(CapExceeded) as info:
            closure(load_fixtures("N:2:4,N:3:4"), 3)
        assert str(info.value) == "subpower element cap: 9 elements, cap 5"


def record_tiles(monkeypatch):
    """Each `_Kernel.apply` call's tiles, each a list of its rows' bytes."""
    blocks = []
    apply = kernel._Kernel.apply

    def recorded(self, oi, weighted, tree, closures=1):
        blocks.append([])
        for at, out in apply(self, oi, weighted, tree, closures):
            blocks[-1].append([row.tobytes() for row in out])
            yield at, out

    monkeypatch.setattr(kernel._Kernel, "apply", recorded)
    return blocks


def test_tiles_of_one_block_keep_its_first_occurrences(monkeypatch, fresh_keepers):
    # in tiles of 7 rows, the free algebra over N:2:5,N:3:5 on 3 generators
    # has a row new to a block in two tiles of it, and blocks whose new rows
    # first occur in two tiles: a stop on the last new row of such a block
    # hits in a later tile
    args = lambda: free_generators(load_fixtures("N:2:5,N:3:5"), 3)
    tables, _, coord_algs, gen_rows = args()
    known = {row.tobytes() for row in kernel._packing(tables, coord_algs).pack(gen_rows)}
    with monkeypatch.context() as patched:
        patched.setattr(kernel, "_TILE", 7)
        blocks = record_tiles(patched)
        size = _build_closure(*args(), 80_000_000).size
    twice = 0                   # rows new to a block in two tiles of it
    ends = []                   # sizes after the blocks whose new rows first
                                # occur in two tiles
    for tiles in blocks:
        where: dict = {}        # each row new to the block -> the tiles it is in
        for t, rows in enumerate(tiles):
            for row in rows:
                if row not in known:
                    where.setdefault(row, set()).add(t)
        twice += sum(len(ts) > 1 for ts in where.values())
        known.update(where)     # every output row is an element
        if len({min(ts) for ts in where.values()}) > 1:
            ends.append(len(known))
    assert len(known) == size and twice and ends
    for end in ends[:3]:
        got = layouts(monkeypatch, lambda: outcome(
            lambda: _build_closure(*args(), 80_000_000, stop_after(end))), (7,))
        assert all(other == got[0] for other in got) and got[0][1][0] == end


def test_refusal_before_the_first_round(monkeypatch, fresh_keepers):
    monkeypatch.setattr(kernel, "_arg_blocks", _no_rounds)
    gens = load_fixtures("N:2:3")                     # 3 generators: 10 multisets
    with pytest.raises(CapExceeded, match="3 elements need at least 10 "):
        closure(gens, 3, work_cap=9)


def test_membership_fallback_records_why():
    # the free algebra on 5 generators over I:4: 32 two-element coordinates
    gens = load_fixtures("I:4")
    assignments = list(itertools.product(range(2), repeat=5))
    gen_rows = np.asarray([[a[j] for a in assignments] for j in range(5)])
    sub = generate_subpower(gens, [0] * 32, gen_rows)
    assert sub.engine == "membership"
    assert sub.stats["closure"].startswith("subpower work cap exceeded: ")
    assert sub.stats["closure"].endswith(" argument tuples, cap 80000000")
    assert sub.stats["local"] == (f"coordinate box of {2 ** 32} vectors "
                                  f"exceeds the element cap {1 << 20}")
    with pytest.raises(CapExceeded) as info:
        build_free_algebra(gens, 5)
    assert str(info.value) == ("free algebra too large to enumerate; closure: "
                               f"{sub.stats['closure']}; local: {sub.stats['local']}")


# ---------------------------------------------------------------------------
# super-coordinates: the closure on product-algebra codes against the closure
# on groups of one, and the product tables against the lazy product


@pytest.mark.parametrize("fixture", ["N:2:5,Nq:2:5:3,triv:5", "I:5", "LD2"])
def test_product_tables_match_the_direct_product(fixture):
    # every kind a closure grouped, and every ordering of the algebras
    gens = tuple(load_fixtures(fixture))
    tables = closure(gens, 3, stop=stop_after(5))._tables
    grouped = [kind for kind in tables.products if len(kind) > 1]
    assert grouped
    if len(gens) > 1:                                 # a size-1 algebra grouped
        assert any(2 in kind for kind in grouped)
    for kind in [*grouped, *itertools.permutations(range(len(gens)))]:
        product = direct_product([gens[ai] for ai in kind])
        for oi, op in enumerate(product.ops):
            got = kernel._product_tables(tables, kind)[oi]
            assert got.dtype == np.int16
            assert np.array_equal(got, op.table_array())
            # the argument order of the closure assumes what the flag says
            if tables.sym[oi]:
                assert _op_symmetrical(TableOp(op.name, op.arity, op.size, got))
    for plan in tables.plans.values():
        assert plan.tables.sym == tables.sym and plan.tables.arity == tables.arity
    assert set(tables.sym) == ({True, False} if fixture == "I:5" else {True})


def test_grouping_bounds():
    big = random_algebra(17, (4,), 5)         # 17**4 = 83,521 entries
    small = random_algebra(2, (4,), 6)
    one = random_algebra(1, (4,), 7)
    ternary = random_algebra(2, (3,), 8)      # 32**3 <= 2**16 < 64**3
    unary = random_algebra(2, (1,), 9)        # the universe bound binds first
    assert big.size**4 > kernel._GROUP_TABLE >= small.size**4
    cases = [((big, small, one), [1, 1, 0, 2, 1, 1, 1, 1, 1, 0, 0, 1], [2, 1, 5, 1, 1, 1, 1]),
             ((ternary,), [0] * 12, [5, 5, 2]),
             ((unary,), [0] * 40, [15, 15, 10])]
    for gens, coord_algs, lengths in cases:
        tables = _prepare_tables(gens)
        plan = kernel._packing(tables, coord_algs)
        assert kernel._packing(tables, coord_algs) is plan          # kept
        groups = [np.flatnonzero(plan.group == g) for g in range(len(plan.kinds))]
        assert [len(g) for g in groups] == lengths
        kinds = [tuple(coord_algs[k] for k in g) for g in groups]
        for kind, size in zip(kinds, plan.tables.sizes[plan.kinds].tolist()):
            assert size == math.prod(gens[ai].size for ai in kind) <= 1 << 15
            if len(kind) > 1:
                assert max(size**r for r in tables.arity) <= kernel._GROUP_TABLE
        if gens[0] is big:          # over its own table's bound: a group of one
            assert all(kind == (0,) for kind in kinds if 0 in kind)


def test_grouping_gives_way_to_int32_indexing(monkeypatch):
    tables = _prepare_tables(tuple(load_fixtures("I:5")))
    monkeypatch.setattr(kernel, "_INDEX_LIMIT", 4096)
    plan = kernel._packing(tables, [0] * 8)
    assert plan.tables is tables and plan.kinds.tolist() == [0] * 8
    assert np.array_equal(plan.pack(np.eye(8, dtype=np.int16)), np.eye(8))


def outcome(run):
    """What a closure run shows: its rows, terms and work, or its refusal.
    Not the tuples it evaluated: a predicted round ends with the tile that
    holds its last new row, so that count depends on the tiles."""
    try:
        sub = run()
    except CapExceeded as exc:
        return str(exc)
    names = [op.name for op in sub.gens[0].ops]
    stats = {key: value for key, value in sub.stats.items() if key != "evaluated"}
    return (sub.vectors.tobytes(), sub.vectors.shape, stats,
            [term_to_obj(t, names) for t in sub.terms],
            sorted(sub._index.items(), key=lambda item: item[1]))


def layouts(monkeypatch, observe, tiles=()):
    """observe() on super-coordinates, then on groups of one, then in tiles
    of each size in `tiles`."""
    outcomes = [observe()]
    for name, value in [("_GROUP_TABLE", 0), *(("_TILE", tile) for tile in tiles)]:
        with monkeypatch.context() as patched:
            patched.setattr(kernel, name, value)
            outcomes.append(observe())
    return outcomes


def random_closure_args(gens, coord_algs, g, seed):
    rng = np.random.default_rng(seed)
    gen_rows = np.stack([rng.integers(0, gens[ai].size, g) for ai in coord_algs], axis=1)
    return _prepare_tables(gens), gens, coord_algs, gen_rows.astype(np.int16)


def assert_runs_agree(monkeypatch, args, tiles=(1, 7)):
    """One closure, complete, stopped on its 7th row, refused by the work
    bound, capped under a stop and capped at once: the same outcomes, and
    the same rows and hits seen by `stop`, on super-coordinates, on groups
    of one and in tiles of each size in `tiles`.  Returns the outcomes."""
    full = _build_closure(*args(), 80_000_000)
    seen = []

    def stop_on_7th():
        count = stop_after(7)

        def stop(rows):
            seen.append((rows.tobytes(), count(rows)))
            return seen[-1][1]
        return stop

    runs = [
        lambda: _build_closure(*args(), 80_000_000),
        lambda: _build_closure(*args(), 80_000_000, stop_on_7th()),
        lambda: _build_closure(*args(), full.stats["work"] // 3),
        lambda: _build_closure(*args(), full.stats["work"] // 3, lambda rows: None),
        lambda: _build_closure(*args(), 10, lambda rows: None),
    ]
    outcomes = []
    for run in runs:
        seen.clear()
        got = layouts(monkeypatch, lambda: outcome(run), tiles)
        assert all(other == got[0] for other in got)
        assert seen == seen[:len(seen) // len(got)] * len(got)
        outcomes.append(got[0])
    assert outcomes[0][1] == full.vectors.shape and outcomes[1][1][0] == 7
    assert "need at least" in outcomes[2] and "applied" in outcomes[4]
    monkeypatch.setattr(freealg, "ELEMENT_CAP", full.size - 1)
    got = layouts(monkeypatch, lambda: outcome(runs[0]), tiles)
    assert all(other == got[0] for other in got) and got[0].startswith("subpower element cap")
    return outcomes


@pytest.mark.parametrize("fixture", ["I:5", "If:5", "N:2:4", "N:2:5,N:3:5"])
def test_grouped_free_algebra_matches_groups_of_one(monkeypatch, fixture):
    gens = tuple(load_fixtures(fixture))
    full = closure(gens, 3)
    assert len(full._tables.plans[tuple(full.coord_algs)].kinds) < full.ncoords
    # I:5's last rounds already run in blocks of up to 8 default tiles; its
    # 852,112 tuples in tiles of a few rows would take half a minute
    assert_runs_agree(monkeypatch, lambda: free_generators(gens, 3),
                      () if fixture == "I:5" else (1, 7))


def test_subpower_of_no_coordinates_is_the_empty_vector():
    # rows of no columns are keyed like any others: every one reads key 0
    sub = generate_subpower(load_fixtures("I:4"), [], np.zeros((2, 0), dtype=np.int16))
    assert sub.engine == "closure" and sub.vectors.shape == (1, 0)


def test_grouped_closure_matches_groups_of_one_past_int64_keys(monkeypatch):
    # 64 two-element coordinates: a box of 2**64 vectors, rows not keyed
    gens = tuple(load_fixtures("If:5"))
    args = lambda: random_closure_args(gens, [0] * 64, 3, 8)
    assert math.prod([2] * 64) > 1 << 62
    outcomes = assert_runs_agree(monkeypatch, args)
    assert outcomes[0][1] == (19, 64)


def test_closure_past_int64_keys_keeps_its_certificate(monkeypatch):
    # nu(4) over the 3-element chain reducts closes a free algebra on 54
    # three-element coordinates, 3**54 vectors: its rows are keyed by records
    # of two int64 words.  The digest is that of the certificate built when
    # such rows were deduplicated by their bytes
    words = []
    keys = freealg._keys
    monkeypatch.setattr(freealg, "_keys",
                        lambda vecs, place: words.append(place.ndim) or keys(vecs, place))
    cert = certificates.search_certificate("nu", "Nq:2:5:3,Nq:3:5:3", arity=4, expect="absent")
    assert 2 in words and cert["stats"] == {"engine": "closure", "size": 51}
    assert (hashlib.sha256(dumps_canonical(cert).encode()).hexdigest()
            == "cd8e26e5404fcf144f077924dc15783862a414f79bf5fa0c7df0c9fcf85a8c2c")


def test_grouped_closure_matches_groups_of_one_on_15_bit_codes(monkeypatch):
    # unary operations: groups of 15 two-element coordinates, codes up to 2**15 - 1
    gens = (random_algebra(2, (1, 1), 9),)
    args = lambda: random_closure_args(gens, [0] * 40, 4, 10)
    grouped, ungrouped = layouts(
        monkeypatch, lambda: outcome(lambda: _build_closure(*args(), 80_000_000)))
    assert grouped == ungrouped


def test_grouped_closure_matches_groups_of_one_past_64_one_element_coordinates(
        monkeypatch):
    # 80 one-element coordinates and three two-element ones make one group
    gens = tuple(load_fixtures("triv:5,N:2:5"))
    gen_rows = np.zeros((2, 83), dtype=np.int16)
    gen_rows[:, 80:] = [[0, 1, 1], [1, 0, 1]]
    args = lambda: (_prepare_tables(gens), gens, [0] * 80 + [1] * 3, gen_rows)
    grouped, ungrouped = layouts(
        monkeypatch, lambda: outcome(lambda: _build_closure(*args(), 80_000_000)))
    assert grouped == ungrouped and grouped[1] == (3, 83)
    tables = args()[0]
    assert len(kernel._packing(tables, [0] * 80 + [1] * 3).kinds) == 1


@pytest.mark.parametrize("fixture, arity", [("I:5", 4), ("If:5", 4), ("I:5", 5)])
def test_grouped_search_matches_groups_of_one(monkeypatch, fixture, arity):
    def search():
        built = []
        build_local = freealg._build_local

        def recorded_local(*args, **kwargs):
            built.append(build_local(*args, **kwargs))
            return built[-1]

        with monkeypatch.context() as patched:
            patched.setattr(freealg, "_build_local", recorded_local)
            cert = absorption_search(load_fixtures(fixture), nu_scheme(arity))
        names = [op.name for op in load_fixtures(fixture)[0].ops]
        closures = {subset: outcome(lambda sub=sub: sub)
                    for b in built for subset, sub in b._local.local_closures.items()}
        return (cert.found, cert.stats, cert.term and term_to_obj(cert.term, names),
                closures)

    grouped, ungrouped = layouts(monkeypatch, search)
    assert grouped == ungrouped
    assert (arity == 4 and fixture == "I:5") == bool(grouped[3])   # the local engine ran


def count_closure_work(monkeypatch):
    works = []
    build = freealg._build_closures

    def recorded(*args, **kwargs):
        got = build(*args, **kwargs)
        works.extend(sub.stats["work"] for sub in got if isinstance(sub, freealg.Subpower))
        return got

    monkeypatch.setattr(freealg, "_build_closures", recorded)
    return works


@pytest.mark.parametrize("verdict, work", [
    (lambda: certificates.search_certificate("nu", "If:5", arity=4, expect="absent"),
     2_452_883),
    (lambda: certificates.level_certificate("day", "N:2:4", expect=5), 395_010),
    (lambda: certificates.level_certificate("jonsson", "I:5"), 852_112),
    (lambda: certificates.level_certificate("hagemann-mitschke", "I:5"), 852_112),
], ids=["search nu(4) If:5", "level day N:2:4", "level jonsson I:5",
        "level hagemann-mitschke I:5"])
def test_largest_benchmark_closures_keep_their_work(monkeypatch, verdict, work):
    works = count_closure_work(monkeypatch)
    verdict()
    assert max(works) == work


def test_largest_benchmark_closure_evaluates_its_blocks_in_tiles():
    # the closure behind nu(4) over If:5 applies 2,452,883 tuples in blocks
    # of 250,000 rows; each block's last level is evaluated in tiles, so its
    # sums, values and keys are never as long as the block.  At whole-block
    # length they took the peak to 31.5 MiB
    search = lambda: certificates.search_certificate("nu", "If:5", arity=4, expect="absent")
    search()                                    # warm: fixtures and tables
    tracemalloc.start()
    try:
        search()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20


# ---------------------------------------------------------------------------
# predicted rounds: a round over one block is predicted by the walk over the
# residual classes and ends at its last new row; the closure comes out as if
# every round ran in full


def largest_closure(monkeypatch, verdict):
    """The closure engine's run with the most work behind `verdict`:
    ((gens, coord_algs, gen_rows, work_cap, stop), its Subpower)."""
    runs = []
    build = freealg._build_closure

    def recorded(tables, gens, coord_algs, gen_rows, work_cap, stop=None):
        got = build(tables, gens, coord_algs, gen_rows, work_cap, stop)
        runs.append(((gens, coord_algs, gen_rows, work_cap, stop), got))
        return got

    with monkeypatch.context() as patched:
        patched.setattr(freealg, "_build_closure", recorded)
        verdict()
    return max(runs, key=lambda run: run[1].stats["work"])


def closure_runs(monkeypatch, gens, coord_algs, gen_rows, work_cap, stop=lambda: None):
    """One closure as given (`stop()` its stop), capped at its work less
    one, with a stop that never meets a row under a third of its work, and
    under an element cap one below its size: each run's outcome, and every
    row each stop saw."""
    seen = []

    def watched(inner):
        def watch(rows):
            seen.append(rows.tobytes())
            return inner(rows)
        return watch

    def run(cap, stop):
        return outcome(lambda: _build_closure(_prepare_tables(gens), gens, coord_algs, gen_rows,
                                              cap, stop and watched(stop)))

    first = run(work_cap, stop())
    total = first[2]["work"]
    runs = [first, run(total - 1, stop()), run(total // 3, lambda rows: None)]
    with monkeypatch.context() as patched:
        patched.setattr(freealg, "ELEMENT_CAP", first[1][0] - 1)
        runs.append(run(work_cap, stop()))
    return runs, seen


def predicted_and_full(monkeypatch, observe):
    """observe() with rounds predicted and with every round in full
    (`_new_rows` made to predict nothing): asserts they agree, and returns
    what it saw and how many rounds were predicted."""
    predicted = []
    new_rows = freealg._new_rows

    def counted(*walk):
        got = new_rows(*walk)
        predicted.append(got is not None)
        return got

    with monkeypatch.context() as patched:
        patched.setattr(freealg, "_new_rows", counted)
        seen = observe()
    with monkeypatch.context() as patched:
        patched.setattr(freealg, "_new_rows", lambda *walk: None)
        assert observe() == seen
    return seen, sum(predicted)


def predict_every_round(monkeypatch):
    """Predict every round, however few its tuples and however many
    candidates its walk forms."""
    new_rows = freealg._new_rows
    monkeypatch.setattr(freealg, "_WALK_FLOOR", 0)
    monkeypatch.setattr(freealg, "_new_rows", lambda run, lane, budget: new_rows(run, lane, 1 << 40))


@pytest.mark.parametrize("fixture, g, partial", EXACT_CASES)
def test_predicted_rounds_of_the_exact_cases_run_as_full_rounds(monkeypatch, fixture, g,
                                                                 partial):
    predict_every_round(monkeypatch)
    _, gens, coord_algs, gen_rows = free_generators(load_fixtures(fixture), g)
    runs = lambda stop=lambda: None: closure_runs(monkeypatch, gens, coord_algs, gen_rows,
                                                  80_000_000, stop)
    (got, seen), predicted = predicted_and_full(monkeypatch, runs)
    assert predicted and "work cap exceeded" in got[1] and "element cap" in got[3]
    assert seen                         # the stop under a third of the work saw rows
    complete = lambda: outcome(lambda: _build_closure(_prepare_tables(gens), gens, coord_algs,
                                                      gen_rows, 80_000_000))
    ends = []                           # elements at the start of each round
    with monkeypatch.context() as patched:
        patched.setattr(kernel, "_TILE", 7)     # a round can end inside a block
        round_ = freealg._round
        patched.setattr(freealg, "_round", lambda *args: ends.append(args[3]) or round_(*args))
        assert complete() == got[0]
    (got, seen), _ = predicted_and_full(monkeypatch, lambda: runs(lambda: stop_after(partial[0])))
    assert got[0][1][0] == partial[0] and seen
    # a stop closure whose work bound starts in a round's last block, which
    # a predicted round may leave, under a cap that the round's rows pass
    doomed = 0
    for n in ends:
        bound = _closure_work(_prepare_tables(gens), n)
        monkeypatch.setattr(freealg, "SHALLOW_WORK", bound - 1)
        refused, _ = predicted_and_full(monkeypatch, lambda: outcome(lambda: _build_closure(
            _prepare_tables(gens), gens, coord_algs, gen_rows, bound, lambda rows: None)))
        doomed += "need at least" in refused
    assert doomed


LARGEST_CLOSURES = [
    lambda: certificates.search_certificate("nu", "If:5", arity=4, expect="absent"),
    lambda: certificates.level_certificate("day", "N:2:4", expect=5),
    lambda: certificates.level_certificate("jonsson", "I:5"),
    lambda: certificates.level_certificate("hagemann-mitschke", "I:5"),
]
LARGEST_IDS = ["search nu(4) If:5", "level day N:2:4", "level jonsson I:5",
               "level hagemann-mitschke I:5"]


@pytest.mark.parametrize("verdict", LARGEST_CLOSURES, ids=LARGEST_IDS)
def test_predicted_rounds_of_the_largest_benchmark_closures_run_as_full_rounds(
        monkeypatch, verdict):
    (gens, coord_algs, gen_rows, work_cap, stop), sub = largest_closure(monkeypatch, verdict)
    (runs, seen), predicted = predicted_and_full(monkeypatch, lambda: closure_runs(
        monkeypatch, gens, coord_algs, gen_rows, work_cap, lambda: stop))
    assert runs[0][2]["work"] == sub.stats["work"] and seen
    assert all(isinstance(run, str) for run in runs[1:])
    assert bool(predicted) == (sub.stats["evaluated"] < sub.stats["work"])


@pytest.mark.parametrize("verdict, most", [
    (LARGEST_CLOSURES[0], 199_999),     # every round in full: 2,452,883
    (LARGEST_CLOSURES[1], 395_010),     # its walk passes the budget: every round in full
    (LARGEST_CLOSURES[2], 16_729),      # 852,112
    (LARGEST_CLOSURES[3], 16_729),
], ids=LARGEST_IDS)
def test_largest_benchmark_closures_evaluate_few_tuples(monkeypatch, verdict, most):
    _, sub = largest_closure(monkeypatch, verdict)
    assert sub.stats["evaluated"] <= most <= sub.stats["work"]
    if most == 16_729:
        assert sub.stats["evaluated"] == most


def test_a_step_of_a_walk_forms_at_most_a_block_of_candidates(monkeypatch):
    # with the whole round as the share, nu(4) If:5's round of 2,292,801
    # tuples still gives its walk's steps a block's rows at most
    budgets = []
    new_rows = freealg._new_rows

    def recorded(run, lane, budget):
        budgets.append(budget)
        return new_rows(run, lane, budget)

    monkeypatch.setattr(freealg, "_WALK_SHARE", 1)
    monkeypatch.setattr(freealg, "_new_rows", recorded)
    largest_closure(monkeypatch, LARGEST_CLOSURES[0])
    assert max(budgets) == _CHUNK


def test_a_refused_walk_leaves_the_round_in_full(monkeypatch):
    # a class table the walk cannot build: no round is predicted, and the
    # closure evaluates every tuple it is charged, with the same outcome
    (gens, coord_algs, gen_rows, work_cap, _), sub = largest_closure(monkeypatch,
                                                                     LARGEST_CLOSURES[2])
    assert sub.stats["evaluated"] < sub.stats["work"]
    runs, seen = closure_runs(monkeypatch, gens, coord_algs, gen_rows, work_cap)

    def refused(*args):
        raise CapExceeded("refused")

    monkeypatch.setattr(freealg, "_residual_classes", refused)
    full = _build_closure(_prepare_tables(gens), gens, coord_algs, gen_rows, work_cap)
    assert full.stats["evaluated"] == full.stats["work"] == sub.stats["work"]
    assert closure_runs(monkeypatch, gens, coord_algs, gen_rows, work_cap) == (runs, seen)


def test_predicted_rounds_of_a_batch_run_as_full_rounds(monkeypatch):
    # nu(4) over I:5's 210 local closures in one batch, chunks of many lanes
    # with every round predicted: as with no prediction, at the engine's cap
    # and under a cap of 2,000 that refuses some lanes in mid-round
    sub = nu4_over_i5(monkeypatch)
    predict_every_round(monkeypatch)
    batch = local_batch(sub)

    def returned(got):
        if isinstance(got, CapExceeded):
            raise got
        return got

    for work_cap in (sub._local.work_cap, 2_000):
        closed = lambda: [outcome(lambda got=got: returned(got)) for got in _build_closures(
            _prepare_tables(sub.gens), sub.gens, batch, work_cap)]
        got, predicted = predicted_and_full(monkeypatch, closed)
        assert predicted and (work_cap > 2_000) != any(isinstance(g, str) for g in got)
    # a lane is said to have evaluated the tuples of its chunks, which run
    # to the last new row of any of their lanes: never more than its work,
    # and all of it when no round is predicted, but not its count alone
    closures = lambda: _build_closures(_prepare_tables(sub.gens), sub.gens, batch,
                                       sub._local.work_cap)
    together = closures()
    alone = [_build_closure(_prepare_tables(sub.gens), sub.gens, *spec, sub._local.work_cap)
             for spec in batch]
    assert all(got.stats["evaluated"] <= got.stats["work"] for got in together)
    assert sum(got.stats["evaluated"] for got in together) < sum(
        got.stats["work"] for got in together)
    assert any(got.stats["evaluated"] != one.stats["evaluated"]
               for got, one in zip(together, alone, strict=True))
    monkeypatch.setattr(freealg, "_new_rows", lambda *walk: None)
    assert all(got.stats["evaluated"] == got.stats["work"] for got in closures())
