"""Relation evaluation by block images, against matrix and brute-force oracles."""

import itertools
import random

import numpy as np
import pytest

from finalg.algebras import AlgebraError, CapExceeded
from finalg.congruences import Partition, partition_meet
from finalg.identities import (
    ALPHA_BETA,
    BETA,
    GAMMA,
    Comp,
    MeetAlpha,
    Power,
    Prim,
    _alt,
    _context,
    check_identity,
    expr_image,
    family_exprs,
    least_path,
    shortest_alternating_chain,
    shortest_length,
)
from relation_oracle import bool_product, expr_matrix, matrix_context, relation


def random_partition(rng, size, blocks=3):
    return Partition(tuple(rng.randrange(blocks) for _ in range(size)))


def full(expr, alpha, beta, gamma):
    """The whole relation of the expression, from the identity rows."""
    return expr_image(expr, _context(alpha, beta, gamma), np.eye(alpha.size, dtype=bool))


def pairs(mat):
    return sorted((int(x), int(y)) for x, y in np.argwhere(mat))


def test_rel_of_partition():
    one = Partition.one(3)
    assert np.array_equal(full(Prim(BETA), one, Partition.zero(3), one), np.eye(3, dtype=bool))
    assert full(Prim(BETA), one, one, one).all()
    bs = Partition.from_blocks(3, [[2, 1], [0]])
    assert pairs(full(Prim(BETA), one, bs, one)) == [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_compose_identity_and_oracle():
    rng = random.Random(11)
    for _ in range(25):
        alpha, beta, gamma = (random_partition(rng, 5) for _ in range(3))
        r = full(Prim(BETA), alpha, beta, gamma)
        identity = Partition.zero(5)
        assert np.array_equal(full(Comp((Prim(BETA), Prim(GAMMA))), alpha, beta, identity), r)
        composed = full(Comp((Prim(BETA), Prim(GAMMA))), alpha, beta, gamma)
        expected = {
            (x, z)
            for (x, y1) in pairs(r)
            for (y2, z) in pairs(relation(gamma))
            if y1 == y2
        }
        assert set(pairs(composed)) == expected


def test_compose_size_mismatch():
    with pytest.raises(AlgebraError):
        check_identity("dist", Partition.one(3), Partition.one(3), Partition.one(4), n=2)
    with pytest.raises(AlgebraError):
        shortest_alternating_chain(0, 1, Partition.zero(3), Partition.zero(4))


def chain(count):
    return Comp(tuple(_alt(BETA, GAMMA, count)))


def test_eval_chain_conventions():
    rng = random.Random(5)
    alpha, beta, gamma = (random_partition(rng, 4) for _ in range(3))
    r, s = relation(beta), relation(gamma)
    assert np.array_equal(full(chain(0), alpha, beta, gamma), np.eye(4, dtype=bool))
    assert np.array_equal(full(chain(1), alpha, beta, gamma), r)
    assert np.array_equal(full(chain(2), alpha, beta, gamma), bool_product(r, s))
    assert np.array_equal(full(chain(3), alpha, beta, gamma),
                          bool_product(bool_product(r, s), r))


def test_eval_chain_monotone():
    # merging blocks can only grow every alternating chain
    rng = random.Random(7)
    for _ in range(20):
        alpha, beta1, gamma1 = (random_partition(rng, 5, blocks=5) for _ in range(3))
        beta2 = Partition(tuple(b // 2 for b in beta1.block_id))
        gamma2 = Partition(tuple(b // 2 for b in gamma1.block_id))
        for count in (1, 2, 3, 4):
            small = full(chain(count), alpha, beta1, gamma1)
            big = full(chain(count), alpha, beta2, gamma2)
            assert not (small & ~big).any()


def test_chain_grows_for_reflexive_relations():
    rng = random.Random(13)
    for _ in range(15):
        alpha, beta, gamma = (random_partition(rng, 5, blocks=4) for _ in range(3))
        for count in range(4):
            shorter = full(chain(count), alpha, beta, gamma)
            longer = full(chain(count + 1), alpha, beta, gamma)
            assert not (shorter & ~longer).any()


def test_check_inclusion():
    # full mode says "holds" exactly when the oracle finds no violating pair
    rng = random.Random(19)
    verdicts = set()
    for _ in range(40):
        alpha, beta, gamma = (random_partition(rng, 6) for _ in range(3))
        lhs, rhs = family_exprs("dist", n=2)
        rels = matrix_context(alpha, beta, gamma)
        viol = expr_matrix(lhs, rels) & ~expr_matrix(rhs, rels)
        inst = check_identity("dist", alpha, beta, gamma, n=2)
        assert inst.verdict == ("fails" if viol.any() else "holds")
        verdicts.add(inst.verdict)
    assert verdicts == {"holds", "fails"}


def test_check_inclusion_least_pair():
    rng = random.Random(29)
    seen = 0
    for _ in range(40):
        alpha, beta, gamma = (random_partition(rng, 7) for _ in range(3))
        lhs, rhs = family_exprs("alvin", n=2)
        rels = matrix_context(alpha, beta, gamma)
        viol = np.argwhere(expr_matrix(lhs, rels) & ~expr_matrix(rhs, rels))
        if len(viol) < 2:
            continue
        inst = check_identity("alvin", alpha, beta, gamma, n=2)
        assert inst.counterexample == tuple(int(v) for v in viol[0])
        seen += 1
    assert seen > 0


def test_rel_power():
    rng = random.Random(31)
    for _ in range(10):
        alpha, beta, gamma = (random_partition(rng, 6, blocks=4) for _ in range(3))
        step = bool_product(relation(beta), relation(gamma))
        power = np.eye(6, dtype=bool)
        for k in range(4):
            expr = Power(Comp((Prim(BETA), Prim(GAMMA))), k)
            assert np.array_equal(full(expr, alpha, beta, gamma), power)
            power = bool_product(power, step)


def test_meet():
    alpha = Partition((0, 0, 1))
    beta = Partition((0, 1, 1))
    got = full(MeetAlpha(Prim(BETA)), alpha, beta, Partition.one(3))
    assert pairs(got) == [(0, 0), (1, 1), (2, 2)]
    assert np.array_equal(full(Prim(ALPHA_BETA), alpha, beta, beta),
                          relation(partition_meet(alpha, beta)))
    # a meet keeps each image inside its source's alpha block, so a source
    # spread over two blocks is refused
    ctx = _context(alpha, beta, Partition.one(3))
    with pytest.raises(AlgebraError):
        expr_image(MeetAlpha(Prim(BETA)), ctx, np.array([[True, False, True]]))


def brute_shortest_alternating(start, goal, first, second, cap):
    if start == goal:
        return [start]
    for length in range(1, cap + 1):
        best = None
        for lead in (0, 1):
            rels = [first, second] if lead == 0 else [second, first]
            for middle in itertools.product(range(len(first)), repeat=length - 1):
                path = [start, *middle, goal]
                if all(rels[i % 2][path[i], path[i + 1]] for i in range(length)):
                    if best is None or path < best:
                        best = path
        if best:
            return best
    return None


def test_shortest_alternating_matches_bruteforce():
    rng = random.Random(23)
    outcomes = set()
    for _ in range(30):
        f = random_partition(rng, 7, blocks=5)
        s = random_partition(rng, 7, blocks=5)
        start, goal = rng.randrange(7), rng.randrange(7)
        expected = brute_shortest_alternating(start, goal, relation(f), relation(s), 4)
        try:
            got = shortest_alternating_chain(start, goal, f, s, cap=4)
        except CapExceeded:
            assert expected is None
            outcomes.add("capped")
            continue
        if got is None:
            assert expected is None
            outcomes.add("none")
        else:
            path, factors = got
            assert expected is not None
            assert len(path) - 1 == len(expected) - 1 == factors
            assert path == expected  # lex-least among minimal
            outcomes.add("at cap" if factors == 4 else "found")
    assert outcomes == {"capped", "none", "found", "at cap"}


def test_shortest_alternating_trivial_and_missing():
    f = Partition.zero(3)
    s = Partition.zero(3)
    assert shortest_alternating_chain(1, 1, f, s) == ([1], 0)
    assert shortest_alternating_chain(0, 2, f, s, cap=6) is None


# ---------------------------------------------------------------------------
# lex-least shortest paths on key relations, against a brute-force oracle


def oracle_shortest(starts, goals, rels, eligible):
    """Fewest steps from a start to a goal, by breadth-first search over
    (element, depth mod len(rels)) states; None when no goal is reachable."""
    n, period = len(starts), len(rels)
    dist = {(x, 0): 0 for x in range(n) if starts[x]}
    queue = list(dist)
    for x, r in queue:
        left, right, _ = rels[r]
        for y in range(n):
            state = (y, (r + 1) % period)
            if eligible[y] and left[x] == right[y] and state not in dist:
                dist[state] = dist[(x, r)] + 1
                queue.append(state)
    found = [d for (x, _), d in dist.items() if goals[x]]
    return min(found) if found else None


def oracle_least_path(starts, goals, rels, length, eligible):
    """The lex-least path of `length` steps from a start to a goal: the
    least walk reaching each element at each depth, extended a step at a time."""
    n = len(starts)
    best = {x: [x] for x in range(n) if starts[x]}
    for depth in range(length):
        left, right, _ = rels[depth % len(rels)]
        nxt = {}
        for x, walk in best.items():
            for y in range(n):
                if eligible[y] and left[x] == right[y] and (y not in nxt or walk + [y] < nxt[y]):
                    nxt[y] = walk + [y]
        best = nxt
    ends = [walk for y, walk in best.items() if goals[y]]
    return min(ends) if ends else None


def test_paths_on_key_relations_match_the_oracle():
    rng = random.Random(41)
    outcomes = set()
    for _ in range(400):
        n = rng.randrange(1, 8)
        keys = rng.randrange(1, n + 2)
        rels = [(*(np.array([rng.randrange(keys) for _ in range(n)]) for _ in "lr"), keys)
                for _ in range(rng.choice((1, 2)))]
        eligible = np.array([rng.random() < 0.8 for _ in range(n)])
        starts = eligible & np.array([rng.random() < 0.3 for _ in range(n)])
        goals = eligible & np.array([rng.random() < 0.3 for _ in range(n)])
        cap = rng.randrange(0, 6)
        want = oracle_shortest(starts, goals, rels, eligible)
        try:
            got = shortest_length(starts, goals, rels, cap, "over cap", eligible)
        except CapExceeded as exc:
            assert str(exc) == "over cap"
            got = "capped"
        if want is None:
            assert got in (None, "capped")  # capped while new elements were still reached
        else:
            assert got == (want if want <= cap else "capped")
        outcomes.add({None: "none", "capped": "capped"}.get(got, "found"))
        if want is None:
            # a search with room for every (element, residue) state ends
            assert shortest_length(starts, goals, rels, n * len(rels), "", eligible) is None
        for length in {want or 0, rng.randrange(0, 6)}:
            expected = oracle_least_path(starts, goals, rels, length, eligible)
            assert least_path(starts, goals, rels, length, eligible) == expected
            outcomes.add("no path" if expected is None else "path")
    assert outcomes == {"capped", "none", "found", "no path", "path"}
