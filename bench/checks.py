"""Answer checks that share no code with the finalg modules they check.

Three kinds:

* a relation evaluator over block-id arrays: full verdicts as boolean
  matrices composed with float32 one-hot block products (counts are exact up
  to 2^24, so they cannot wrap), pair answers as set images per source, and
  the shortest alternating alpha^beta / alpha^gamma chain by a layered search;
* a reference construction of the witness B(m, q) from its definition, so the
  sharpness certificates are checked against partitions finalg did not build;
* a term evaluator over operation tables rebuilt from the generators'
  definitions, with its own equation schemes, plus the known answers of the
  paper.

Only numpy is imported; finalg results reach this module as plain data
(block-id arrays, certificate evidence).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# relation expressions: ("R", key) a partition, ("C", item, ...) a
# composition, ("A", inner) the meet with alpha, ("P", inner, k) a power

A, B, G, AB, AG = "a", "b", "g", "ab", "ag"


def _alt(first, second, count):
    return [("R", first if i % 2 == 0 else second) for i in range(count)]


def identity_exprs(family: str, m: int = 0, q: int = 0, j: int = 0, n: int = 0):
    """Left and right side of a catalogue identity, from its definition."""
    if family == "dist":
        return ("A", ("C", ("R", B), ("R", G))), ("C", *_alt(AB, AG, n))
    if family == "alvin":
        return ("A", ("C", ("R", B), ("R", G))), ("C", *_alt(AG, AB, n))
    if family == "wedge-power-2":
        return identity_exprs("wedge-power", m=m, q=2)
    if family in ("wedge-power", "wedge-power-j"):
        k = m - 2 if family == "wedge-power" else m - 2 * j + 2
        last = G if q % 2 == 0 else B
        lhs = ("A", ("C", ("R", B), *_alt(AG, AB, q - 2), ("R", last)))
        return lhs, ("P", ("A", ("C", *_alt(G, B, q))), k)
    if family == "wedge-power-odd":
        lhs = ("A", ("C", ("R", B), *_alt(AG, AB, q - 2), ("R", B)))
        mid = ("A", ("C", *_alt(B, AG, q - 2)))
        return lhs, ("C", ("R", AG), ("P", ("C", mid, ("R", AG)), m - 2))
    if family.startswith("zigzag-"):
        start, other = (AG, AB) if family.endswith("swapped") else (AB, AG)
        count = (m - 2) * q if family.startswith("zigzag-even") else 1 + (m - 2) * (q - 1)
        return ("A", ("C", *_alt(B, G, q))), ("C", *_alt(start, other, count))
    raise ValueError(f"no reference definition for {family!r}")


def _canon(keys: np.ndarray) -> np.ndarray:
    """Block ids numbered 0.. from any per-element key (1-d or rows)."""
    return np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1).astype(np.int64)


class RelationEvaluator:
    """Relations generated by a congruence triple given as block-id arrays."""

    def __init__(self, alpha, beta, gamma):
        ids = {A: np.asarray(alpha), B: np.asarray(beta), G: np.asarray(gamma)}
        ids[AB] = _canon(np.stack([ids[A], ids[B]], axis=1))
        ids[AG] = _canon(np.stack([ids[A], ids[G]], axis=1))
        self.ids = {k: _canon(v) for k, v in ids.items()}
        self.n = len(ids[A])
        if self.n >= 1 << 24:
            raise ValueError("float32 path counts are exact only below 2^24")

    # full mode -------------------------------------------------------------

    def matrix(self, expr) -> np.ndarray:
        tag = expr[0]
        if tag == "R":
            ids = self.ids[expr[1]]
            return ids[:, None] == ids[None, :]
        if tag == "A":
            return self.matrix(expr[1]) & self.matrix(("R", A))
        out = np.eye(self.n, dtype=bool)
        items = expr[1:] if tag == "C" else [expr[1]] * expr[2]
        cache = {}
        for item in items:
            out = self._compose(out, item, cache)
        return out

    def _compose(self, rel: np.ndarray, item, cache) -> np.ndarray:
        left = rel.astype(np.float32)
        if item[0] == "R":
            ids = self.ids[item[1]]
            onehot = np.zeros((self.n, int(ids.max()) + 1), dtype=np.float32)
            onehot[np.arange(self.n), ids] = 1.0
            return (left @ onehot > 0)[:, ids]
        key = id(item)
        if key not in cache:
            cache[key] = self.matrix(item).astype(np.float32)
        return left @ cache[key] > 0

    def violations(self, family: str, **params) -> np.ndarray:
        """Every pair in the left side and not in the right, as (k, 2) rows."""
        lhs, rhs = identity_exprs(family, **params)
        return np.argwhere(self.matrix(lhs) & ~self.matrix(rhs))

    # pair mode -------------------------------------------------------------

    def image(self, expr, members: np.ndarray) -> np.ndarray:
        tag = expr[0]
        if tag == "R":
            ids = self.ids[expr[1]]
            hit = np.zeros(int(ids.max()) + 1, dtype=bool)
            hit[ids[members]] = True
            return hit[ids]
        if tag == "A":
            alpha = self.ids[A]
            out = np.zeros(self.n, dtype=bool)
            for block in np.unique(alpha[members]):
                inside = alpha == block
                out |= self.image(expr[1], members & inside) & inside
            return out
        items = expr[1:] if tag == "C" else [expr[1]] * expr[2]
        for item in items:
            members = self.image(item, members)
        return members

    def pair_answer(self, family: str, pair, **params) -> tuple[bool, bool]:
        """(in_lhs, in_rhs) for one pair."""
        lhs, rhs = identity_exprs(family, **params)
        src = np.zeros(self.n, dtype=bool)
        src[pair[0]] = True
        return bool(self.image(lhs, src)[pair[1]]), bool(self.image(rhs, src)[pair[1]])

    def shortest_alternating(self, start: int, goal: int, cap: int = 256):
        """Fewest factors of an alternating ab/ag composition relating the
        two elements, either relation first; None if no composition does."""
        best = None
        for order in ((AB, AG), (AG, AB)):
            members = np.zeros(self.n, dtype=bool)
            members[start] = True
            seen = [members.copy(), members.copy()]
            for length in range(1, cap + 1):
                members = self.image(("R", order[(length - 1) % 2]), members)
                if members[goal]:
                    best = length if best is None else min(best, length)
                    break
                parity = length % 2
                if not (members & ~seen[parity]).any():
                    break
                seen[parity] |= members
        return best

    def is_alternating_path(self, path) -> bool:
        """Consecutive elements related by ab and ag in turn, either first."""
        steps = list(zip(path, path[1:]))
        return any(
            all(self.ids[order[s % 2]][x] == self.ids[order[s % 2]][y]
                for s, (x, y) in enumerate(steps))
            for order in ((AB, AG), (AG, AB))
        )

    def is_lhs_chain(self, chain, q: int) -> bool:
        """b, then ag / ab in turn for q - 2 steps, then g (even q) or b."""
        rels = [B] + [AG if i % 2 == 0 else AB for i in range(q - 2)]
        rels.append(G if q % 2 == 0 else B)
        alpha = self.ids[A]
        if len(chain) != q + 1 or alpha[chain[0]] != alpha[chain[-1]]:
            return False
        return all(self.ids[r][x] == self.ids[r][y]
                   for r, x, y in zip(rels, chain, chain[1:]))


# ---------------------------------------------------------------------------
# the witness B(m, q), built from its definition


@dataclass
class ReferenceWitness:
    m: int
    q: int
    product_size: int
    good: np.ndarray        # product ids of the good elements, ascending
    alpha: np.ndarray       # block ids over the good elements
    beta: np.ndarray
    gamma: np.ndarray
    a: int                  # local indices (positions in `good`)
    d: int
    lhs_chain: list


def reference_witness(m: int, q: int) -> ReferenceWitness:
    """Product of m - 1 chain reducts: pairs of (q+1)-chains for subset sizes
    2 .. ell (the top size unpaired for odd m), then a two-element factor.
    An element is good when its last coordinate is 0, or when its pairs read
    (0,0)* then (x,0) then (q,0)* with the half at q, or (0,0)* then (0,y)
    then (0,q)* with the half at 0."""
    ell = (m + 1) // 2
    npairs = (ell - 1) if m % 2 == 0 else (ell - 2)
    half = m % 2 == 1
    sizes = [q + 1] * (2 * npairs + half) + [2]
    coords = np.array(list(itertools.product(*[range(s) for s in sizes])), dtype=np.int64)
    coords = coords.reshape(-1, len(sizes))

    def good(row):
        if row[-1] == 0:
            return True
        pairs = [tuple(row[2 * i: 2 * i + 2]) for i in range(npairs)]
        i = 0
        while i < npairs and pairs[i] == (0, 0):
            i += 1
        if i == npairs:
            return True
        hv = row[2 * npairs] if half else None
        x, y = pairs[i]
        if y == 0:
            return all(p == (q, 0) for p in pairs[i + 1:]) and hv in (None, q)
        if x == 0:
            return all(p == (0, q) for p in pairs[i + 1:]) and hv in (None, 0)
        return False

    good_ids = np.array([e for e, row in enumerate(coords.tolist()) if good(row)],
                        dtype=np.int64)
    sub = coords[good_ids]
    # staircases on 0..q: first {q,q-1},{q-2,q-3},..; second {q},{q-1,q-2},..
    first = np.array([(q - x) // 2 for x in range(q + 1)])
    second = np.array([(q - x + 1) // 2 for x in range(q + 1)])
    bcols, gcols = [], []
    for i in range(npairs):
        bcols += [first[sub[:, 2 * i]], (second if q % 2 == 0 else first)[sub[:, 2 * i + 1]]]
        gcols += [second[sub[:, 2 * i]], (first if q % 2 == 0 else second)[sub[:, 2 * i + 1]]]
    if half:
        bcols.append(first[sub[:, 2 * npairs]])
        gcols.append(second[sub[:, 2 * npairs]])
    beta = _canon(np.stack(bcols, axis=1)) if bcols else np.zeros(len(sub), np.int64)
    gamma = _canon(np.stack(gcols, axis=1)) if gcols else np.zeros(len(sub), np.int64)
    alpha = _canon(sub[:, -1])
    weights = np.array([int(np.prod(sizes[i + 1:])) for i in range(len(sizes))])
    local = {int(p): i for i, p in enumerate(good_ids)}

    def element(pair_val, half_val, last):
        row = list(pair_val) * npairs + ([half_val] if half else []) + [last]
        return local[int(np.dot(row, weights))]

    chain = [element((q, 0), q, 1)]
    chain += [element((q - i, i), q - i, 0) for i in range(1, q)]
    chain.append(element((0, q), 0, 1))
    return ReferenceWitness(m, q, int(np.prod(sizes)), good_ids, alpha, beta, gamma,
                            chain[0], chain[-1], chain)


# ---------------------------------------------------------------------------
# terms: the serialised form ["op", arg, ...] / "x<i>" evaluated over the
# generators' tables, rebuilt here from their definitions


def reference_algebra(name: str) -> tuple[int, dict]:
    """(size, {op name: (arity, flat table)}) for N:j:m, I:m and If:m.

    N:j:m is the j-th smallest of m arguments on {0, 1}; I:m and If:m add to
    N:2:m the implication x & ~y, respectively x & (~y | z).  Tables are
    row-major with the first argument most significant.
    """
    kind, *nums = name.split(":")
    j, m = (int(nums[0]), int(nums[1])) if kind == "N" else (2, int(nums[0]))
    ones = np.array([bin(i).count("1") for i in range(2**m)])
    ops = {"u": (m, (ones > m - j).astype(np.int64))}
    if kind == "I":
        ops["i"] = (2, np.array([0, 0, 1, 0]))
    elif kind == "If":
        ops["f"] = (3, np.array([0, 0, 0, 0, 1, 1, 0, 1]))
    elif kind != "N":
        raise ValueError(f"no reference table for {name!r}")
    return 2, ops


def eval_term(term, ops: dict, size: int, env: list) -> np.ndarray:
    """Value of a serialised term with env[i] the value array of x<i>."""
    if isinstance(term, str):
        return env[int(term[1:])]
    arity, table = ops[term[0]]
    if len(term) - 1 != arity:
        raise ValueError(f"{term[0]} applied to {len(term) - 1} arguments")
    flat = np.zeros(len(env[0]), dtype=np.int64)
    for arg in term[1:]:
        flat = flat * size + eval_term(arg, ops, size, env)
    return table[flat]


def _assignments(size: int, nvars: int) -> list:
    grid = np.array(list(itertools.product(range(size), repeat=nvars)), dtype=np.int64)
    return [grid[:, i] for i in range(nvars)]


def nu_equations(arity: int) -> list:
    """u(x,..,y,..,x) = x with the one y in each position, as argument vars."""
    return [[1 if i == p else 0 for i in range(arity)] for p in range(arity)]


def is_nu_term(term, arity: int, fixtures: str) -> bool:
    """Is the term a near-unanimity term on every generating algebra?"""
    for name in fixtures.split(","):
        size, ops = reference_algebra(name)
        env = _assignments(size, 2)
        for args in nu_equations(arity):
            if not np.array_equal(eval_term(term, ops, size, [env[v] for v in args]), env[0]):
                return False
    return True


# chain schemes: (nvars, first-term equation, last-term equation, equation
# every term meets or None, link arguments after an even step, after an odd
# step); an equation is (argument vars, result var); a link compares
# t_i(left args) with t_{i+1}(right args)
_CHAINS = {
    "jonsson": (3, ([0, 1, 2], 0), ([0, 1, 2], 2), ([0, 1, 0], 0),
                ([0, 0, 2], [0, 0, 2]), ([0, 2, 2], [0, 2, 2])),
    "alvin": (3, ([0, 1, 2], 0), ([0, 1, 2], 2), ([0, 1, 0], 0),
              ([0, 2, 2], [0, 2, 2]), ([0, 0, 2], [0, 0, 2])),
    "day": (4, ([0, 1, 2, 3], 0), ([0, 1, 2, 3], 3), ([0, 1, 1, 0], 0),
            ([0, 0, 3, 3], [0, 0, 3, 3]), ([0, 1, 1, 3], [0, 1, 1, 3])),
    "hagemann-mitschke": (3, ([0, 1, 2], 0), ([0, 1, 2], 2), None,
                          ([0, 0, 2], [0, 2, 2]), ([0, 0, 2], [0, 2, 2])),
    "directed-jonsson": (3, ([0, 0, 2], 0), ([0, 2, 2], 2), ([0, 1, 0], 0),
                         ([0, 2, 2], [0, 0, 2]), ([0, 2, 2], [0, 0, 2])),
}


def check_chain(terms, scheme: str, fixtures: str) -> bool:
    """Does the chain of serialised terms satisfy the scheme's equations on
    every generating algebra?"""
    nvars, first, last, every, even, odd = _CHAINS[scheme]
    for name in fixtures.split(","):
        size, ops = reference_algebra(name)
        env = _assignments(size, nvars)

        def ev(t, args):
            return eval_term(t, ops, size, [env[v] for v in args])

        equations = [(terms[0], first), (terms[-1], last)]
        equations += [(t, every) for t in terms] if every else []
        for t, (args, res) in equations:
            if not np.array_equal(ev(t, args), env[res]):
                return False
        for i in range(len(terms) - 1):
            left, right = even if i % 2 == 0 else odd
            if not np.array_equal(ev(terms[i], left), ev(terms[i + 1], right)):
                return False
    return True


# ---------------------------------------------------------------------------
# known answers of the paper for the chain-reduct families N:2..ell:m


def known_level(scheme: str, m: int):
    """Level over the j-of-m chain reducts (None: no chain exists)."""
    return {
        "jonsson": 2 * m - 4,
        "alvin": 2 * m - 3,
        "day": 2 * m - 3,
        "directed-jonsson": m - 2,
        "hagemann-mitschke": None,
    }[scheme]


#: the implication expansions I:m and If:m are 3-distributive and
#: 3-permutable but neither 2-distributive nor permutable
IMPLICATION_LEVELS = {"jonsson": 3, "hagemann-mitschke": 3}
