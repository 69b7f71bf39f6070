"""Chain-style Maltsev-condition levels and absorption-style term searches.

Chain levels run a breadth-first search over the free algebra on 3 or 4
generators: an element takes part when its value vector returns the right
generator on every coordinate matching the scheme's node pattern, and two
elements are linked when their vectors agree on the coordinates matching the
parity's identification pattern.  Witness chains re-verify against the
scheme's equation system by exhaustive evaluation.

Absorption searches generate the subalgebra of the product over (generating
algebra, constraint row, valuation) coordinates from the argument columns; a
satisfying term exists iff some generated vector meets the required outputs
and equality links.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .algebras import AlgebraError, CapExceeded, FiniteAlgebra
from .freealg import FreeAlgebra, Subpower, build_free_algebra, generate_subpower
from .terms import (
    App,
    Term,
    Var,
    alvin_chain_equations,
    day_chain_equations,
    directed_jonsson_chain_equations,
    directed_minority_chain_equations,
    dissent_unanimity_equations,
    half_nu_equations,
    hagemann_mitschke_chain_equations,
    jonsson_chain_equations,
    lone_dissent_equations,
    maltsev_equations,
    nu_equations,
    subst,
    term_to_obj,
    verify_equations,
)


# ---------------------------------------------------------------------------
# chain schemes


@dataclass(frozen=True)
class ChainScheme:
    """How a chain of terms is constrained.

    kind 'parity': elements t_0..t_n between two projections, edges
    alternating between two identification patterns; kind 'linked': same but
    the link equation reshuffles arguments, so edges compare two different
    patterns; kind 'directed': endpoints are value conditions instead of
    projections and every link uses the same (left, right) pattern pair.
    Patterns are tuples of variable classes, e.g. (0, 0, 1) marks the
    coordinates whose generator assignment has shape (a, a, c).
    """

    name: str
    gcount: int
    kind: str
    node: Optional[tuple[tuple[int, ...], int]]
    start_var: int = 0
    end_var: int = 0
    even: Optional[tuple[int, ...]] = None
    odd: Optional[tuple[int, ...]] = None
    left: Optional[tuple[int, ...]] = None
    right: Optional[tuple[int, ...]] = None
    start_cond: Optional[tuple[tuple[int, ...], int]] = None
    end_cond: Optional[tuple[tuple[int, ...], int]] = None


CHAIN_SCHEMES = {
    "jonsson": ChainScheme(
        "jonsson", 3, "parity", node=((0, 1, 0), 0),
        start_var=0, end_var=2, even=(0, 0, 1), odd=(0, 1, 1),
    ),
    "alvin": ChainScheme(
        "alvin", 3, "parity", node=((0, 1, 0), 0),
        start_var=0, end_var=2, even=(0, 1, 1), odd=(0, 0, 1),
    ),
    "day": ChainScheme(
        "day", 4, "parity", node=((0, 1, 1, 0), 0),
        start_var=0, end_var=3, even=(0, 0, 1, 1), odd=(0, 1, 1, 2),
    ),
    "hagemann-mitschke": ChainScheme(
        "hagemann-mitschke", 3, "linked", node=None,
        start_var=0, end_var=2, left=(0, 0, 1), right=(0, 1, 1),
    ),
    "directed-jonsson": ChainScheme(
        "directed-jonsson", 3, "directed", node=((0, 1, 0), 0),
        left=(0, 1, 1), right=(0, 0, 1),
        start_cond=((0, 0, 1), 0), end_cond=((0, 1, 1), 1),
    ),
    "directed-minority": ChainScheme(
        "directed-minority", 3, "directed", node=((0, 1, 0), 1),
        left=(0, 1, 1), right=(0, 0, 1),
        start_cond=((0, 0, 1), 1), end_cond=((0, 1, 1), 0),
    ),
}

_CHAIN_EQUATIONS: dict[str, tuple[Callable, int]] = {
    "jonsson": (jonsson_chain_equations, 3),
    "alvin": (alvin_chain_equations, 3),
    "day": (day_chain_equations, 4),
    "hagemann-mitschke": (hagemann_mitschke_chain_equations, 3),
    "directed-jonsson": (directed_jonsson_chain_equations, 3),
    "directed-minority": (directed_minority_chain_equations, 2),
}


def _pattern_coords(free: FreeAlgebra, pattern: tuple[int, ...]):
    """Coordinates whose assignment factors through the pattern, sorted by
    (algebra, class-value tuple) so fingerprints of different patterns with
    the same class count align positionally."""
    nclasses = max(pattern) + 1
    keyed = []
    for k, (ai, asg) in enumerate(free.assignments):
        values = [None] * nclasses
        ok = True
        for pos, cls in enumerate(pattern):
            if values[cls] is None:
                values[cls] = asg[pos]
            elif values[cls] != asg[pos]:
                ok = False
                break
        if ok:
            keyed.append(((ai, tuple(values)), k))
    keyed.sort()
    return [k for _, k in keyed], [key for key, _ in keyed]


def _node_mask(free: FreeAlgebra, node) -> np.ndarray:
    pattern, result = node
    coords, keys = _pattern_coords(free, pattern)
    want = np.asarray([key[1][result] for key in keys], dtype=np.int16)
    return (free.vectors[:, coords] == want).all(axis=1)


def _fingerprint_groups(free: FreeAlgebra, *patterns) -> list[np.ndarray]:
    """One group id per element for each pattern, aligned across the patterns:
    groups[i][e] == groups[j][e'] iff e restricted to pattern i equals e'
    restricted to pattern j."""
    parts = [free.vectors[:, _pattern_coords(free, p)[0]] for p in patterns]
    _, groups = np.unique(np.concatenate(parts), axis=0, return_inverse=True)
    return np.split(groups.ravel(), len(patterns))


@dataclass
class LevelCertificate:
    scheme: str
    generators: list[str]
    found: bool
    level: Optional[int]
    chain: Optional[list[int]]
    terms: Optional[list[Term]]
    verified: bool
    stats: dict = field(default_factory=dict)

    def to_obj(self, op_names: Sequence[str]) -> dict:
        return {
            "scheme": self.scheme,
            "generators": self.generators,
            "found": self.found,
            "level": self.level,
            "terms": [term_to_obj(t, op_names) for t in self.terms] if self.terms else None,
            "verified": self.verified,
            "stats": self.stats,
        }


def chain_level(
    gens: Sequence[FiniteAlgebra],
    scheme_name: str,
    *,
    max_level: int = 64,
    engine: str = "auto",
    free: Optional[FreeAlgebra] = None,
) -> LevelCertificate:
    """Minimal chain length for the scheme over the generated variety.

    The search space is finite, so a saturated search without a hit is a
    definitive refusal at every length, reported with found=False.
    """
    scheme = CHAIN_SCHEMES.get(scheme_name)
    if scheme is None:
        raise AlgebraError(f"unknown chain scheme {scheme_name!r}")
    gens = list(gens)
    if free is None:
        free = build_free_algebra(gens, scheme.gcount, engine=engine)
    labels = [a.label for a in gens]
    if scheme.kind == "parity":
        chain = _parity_chain(free, scheme, max_level)
    elif scheme.kind == "linked":
        chain = _linked_chain(free, scheme, max_level)
    else:
        chain = _directed_chain(free, scheme, max_level)
    if chain is None:
        return LevelCertificate(scheme_name, labels, False, None, None, None, True,
                                {"free_size": free.size})
    terms = [free.sub.term_for(i) for i in chain]
    builder, nvars = _CHAIN_EQUATIONS[scheme_name]
    ok, violation = verify_equations(builder(terms), gens, nvars)
    if not ok:
        raise AlgebraError(f"chain witness failed re-verification at {violation}")
    level = len(chain) - 1 if scheme.kind in ("parity", "linked") else len(chain)
    return LevelCertificate(scheme_name, labels, True, level, chain, terms, True,
                            {"free_size": free.size})


def _parity_chain(free, scheme, max_level):
    eligible = _node_mask(free, scheme.node) if scheme.node else np.ones(free.size, bool)
    gen_idx = free.generator_indices()
    start, end = gen_idx[scheme.start_var], gen_idx[scheme.end_var]
    if not (eligible[start] and eligible[end]):
        raise AlgebraError("projection endpoints fail the node constraint")
    if start == end:
        return [start]
    groups = [*_fingerprint_groups(free, scheme.even), *_fingerprint_groups(free, scheme.odd)]
    edges = lambda depth: (groups[depth % 2], groups[depth % 2])
    return _bfs_levels(eligible, [start], lambda e: e == end, edges, max_level,
                       parity_matters=True)


def _linked_chain(free, scheme, max_level):
    eligible = np.ones(free.size, bool)
    gen_idx = free.generator_indices()
    start, end = gen_idx[scheme.start_var], gen_idx[scheme.end_var]
    if start == end:
        return [start]
    pair = _fingerprint_groups(free, scheme.left, scheme.right)
    return _bfs_levels(eligible, [start], lambda e: e == end, lambda depth: pair,
                       max_level, parity_matters=False)


def _directed_chain(free, scheme, max_level):
    eligible = _node_mask(free, scheme.node) if scheme.node else np.ones(free.size, bool)
    starts = [int(s) for s in np.flatnonzero(eligible & _node_mask(free, scheme.start_cond))]
    accept = eligible & _node_mask(free, scheme.end_cond)
    if not starts:
        return None
    hits = [s for s in starts if accept[s]]
    if hits:
        return [min(hits)]
    pair = _fingerprint_groups(free, scheme.left, scheme.right)
    return _bfs_levels(eligible, starts, lambda e: bool(accept[e]), lambda depth: pair,
                       max_level, parity_matters=False)


def _bfs_levels(eligible, starts, is_goal, edges, max_level, parity_matters):
    """Layered search; returns the lex-least minimal chain of element indices.

    edges(depth) yields (left, right) group arrays: element e at `depth` is
    linked to e' at depth+1 iff left[e] == right[e'].  A minimal chain never
    revisits an element at the same depth parity, so visited flags are kept
    per parity when the edge relations alternate.
    """
    nparities = 2 if parity_matters else 1
    seen = [set() for _ in range(nparities)]
    level_sets = [sorted(set(starts))]
    seen[0].update(level_sets[0])
    goal_level = None
    elig = [int(e) for e in np.flatnonzero(eligible)]
    while goal_level is None:
        depth = len(level_sets) - 1
        if depth >= max_level:
            raise CapExceeded(f"chain search exceeded {max_level} levels")
        current = level_sets[-1]
        if not current:
            return None
        left, right = edges(depth)
        cur_groups = set(int(left[e]) for e in current)
        par = (depth + 1) % nparities
        nxt = [e for e in elig if int(right[e]) in cur_groups and e not in seen[par]]
        seen[par].update(nxt)
        level_sets.append(sorted(nxt))
        if any(is_goal(e) for e in nxt):
            goal_level = depth + 1
    # restrict each layer to elements on some shortest goal path, then take
    # the forward greedy walk, which is the lex-least chain
    chain_sets = [set(e for e in level_sets[goal_level] if is_goal(e))]
    for depth in range(goal_level, 0, -1):
        left, right = edges(depth - 1)
        want = set(int(right[e]) for e in chain_sets[0])
        chain_sets.insert(0, {e for e in level_sets[depth - 1] if int(left[e]) in want})
    path = [min(chain_sets[0])]
    for depth in range(goal_level):
        left, right = edges(depth)
        g = int(left[path[-1]])
        path.append(min(e for e in chain_sets[depth + 1] if int(right[e]) == g))
    return path


# ---------------------------------------------------------------------------
# absorption-style searches


@dataclass(frozen=True)
class SchemeRow:
    pattern: tuple[int, ...]          # variable index per argument position
    required: Optional[int] = None    # variable whose value the output must take
    link: Optional[int] = None        # equality group joining unspecified rows


@dataclass(frozen=True)
class AbsorptionScheme:
    name: str
    arity: int
    nvars: int
    rows: tuple[SchemeRow, ...]
    params: dict = field(default_factory=dict)


def nu_scheme(arity: int) -> AbsorptionScheme:
    """One dissenting argument in any position, output the repeated value."""
    if arity < 3:
        raise AlgebraError("near-unanimity needs arity >= 3")
    rows = []
    for p in range(arity):
        pattern = [0] * arity
        pattern[p] = 1
        rows.append(SchemeRow(tuple(pattern), required=0))
    return AbsorptionScheme("nu", arity, 2, tuple(rows), {"arity": arity})


def lone_dissent_scheme(arity: int) -> AbsorptionScheme:
    """One dissenting argument in any position, output the dissenter."""
    if arity < 3:
        raise AlgebraError("lone-dissent needs arity >= 3")
    rows = []
    for p in range(arity):
        pattern = [0] * arity
        pattern[p] = 1
        rows.append(SchemeRow(tuple(pattern), required=1))
    return AbsorptionScheme("lone-dissent", arity, 2, tuple(rows), {"arity": arity})


def nu_half_scheme(m: int) -> AbsorptionScheme:
    """The doubled-lead near-unanimity scheme of arity m + 2.

    Requirements: the doubled leading pair may dissent together; a single
    dissenter in the tail is absorbed; and the two displayed mixed rows must
    agree with each other (an equality link, no forced output).
    """
    if m < 3:
        raise AlgebraError("needs m >= 3")
    arity = m + 2
    rows = [SchemeRow((1, 1) + (0,) * m, required=0)]
    for p in range(2, arity):
        pattern = [0] * arity
        pattern[p] = 1
        rows.append(SchemeRow(tuple(pattern), required=0))
    rows.append(SchemeRow((0, 0, 0) + (1,) * (m - 1), link=0))
    rows.append(SchemeRow((0,) + (1,) * (m + 1), link=0))
    return AbsorptionScheme("nu-half", arity, 2, tuple(rows), {"m": m})


def dissent_unanimity_scheme(m: int) -> AbsorptionScheme:
    """2m-ary: one dissenter among the first half, the matching position of
    the second half replaced, output the first half's dissenting value."""
    if m < 3:
        raise AlgebraError("needs m >= 3")
    rows = []
    for i in range(m):
        first = [0] * m
        first[i] = 1
        second = [1] * m
        second[i] = 2
        rows.append(SchemeRow(tuple(first + second), required=1))
    return AbsorptionScheme("dissent-unanimity", 2 * m, 3, tuple(rows), {"m": m})


def maltsev_scheme() -> AbsorptionScheme:
    return AbsorptionScheme(
        "maltsev", 3, 2,
        (SchemeRow((0, 1, 1), required=0), SchemeRow((0, 0, 1), required=1)),
    )


ABSORPTION_SCHEMES = {
    "nu": nu_scheme,
    "lone-dissent": lone_dissent_scheme,
    "nu-half": nu_half_scheme,
    "dissent-unanimity": dissent_unanimity_scheme,
    "maltsev": lambda *_: maltsev_scheme(),
}


def _scheme_equations(scheme: AbsorptionScheme, term: Term):
    if scheme.name == "nu":
        return nu_equations(term, scheme.arity), 2
    if scheme.name == "lone-dissent":
        return lone_dissent_equations(term, scheme.arity), 2
    if scheme.name == "nu-half":
        return half_nu_equations(term, scheme.params["m"]), 2
    if scheme.name == "dissent-unanimity":
        return dissent_unanimity_equations(term, scheme.params["m"]), 3
    if scheme.name == "maltsev":
        return maltsev_equations(term), 2
    raise AlgebraError(f"unknown scheme {scheme.name!r}")


@dataclass
class SearchCertificate:
    scheme: str
    params: dict
    generators: list[str]
    found: bool
    term: Optional[Term]
    verified: bool
    complete: bool                   # search space fully decided
    stats: dict = field(default_factory=dict)

    def to_obj(self, op_names: Sequence[str]) -> dict:
        return {
            "scheme": self.scheme,
            "params": self.params,
            "generators": self.generators,
            "found": self.found,
            "term": term_to_obj(self.term, op_names) if self.term is not None else None,
            "verified": self.verified,
            "complete": self.complete,
        }


def absorption_search(
    gens: Sequence[FiniteAlgebra],
    scheme: AbsorptionScheme,
    *,
    element_cap: int = 1 << 20,
    work_cap: int = 4_000_000,
    engine: str = "auto",
) -> SearchCertificate:
    """Decide whether a term satisfying the scheme exists in the variety.

    Coordinates range over (generating algebra, constraint row, valuation of
    the scheme variables); the subalgebra generated by the argument columns
    is the set of realisable output vectors, so the term exists iff some
    generated vector meets every required output and equality link.
    """
    gens = list(gens)
    coords = []
    for ai, alg in enumerate(gens):
        for ri, row in enumerate(scheme.rows):
            for val in itertools.product(range(alg.size), repeat=scheme.nvars):
                coords.append((ai, ri, val))
    coord_algs = [c[0] for c in coords]
    gen_rows = np.asarray(
        [
            [val[scheme.rows[ri].pattern[p]] for (ai, ri, val) in coords]
            for p in range(scheme.arity)
        ],
        dtype=np.int16,
    )
    labels = [a.label for a in gens]

    def constraints(sub: Subpower):
        required: dict[int, int] = {}
        consistent = True
        for k, (ai, ri, val) in enumerate(coords):
            r = scheme.rows[ri].required
            if r is None:
                continue
            cls = sub.coord_class(k)
            if required.setdefault(cls, val[r]) != val[r]:
                consistent = False  # contradictory requirements
        link_groups: dict[tuple, list[int]] = {}
        for k, (ai, ri, val) in enumerate(coords):
            g = scheme.rows[ri].link
            if g is not None:
                link_groups.setdefault((ai, g, val), []).append(sub.coord_class(k))
        return required, link_groups, consistent

    # a shallow pass first: witnesses of small depth (often a basic
    # operation) appear within a tiny work budget
    sub = None
    if engine == "auto":
        quick = generate_subpower(
            gens, coord_algs, gen_rows,
            element_cap=element_cap, work_cap=min(work_cap, 300_000),
            engine="partial",
        )
        required, link_groups, ok = constraints(quick)
        if not ok:
            return SearchCertificate(scheme.name, scheme.params, labels, False, None,
                                     False, True, {"reason": "contradictory requirements"})
        vec = _scan_vectors(quick, required, link_groups)
        if vec is not None:
            term = quick.term_for_vector(vec)
            return _verified_hit(scheme, gens, labels, term, quick)
        if quick.engine == "closure":  # the shallow pass already saturated
            return SearchCertificate(
                scheme.name, scheme.params, labels, False, None, False, True,
                {"engine": "closure", "size": quick.size},
            )

    sub = generate_subpower(
        gens, coord_algs, gen_rows,
        element_cap=element_cap, work_cap=work_cap, engine=engine,
    )
    required, link_groups, ok = constraints(sub)
    if not ok:
        return SearchCertificate(scheme.name, scheme.params, labels, False, None,
                                 False, True, {"reason": "contradictory requirements"})
    if sub.engine in ("closure", "local"):
        vec = _scan_vectors(sub, required, link_groups)
        if vec is None:
            return SearchCertificate(
                scheme.name, scheme.params, labels, False, None, False, True,
                {"engine": sub.engine, "size": sub.size},
            )
        term = sub.term_for_vector(vec)
    else:
        vec = _scan_membership(sub, required, link_groups, gens, coords)
        if vec is None:
            return SearchCertificate(
                scheme.name, scheme.params, labels, False, None, False, True,
                {"engine": sub.engine},
            )
        term = sub.term_for_vector(vec)
    return _verified_hit(scheme, gens, labels, term, sub)


def _verified_hit(scheme, gens, labels, term, sub) -> "SearchCertificate":
    equations, nvars = _scheme_equations(scheme, term)
    verified, violation = verify_equations(equations, gens, nvars)
    if not verified:
        raise AlgebraError(f"found term failed re-verification at {violation}")
    return SearchCertificate(
        scheme.name, scheme.params, labels, True, term, True, True,
        {"engine": sub.engine, "size": sub.size},
    )


def _scan_vectors(sub: Subpower, required, link_groups):
    mask = np.ones(sub.size, dtype=bool)
    for cls, want in required.items():
        mask &= sub.vectors[:, cls] == want
    for classes in link_groups.values():
        for c in classes[1:]:
            mask &= sub.vectors[:, c] == sub.vectors[:, classes[0]]
    hits = np.flatnonzero(mask)
    return sub.vectors[int(hits[0])] if len(hits) else None


def _scan_membership(sub: Subpower, required, link_groups, gens, coords):
    """Pin requirements, enumerate link completions, query local membership."""
    free_groups = sorted(link_groups.items())
    sizes = [gens[ai].size for (ai, _, _) in (key for key, _ in free_groups)]
    base = np.full(sub.ncoords, -1, dtype=np.int16)
    for cls, want in required.items():
        base[cls] = want
    leftover = [k for k in range(sub.ncoords) if base[k] < 0]
    group_classes = [classes for _, classes in free_groups]
    covered = set(c for classes in group_classes for c in classes)
    if any(k not in covered for k in leftover):
        raise CapExceeded("membership search needs every coordinate pinned or linked")
    if len(free_groups) > 20:
        raise CapExceeded("too many link completions to enumerate")
    candidates = []
    for combo in itertools.product(*(range(s) for s in sizes)):
        vec = base.copy()
        for value, classes in zip(combo, group_classes):
            consistent = True
            for c in classes:
                if vec[c] >= 0 and vec[c] != value:
                    consistent = False
                    break
                vec[c] = value
            if not consistent:
                break
        else:
            if (vec >= 0).all():
                candidates.append(vec)
    if not candidates:
        return None
    mask = sub.contains_bulk(np.stack(candidates))
    hits = np.flatnonzero(mask)
    return candidates[int(hits[0])] if len(hits) else None


# ---------------------------------------------------------------------------
# lone-dissent toolkit


def _op_term(alg: FiniteAlgebra, op_index: int) -> Term:
    return App(op_index, tuple(Var(i) for i in range(alg.op(op_index).arity)))


def _require_lone_dissent(alg: FiniteAlgebra, term: Term, arity: int, what: str):
    ok, violation = verify_equations(lone_dissent_equations(term, arity), [alg], 2)
    if not ok:
        raise AlgebraError(
            f"{what} is not a lone-dissent term: equation {violation[1]} fails "
            f"at assignment {violation[2]}"
        )


def compose_dissent(d_term: Term, d_arity: int, e_term: Term, e_arity: int) -> Term:
    """d(e(x_0..), x_..): arities m+1 and n+1 give m+n+1."""
    inner = subst(e_term, tuple(Var(i) for i in range(e_arity)))
    outer_args = (inner,) + tuple(Var(e_arity + i) for i in range(d_arity - 1))
    return subst(d_term, outer_args)


def dissent_self_composition(alg: FiniteAlgebra, op_index: int, k: int):
    """k-fold self-composition: from an (m+1)-ary lone-dissent operation to a
    verified (k*m+1)-ary lone-dissent term."""
    if k < 1:
        raise AlgebraError("k must be >= 1")
    arity = alg.op(op_index).arity
    m = arity - 1
    base = _op_term(alg, op_index)
    _require_lone_dissent(alg, base, arity, f"operation {alg.op(op_index).name}")
    term, term_arity = base, arity
    for _ in range(k - 1):
        term = compose_dissent(base, arity, term, term_arity)
        term_arity = term_arity + m
    ok, violation = verify_equations(lone_dissent_equations(term, term_arity), [alg], 2)
    if not ok:
        raise AlgebraError(f"self-composition failed verification at {violation}")
    return term, term_arity


def dissent_mixed_composition(alg: FiniteAlgebra, d_index: int, e_index: int):
    """From (m+1)-ary and (n+1)-ary lone-dissent operations to m+n+1."""
    d_arity = alg.op(d_index).arity
    e_arity = alg.op(e_index).arity
    d_term, e_term = _op_term(alg, d_index), _op_term(alg, e_index)
    _require_lone_dissent(alg, d_term, d_arity, "first operation")
    _require_lone_dissent(alg, e_term, e_arity, "second operation")
    term = compose_dissent(d_term, d_arity, e_term, e_arity)
    arity = d_arity + e_arity - 2 + 1
    ok, violation = verify_equations(lone_dissent_equations(term, arity), [alg], 2)
    if not ok:
        raise AlgebraError(f"mixed composition failed verification at {violation}")
    return term, arity


def maltsev_from_dissent(alg: FiniteAlgebra, op_index: int) -> Term:
    """t(x,y,z) = d(x, y, ..., y, z) is a Maltsev term."""
    arity = alg.op(op_index).arity
    base = _op_term(alg, op_index)
    _require_lone_dissent(alg, base, arity, f"operation {alg.op(op_index).name}")
    term = subst(base, (Var(0),) + (Var(1),) * (arity - 2) + (Var(2),))
    ok, violation = verify_equations(maltsev_equations(term), [alg], 2)
    if not ok:
        raise AlgebraError(f"derived term failed the Maltsev equations at {violation}")
    return term


def nu_from_consecutive_dissent(
    alg: FiniteAlgebra, d_term: Term, d_arity: int, e_term: Term, e_arity: int
) -> Term:
    """From lone-dissent terms of consecutive arities p and p+1, the composite
    feeding every p-subset (in descending omission order) into the larger one
    is a p+1-ary near-unanimity term."""
    if e_arity != d_arity + 1:
        raise AlgebraError("arities must be consecutive")
    _require_lone_dissent(alg, d_term, d_arity, "smaller term")
    _require_lone_dissent(alg, e_term, e_arity, "larger term")
    inners = []
    for omit in range(e_arity - 1, -1, -1):
        vars_ = tuple(Var(i) for i in range(e_arity) if i != omit)
        inners.append(subst(d_term, vars_))
    term = subst(e_term, tuple(inners))
    ok, violation = verify_equations(nu_equations(term, e_arity), [alg], 2)
    if not ok:
        raise AlgebraError(f"composite failed the near-unanimity equations at {violation}")
    return term


def coprime_dissent_pipeline(alg: FiniteAlgebra, d_index: int, e_index: int) -> dict:
    """Arithmeticity pipeline from lone-dissent operations of coprime steps.

    Self-compose both operations until their arities become consecutive
    (possible since k*m = h*n +- 1 is solvable), derive the near-unanimity
    composite and the Maltsev term, then search the 3-ary near-unanimity
    term that the two of them force.
    """
    m = alg.op(d_index).arity - 1
    n = alg.op(e_index).arity - 1
    best = None
    for k in range(1, 64):
        for h in range(1, 64):
            if abs(k * m - h * n) == 1:
                cand = (max(k * m, h * n), k, h)
                if best is None or cand < best:
                    best = cand
        if best and best[0] <= k * m:
            break
    if best is None:
        raise AlgebraError(f"steps {m} and {n} admit no consecutive multiples; not coprime?")
    _, k, h = best
    d_big, d_big_arity = dissent_self_composition(alg, d_index, k)
    e_big, e_big_arity = dissent_self_composition(alg, e_index, h)
    if d_big_arity > e_big_arity:
        d_big, e_big = e_big, d_big
        d_big_arity, e_big_arity = e_big_arity, d_big_arity
    nu_term = nu_from_consecutive_dissent(alg, d_big, d_big_arity, e_big, e_big_arity)
    maltsev_term = maltsev_from_dissent(alg, d_index)
    majority = absorption_search([alg], nu_scheme(3))
    return {
        "k": k,
        "h": h,
        "nu_arity": e_big_arity,
        "nu_term": nu_term,
        "maltsev_term": maltsev_term,
        "majority": majority,
    }
