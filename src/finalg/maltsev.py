"""Maltsev conditions as scheme records: chain levels and absorption-style searches.

Each condition is written down once, as a record, and everything else reads
it: the search for terms, the equations a found term is re-verified against
(`equations`), and the recheck of a stored certificate.

A `ChainScheme` is searched over the free algebra on `arity` generators.
An element takes part when its value vector satisfies the `every` equation;
starts satisfy `first`, ends `last`; and an element at depth i links to one
at depth i + 1 when their vectors agree on the coordinates of the parity's
link patterns.  The chain is the lex-least shortest path through those
links, found by the path search of `identities`.

An `AbsorptionScheme` is searched in the subalgebra of the product over
(generating algebra, constraint row, valuation) coordinates generated by the
argument columns; a satisfying term exists iff some generated vector meets
the required outputs and equality links.  The closure that generates it
stops at the first vector that meets the scheme, so a found term is the
provenance of the earliest such vector; only an absence needs the whole
subalgebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .algebras import AlgebraError, CapExceeded, FiniteAlgebra
from .freealg import FreeAlgebra, build_free_algebra, generate_subpower, members
from .identities import least_path, shortest_length
from .terms import App, Term, Var, subst, term_to_obj, verify_equations

Args = tuple[int, ...]            # variable per argument position: x=0, y=1, z=2, u=3
Value = tuple[Args, int]          # t(args) = result variable
Link = tuple[Args, Args]          # t_i(left) = t_{i+1}(right)


def _at(term: Term, args: Args) -> Term:
    return subst(term, tuple(Var(v) for v in args))


def _verify(system, algebras) -> tuple:
    """verify_equations on an (equations, nvars) pair."""
    equations, nvars = system
    return verify_equations(equations, algebras, nvars)


# ---------------------------------------------------------------------------
# chain schemes


@dataclass(frozen=True)
class ChainScheme:
    """A chain condition on terms t_i, ..., t_n, all of one arity.

    arity: the terms' arity, which is the free algebra's generator count.
    first, last: (argument variables, result variable) equations of the first
    and the last term.  every: an equation each term satisfies, or None.
    links: (even, odd) pairs (left, right), t_i(left) = t_{i+1}(right) with
    i counted from the chain's first term.  first_index: 0 for t_0..t_n, 1
    for the directed chains t_1..t_n; the level is n.  Variables are the
    equations' own, x=0, y=1, z=2, u=3.
    """

    arity: int
    first: Value
    last: Value
    every: Optional[Value]
    links: tuple[Link, Link]
    first_index: int

    def equations(self, terms: Sequence[Term]):
        """(equations, nvars) of the chain terms[0], ..., terms[-1]."""
        values = [(self.first, terms[:1]), (self.last, terms[-1:])]
        if self.every is not None:
            values.append((self.every, terms))
        eqs = [(_at(t, args), Var(result)) for (args, result), ts in values for t in ts]
        for i in range(len(terms) - 1):
            left, right = self.links[i % 2]
            eqs.append((_at(terms[i], left), _at(terms[i + 1], right)))
        patterns = [args for (args, _), _ in values] + [p for link in self.links for p in link]
        return eqs, 1 + max(max(p) for p in patterns)


CHAIN_SCHEMES = {
    "jonsson": ChainScheme(
        3, ((0, 1, 2), 0), ((0, 1, 2), 2), ((0, 1, 0), 0),
        (((0, 0, 2), (0, 0, 2)), ((0, 2, 2), (0, 2, 2))), 0,
    ),
    "alvin": ChainScheme(
        3, ((0, 1, 2), 0), ((0, 1, 2), 2), ((0, 1, 0), 0),
        (((0, 2, 2), (0, 2, 2)), ((0, 0, 2), (0, 0, 2))), 0,
    ),
    "day": ChainScheme(
        4, ((0, 1, 2, 3), 0), ((0, 1, 2, 3), 3), ((0, 1, 1, 0), 0),
        (((0, 0, 3, 3), (0, 0, 3, 3)), ((0, 1, 1, 3), (0, 1, 1, 3))), 0,
    ),
    "hagemann-mitschke": ChainScheme(
        3, ((0, 1, 2), 0), ((0, 1, 2), 2), None,
        (((0, 0, 2), (0, 2, 2)), ((0, 0, 2), (0, 2, 2))), 0,
    ),
    "directed-jonsson": ChainScheme(
        3, ((0, 0, 2), 0), ((0, 2, 2), 2), ((0, 1, 0), 0),
        (((0, 2, 2), (0, 0, 2)), ((0, 2, 2), (0, 0, 2))), 1,
    ),
    "directed-minority": ChainScheme(
        3, ((0, 0, 1), 1), ((0, 1, 1), 0), ((0, 1, 0), 1),
        (((0, 1, 1), (0, 0, 1)), ((0, 1, 1), (0, 0, 1))), 1,
    ),
}


def _pattern_coords(free: FreeAlgebra, args: Args) -> list[int]:
    """Coordinates whose assignment factors through the argument variables,
    sorted by (algebra, values of the variables used), so the coordinates of
    two patterns on the same variables, (0, 0, 2) and (0, 2, 2), align."""
    used = sorted(set(args))
    keyed = []
    for k, (ai, asg) in enumerate(free.assignments):
        values: dict[int, int] = {}
        if all(values.setdefault(v, a) == a for v, a in zip(args, asg, strict=True)):
            keyed.append(((ai, tuple(values[v] for v in used)), k))
    keyed.sort()
    return [k for _, k in keyed]


def _value_mask(free: FreeAlgebra, value: Value) -> np.ndarray:
    """Elements t with t(args) = result."""
    args, result = value
    coords = _pattern_coords(free, args)
    pos = args.index(result)
    want = np.asarray([free.assignments[k][1][pos] for k in coords], dtype=np.int16)
    return (free.vectors[:, coords] == want).all(axis=1)


def _link_groups(free: FreeAlgebra, link: Link) -> tuple[np.ndarray, np.ndarray, int]:
    """(left, right) group id per element, and the group count: e links to
    e' iff left[e] == right[e'], that is, e(left) = e'(right)."""
    patterns = list(dict.fromkeys(link))  # one pattern when both sides read alike
    parts = [free.vectors[:, _pattern_coords(free, p)] for p in patterns]
    values, groups = np.unique(np.concatenate(parts), axis=0, return_inverse=True)
    groups = np.split(groups.ravel(), len(patterns))
    return groups[0], groups[-1], len(values)


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
    free: Optional[FreeAlgebra] = None,
) -> LevelCertificate:
    """Minimal chain length for the scheme over the generated variety.

    The search space is finite, so a saturated search without a hit is a
    definitive refusal at every length, reported with found=False.
    """
    scheme = CHAIN_SCHEMES.get(scheme_name)
    if scheme is None:
        raise AlgebraError(f"unknown chain scheme {scheme_name!r}")
    if max_level < 0:
        raise AlgebraError(f"max_level must be at least 0, not {max_level}")
    gens = list(gens)
    if free is None:
        free = build_free_algebra(gens, scheme.arity)
    labels = [a.label for a in gens]
    chain = _chain(free, scheme, max_level)
    if chain is None:
        return LevelCertificate(scheme_name, labels, False, None, None, None, True,
                                {"free_size": free.size})
    terms = [free.sub.term_for_vector(free.vectors[i]) for i in chain]
    ok, violation = _verify(scheme.equations(terms), gens)
    if not ok:
        raise AlgebraError(f"chain witness failed re-verification at {violation}")
    return LevelCertificate(scheme_name, labels, True, len(chain) - 1 + scheme.first_index,
                            chain, terms, True, {"free_size": free.size})


def _chain(free: FreeAlgebra, scheme: ChainScheme, max_level: int):
    """The lex-least minimal chain of element indices, or None."""
    eligible = (_value_mask(free, scheme.every) if scheme.every is not None
                else np.ones(free.size, dtype=bool))
    starts = eligible & _value_mask(free, scheme.first)
    goals = eligible & _value_mask(free, scheme.last)
    # equal links make one relation, so one visited set serves every depth
    rels = [_link_groups(free, link) for link in dict.fromkeys(scheme.links)]
    # a level counts the links from t_0: a chain from t_1 has one link fewer
    links = max_level - scheme.first_index
    message = f"chain search exceeded {max_level} levels"
    length = shortest_length(starts, goals, rels, max(links, 0), message, eligible)
    if length is not None and length > links:
        raise CapExceeded(message)
    return None if length is None else least_path(starts, goals, rels, length, eligible)


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

    def equations(self, term: Term):
        """(equations, nvars): term(pattern) = required for each required row,
        and each later row of a link group equal to the group's first row."""
        eqs, linked = [], {}
        for row in self.rows:
            lhs = _at(term, row.pattern)
            if row.required is not None:
                eqs.append((lhs, Var(row.required)))
            elif row.link in linked:
                eqs.append((linked[row.link], lhs))
            else:
                linked[row.link] = lhs
        return eqs, self.nvars


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


SEARCH_WORK_CAP = 4_000_000  # the closure's work bound; the element cap is freealg's 2^20


def absorption_search(
    gens: Sequence[FiniteAlgebra], scheme: AbsorptionScheme
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

    # the scheme as columns: pins[i] must read want[i]; left[i] must equal right[i]
    pins, want = [], []
    links: dict[tuple, list[int]] = {}
    for k, (ai, ri, val) in enumerate(coords):
        row = scheme.rows[ri]
        if row.required is not None:
            pins.append(k)
            want.append(val[row.required])
        elif row.link is not None:
            links.setdefault((ai, row.link, val), []).append(k)
    pins, want = np.asarray(pins, dtype=np.int64), np.asarray(want, dtype=np.int16)
    left = np.asarray([ks[0] for ks in links.values() for _ in ks[1:]], dtype=np.int64)
    right = np.asarray([k for ks in links.values() for k in ks[1:]], dtype=np.int64)
    own = np.arange(len(coords))

    def first_hit(rows: np.ndarray, col: np.ndarray = own):
        """Position of the first row meeting the scheme; col maps the
        scheme's coordinates to the columns of rows."""
        mask = (rows[:, col[pins]] == want).all(axis=1)
        mask &= (rows[:, col[left]] == rows[:, col[right]]).all(axis=1)
        hits = np.flatnonzero(mask)
        return int(hits[0]) if len(hits) else None

    sub = generate_subpower(gens, coord_algs, gen_rows, work_cap=SEARCH_WORK_CAP,
                            stop=first_hit)
    col = own if sub.class_of is None else sub.class_of
    if sub.engine == "membership":
        pinned = dict(zip(col[pins].tolist(), want.tolist()))
        found = members(sub, pinned, [col[ks] for _, ks in sorted(links.items())])
        vec = found[0] if len(found) else None
        stats = {"engine": sub.engine}
    else:
        hit = first_hit(sub.vectors, col)
        vec = None if hit is None else sub.vectors[hit]
        stats = {"engine": sub.engine, "size": sub.size}
    if vec is None:
        return SearchCertificate(scheme.name, scheme.params, labels, False, None, False,
                                 True, stats)
    term = sub.term_for_vector(vec)
    verified, violation = _verify(scheme.equations(term), gens)
    if not verified:
        raise AlgebraError(f"found term failed re-verification at {violation}")
    return SearchCertificate(scheme.name, scheme.params, labels, True, term, True, True,
                             {"engine": sub.engine, "size": sub.size})


# ---------------------------------------------------------------------------
# lone-dissent toolkit


def _op_term(alg: FiniteAlgebra, op_index: int) -> Term:
    return App(op_index, tuple(Var(i) for i in range(alg.op(op_index).arity)))


def _require_lone_dissent(alg: FiniteAlgebra, term: Term, arity: int, what: str):
    ok, violation = _verify(lone_dissent_scheme(arity).equations(term), [alg])
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
    term, out_arity = base, arity
    for _ in range(k - 1):
        term = compose_dissent(base, arity, term, out_arity)
        out_arity = out_arity + m
    ok, violation = _verify(lone_dissent_scheme(out_arity).equations(term), [alg])
    if not ok:
        raise AlgebraError(f"self-composition failed verification at {violation}")
    return term, out_arity


def dissent_mixed_composition(alg: FiniteAlgebra, d_index: int, e_index: int):
    """From (m+1)-ary and (n+1)-ary lone-dissent operations to m+n+1."""
    d_arity = alg.op(d_index).arity
    e_arity = alg.op(e_index).arity
    d_term, e_term = _op_term(alg, d_index), _op_term(alg, e_index)
    _require_lone_dissent(alg, d_term, d_arity, "first operation")
    _require_lone_dissent(alg, e_term, e_arity, "second operation")
    term = compose_dissent(d_term, d_arity, e_term, e_arity)
    arity = d_arity + e_arity - 2 + 1
    ok, violation = _verify(lone_dissent_scheme(arity).equations(term), [alg])
    if not ok:
        raise AlgebraError(f"mixed composition failed verification at {violation}")
    return term, arity


def maltsev_from_dissent(alg: FiniteAlgebra, op_index: int) -> Term:
    """t(x,y,z) = d(x, y, ..., y, z) is a Maltsev term."""
    arity = alg.op(op_index).arity
    base = _op_term(alg, op_index)
    _require_lone_dissent(alg, base, arity, f"operation {alg.op(op_index).name}")
    term = subst(base, (Var(0),) + (Var(1),) * (arity - 2) + (Var(2),))
    ok, violation = _verify(maltsev_scheme().equations(term), [alg])
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
    ok, violation = _verify(nu_scheme(e_arity).equations(term), [alg])
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
