"""Hand-written equation systems for the Maltsev conditions, one builder each.

These are the reference the tests hold `ChainScheme.equations` and
`AbsorptionScheme.equations` to, and the encoding of each condition that
tests checking a term against a condition use: an encoding written
independently of the scheme records the library derives its equations from.
"""

from __future__ import annotations

from typing import Sequence

from finalg.terms import Term, Var, subst


def nu_equations(term: Term, arity: int) -> list[tuple[Term, Term]]:
    """u(x,..,y,..,x) = x with one y in each position; variables x=0, y=1."""
    x, y = Var(0), Var(1)
    eqs = []
    for p in range(arity):
        args = [x] * arity
        args[p] = y
        eqs.append((subst(term, tuple(args)), x))
    return eqs


def lone_dissent_equations(term: Term, arity: int) -> list[tuple[Term, Term]]:
    """u(x,..,y,..,x) = y with one y in each position."""
    x, y = Var(0), Var(1)
    eqs = []
    for p in range(arity):
        args = [x] * arity
        args[p] = y
        eqs.append((subst(term, tuple(args)), y))
    return eqs


def idempotence_equation(term: Term, arity: int) -> list[tuple[Term, Term]]:
    x = Var(0)
    return [(subst(term, (x,) * arity), x)]


def maltsev_equations(term: Term) -> list[tuple[Term, Term]]:
    """t(x,y,y) = x and t(x,x,y) = y."""
    x, y = Var(0), Var(1)
    return [
        (subst(term, (x, y, y)), x),
        (subst(term, (x, x, y)), y),
    ]


def half_nu_equations(term: Term, m: int) -> list[tuple[Term, Term]]:
    """The three equation groups of the doubled-lead near-unanimity scheme.

    term has arity m + 2; variables x=0, z=1.
    """
    x, z = Var(0), Var(1)
    arity = m + 2
    eqs = [(subst(term, (z, z) + (x,) * m), x)]
    for p in range(2, arity):
        args = [x] * arity
        args[p] = z
        eqs.append((subst(term, tuple(args)), x))
    left = subst(term, (x, x, x) + (z,) * (m - 1))
    right = subst(term, (x,) + (z,) * (m + 1))
    eqs.append((left, right))
    return eqs


def dissent_unanimity_equations(term: Term, m: int) -> list[tuple[Term, Term]]:
    """2m-ary scheme: one y among x's in the first half, matching z among y's
    in the second half, result y.  Variables x=0, y=1, z=2."""
    x, y, z = Var(0), Var(1), Var(2)
    eqs = []
    for i in range(m):
        first = [x] * m
        first[i] = y
        second = [y] * m
        second[i] = z
        eqs.append((subst(term, tuple(first + second)), y))
    return eqs


# chain schemes: equations for a whole chain of terms, used to re-verify
# certificates independently of the BFS that found them


def jonsson_chain_equations(ts: Sequence[Term]) -> list[tuple[Term, Term]]:
    x, y, z = Var(0), Var(1), Var(2)
    n = len(ts) - 1
    eqs = [(subst(ts[0], (x, y, z)), x), (subst(ts[n], (x, y, z)), z)]
    for t in ts:
        eqs.append((subst(t, (x, y, x)), x))
    for i in range(n):
        if i % 2 == 0:
            eqs.append((subst(ts[i], (x, x, z)), subst(ts[i + 1], (x, x, z))))
        else:
            eqs.append((subst(ts[i], (x, z, z)), subst(ts[i + 1], (x, z, z))))
    return eqs


def alvin_chain_equations(ts: Sequence[Term]) -> list[tuple[Term, Term]]:
    x, y, z = Var(0), Var(1), Var(2)
    n = len(ts) - 1
    eqs = [(subst(ts[0], (x, y, z)), x), (subst(ts[n], (x, y, z)), z)]
    for t in ts:
        eqs.append((subst(t, (x, y, x)), x))
    for i in range(n):
        if i % 2 == 0:
            eqs.append((subst(ts[i], (x, z, z)), subst(ts[i + 1], (x, z, z))))
        else:
            eqs.append((subst(ts[i], (x, x, z)), subst(ts[i + 1], (x, x, z))))
    return eqs


def day_chain_equations(ts: Sequence[Term]) -> list[tuple[Term, Term]]:
    x, y, z, u = Var(0), Var(1), Var(2), Var(3)
    n = len(ts) - 1
    eqs = [(subst(ts[0], (x, y, z, u)), x), (subst(ts[n], (x, y, z, u)), u)]
    for t in ts:
        eqs.append((subst(t, (x, y, y, x)), x))
    for i in range(n):
        if i % 2 == 0:
            eqs.append((subst(ts[i], (x, x, u, u)), subst(ts[i + 1], (x, x, u, u))))
        else:
            eqs.append((subst(ts[i], (x, y, y, u)), subst(ts[i + 1], (x, y, y, u))))
    return eqs


def hagemann_mitschke_chain_equations(ts: Sequence[Term]) -> list[tuple[Term, Term]]:
    x, y, z = Var(0), Var(1), Var(2)
    n = len(ts) - 1
    eqs = [(subst(ts[0], (x, y, z)), x), (subst(ts[n], (x, y, z)), z)]
    for i in range(n):
        eqs.append((subst(ts[i], (x, x, z)), subst(ts[i + 1], (x, z, z))))
    return eqs


def directed_jonsson_chain_equations(ts: Sequence[Term]) -> list[tuple[Term, Term]]:
    """ts = t_1..t_n; x = t_1(x,x,z), t_n(x,z,z) = z, linked in between."""
    x, y, z = Var(0), Var(1), Var(2)
    eqs = [(subst(ts[0], (x, x, z)), x), (subst(ts[-1], (x, z, z)), z)]
    for t in ts:
        eqs.append((subst(t, (x, y, x)), x))
    for i in range(len(ts) - 1):
        eqs.append((subst(ts[i], (x, z, z)), subst(ts[i + 1], (x, x, z))))
    return eqs


def directed_minority_chain_equations(ts: Sequence[Term]) -> list[tuple[Term, Term]]:
    x, y = Var(0), Var(1)
    eqs = [(subst(ts[0], (x, x, y)), y), (subst(ts[-1], (x, y, y)), x)]
    for t in ts:
        eqs.append((subst(t, (x, y, x)), y))
    for i in range(len(ts) - 1):
        eqs.append((subst(ts[i], (x, y, y)), subst(ts[i + 1], (x, x, y))))
    return eqs


def term_arity(term: Term) -> int:
    """1 + largest variable index occurring in the term."""
    seen: dict[int, int] = {}

    def walk(t):
        key = id(t)
        if key in seen:
            return seen[key]
        if isinstance(t, Var):
            out = t.index + 1
        else:
            out = max((walk(a) for a in t.args), default=0)
        seen[key] = out
        return out

    return walk(term)
