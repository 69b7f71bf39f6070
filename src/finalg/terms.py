"""Terms over an operation signature: evaluation, substitution, schemas.

A term is a variable leaf or an operation symbol applied to subterms.  Terms
built by the search engines may share subterms (a DAG); evaluation and size
computation memoise on node identity so sharing stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebras import AlgebraError, CapExceeded, FactorIndexing, FiniteAlgebra


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class App:
    op_index: int
    args: tuple


Term = Var | App


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


def term_size(term: Term) -> int:
    """Number of nodes of the fully expanded tree."""
    memo: dict[int, int] = {}

    def walk(t):
        key = id(t)
        if key in memo:
            return memo[key]
        out = 1 if isinstance(t, Var) else 1 + sum(walk(a) for a in t.args)
        memo[key] = out
        return out

    return walk(term)


def term_eval_cols(term: Term, alg: FiniteAlgebra, env_cols: np.ndarray) -> np.ndarray:
    """Evaluate over many assignments at once; env_cols is (nvars, n)."""
    memo: dict[int, np.ndarray] = {}

    def walk(t):
        key = id(t)
        if key in memo:
            return memo[key]
        if isinstance(t, Var):
            out = env_cols[t.index]
        else:
            out = alg.op(t.op_index).apply_cols(np.stack([walk(a) for a in t.args]))
        memo[key] = out
        return out

    return walk(term)


def subst(term: Term, mapping: Sequence[Term]) -> Term:
    """Replace Var(i) by mapping[i]; shared nodes stay shared."""
    memo: dict[int, Term] = {}

    def walk(t):
        key = id(t)
        if key in memo:
            return memo[key]
        if isinstance(t, Var):
            out = mapping[t.index]
        else:
            out = App(t.op_index, tuple(walk(a) for a in t.args))
        memo[key] = out
        return out

    return walk(term)


def all_assignment_cols(size: int, nvars: int) -> np.ndarray:
    """Columns of every assignment of nvars variables over 0..size-1."""
    return FactorIndexing((size,) * nvars).digits(np.arange(size**nvars)).T


def verify_equations(
    equations: Sequence[tuple[Term, Term]],
    algebras: Sequence[FiniteAlgebra],
    nvars: int,
):
    """Exhaustively check lhs = rhs on every algebra and assignment.

    Returns (True, None) or (False, (algebra_index, equation_index,
    assignment tuple, lhs value, rhs value)).
    """
    for ai, alg in enumerate(algebras):
        cols = all_assignment_cols(alg.size, nvars)
        for ei, (lhs, rhs) in enumerate(equations):
            lv = term_eval_cols(lhs, alg, cols)
            rv = term_eval_cols(rhs, alg, cols)
            if np.isscalar(lv) or lv.ndim == 0:
                lv = np.full(cols.shape[1], lv)
            if np.isscalar(rv) or rv.ndim == 0:
                rv = np.full(cols.shape[1], rv)
            neq = lv != rv
            if neq.any():
                i = int(np.argmax(neq))
                return False, (ai, ei, tuple(int(v) for v in cols[:, i]), int(lv[i]), int(rv[i]))
    return True, None


# ---------------------------------------------------------------------------
# equation schemas for single candidate terms


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


# ---------------------------------------------------------------------------
# serialisation


def term_to_obj(term: Term, op_names: Sequence[str], size_cap: int = 1_000_000):
    """Nested-array form ["op", child, ...] with variables "x0", "x1", ..."""
    if term_size(term) > size_cap:
        raise CapExceeded(f"term expands past {size_cap} nodes")

    def walk(t):
        if isinstance(t, Var):
            return f"x{t.index}"
        return [op_names[t.op_index], *[walk(a) for a in t.args]]

    return walk(term)


def term_from_obj(obj, op_names: Sequence[str]) -> Term:
    if isinstance(obj, str):
        if not obj.startswith("x"):
            raise AlgebraError(f"bad variable {obj!r}")
        return Var(int(obj[1:]))
    if not isinstance(obj, list) or not obj:
        raise AlgebraError("term node must be a variable string or a list")
    name = obj[0]
    if name not in op_names:
        raise AlgebraError(f"unknown operation symbol {name!r}")
    return App(list(op_names).index(name), tuple(term_from_obj(a, op_names) for a in obj[1:]))
