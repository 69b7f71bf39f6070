"""Terms over an operation signature: evaluation, substitution, equation checks.

A term is a variable leaf or an operation symbol applied to subterms.  Terms
built by the search engines may share subterms (a DAG); evaluation and size
computation memoise on node identity so sharing stays cheap.
"""

from __future__ import annotations

import re
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
    """Evaluate over many assignments at once; env_cols is (nvars, n).

    Raises AlgebraError at an operation applied to the wrong number of
    arguments.
    """
    memo: dict[int, np.ndarray] = {}

    def walk(t):
        key = id(t)
        if key in memo:
            return memo[key]
        if isinstance(t, Var):
            out = env_cols[t.index]
        else:
            op = alg.op(t.op_index)
            if len(t.args) != op.arity:
                raise AlgebraError(f"operation {op.name} takes {op.arity} arguments, "
                                   f"not {len(t.args)}")
            out = op.apply_cols(np.stack([walk(a) for a in t.args]))
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
            neq = lv != rv
            if neq.any():
                i = int(np.argmax(neq))
                return False, (ai, ei, tuple(int(v) for v in cols[:, i]), int(lv[i]), int(rv[i]))
    return True, None


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
    """The term of a nested-array form; a variable is "x" and its index in
    canonical decimal ("x0", "x12"), the only spelling `term_to_obj` writes."""
    if isinstance(obj, str):
        if not re.fullmatch("x(0|[1-9][0-9]*)", obj):
            raise AlgebraError(f"bad variable {obj!r}")
        return Var(int(obj[1:]))
    if not isinstance(obj, list) or not obj:
        raise AlgebraError("term node must be a variable string or a list")
    name = obj[0]
    if name not in op_names:
        raise AlgebraError(f"unknown operation symbol {name!r}")
    return App(list(op_names).index(name), tuple(term_from_obj(a, op_names) for a in obj[1:]))
