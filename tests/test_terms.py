import pytest

from finalg.algebras import AlgebraError, make_ujm_reduct
from finalg.terms import (
    App,
    Var,
    all_assignment_cols,
    subst,
    term_eval_cols,
    term_from_obj,
    term_size,
    term_to_obj,
    verify_equations,
)
from finalg.witnesses import dissent_pair_fixture, modular_sum_algebra

from equation_oracle import (
    half_nu_equations,
    idempotence_equation,
    lone_dissent_equations,
    maltsev_equations,
    nu_equations,
    term_arity,
)
from scalar_oracle import term_value


def test_eval_and_arity():
    n23 = make_ujm_reduct(2, 2, 3)
    t = App(0, (Var(0), Var(1), Var(2)))
    assert term_arity(t) == 3
    cols = all_assignment_cols(2, 3)
    vals = term_eval_cols(t, n23, cols)
    assert vals.shape == (8,)
    assert vals[0b011] == 1
    nested = App(0, (t, Var(0), Var(0)))
    assert term_eval_cols(nested, n23, cols)[0b011] == 0  # median(1, 0, 0)
    for term in (t, nested):
        assert term_eval_cols(term, n23, cols).tolist() == [
            term_value(term, n23, env) for env in cols.T.tolist()]


def test_subst_shares_nodes():
    t = App(0, (Var(0), Var(0), Var(1)))
    s = subst(t, (App(0, (Var(0), Var(1), Var(2))), Var(2)))
    assert term_arity(s) == 3
    assert s.args[0] is s.args[1]  # shared node survives substitution


def test_term_size_counts_expanded_tree():
    t = App(0, (Var(0), Var(1), Var(2)))
    u = App(0, (t, t, Var(0)))
    assert term_size(u) == 1 + 4 + 4 + 1


def test_serialisation_roundtrip():
    t = App(0, (Var(0), App(0, (Var(1), Var(1), Var(2))), Var(2)))
    obj = term_to_obj(t, ["u"])
    assert obj == ["u", "x0", ["u", "x1", "x1", "x2"], "x2"]
    assert term_from_obj(obj, ["u"]) == t
    with pytest.raises(AlgebraError):
        term_from_obj(["w", "x0"], ["u"])
    with pytest.raises(AlgebraError):
        term_from_obj("y0", ["u"])


def test_idempotence_schema():
    n = make_ujm_reduct(3, 2, 4)
    t = App(0, tuple(Var(i) for i in range(4)))
    ok, _ = verify_equations(idempotence_equation(t, 4), [n], 1)
    assert ok


def test_nu_schema_on_basic_op():
    n24 = make_ujm_reduct(2, 2, 4)
    t = App(0, tuple(Var(i) for i in range(4)))
    ok, _ = verify_equations(nu_equations(t, 4), [n24], 2)
    assert ok
    # the first projection is not near-unanimity; the violation names its spot
    ok, violation = verify_equations(nu_equations(Var(0), 3), [n24], 2)
    assert not ok
    ai, ei, assignment, lv, rv = violation
    assert ei == 0 and lv != rv


def test_lone_dissent_and_maltsev_schemas():
    xor3 = modular_sum_algebra(2, 3)
    t = App(0, (Var(0), Var(1), Var(2)))
    assert verify_equations(lone_dissent_equations(t, 3), [xor3], 2)[0]
    assert verify_equations(maltsev_equations(t), [xor3], 2)[0]
    sum4 = modular_sum_algebra(3, 4)
    t4 = App(0, tuple(Var(i) for i in range(4)))
    assert verify_equations(lone_dissent_equations(t4, 4), [sum4], 2)[0]


def test_half_nu_schema_via_dummy_padding():
    # an m-ary near-unanimity operation with two leading dummy variables
    # passes the full doubled-lead scheme
    for m in (3, 4):
        alg = make_ujm_reduct(2, 2, m)
        padded = App(0, tuple(Var(i + 2) for i in range(m)))
        ok, violation = verify_equations(half_nu_equations(padded, m), [alg], 2)
        assert ok, violation


def test_half_nu_contraction_is_nu():
    # identifying the doubled lead of a passing term gives a near-unanimity term
    m = 3
    alg = make_ujm_reduct(2, 2, m)
    padded = App(0, tuple(Var(i + 2) for i in range(m)))  # arity m + 2
    contraction = subst(padded, (Var(0), Var(0)) + tuple(Var(i + 1) for i in range(m)))
    ok, _ = verify_equations(nu_equations(contraction, m + 1), [alg], 2)
    assert ok


def test_dissent_pair_fixture_schemas():
    ld2 = dissent_pair_fixture()
    d3 = App(0, (Var(0), Var(1), Var(2)))
    d4 = App(1, tuple(Var(i) for i in range(4)))
    assert verify_equations(lone_dissent_equations(d3, 3), [ld2], 2)[0]
    assert verify_equations(lone_dissent_equations(d4, 4), [ld2], 2)[0]
