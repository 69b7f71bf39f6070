import numpy as np
import pytest

from finalg import induction
from finalg.algebras import AlgebraError
from finalg.congruences import partition_meet
from finalg.induction import run_level_induction
from finalg.witnesses import ell_of

from template_oracle import template_filter
from triple_oracle import product_relation, relation, role_relations


@pytest.mark.parametrize("m,q", [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (6, 2)])
def test_stage_sequence(m, q):
    states = run_level_induction(m, q)
    assert [st.j for st in states] == list(range(ell_of(m), 1, -1))
    for st in states:
        assert st.identity.verdict == "fails"
        assert st.identity.counterexample == st.pair


def test_m5_matches_worked_route():
    states = run_level_induction(5, 2)
    assert [st.j for st in states] == [3, 2]
    assert len(states[0].f_union) == 6          # the base chain pair
    assert len(states[1].f_union) == 34         # same size as the explicit witness
    # the final stage refutes at the plain exponent m - 2 = 3
    assert states[1].identity.params == {"m": 5, "q": 2}


def test_even_base_uses_one_template_step():
    states = run_level_induction(4, 2)
    assert [st.j for st in states] == [2]
    st = states[0]
    # the even base: A3^2 = chain x chain x point, pair anchored at the corners
    assert st.algebra3.size == 9
    a_coords = st.algebra3.indexing.decode(st.a3)
    d_coords = st.algebra3.indexing.decode(st.d3)
    assert a_coords == (2, 0, 0) and d_coords == (0, 2, 0)


def test_descent_bounds():
    # the run completing is the real assertion: every template step
    # re-verifies 1 <= h <= k and h + k <= m before building
    for m, q in [(5, 2), (6, 2), (7, 2)]:
        states = run_level_induction(m, q)
        assert states[-1].j == 2


def test_chain_elements_keep_zero_final_coordinate():
    for m, q in [(5, 2), (5, 3)]:
        for st in run_level_induction(m, q):
            enc = st.pair_product.indexing.encode
            ab = partition_meet(st.alpha, st.beta)
            ag = partition_meet(st.alpha, st.gamma)
            chain = [st.pair[0]]
            chain += st.f_union.rank([enc((c3, 0)) for c3 in st.chain3]).tolist()
            chain.append(st.pair[1])
            assert len(chain) == q + 1
            # endpoints distinguished, middles glued, by the final-coordinate kernel
            assert st.alpha.related(chain[0], chain[-1])
            for mid in chain[1:-1]:
                assert st.alpha.related(mid, mid)


def test_identity_fails_only_at_stated_level():
    # at the final stage the failing exponent is m - 2; one less power of the
    # right side must already contain the pair (the failure is sharp)
    from finalg.identities import check_identity

    states = run_level_induction(5, 2)
    st = states[-1]
    sharp = check_identity(
        "wedge-power-j", st.alpha, st.beta, st.gamma, m=5, q=2, j=3, pair=st.pair
    )
    # exponent m - 2j + 2 = 1: even the single power misses the pair
    assert sharp.verdict == "fails"


def test_rejects_bad_parameters():
    with pytest.raises(AlgebraError):
        run_level_induction(2, 2)
    with pytest.raises(AlgebraError):
        run_level_induction(4, 1)


@pytest.mark.parametrize("m,q", [(m, q) for m in range(4, 9) for q in (2, 3)])
def test_template_boxes_match_the_element_filter(monkeypatch, m, q):
    # every stage's subproduct, built from boxes, holds exactly the elements
    # the per-element template rule keeps, with the same templates matched
    built = []
    real = induction.filtered_subproduct

    def record(*args, **kwargs):
        out = real(*args, **kwargs)
        built.append((args[11], out))
        return out
    monkeypatch.setattr(induction, "filtered_subproduct", record)
    states = run_level_induction(m, q)
    assert len(built) == len(states) - m % 2  # odd m starts from the chain pair
    for f_union, out in built:
        b_ids, tags = template_filter(out.ambient, f_union.ids(), out.zeros, out.a, out.d)
        assert out.b_ids == b_ids
        assert out.tags == tags


@pytest.mark.parametrize("m,q", [(5, 2), (6, 2), (5, 3)])
def test_stage_triples_match_the_pairwise_oracle(m, q):
    # each stage's triple, pair by pair: the staircase roles on the new chain
    # factors, the previous stage's triple on the F part, and alpha the
    # final-coordinate kernel
    prev = None
    for st in run_level_induction(m, q):
        dec = st.pair_product.indexing.digits(st.f_union.ids())
        final = dec[:, 1]
        if st.algebra3.indexing is None:  # the odd base: the whole chain pair
            coords, rels = dec, [role_relations("half", q), role_relations("last", q)]
        else:
            x1, x2, x3 = st.algebra3.indexing.digits(dec[:, 0]).T
            if prev is None:  # the even base: F = triv x N(2,m) with the last triple
                f_pos, f_rels = final, role_relations("last", q)
            else:
                index = {pid: i for i, pid in enumerate(prev.f_union.ids().tolist())}
                f_pos = np.array([index[x * 2 + y] for x, y in zip(x3.tolist(), final.tolist())])
                f_rels = [relation(p) for p in (prev.alpha, prev.beta, prev.gamma)]
            coords = np.stack([x1, x2, f_pos], axis=1)
            rels = [role_relations("pair-first", q), role_relations("pair-second", q), f_rels]
        want = [product_relation(coords, [r[k] for r in rels]) for k in range(3)]
        assert (want[0] == (final[:, None] == final[None, :])).all()
        for k, part in enumerate((st.alpha, st.beta, st.gamma)):
            assert (relation(part) == want[k]).all(), (st.j, ("alpha", "beta", "gamma")[k])
        prev = st
