import pytest

import property_suites as ps
from finalg.witnesses import HypothesisError, filtered_subproduct


def test_odd_equivalence_500_trials():
    print(ps.suite_odd_equivalence(trials=500))


def test_order_statistic_vs_subset_oracle():
    print(ps.suite_order_statistic())


def test_filtered_closure_200_instances():
    print(ps.suite_filtered_closure(instances=200))


def test_certificates_recheck(tmp_path):
    print(ps.suite_certificate_recheck(tmp_path))


def test_filtered_hypotheses_individually_falsifiable():
    """Flipping one hypothesis of a passing instance raises its named error."""
    import random

    rng = random.Random(7)
    algs, h, k, a, d, f = ps.random_filtered_instance(rng)
    filtered_subproduct(algs[0], algs[1], algs[2], algs[3], 0, 0, 0, h, k, a, d, f)

    import numpy as np
    from finalg.algebras import FiniteAlgebra, TableOp

    def with_table(i, table):
        out = list(algs)
        out[i] = FiniteAlgebra(algs[i].size, [TableOp("u", algs[i].ops[0].arity,
                                                      algs[i].size, table)])
        return out

    def break_absorbing(alg, kk):
        table = alg.ops[0].table.copy()
        m = alg.ops[0].arity
        for idx in range(len(table)):
            digits = np.base_repr(idx, alg.size).zfill(m)
            if digits.count("0") >= kk and table[idx] == 0:
                table[idx] = 1
                return table
        raise RuntimeError

    mutated = with_table(0, break_absorbing(algs[0], h))
    with pytest.raises(HypothesisError, match="absorb-1"):
        filtered_subproduct(mutated[0], mutated[1], mutated[2], mutated[3],
                            0, 0, 0, h, k, a, d, f)
    mutated = with_table(3, break_absorbing(algs[3], 2))
    with pytest.raises(HypothesisError, match="absorb-4"):
        filtered_subproduct(mutated[0], mutated[1], mutated[2], mutated[3],
                            0, 0, 0, h, k, a, d, f)
    with pytest.raises(HypothesisError, match="h-bounds"):
        filtered_subproduct(algs[0], algs[1], algs[2], algs[3],
                            0, 0, 0, k + 1, k, a, d, f)
