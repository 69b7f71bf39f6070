"""The always-on randomized/exhaustive property suites.

Each suite returns a stats string; assertion failures raise.  They are run
both as ordinary tests and from the acceptance module, which reports one
line per criterion.
"""

import itertools
import random

import numpy as np

from finalg.algebras import FiniteAlgebra, TableOp, direct_product, make_ujm_reduct
from finalg.congruences import Partition, partition_meet
from finalg.identities import _context, expr_image, family_exprs
from finalg.witnesses import filtered_subproduct

from conftest import product_subpower, subset_formula_table
from template_oracle import template_filter


def suite_odd_equivalence(trials=500, seed=20210510):
    """Relational facts behind the odd-q equivalence, on random triples.

    For odd q: the left sides of the power identity and its framed variant
    coincide; substituting the alpha-gamma meet for gamma turns one right
    side into the other; and the framed right side embeds into the original.
    Together these give the equivalence of the two identities per algebra.
    """
    rng = random.Random(seed)
    done = 0
    for _ in range(trials):
        n = rng.randrange(3, 9)
        m = rng.choice([3, 4, 5])
        q = rng.choice([3, 5])
        alpha, beta, gamma = (
            Partition(tuple(rng.randrange(max(1, n // 2 + 1)) for _ in range(n)))
            for _ in range(3)
        )
        ctx = _context(alpha, beta, gamma)
        sub_ctx = _context(alpha, beta, partition_meet(alpha, gamma))
        eye = np.eye(n, dtype=bool)
        l_orig, r_orig = family_exprs("wedge-power", m=m, q=q)
        l_odd, r_odd = family_exprs("wedge-power-odd", m=m, q=q)
        assert np.array_equal(expr_image(l_odd, ctx, eye), expr_image(l_orig, ctx, eye))
        assert np.array_equal(expr_image(l_odd, ctx, eye), expr_image(l_orig, sub_ctx, eye))
        assert np.array_equal(expr_image(r_odd, ctx, eye), expr_image(r_orig, sub_ctx, eye))
        assert not (expr_image(r_odd, ctx, eye) & ~expr_image(r_orig, ctx, eye)).any()
        done += 1
    return f"{done} random triples, q in {{3,5}}, sizes <= 8"


def suite_order_statistic(seed=None):
    """The chain operation equals the subset formula on every tuple."""
    cases = 0
    for chain_size in (2, 3, 4, 5):
        for m in range(3, 8):
            for j in range(1, m + 1):
                table = make_ujm_reduct(chain_size, j, m).ops[0].table
                oracle = subset_formula_table(chain_size, j, m)
                assert np.array_equal(table, oracle), (chain_size, j, m)
                cases += 1
    return f"{cases} (chain, j, m) tables vs the subset-enumeration oracle"


def _force_absorbing(table, size, arity, zero, k, rng):
    cols = np.asarray(
        list(itertools.product(range(size), repeat=arity)), dtype=np.int64
    )
    out = np.asarray(table, dtype=np.int64)
    out[(cols == zero).sum(axis=1) >= k] = zero
    return out


def _force_majority(table, size, arity, k, rng):
    cols = np.asarray(
        list(itertools.product(range(size), repeat=arity)), dtype=np.int64
    )
    out = np.asarray(table, dtype=np.int64)
    for z in range(size):
        out[(cols == z).sum(axis=1) >= k] = z
    return out


def random_filtered_instance(rng):
    """A random instance satisfying every hypothesis of the template build."""
    m = rng.choice([3, 3, 3, 4])
    sizes = [rng.choice([2, 3]) for _ in range(4)] if m == 3 else [2, 2, rng.choice([2, 3]), 2]
    k = rng.randrange(m // 2 + 1, m)
    h = rng.randrange(1, min(k, m - k) + 1)
    algs = []
    for z, size in enumerate(sizes):
        table = [rng.randrange(size) for _ in range(size**m)]
        if z in (0, 1):
            table = _force_absorbing(table, size, m, 0, h, rng)
        elif z == 2:
            table = _force_majority(table, size, m, k, rng)
        else:
            table = _force_absorbing(table, size, m, 0, 2, rng)
        algs.append(FiniteAlgebra(size, [TableOp("u", m, size, table)], label=f"R{z}"))
    prod34 = direct_product(algs[2:])
    gens = rng.sample(range(prod34.size), rng.randrange(1, 3))
    f = sorted(product_subpower(prod34, gens)[1])
    a = rng.randrange(algs[2].size)
    d = rng.randrange(algs[2].size)
    return algs, h, k, a, d, f


def suite_filtered_closure(instances=200, seed=424242):
    """Randomized hypothesis-satisfying template builds always close."""
    rng = random.Random(seed)
    built = 0
    while built < instances:
        algs, h, k, a, d, f = random_filtered_instance(rng)
        out = filtered_subproduct(algs[0], algs[1], algs[2], algs[3],
                                  0, 0, 0, h, k, a, d, f)
        # closure is re-verified inside the builder; the boxes must hold
        # exactly what the per-element template rule keeps
        assert out.b_ids
        assert (out.b_ids, out.tags) == template_filter(out.ambient, f, out.zeros, a, d)
        built += 1
    return f"{built} randomized template subproducts, all closed"


def suite_certificate_recheck(tmp_path):
    """Every emitted certificate replays cleanly through recheck."""
    from finalg.certificates import (
        identity_certificate,
        induction_certificate,
        level_certificate,
        recheck,
        save_certificate,
        load_certificate,
        search_certificate,
        sharpness_certificate,
        toolkit_certificate,
    )

    certs = [
        sharpness_certificate(3, 2),
        sharpness_certificate(4, 2),
        sharpness_certificate(4, 3),
        induction_certificate(4, 2),
        induction_certificate(5, 2),
        identity_certificate("wedge-power", 4, 2, expect="fails"),
        identity_certificate("zigzag-even", 4, 2, expect="holds"),
        level_certificate("jonsson", "N:2:3"),
        level_certificate("jonsson", "N:2:4"),
        level_certificate("hagemann-mitschke", "I:4"),
        search_certificate("nu", "N:2:3", arity=3),
        search_certificate("nu", "N:2:4", arity=3),
        search_certificate("lone-dissent", "sum:3:4", arity=4),
        toolkit_certificate("LD2"),
    ]
    for i, cert in enumerate(certs):
        assert cert["verdict"] == "verified", cert["claim"]
        path = str(tmp_path / f"cert{i}.json")
        save_certificate(cert, path)
        ok, detail = recheck(load_certificate(path))
        assert ok, (cert["claim"], detail)
    return f"{len(certs)} certificates emitted and rechecked"
