import itertools

import numpy as np
import pytest

from finalg.freealg import generate_subpower
from finalg.witnesses import build_sharpness_witness, sharpness_report

_WITNESSES = {}
_REPORTS = {}


@pytest.fixture(scope="session")
def witness_cache():
    """Sharpness witnesses are expensive at m = 8; build each once."""

    def get(m, q):
        if (m, q) not in _WITNESSES:
            _WITNESSES[(m, q)] = build_sharpness_witness(m, q)
        return _WITNESSES[(m, q)]

    return get


@pytest.fixture(scope="session")
def report_cache():
    def get(m, q):
        if (m, q) not in _REPORTS:
            _REPORTS[(m, q)] = sharpness_report(m, q)
        return _REPORTS[(m, q)]

    return get


# ---------------------------------------------------------------------------
# shared oracles


def subset_formula_table(chain_size: int, j: int, m: int) -> np.ndarray:
    """Oracle for the subset operation: min over all j-subsets of the max."""
    count = chain_size**m
    idx = np.arange(count, dtype=np.int64)
    cols = np.empty((m, count), dtype=np.int64)
    for pos in range(m - 1, -1, -1):
        cols[pos] = idx % chain_size
        idx //= chain_size
    best = np.full(count, chain_size, dtype=np.int64)
    for subset in itertools.combinations(range(m), j):
        best = np.minimum(best, np.max(cols[list(subset)], axis=0))
    return best


def product_subpower(prod, ids):
    """`generate_subpower` over the factors of the direct product `prod`,
    generated by the elements `ids`; returns the subpower and the product id
    of each of its elements, in its order."""
    rows = prod.indexing.digits(list(ids))
    sub = generate_subpower(prod.factors, range(len(prod.factors)), rows)
    return sub, [prod.indexing.encode(v) for v in sub.vectors.tolist()]

