import dataclasses
import itertools

import numpy as np
import pytest

from finalg import algebras, kernel
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


@pytest.fixture
def fresh_keepers(monkeypatch):
    """Empty keepers of list lattices and round trees, with the process's
    budgets, for the length of the test: a test that counts builds or
    kernel calls, or patches a builder, sees the same builds whichever tests
    ran before, and keeps nothing for the tests after it."""
    monkeypatch.setattr(algebras, "_LATTICES", algebras._Keeper())
    monkeypatch.setattr(kernel, "_TREES", algebras._Keeper())


def kept_arrays(value):
    """Every array of a kept value: nested lists, tuples and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from kept_arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from kept_arrays(getattr(value, f.name))


def same_arrays(got, want) -> bool:
    """Equal nested lists, tuples and dataclasses of arrays, dtypes and all."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and np.array_equal(got, want))
    if isinstance(want, (list, tuple)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(map(same_arrays, got, want)))
    if dataclasses.is_dataclass(want):
        return type(got) is type(want) and all(
            same_arrays(getattr(got, f.name), getattr(want, f.name))
            for f in dataclasses.fields(want))
    return got == want


def assert_kept_read_only(value):
    for array in kept_arrays(value):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


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

