"""The dense-range unique kernel must equal ``np.unique`` byte for byte."""

import numpy as np
import pytest

from repro.executor.factorize import DENSE_SPAN_FACTOR, factorize_column, unique
from repro.types import NULL_CODE, StringColumn

RNG = np.random.default_rng(20070612)

INPUTS = {
    "random": RNG.integers(0, 500, 2000),
    "negative": RNG.integers(-300, 40, 1000),
    "sparse_fallback": RNG.integers(0, 10**9, 300),
    "empty": np.empty(0, dtype=np.int64),
    "single_value": np.full(17, 42, dtype=np.int64),
    "single_row": np.array([-5], dtype=np.int64),
    "int32_codes": RNG.integers(-1, 6, 400).astype(np.int32),
    "int8_wide": np.array([-128, 127, 0, -128], dtype=np.int8),
    "uint64": np.array([2**63 + 5, 2**63 + 1, 2**63 + 5], dtype=np.uint64),
    "float": RNG.normal(size=50),
}


def _as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("return_index", [False, True])
@pytest.mark.parametrize("return_inverse", [False, True])
def test_matches_np_unique(name, return_index, return_inverse):
    values = INPUTS[name]
    got = _as_tuple(unique(values, return_index, return_inverse))
    want = _as_tuple(
        np.unique(
            values, return_index=return_index, return_inverse=return_inverse
        )
    )
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_sparse_input_takes_the_fallback(monkeypatch):
    calls = []
    real = np.unique

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    dense = np.arange(10) * (DENSE_SPAN_FACTOR - 1)
    unique(dense, return_inverse=True)
    assert calls == []
    sparse = np.arange(10) * (DENSE_SPAN_FACTOR + 1)
    unique(sparse, return_inverse=True)
    assert len(calls) == 1


def test_factorize_string_column_uses_codes():
    column = StringColumn(
        [2, NULL_CODE, 0, 2], np.array(["a", "b", "c"], dtype=object)
    )
    uniques, inverse = factorize_column(column)
    assert uniques.tolist() == [NULL_CODE, 0, 2]
    assert inverse.dtype == np.int64
    assert inverse.tolist() == [2, 0, 1, 2]
