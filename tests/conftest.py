import tracemalloc

import numpy as np
import pytest

from mxquant import calib
from mxquant.formats import FormatConfig


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_outlier_instance(seed=0, n=128, m=64, rows=128, factor=50.0):
    """Synthetic layer with extreme-outlier channels in 2 of the 4 blocks."""
    r = np.random.default_rng(seed)
    x = r.normal(size=(rows, n))
    x[:, 40] *= factor  # inside block 1
    x[:, 100] *= factor  # inside block 3
    w = r.normal(size=(m, n)) / np.sqrt(n)
    return x, w


W4A4KV16 = FormatConfig.from_name("W4A4KV16")
W4A8KV16 = FormatConfig.from_name("W4A8KV16")
NO_QUANT = FormatConfig(None, None, None)


def traced_peak(call):
    """Peak bytes traced by tracemalloc while call() runs, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base, result


def nan_factor_gradient_on_call(monkeypatch, n):
    """Patch calib.gpk_backward so that its n-th call (from 1) returns a NaN d_a.

    A step calls it twice (activation side, then weight side), so n = 3 poisons
    step 1 after its loss was computed finite.
    """
    real = calib.gpk_backward
    calls = []

    def patched(*args, **kwargs):
        da, db = real(*args, **kwargs)
        calls.append(None)
        return (np.full_like(da, np.nan) if len(calls) == n else da), db

    monkeypatch.setattr(calib, "gpk_backward", patched)
