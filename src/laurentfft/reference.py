"""Direct-summation DFT and DHT references.

These are the correctness oracles for the fast path: O(N^2) sums evaluated
in double precision, valid for any length N >= 1.

    V[k] = sum_n v[n] * exp(-2j*pi*k*n/N)          (DFT)
    H[k] = sum_n v[n] * (cos(2*pi*k*n/N) + sin(2*pi*k*n/N))   (DHT)
"""

from __future__ import annotations

import numpy as np

from .fixed import _admit


def _as_signal(samples) -> np.ndarray:
    """samples as float64: ValueError unless real, 1-D and non-empty, naming the
    first that is text (str or bytes, even where numpy could parse it), does
    not fit in float64 or is not a number.  NaN and infinities pass."""
    v = np.asarray(samples)
    if v.dtype.kind == "c":
        raise ValueError("samples must be real")
    if v.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if v.size == 0:
        raise ValueError("signal must contain at least one sample")
    if v.dtype.kind not in "OSU":  # not objects or text: a numeric array pays only this test
        return v.astype(np.float64, copy=False)
    # the caller's own items, as numpy turns all of [1, 'x'] into text
    for i, s in enumerate(v if isinstance(samples, np.ndarray) else samples):
        if isinstance(s, (str, bytes, bytearray)):
            raise ValueError(f"sample {i} ({type(s).__name__}) is not a number")
        try:
            float(s)
        except OverflowError:
            raise ValueError(f"sample {i} does not fit in float64") from None
        except TypeError:
            raise ValueError(f"sample {i} ({type(s).__name__}) is not a number") from None
    return v.astype(np.float64)  # numbers numpy kept as objects, such as ints past int64


def dft_matrix(n: int) -> np.ndarray:
    """The N x N matrix exp(-2j*pi*k*n/N)."""
    n = _admit(n, "transform length N", 1)
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n)


def dft_direct(samples) -> np.ndarray:
    """N-point DFT by direct summation.  Returns complex bins."""
    v = _as_signal(samples)
    return dft_matrix(v.size) @ v


def dht_direct(samples) -> np.ndarray:
    """N-point DHT by direct summation of the cas kernel cos + sin."""
    v = _as_signal(samples)
    idx = np.arange(v.size)
    arg = 2 * np.pi * np.outer(idx, idx) / v.size
    return (np.cos(arg) + np.sin(arg)) @ v
