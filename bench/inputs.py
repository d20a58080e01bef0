"""Seeded input generators for the benchmark workloads.

Every generator takes a numpy Generator, so the same seed gives the same
inputs.  Signal classes vary the property the fixed-point model's
behaviour depends on, the amplitude relative to the word's full scale:

  small      random samples far below full scale (nothing saturates)
  tone       one cosine at a random bin
  dc         a constant
  fullscale  random samples across the whole word range
  bigtone    a near-full-scale cosine

At N = 16 the Q8.7 engine never saturates its 32-bit accumulator, but the
16-bit output packing does for fullscale and bigtone vectors.  At N = 64
an 18-bit accumulator saturates inside the engine for fullscale, tone and
dc signals.
"""

from __future__ import annotations

import numpy as np

# One block of the N = 16 corpus: a quarter of the vectors are large enough
# to saturate the 16-bit output packing.
N16_CLASSES = ("small", "tone", "small", "dc", "small", "tone", "fullscale", "bigtone")
N64_CLASSES = ("small", "fullscale", "tone", "dc")

_INT16_MIN, _INT16_MAX = -(1 << 15), (1 << 15) - 1


def _cosine(rng, n: int, amplitude: float) -> np.ndarray:
    k = rng.integers(1, n // 2)
    phase = rng.uniform(0, 2 * np.pi)
    return amplitude * np.cos(2 * np.pi * k * np.arange(n) / n + phase)


def n16_words(rng, cls: str) -> tuple[int, ...]:
    """One N = 16 stimulus vector as signed Q8.7 input words."""
    n, one = 16, 128
    if cls == "small":
        raw = rng.integers(-2 * one, 2 * one + 1, n)
    elif cls == "tone":
        raw = np.rint(_cosine(rng, n, rng.uniform(2, 6) * one))
    elif cls == "dc":
        raw = np.full(n, rng.integers(-12 * one, 12 * one + 1))
    elif cls == "fullscale":
        raw = rng.integers(_INT16_MIN, _INT16_MAX + 1, n)
    elif cls == "bigtone":
        raw = np.rint(_cosine(rng, n, rng.uniform(64, 255) * one))
    else:
        raise ValueError(f"unknown signal class {cls!r}")
    return tuple(int(x) for x in np.clip(raw, _INT16_MIN, _INT16_MAX))


def n64_shape(rng, cls: str) -> np.ndarray:
    """One N = 64 signal as a fraction of full scale, in [-1, 1).

    Multiplying by 2**(15 - frac_bits) gives samples for a 16-bit word with
    that many fraction bits; the power-of-two scale keeps them exact.
    """
    n = 64
    if cls == "small":
        return rng.uniform(-0.01, 0.01, n)
    if cls == "fullscale":
        return rng.uniform(-0.95, 0.95, n)
    if cls == "tone":
        return _cosine(rng, n, rng.uniform(0.3, 0.6))
    if cls == "dc":
        return np.full(n, rng.choice((-1, 1)) * rng.uniform(0.1, 0.3))
    raise ValueError(f"unknown signal class {cls!r}")


def n16_corpus(rng, blocks: int):
    """blocks * len(N16_CLASSES) vectors; entry i has class N16_CLASSES[i % 8]."""
    classes = N16_CLASSES * blocks
    return np.array([n16_words(rng, c) for c in classes], dtype=np.int16), classes


def n64_corpus(rng, per_class: int):
    """per_class signals of each N64_CLASSES class, grouped by class."""
    classes = tuple(c for c in N64_CLASSES for _ in range(per_class))
    return np.array([n64_shape(rng, c) for c in classes]), classes

