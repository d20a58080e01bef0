"""Helpers shared by the test modules."""

import numpy as np
import pytest


def _rank_gauss(mat) -> int:
    """Independent rank oracle: fraction-free integer Gaussian elimination."""
    nrows, ncols = np.shape(mat)
    rows = [[int(x) for x in row] for row in np.asarray(mat)]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(rank + 1, nrows):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [lead * a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _factor_product(f) -> np.ndarray:
    """T = f.combiner @ f.reduced_rows as int64.  The matmul runs in doubles,
    exact on these small integers, as numpy's integer matmul has no BLAS path."""
    return (f.combiner @ f.reduced_rows.astype(np.float64)).astype(np.int64)


@pytest.fixture(scope="session")
def rank_gauss():
    """The rank oracle, for tests that check factor ranks."""
    return _rank_gauss


@pytest.fixture(scope="session")
def factor_product():
    """The matrix T a FactoredTernary factors, for tests that compare it."""
    return _factor_product
