from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp

from vdwplate import eigensolver
from vdwplate.eigensolver import GridCylSpec


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion verdicts past pytest's output capture."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(test_acceptance.RESULT_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def coarse_spec():
    """Small, fast 2D grid for unit tests (production runs use the defaults)."""
    return GridCylSpec(h_target=0.25, l_xi_plus=16.0, l_rho=16.0)


def random_unit_vectors(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sym_op(mat):
    """The SparseSymOp of a symmetric matrix, dense or sparse, built from its
    diagonal and every upper band that stores an entry."""
    mat = sp.csr_matrix(mat)
    upper = sp.triu(mat, k=1).tocoo()
    bands = {int(k): mat.diagonal(k) for k in np.unique(upper.col - upper.row)}
    return eigensolver.SparseSymOp(mat.diagonal(), bands)


def blas_threads():
    """The thread count of every OpenBLAS copy that eigensolver controls."""
    return [get() for get, _ in eigensolver._blas_thread_controls()]


class FactorCall(NamedTuple):
    sigma: float
    precision: np.dtype
    threads: list       # blas_threads() when the factor was made


def count_probes(monkeypatch):
    """Make every factor eigensolver builds a counting _Factor.

    Returns (made, probes): the factors made, and the factor of each solve
    of a right-hand side of ones (the M-matrix test's probe).
    """
    made, probes = [], []

    class CountingFactor(eigensolver._Factor):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def solve(self, rhs):
            if np.all(np.asarray(rhs) == 1.0):
                probes.append(self)
            return super().solve(rhs)

    monkeypatch.setattr(eigensolver, "_Factor", CountingFactor)
    return made, probes


def spy_factors(monkeypatch, calls=None):
    """Record each SuperLU factor of H - sigma that eigensolver makes.

    A FactorCall is appended to calls (a new list when None), which is
    returned; the factor itself is made as before.
    """
    calls = [] if calls is None else calls
    factor = eigensolver._factor

    def spy(matrix, sigma, precision):
        calls.append(FactorCall(sigma, np.dtype(precision), blas_threads()))
        return factor(matrix, sigma, precision)

    monkeypatch.setattr(eigensolver, "_factor", spy)
    return calls
