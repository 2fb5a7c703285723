"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.coo import COOMatrix
from repro.gpu.spec import CPUSpec, DeviceSpec
from repro.graphs.chung_lu import chung_lu_graph


@pytest.fixture
def device() -> DeviceSpec:
    """The paper's device."""
    return DeviceSpec.tesla_c1060()


@pytest.fixture
def small_cache_device() -> DeviceSpec:
    """A C1060 with a small texture cache so tiling kicks in on tiny
    test matrices (tile width 256 columns)."""
    return DeviceSpec.tesla_c1060().scaled(texture_cache_bytes=1024)


@pytest.fixture
def cpu() -> CPUSpec:
    return CPUSpec.opteron_2218()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def powerlaw_matrix() -> COOMatrix:
    """A small power-law adjacency matrix (1000 nodes, ~8K edges)."""
    return chung_lu_graph(1000, 10_000, exponent=2.1, seed=3)


@pytest.fixture
def tiny_matrix() -> COOMatrix:
    """The 8x8 example from Figure 1 of the paper (hand-checkable)."""
    dense = np.array(
        [
            [1, 0, 0, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 1, 0, 0, 0],
            [1, 0, 1, 0, 0, 0, 0, 0],
            [0, 1, 0, 1, 0, 0, 1, 0],
            [1, 0, 0, 0, 1, 0, 0, 0],
            [0, 1, 0, 1, 0, 1, 0, 0],
            [1, 0, 0, 0, 0, 0, 1, 0],
            [0, 1, 0, 1, 0, 0, 0, 1],
        ],
        dtype=float,
    )
    rows, cols = np.nonzero(dense)
    return COOMatrix(rows, cols, dense[rows, cols], (8, 8))


def random_coo(
    n_rows: int,
    n_cols: int,
    nnz: int,
    *,
    seed: int = 0,
) -> COOMatrix:
    """Uniform random test matrix with distinct coordinates."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    data = rng.standard_normal(nnz)
    return COOMatrix.from_unsorted(rows, cols, data, (n_rows, n_cols))


def reference_solo_walk(
    engine, n: int, seed: int, *, alpha: float, tol: float, max_iter: int,
    expired: bool = False,
):
    """Independent oracle for one seeded walk, written out by hand:
    SpMV, scalar multiply, ``+= base`` and ``l1_delta`` per iteration.

    Returns ``(vector, iterations, converged)``.  ``expired=True`` is a
    deadline already passed at entry: the walk stops before its first
    step, at the restart vector.
    """
    from repro.mining.power_method import l1_delta

    e = np.zeros(n)
    e[seed] = 1.0
    base = (1.0 - alpha) * e
    r = e.copy()
    r_new = np.empty(n)
    scratch = np.empty(n)
    iterations = 0
    converged = False
    steps = 0 if expired else max_iter
    for iteration in range(1, steps + 1):
        engine.spmv(r, out=r_new)
        np.multiply(r_new, alpha, out=r_new)
        r_new += base
        delta = l1_delta(r_new, r, scratch=scratch)
        iterations = iteration
        r, r_new = r_new, r
        if delta < tol:
            converged = True
            break
    return r, iterations, converged
