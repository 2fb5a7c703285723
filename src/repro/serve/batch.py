"""Lockstep batched seeded-walk execution for the query service.

The service answers single-seed personalized-PageRank / RWR queries.
Both reduce to the same damped power recurrence on a normalised
operator ``A`` (``pagerank_operator`` for PPR, ``rwr_operator`` for
RWR)::

    r^(k+1) = alpha * (A @ r^(k)) + (1 - alpha) * e_seed

Coalescing stacks the restart vectors of concurrent queries as columns
of ``E`` and advances every walk with one SpMM per iteration through
:func:`repro.mining.power_method.damped_walk`, the loop behind the
mining algorithms too.  Column ``j`` of :func:`seeded_batch` is
bit-identical to :func:`seeded_solo` on the same engine — the
column-independence argument is written down at ``damped_walk``.

A column whose deadline expires is frozen at its current iterate and
flagged — a degraded but valid point of the solo trajectory — while
the surviving columns are unaffected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.mining.power_method import WalkState, damped_walk

__all__ = ["WalkResult", "seeded_batch", "seeded_solo"]


@dataclass
class WalkResult:
    """One seed's walk outcome (a column of the batch, or a solo run)."""

    seed: int
    vector: np.ndarray
    iterations: int
    converged: bool
    expired: bool  # the per-query deadline fired before convergence


def _check_seed(seed: int, n: int) -> int:
    seed = int(seed)
    if not 0 <= seed < n:
        raise ValidationError(f"seed {seed} out of range for n={n}")
    return seed


def seeded_batch(
    engine,
    n: int,
    seeds,
    *,
    alpha: float,
    tol: float,
    max_iter: int,
    deadlines=None,
    clock=time.monotonic,
) -> list[WalkResult]:
    """Advance ``len(seeds)`` personalized walks in lockstep.

    ``deadlines`` is an optional per-seed list of absolute ``clock()``
    instants (or ``None`` entries); a column whose instant passes is
    frozen at its current iterate and marked ``expired`` without
    touching the rest of the batch.
    """
    seeds = [_check_seed(s, n) for s in seeds]
    k = len(seeds)
    if k == 0:
        return []
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    E = np.zeros((n, k))
    E[seeds, np.arange(k)] = 1.0
    base = (1.0 - alpha) * E
    walk = damped_walk(
        engine, WalkState.start(E), base, alpha=alpha, tol=tol,
        max_iter=max_iter, deadlines=deadlines, clock=clock,
    )
    return [
        WalkResult(
            seed=seeds[j],
            vector=walk.frozen[:, j].copy(),
            iterations=int(walk.iteration_counts[j]),
            converged=bool(walk.converged[j]),
            expired=bool(walk.expired[j]),
        )
        for j in range(k)
    ]


def seeded_solo(
    engine,
    n: int,
    seed: int,
    *,
    alpha: float,
    tol: float,
    max_iter: int,
    deadline: float | None = None,
    clock=time.monotonic,
) -> WalkResult:
    """The single-seed walk a batched column must reproduce: the
    width-1 call of the same loop (its SpMV path)."""
    return seeded_batch(
        engine, n, [seed], alpha=alpha, tol=tol, max_iter=max_iter,
        deadlines=None if deadline is None else [deadline], clock=clock,
    )[0]
