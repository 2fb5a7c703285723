"""Random Walk with Restart (paper Appendix F, Equation 9).

.. math:: r_i^{(k+1)} = c\\,W r_i^{(k)} + (1 - c)\\,e_i

``W`` is the column-normalised adjacency of the *undirected* graph
("since RWR operates on undirected graphs, we treat each link in our
directed graph datasets as an undirected link"); ``c = 0.9`` and the
experiment averages 25 random query nodes — "the number of computations
per iteration is the same whichever node is selected as query".
"""

from __future__ import annotations

import numpy as np

from repro.errors import CheckpointError, ValidationError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.gpu.spec import DeviceSpec
from repro.kernels.base import SpMVKernel, create
from repro.mining.power_method import (
    MiningResult,
    WalkState,
    checkpoint_hook,
    convergence_trace,
    damped_walk,
    finish_run,
    resolve_checkpoint,
    resolve_engine,
    resolve_warm_start,
    resume_checkpoint,
)
from repro.mining.vector_kernels import axpy_cost, reduction_cost
from repro.tuner.fingerprint import matrix_fingerprint

__all__ = ["RWRResult", "random_walk_with_restart", "rwr_operator"]

RWRResult = MiningResult


def rwr_operator(adjacency: COOMatrix) -> COOMatrix:
    """Column-normalised adjacency of the symmetrised graph."""
    if adjacency.n_rows != adjacency.n_cols:
        raise ValidationError("RWR needs a square adjacency matrix")
    sym = COOMatrix.from_edges(
        np.concatenate([adjacency.rows, adjacency.cols]),
        np.concatenate([adjacency.cols, adjacency.rows]),
        adjacency.shape,
    )
    return CSCMatrix.from_coo(sym).normalize_cols().to_coo()


def random_walk_with_restart(
    adjacency: SparseMatrix,
    *,
    kernel: str | SpMVKernel = "hyb",
    device: DeviceSpec | None = None,
    restart: float = 0.9,
    queries: np.ndarray | None = None,
    n_queries: int = 25,
    seed: int = 11,
    tol: float = 1e-8,
    max_iter: int = 200,
    executor=None,
    n_shards: int | str | None = None,
    shard_mode: str | None = None,
    tune: bool = False,
    checkpoint=None,
    resume_from=None,
    warm_start=None,
    warm_start_check: bool = True,
    **kernel_options,
) -> MiningResult:
    """Run RWR for each query node and average the simulated cost.

    The returned ``vector`` is the relevance vector of the *last* query;
    ``extra['per_query_iterations']`` holds all iteration counts and
    ``total_cost`` is the **mean** cost over queries (what Table 5
    reports: "the performance is reported by averaging").

    All query walks advance together as the columns of one
    :func:`~repro.mining.power_method.damped_walk` — one SpMM per
    iteration, so the matrix structure is gathered once per step for
    every seed instead of once per seed per step.  Each column evolves
    independently, so per-query iteration counts and vectors are
    bit-identical to running the queries one at a time.

    ``executor``/``n_shards`` route each step's SpMV/SpMM through a
    :class:`~repro.exec.ShardedExecutor` built on the column-normalised
    operator; walks stay bit-identical to the single-shard run.

    ``checkpoint``/``resume_from`` snapshot and restore the full walk
    state (``R``/``frozen``/``active``/``iteration_counts`` plus the
    query set — the checkpoint's queries *are* the resumed run's
    queries).

    ``warm_start`` seeds the walk matrix of a fresh run — an
    ``(n, len(queries))`` array or a checkpoint / ``.npz`` path (its
    ``"R"`` array) from a previous run over the *same query set* —
    iteration counting restarts at zero; mutually exclusive with
    ``resume_from``.
    """
    if not 0 < restart < 1:
        raise ValidationError(f"restart must be in (0, 1), got {restart}")
    coo = adjacency.to_coo()
    operator = rwr_operator(coo)
    fingerprint = matrix_fingerprint(operator)
    if isinstance(kernel, SpMVKernel):
        spmv = kernel
    else:
        spmv = create(kernel, operator, device=device, **kernel_options)
    n = operator.n_rows
    ckpt_config = resolve_checkpoint(checkpoint)
    if warm_start is not None and resume_from is not None:
        # The full resolution needs the finalised query set (for the
        # expected shape), but the contradiction is reportable now,
        # before any checkpoint file is touched.
        resolve_warm_start(
            warm_start, resume_from, (n, 0), key="R", algorithm="rwr"
        )
    snapshot = resume_checkpoint(resume_from, "rwr", n=n, restart=restart)
    if snapshot is not None:
        resumed_queries = np.asarray(
            snapshot.array("queries"), dtype=np.int64
        )
        if queries is not None and not np.array_equal(
            np.asarray(queries, dtype=np.int64), resumed_queries
        ):
            raise CheckpointError(
                "queries passed alongside resume_from do not match the "
                "checkpoint's query set"
            )
        queries = resumed_queries
    rng = np.random.default_rng(seed)
    if queries is None:
        queries = rng.choice(n, size=min(n_queries, n), replace=False)
    queries = np.asarray(queries, dtype=np.int64)
    if queries.size == 0:
        raise ValidationError("at least one query node is required")
    if queries.min() < 0 or queries.max() >= n:
        raise ValidationError("query node out of range")
    warm = resolve_warm_start(
        warm_start, resume_from, (n, queries.size), key="R",
        algorithm="rwr", fingerprint=fingerprint,
        check=warm_start_check,
    )

    dev = spmv.device
    per_iteration = (
        spmv.cost()
        + axpy_cost(n, dev)       # restart update
        + reduction_cost(n, dev)  # convergence check
    ).relabel(f"rwr/{spmv.name}")

    k = queries.size
    E = np.zeros((n, k))
    E[queries, np.arange(k)] = 1.0
    base = (1.0 - restart) * E
    if snapshot is None:
        walk = WalkState.start(E if warm is None else warm)
    else:
        walk = _resumed_walk(snapshot, n, k)
    trace = convergence_trace("rwr", restart=restart, tol=tol)
    on_residual = None
    if trace.active:
        def on_residual(iteration, j, delta, _column):
            trace.record(iteration, delta, query=float(queries[j]))

    on_iteration = checkpoint_hook(
        ckpt_config, "rwr", {"n": n, "restart": restart, "tol": tol},
        lambda walk: {
            "R": walk.R.copy(),
            "frozen": walk.frozen.copy(),
            "active": walk.active.copy(),
            "iteration_counts": walk.iteration_counts.copy(),
            "queries": queries.copy(),
        },
    )
    with resolve_engine(
        spmv, operator, executor, n_shards, tune=tune,
        shard_mode=shard_mode,
    ) as engine:
        trace.tick()
        damped_walk(
            engine, walk, base, alpha=restart, tol=tol, max_iter=max_iter,
            on_residual=on_residual, on_iteration=on_iteration,
        )
        shards_used = getattr(engine, "n_shards", 1)
    iteration_counts = walk.iteration_counts.tolist()
    mean_iterations = float(np.mean(iteration_counts))
    total = per_iteration.scaled(mean_iterations).relabel(per_iteration.label)
    extra = {
        "restart": restart,
        "queries": queries,
        "per_query_iterations": iteration_counts,
        "n_shards": shards_used,
        "operator_fingerprint": fingerprint,
    }
    if snapshot is not None:
        extra["resume_iteration"] = snapshot.iteration
    if warm is not None:
        extra["warm_start"] = True
    return finish_run(trace, MiningResult(
        algorithm="rwr",
        kernel_name=spmv.name,
        vector=np.ascontiguousarray(walk.frozen[:, -1]),
        iterations=int(round(mean_iterations)),
        converged=not walk.active.any(),
        per_iteration=per_iteration,
        total_cost=total,
        extra=extra,
    ))


def _resumed_walk(snapshot, n: int, k: int) -> WalkState:
    """The walk state a checkpoint froze.  ``E``/``base`` are pure
    functions of the queries, so resuming replays the remaining
    iterations bitwise."""
    arrays = {
        "R": np.array(snapshot.array("R"), dtype=np.float64),
        "frozen": np.array(snapshot.array("frozen"), dtype=np.float64),
        "active": np.array(snapshot.array("active"), dtype=bool),
        "iteration_counts": np.array(
            snapshot.array("iteration_counts"), dtype=np.int64
        ),
    }
    for name, shape in (
        ("R", (n, k)),
        ("frozen", (n, k)),
        ("active", (k,)),
        ("iteration_counts", (k,)),
    ):
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"checkpoint array {name!r} has shape "
                f"{arrays[name].shape}, expected {shape}"
            )
    active = arrays["active"]
    return WalkState(
        converged=~active,
        expired=np.zeros(k, dtype=bool),
        iteration=snapshot.iteration,
        **arrays,
    )
