"""Shared power-method infrastructure: the damped power loop and the
run plumbing (engine, checkpoint, warm start, trace) of the mining
algorithms."""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.gpu.costs import CostReport
from repro.obs import metrics as _metrics
from repro.obs.convergence import convergence_trace

__all__ = [
    "MiningResult",
    "WalkState",
    "checkpoint_hook",
    "convergence_trace",
    "damped_walk",
    "finish_run",
    "l1_delta",
    "resolve_checkpoint",
    "resolve_engine",
    "resolve_warm_start",
    "resume_checkpoint",
]


@contextmanager
def resolve_engine(
    kernel,
    operator,
    executor=None,
    n_shards=None,
    tune=False,
    shard_mode=None,
):
    """Choose the object whose ``spmv``/``spmm`` drives a power loop.

    With neither ``executor`` nor ``n_shards`` given, the loop runs on
    the kernel's cached single-shard plan — unless ``REPRO_SPMV_SHARDS``
    forces the sharded executor underneath every mining call (the CI
    configuration).  ``n_shards`` (an int, or ``"auto"`` for the
    nnz-and-cores policy) builds a :class:`~repro.exec.ShardedExecutor`
    on the operator for the duration of the run; ``shard_mode``
    (``"thread"``/``"process"``, default ``REPRO_SPMV_MODE`` or thread)
    selects its fan-out mechanism.  A caller-owned ``executor``
    (pre-built on the same operator, reusable across runs) is used
    as-is and left open.  ``tune=True`` asks the measured auto-tuner
    (:func:`repro.tuner.tune`) for the operator's fastest ``format x
    backend x shard-count x mode`` configuration — mutually exclusive
    with ``executor``/``n_shards``/``shard_mode``, which pin what the
    tuner would decide.
    """
    from repro.exec.sharded import ShardedExecutor, env_shard_count

    if tune:
        if executor is not None or n_shards is not None:
            raise ValidationError(
                "tune=True decides the executor configuration; do not "
                "also pass executor= or n_shards="
            )
        if shard_mode is not None:
            raise ValidationError(
                "tune=True decides the shard mode; do not also pass "
                "shard_mode="
            )
        from repro.tuner import tune as tune_matrix

        engine = tune_matrix(operator).build_engine(operator)
        try:
            yield engine
        finally:
            engine.close()
        return
    if executor is not None:
        if n_shards is not None:
            raise ValidationError(
                "pass either executor= or n_shards=, not both"
            )
        if shard_mode is not None:
            raise ValidationError(
                "a caller-owned executor fixes the shard mode; do not "
                "also pass shard_mode="
            )
        if executor.shape != operator.shape:
            raise ValidationError(
                f"executor shape {executor.shape} does not match the "
                f"operator shape {operator.shape}"
            )
        yield executor
        return
    if n_shards is None:
        n_shards = env_shard_count()
        if n_shards is None:
            if shard_mode is not None:
                raise ValidationError(
                    "shard_mode= needs a sharded run; pass n_shards= "
                    "(or set REPRO_SPMV_SHARDS) as well"
                )
            yield kernel
            return
    owned = ShardedExecutor(operator, n_shards, mode=shard_mode)
    try:
        yield owned
    finally:
        owned.close()


def resolve_checkpoint(checkpoint):
    """Normalise a mining ``checkpoint=`` argument.

    Accepts ``None`` (no snapshots), an int period, or a full
    :class:`~repro.resilience.CheckpointConfig`.
    """
    from repro.resilience.checkpoint import normalize_checkpoint

    return normalize_checkpoint(checkpoint)


def checkpoint_hook(config, algorithm: str, params: dict, arrays):
    """The :func:`damped_walk` ``on_iteration`` hook that snapshots
    ``arrays(walk)`` whenever ``config`` is due (``None`` without a
    config)."""
    if config is None:
        return None
    from repro.resilience.checkpoint import Checkpoint

    def on_iteration(walk):
        if config.due(walk.iteration):
            config.save(Checkpoint(
                algorithm=algorithm,
                iteration=walk.iteration,
                arrays=arrays(walk),
                params=params,
            ))

    return on_iteration


def resume_checkpoint(resume_from, algorithm: str, **require):
    """Load and validate a mining ``resume_from=`` argument.

    Accepts ``None``, a :class:`~repro.resilience.Checkpoint`, or a path
    to a saved ``.npz`` snapshot.  Parameter mismatches (wrong algorithm,
    wrong graph size, different damping, …) raise
    :class:`~repro.errors.CheckpointError` — a resumed run must replay
    the uninterrupted trajectory bitwise, which only holds when the
    recurrence is identical.
    """
    if resume_from is None:
        return None
    from repro.resilience.checkpoint import load_checkpoint

    snapshot = load_checkpoint(resume_from)
    snapshot.require(algorithm, **require)
    if _metrics._ENABLED:
        _metrics.METRICS.inc(
            "resilience.checkpoints.resumed", algorithm=algorithm
        )
    return snapshot


def resolve_warm_start(
    warm_start, resume_from, shape: tuple[int, ...], *, key: str,
    algorithm: str, fingerprint: str | None = None, check: bool = True,
):
    """Normalise a mining ``warm_start=`` argument to a seed array.

    ``warm_start`` seeds the *initial iterate* of a fresh run — the
    dynamic-graph idiom: after a small update stream, the previous
    converged vector is already near the new fixed point and the power
    method closes the residual in a fraction of the cold iterations.
    It accepts an array of the right shape, a :class:`MiningResult`
    (its ``vector``), or a :class:`~repro.resilience.Checkpoint`
    instance / ``.npz`` path (its ``key`` array).

    Unlike ``resume_from`` — which replays an *interrupted* trajectory
    bitwise and therefore validates the full recurrence — a warm start
    is a new trajectory from a caller-chosen point: iteration counting
    restarts at zero and only shape/finiteness are enforced.  The two
    are mutually exclusive; asking for both is a contradiction
    (resume pins the iterate, warm start replaces it) and raises.

    A :class:`MiningResult` additionally carries the structural
    fingerprint of the operator it converged on
    (``extra["operator_fingerprint"]``).  When the caller passes this
    run's ``fingerprint`` and ``check`` is true (the default), a
    mismatch raises :class:`~repro.errors.ValidationError` — a result
    from a *different* graph that happens to share the shape is almost
    always a caller bug (the wrong variable, a stale handle), and the
    power method would silently converge to the right answer from a
    nonsense seed, hiding it.  Pass ``check=False`` (the mining entry
    points' ``warm_start_check=False``) for the dynamic-graph idiom
    where the fingerprint legitimately changed between runs.
    """
    if warm_start is None:
        return None
    if resume_from is not None:
        raise ValidationError(
            f"{algorithm}: warm_start and resume_from are mutually "
            "exclusive — resume replays an interrupted trajectory from "
            "its own iterate, warm start begins a new one"
        )
    from repro.resilience.checkpoint import Checkpoint, load_checkpoint

    value = warm_start
    if isinstance(value, MiningResult):
        stamped = value.extra.get("operator_fingerprint")
        if (
            check
            and fingerprint is not None
            and stamped is not None
            and stamped != fingerprint
        ):
            raise ValidationError(
                f"{algorithm}: warm_start comes from a different matrix "
                f"(operator fingerprint {stamped} != {fingerprint}); "
                "pass warm_start_check=False if the graph legitimately "
                "changed (the dynamic-update idiom)"
            )
        value = value.vector
    elif isinstance(value, Checkpoint):
        value = value.array(key)
    elif isinstance(value, (str, os.PathLike)):
        value = load_checkpoint(value).array(key)
    value = np.asarray(value, dtype=np.float64)
    if value.shape != shape:
        raise ValidationError(
            f"{algorithm}: warm_start has shape {value.shape}, "
            f"expected {shape}"
        )
    if value.size and not np.isfinite(value).all():
        raise ValidationError(
            f"{algorithm}: warm_start contains NaN or Inf"
        )
    # A private copy: the loop double-buffers in place and must never
    # scribble on the caller's previous result.
    return value.copy()


def l1_delta(
    new: np.ndarray, old: np.ndarray, scratch: np.ndarray | None = None
) -> float:
    """L1 distance between successive iterates (the convergence check
    the GPU implementations realise with a parallel reduction).

    ``scratch`` — a buffer of the same shape — makes the check
    allocation-free; the value is bit-identical either way (same
    subtract/abs/pairwise-sum sequence).
    """
    if scratch is None:
        return float(np.abs(new - old).sum())
    np.subtract(new, old, out=scratch)
    np.abs(scratch, out=scratch)
    return float(scratch.sum())


@dataclass
class WalkState:
    """Per-column state of a :func:`damped_walk` over an ``(n, k)`` block.

    ``R`` is the current C-ordered iterate and ``iteration`` the last
    completed iteration.  A column stops when it converges, when its
    deadline passes (``expired``) or, without being flagged either way,
    when the iteration budget runs out; ``frozen[:, j]`` holds its
    answer from then on (and the start iterate before).  This is the
    whole state the loop carries across iterations, so a walk resumes
    bitwise from a copy of it.
    """

    R: np.ndarray
    frozen: np.ndarray
    active: np.ndarray
    converged: np.ndarray
    expired: np.ndarray
    iteration_counts: np.ndarray
    iteration: int = 0

    @classmethod
    def start(cls, R: np.ndarray, *, iteration: int = 0) -> "WalkState":
        """A fresh walk from the iterate block ``R`` (owned, C-ordered)."""
        R = np.ascontiguousarray(R)
        k = R.shape[1]
        return cls(
            R=R,
            frozen=R.copy(),
            active=np.ones(k, dtype=bool),
            converged=np.zeros(k, dtype=bool),
            expired=np.zeros(k, dtype=bool),
            iteration_counts=np.full(k, iteration, dtype=np.int64),
            iteration=iteration,
        )


def damped_walk(
    engine,  # anything with spmv(x, out=) and spmm(X, out=)
    walk: WalkState,
    base: np.ndarray,
    *,
    alpha: float,
    tol: float,
    max_iter: int,
    deadlines=None,
    clock=time.monotonic,
    on_residual=None,
    on_iteration=None,
) -> WalkState:
    """Advance ``walk`` by ``R <- alpha * (A @ R) + base`` until every
    column stops or iteration ``max_iter`` is done.

    The one damped power loop behind PageRank (k = 1), RWR (k =
    queries), the served seeded walks and the multi-GPU PageRank.
    Column ``j`` of a width-``k`` walk is bit-identical to the
    width-1 walk of column ``j`` alone, because every step is:

    * the product: ``engine.spmm(R)[:, j] == engine.spmv(R[:, j])``,
      the executor/plan contract the exec suite pins for every format,
      backend and shard count (k = 1 calls ``spmv`` on the contiguous
      column view);
    * the update: an elementwise scalar multiply-add, so column ``j``
      of ``alpha * Y + B`` equals ``alpha * Y[:, j] + B[:, j]``;
    * the residual: ``l1_delta``'s subtract, abs and pairwise sum.  At
      k = 1 it is ``l1_delta`` itself on the contiguous columns.  At
      k > 1 subtract and abs run over the whole block (elementwise, so
      the same values) and each active column is staged into one
      contiguous buffer before its ``sum()`` — the exact bytes and
      pairwise tree of the solo reduction.  Staging the difference
      block costs one strided copy per column instead of two.

    A converged column is frozen at its new iterate and then only rides
    along: its extra products cannot perturb the other columns.
    ``deadlines`` (per column, absolute ``clock()`` instants or
    ``None``) are checked before each step; an expired column is frozen
    at its current iterate.  Hooks: ``on_residual(iteration, j, delta,
    column)`` after each active column's residual (``column`` is its new
    iterate), and ``on_iteration(walk)`` after each completed iteration.
    """
    R = walk.R
    n, k = R.shape
    active, frozen = walk.active, walk.frozen
    R_new = np.empty_like(R)
    D = np.empty_like(R) if k > 1 else None
    scratch = np.empty(n)
    for iteration in range(walk.iteration + 1, max_iter + 1):
        if deadlines is not None:
            now = clock()
            for j in np.nonzero(active)[0]:
                limit = deadlines[j]
                if limit is not None and now >= limit:
                    active[j] = False
                    walk.expired[j] = True
                    frozen[:, j] = R[:, j]
        if not active.any():
            break
        if D is None:
            engine.spmv(R[:, 0], out=R_new[:, 0])
        else:
            engine.spmm(R, out=R_new)
        np.multiply(R_new, alpha, out=R_new)
        R_new += base
        if D is not None:
            np.subtract(R_new, R, out=D)
            np.abs(D, out=D)
        for j in np.nonzero(active)[0]:
            if D is None:
                delta = l1_delta(R_new[:, 0], R[:, 0], scratch=scratch)
            else:
                np.copyto(scratch, D[:, j])
                delta = float(scratch.sum())
            walk.iteration_counts[j] = iteration
            if on_residual is not None:
                on_residual(iteration, j, delta, R_new[:, j])
            if delta < tol:
                active[j] = False
                walk.converged[j] = True
                frozen[:, j] = R_new[:, j]
        R, R_new = R_new, R
        walk.R, walk.iteration = R, iteration
        if on_iteration is not None:
            on_iteration(walk)
    for j in np.nonzero(active)[0]:
        # Iteration budget reached: the latest iterate, not converged.
        frozen[:, j] = R[:, j]
    return walk


@dataclass
class MiningResult:
    """Outcome of an iterative mining run.

    ``total_cost`` is the simulated GPU (or CPU) time of the whole run:
    the per-iteration cost scaled by the realised iteration count.  The
    paper's Tables 1/4/5 report exactly this total; Figures 3/8 report
    the per-iteration GFLOPS/GB/s, available via ``per_iteration``.
    """

    algorithm: str
    kernel_name: str
    vector: np.ndarray
    iterations: int
    converged: bool
    per_iteration: CostReport
    total_cost: CostReport
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.total_cost.time_seconds

    @property
    def gflops(self) -> float:
        return self.per_iteration.gflops

    @property
    def bandwidth_gbs(self) -> float:
        return self.per_iteration.bandwidth_gbs

    def require_converged(self) -> "MiningResult":
        """Raise unless the run converged (for strict callers)."""
        if not self.converged:
            raise ConvergenceError(
                f"{self.algorithm} with {self.kernel_name} did not "
                f"converge in {self.iterations} iterations"
            )
        return self

    @property
    def convergence(self) -> dict | None:
        """The per-iteration convergence trace recorded by the
        observability layer, or ``None`` when it was disabled."""
        return self.extra.get("convergence")


def finish_run(trace, result: MiningResult) -> MiningResult:
    """Attach a convergence trace to a finished run and report it.

    Every mining algorithm funnels its result through here: when the
    observability layer is on, the per-iteration record lands in
    ``result.extra["convergence"]`` and the run counters/iteration
    histogram on the global metrics registry; when it is off this is a
    single attribute check.
    """
    if trace.active:
        result.extra["convergence"] = trace.to_dict()
    if _metrics._ENABLED:
        _metrics.METRICS.inc("mining.runs", algorithm=result.algorithm)
        _metrics.METRICS.observe(
            "mining.iterations",
            result.iterations,
            algorithm=result.algorithm,
        )
    return result
