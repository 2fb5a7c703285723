"""``mining-1m``: batch PageRank then HITS on a 2^20-node R-MAT graph.

A job is one ``pagerank()`` call followed by one ``hits()`` call, each
from the adjacency to a converged vector with the default kernel.  Every
call rebuilds its operator, format and plan, so operator build, format
and plan build, SpMV/SpMM and the power loop do all the work; the
serving and dynamic-graph layers sit idle.
"""

from __future__ import annotations

import time

import numpy as np

from harness import array_bytes, host_copy_gbs, median, percentile, timed
from repro import obs
from repro.graphs.rmat import rmat_graph
from repro.kernels.base import create
from repro.mining.hits import hits, hits_operator
from repro.mining.pagerank import pagerank, pagerank_operator
from repro.tuner.fingerprint import matrix_fingerprint

TOL = 1e-8
DAMPING = 0.85
#: Second format of the differential bitwise class, used as reference.
REFERENCE_KERNEL = "cpu-csr"
#: Two tol-converged vectors of one fixed point lie within
#: 2 * tol / (1 - damping) in L1 for PageRank; HITS has no such closed
#: form, so both use this looser bound, fixed before any run.
CHECK_L1 = 100 * TOL
SETUP_REPEATS = 3
#: Jobs per untraced run; the median of two halves the weight of a
#: slow spell of the host on the reported job time.
MIN_JOBS = 2


class TimedEngine:
    """Executor wrapper that records one span per SpMV/SpMM call.

    ``pagerank``/``hits`` accept it as ``executor=`` because it exposes
    the executor surface they use: ``shape``, ``spmv`` and ``spmm``.
    """

    def __init__(self, kernel, spans, parent):
        self.kernel = kernel
        self.shape = kernel.shape
        self.spans = spans
        self.parent = parent
        self.spmv_seconds: list[float] = []
        self.spmm_seconds: list[float] = []

    def spmv(self, x, out=None):
        tick = time.perf_counter()
        result = self.kernel.spmv(x, out=out)
        tock = time.perf_counter()
        self.spmv_seconds.append(tock - tick)
        self.spans.add("exec.spmv", tick, tock, self.parent)
        return result

    def spmm(self, X, out=None):
        tick = time.perf_counter()
        result = self.kernel.spmm(X, out=out)
        tock = time.perf_counter()
        self.spmm_seconds.append(tock - tick)
        self.spans.add("exec.spmm", tick, tock, self.parent)
        return result


def _setup_once(adjacency):
    """One-off costs before the first answer: operator, format and plan
    build plus the fingerprint, as every ``pagerank()`` call pays them."""
    tick = time.perf_counter()
    operator = pagerank_operator(adjacency)
    kernel = create("hyb", operator)
    plan = kernel.spmv_plan()
    matrix_fingerprint(operator)
    seconds = time.perf_counter() - tick
    return seconds, array_bytes(plan)


def _job(adjacency, spans):
    """One mining job; returns both results and both call times."""
    tick = time.perf_counter()
    pr = pagerank(adjacency, damping=DAMPING, tol=TOL)
    mid = time.perf_counter()
    hi = hits(adjacency, tol=TOL)
    tock = time.perf_counter()
    job = spans.add("mining.job", tick, tock)
    spans.add("mining.pagerank", tick, mid, job)
    spans.add("mining.hits", mid, tock, job)
    return pr, hi, mid - tick, tock - mid


def _loop_self_seconds(result, engine_seconds) -> float:
    """Loop time outside the engine call, summed over iterations."""
    records = result.extra["convergence"]["records"]
    return sum(r["seconds"] for r in records) - sum(engine_seconds)


def _probe_pagerank(adjacency, spans, layers, timing):
    """Traced PageRank with each layer's public call timed separately."""
    root = spans.open("probe.pagerank")
    operator, layers["mining.operator_build_s"] = timed(
        pagerank_operator, adjacency
    )
    kernel, timing["create"] = timed(create, "hyb", operator)
    plan, timing["plan"] = timed(kernel.spmv_plan)
    _, layers["tuner.fingerprint_s"] = timed(matrix_fingerprint, operator)
    _, timing["cost"] = timed(kernel.cost)
    n = operator.n_rows
    kernel.spmv(np.full(n, 1.0 / n), out=np.empty(n))  # warm the pool
    engine = TimedEngine(kernel, spans, root)
    misses = obs.METRICS.counter_total("pool.misses")
    result, timing["call"] = timed(
        pagerank, adjacency, kernel=kernel, executor=engine,
        damping=DAMPING, tol=TOL,
    )
    timing["pool_misses"] = obs.METRICS.counter_total("pool.misses") - misses
    spans.close(root)
    layers["formats.build_s"] = timing["create"]
    layers["exec.plan_build_s"] = timing["plan"]
    layers["gpu.cost_s"] = timing["cost"]
    spmv_s = median(engine.spmv_seconds)
    layers["exec.spmv_ms"] = spmv_s * 1e3
    layers["exec.spmv_calls"] = len(engine.spmv_seconds)
    spmv_bytes = array_bytes(plan) + 2 * n * 8  # plan arrays, x and y
    layers["exec.spmv_bytes"] = spmv_bytes
    layers["exec.spmv_gbs"] = spmv_bytes / spmv_s / 1e9
    layers["mining.pagerank_iterations"] = result.iterations
    return result, _loop_self_seconds(result, engine.spmv_seconds)


def _probe_hits(adjacency, spans, layers, timing):
    root = spans.open("probe.hits")
    operator = hits_operator(adjacency)
    kernel, timing["create"] = timed(create, "hyb", operator)
    _, timing["plan"] = timed(kernel.spmv_plan)
    _, timing["cost"] = timed(kernel.cost)
    n2 = operator.n_rows
    kernel.spmm(np.zeros((n2, 2)), out=np.empty((n2, 2)))  # warm the pool
    engine = TimedEngine(kernel, spans, root)
    misses = obs.METRICS.counter_total("pool.misses")
    result, timing["call"] = timed(
        hits, adjacency, kernel=kernel, executor=engine, tol=TOL
    )
    timing["pool_misses"] = obs.METRICS.counter_total("pool.misses") - misses
    spans.close(root)
    layers["exec.spmm_ms"] = median(engine.spmm_seconds) * 1e3
    layers["exec.spmm_calls"] = len(engine.spmm_seconds)
    layers["mining.hits_iterations"] = result.iterations
    return result, _loop_self_seconds(result, engine.spmm_seconds)


def _check(solves, adjacency) -> int:
    """Compare every solve with a reference solve on CSR; returns the
    number of solves that failed (unconverged or off the reference)."""
    ref_pr = pagerank(
        adjacency, kernel=REFERENCE_KERNEL, damping=DAMPING, tol=TOL
    )
    ref_hits = hits(adjacency, kernel=REFERENCE_KERNEL, tol=TOL)
    failed = 0
    for result in solves:
        ref = ref_pr if result.algorithm == "pagerank" else ref_hits
        distance = float(np.abs(result.vector - ref.vector).sum())
        if not result.converged or distance > CHECK_L1:
            failed += 1
    return failed


def run(sizes, seed, seconds, trace, spans):
    """Run the workload; returns the result dict ``run.py`` reports."""
    layers = {}
    if trace:
        layers["host.copy_gbs"] = host_copy_gbs(sizes["copy_bytes"])
    adjacency = rmat_graph(sizes["nodes"], sizes["edges"], seed=seed)
    n = adjacency.n_rows
    report = {"nodes": n, "nnz": adjacency.nnz}
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            setup_s, operator_bytes = _setup_once(adjacency)
            setups.append(setup_s)
        # Whole jobs only: at least MIN_JOBS, then another while the last
        # one's time still fits before the deadline.
        deadline = time.perf_counter() + seconds
        jobs = [_job(adjacency, spans)]
        while len(jobs) < MIN_JOBS or (
            time.perf_counter() + jobs[-1][2] + jobs[-1][3] <= deadline
        ):
            jobs.append(_job(adjacency, spans))
        job_s = [pr_s + hi_s for _, _, pr_s, hi_s in jobs]
        iterations = sum(pr.iterations + hi.iterations for pr, hi, _, _ in jobs)
        e2e = {
            "setup_s": median(setups),
            "answer_p50_ms": median(job_s) * 1e3,
            "answer_p90_ms": percentile(job_s, 90) * 1e3,
            "answers_per_s": len(jobs) / sum(job_s),
            "iterations_per_s": iterations / sum(job_s),
        }
        report.update({
            "jobs": len(jobs),
            "pagerank_solve_s": median([j[2] for j in jobs]),
            "hits_solve_s": median([j[3] for j in jobs]),
            "pagerank_iterations": jobs[0][0].iterations,
            "hits_iterations": jobs[0][1].iterations,
        })
        solves = [r for pr, hi, _, _ in jobs for r in (pr, hi)]
    else:
        e2e = {}
        pr, hi, pr_s, hi_s = _job(adjacency, spans)
        layers["mining.pagerank_solve_s"] = pr_s
        layers["mining.hits_solve_s"] = hi_s
        obs.enable()
        obs.METRICS.reset()
        pr_timing, hi_timing = {}, {}
        pr_probe, pr_self = _probe_pagerank(
            adjacency, spans, layers, pr_timing
        )
        hi_probe, hi_self = _probe_hits(adjacency, spans, layers, hi_timing)
        obs.disable()
        # Steady state: allocations inside the solves, after warm-up.
        layers["exec.pool_misses"] = (
            pr_timing["pool_misses"] + hi_timing["pool_misses"]
        )
        layers["mining.loop_self_ms"] = (pr_self + hi_self) / (
            pr_probe.iterations + hi_probe.iterations
        ) * 1e3
        layers["exec.spmv_bw_frac"] = (
            layers["exec.spmv_gbs"] / layers["host.copy_gbs"]
        )
        # A plain pagerank()/hits() call does the probe's separately
        # timed create, plan build and cost inside itself.
        traced = sum(
            t["call"] + t["create"] + t["plan"] + t["cost"]
            for t in (pr_timing, hi_timing)
        )
        layers["obs.overhead_frac"] = traced / (pr_s + hi_s) - 1.0
        operator_bytes = layers["exec.spmv_bytes"] - 2 * n * 8
        report["copy_array_bytes"] = sizes["copy_bytes"]
        solves = [pr, hi, pr_probe, hi_probe]
    report["operator_bytes"] = operator_bytes
    report["vector_bytes"] = 2 * n * 8
    failed = _check(solves, adjacency)
    report["checked"] = len(solves)
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": len(solves),
        "failed": failed,
        "report": report,
    }
