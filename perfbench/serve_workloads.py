"""``serve-mixed`` and ``serve-dynamic``: closed-loop traffic into a warm
:class:`~repro.serve.QueryService`.

Callers are asyncio coroutines on the benchmark's one event loop; each
waits for its reply, encoded by ``reply_payload``, before it sends again.
Latency is taken from the caller, from ``query()`` to the encoded reply.
Every reply is replayed solo after the timed window and must match
bitwise, down to the encoded checksum.
"""

from __future__ import annotations

import asyncio
import hashlib
import time

import numpy as np

from harness import median, percentile
from repro import obs
from repro.errors import ServiceOverloadedError
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.graphs.dynamic import DynamicMatrix
from repro.graphs.rmat import rmat_graph
from repro.obs import TRACE
from repro.serve import QueryService
from repro.serve.server import reply_payload

GRAPH = "g"
#: Set-ups per untraced run (median reported); a serve-dynamic set-up
#: takes a fifth of a serve-mixed one, so it can afford more.
MIXED_SETUP_REPEATS = 3
DYNAMIC_SETUP_REPEATS = 7
#: An untraced run keeps sending past ``--seconds`` until it holds this
#: many answers, so ten of them lie beyond the reported p90.
MIN_ANSWERS = 100
MIXED_CALLERS = 8
MIXED_TOL = 1e-8
DYNAMIC_TOL = 1e-6
DYNAMIC_QUERIES = 2
#: Ops per update batch; the compaction threshold is ten batches, so
#: one batch in ten pays a compaction.
BATCH_OPS = 400
COMPACT_EVERY = 10
#: Rounds per segment of a traced serve-dynamic run.  A fixed count,
#: not a time window, so the dynamic counts repeat exactly per seed.
TRACED_ROUNDS = 30


def _checksum(vector) -> str:
    return "sha256:" + hashlib.sha256(
        np.ascontiguousarray(vector, dtype=np.float64).tobytes()
    ).hexdigest()


class Segment:
    """Answers, timings and check outcomes of one stretch of traffic."""

    def __init__(self, spans):
        self.spans = spans
        self.queries: list[dict] = []
        self.rejected = 0
        self.failed = 0
        self.mismatches = 0
        self.checked = 0
        self.elapsed = 0.0

    async def ask(self, service, parent=None, **request) -> dict | None:
        """One caller-side query; ``None`` when admission rejected it."""
        qid = len(self.queries) + self.rejected
        tick = time.perf_counter()
        try:
            reply = await service.query(GRAPH, **request)
        except ServiceOverloadedError:
            self.rejected += 1
            self.failed += 1
            return None
        mid = time.perf_counter()
        payload = reply_payload(reply)
        tock = time.perf_counter()
        span = self.spans.add("serve.query", tick, tock, parent, query=qid)
        self.spans.add("serve.encode", mid, tock, span, query=qid)
        record = {
            "qid": qid,
            "span": span,
            "start": tick,
            "latency": tock - tick,
            "encode": tock - mid,
            "service": reply.latency_seconds,
            "iterations": reply.iterations,
            "width": reply.batch_width,
            "checksum": payload["checksum"],
            "reply": reply,
        }
        self.queries.append(record)
        return record

    def check(self, record, version=None) -> None:
        """Replay one reply solo and drop it.  It fails when it did not
        converge, saw another data version than ``version``, or differs
        bitwise from the solo walk, encoded checksum included."""
        reply = record.pop("reply")
        solo = reply.solo().vector
        same = (
            np.array_equal(solo, reply.vector)
            and record["checksum"] == _checksum(solo)
        )
        stale = version is not None and reply.version != version
        self.checked += 1
        self.mismatches += not same
        self.failed += (not same) or reply.status != "ok" or stale

    def check_all(self) -> None:
        for record in self.queries:
            if "reply" in record:
                self.check(record)

    def e2e(self) -> dict:
        latencies = [q["latency"] for q in self.queries]
        iterations = sum(q["iterations"] for q in self.queries)
        return {
            "answer_p50_ms": median(latencies) * 1e3,
            "answer_p90_ms": percentile(latencies, 90) * 1e3,
            "answers_per_s": len(latencies) / self.elapsed,
            "iterations_per_s": iterations / self.elapsed,
        }


def _start_tracing() -> None:
    obs.enable()
    obs.METRICS.reset()
    TRACE.reset()


def _serve_layers(segment: Segment, warm_s: float) -> dict:
    """Per-layer serve numbers of a traced segment, from the library's
    ``serve.batch`` spans and ``spmm`` metrics plus caller timings."""
    origin = TRACE.origin
    batches = TRACE.find("serve.batch")
    ends = np.array([origin + e["start"] + e["seconds"] for e in batches])
    batch_spans = [
        segment.spans.add(
            "serve.batch", origin + e["start"],
            origin + e["start"] + e["seconds"], None,
            width=e["attrs"]["width"], algorithm=e["attrs"]["algorithm"],
            queries=[],
        )
        for e in batches
    ]
    waits = []
    for q in segment.queries:
        # The reply's service latency ends right after its batch span.
        i = int(np.argmin(np.abs(ends - (q["start"] + q["service"]))))
        waits.append(q["service"] - batches[i]["seconds"])
        segment.spans.spans[batch_spans[i]]["queries"].append(q["qid"])
        segment.spans.spans[q["span"]]["batch"] = batch_spans[i]
    metrics = obs.METRICS
    spmm = metrics.histogram_series("spmm.seconds").values()
    spmm_calls = sum(h["count"] for h in spmm)
    queries = segment.queries
    return {
        "serve.warm_s": warm_s,
        "serve.batch_width_mean": metrics.histogram("serve.batch.width")[
            "mean"
        ],
        "serve.coalesced_frac": sum(q["width"] > 1 for q in queries)
        / len(queries),
        "serve.batch_ms": median([e["seconds"] for e in batches]) * 1e3,
        "serve.wait_ms": median(waits) * 1e3,
        "serve.encode_ms": median([q["encode"] for q in queries]) * 1e3,
        "serve.iterations_mean": float(
            np.mean([q["iterations"] for q in queries])
        ),
        "serve.rejected": (
            metrics.counter_total("serve.rejected") + segment.rejected
        ),
        "serve.expired": metrics.counter_total("serve.deadline.expired"),
        "exec.spmm_ms": sum(h["total"] for h in spmm) / spmm_calls * 1e3,
        "exec.spmm_calls": spmm_calls,
        "exec.pool_misses": metrics.counter_total("pool.misses"),
    }


def _traced_layers(plain: Segment, traced: Segment, warm_s: float) -> dict:
    layers = _serve_layers(traced, warm_s)
    layers["obs.overhead_frac"] = (
        traced.e2e()["answer_p50_ms"] / plain.e2e()["answer_p50_ms"] - 1.0
    )
    return layers


def _result(segments, e2e, layers, report, extra_attempted=0,
            extra_failed=0, extra_checked=0) -> dict:
    if layers:
        layers["serve.mismatches"] = sum(s.mismatches for s in segments)
    report["queries"] = sum(len(s.queries) for s in segments)
    report["checked"] = sum(s.checked for s in segments) + extra_checked
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": report["queries"] + sum(s.rejected for s in segments)
        + extra_attempted,
        "failed": sum(s.failed for s in segments) + extra_failed,
        "report": report,
    }


def _graph(sizes, seed):
    adjacency = rmat_graph(sizes["nodes"], sizes["edges"], seed=seed)
    seeds = np.flatnonzero(np.asarray(adjacency.row_lengths()) >= 1)
    report = {
        "nodes": adjacency.n_rows,
        "nnz": adjacency.nnz,
        # CSR operator: float64 values, int64 indices and row pointers.
        "operator_bytes": adjacency.nnz * 16 + (adjacency.n_rows + 1) * 8,
    }
    return adjacency, seeds, report


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


async def _mixed_setup(adjacency, seeds):
    """Register and warm both operators; returns (service, seconds)."""
    tick = time.perf_counter()
    service = QueryService(max_batch=MIXED_CALLERS)
    service.register(GRAPH, adjacency)
    await service.query(GRAPH, algorithm="ppr", seed=int(seeds[0]),
                        tol=MIXED_TOL)
    await service.query(GRAPH, algorithm="rwr", seed=int(seeds[1]),
                        tol=MIXED_TOL)
    return service, time.perf_counter() - tick


async def _mixed_segment(service, seeds, seed, seconds, segment, salt,
                         min_answers=0):
    """Eight closed-loop callers, PPR:RWR 1:1, seeds of out-degree >= 1."""
    async def caller(index):
        rng = np.random.default_rng([seed, salt, index])
        while (time.perf_counter() < deadline
               or len(segment.queries) < min_answers):
            algorithm = "ppr" if rng.random() < 0.5 else "rwr"
            await segment.ask(
                service, algorithm=algorithm,
                seed=int(seeds[rng.integers(seeds.size)]), tol=MIXED_TOL,
            )

    tick = time.perf_counter()
    deadline = tick + seconds
    await asyncio.gather(*(caller(i) for i in range(MIXED_CALLERS)))
    segment.elapsed = time.perf_counter() - tick


async def _mixed(sizes, seed, seconds, trace, spans):
    adjacency, seeds, report = _graph(sizes, seed)
    report["vector_bytes"] = 2 * adjacency.n_rows * MIXED_CALLERS * 8
    setups = []
    for _ in range(1 if trace else MIXED_SETUP_REPEATS):
        if setups:
            service.close()
        service, setup_s = await _mixed_setup(adjacency, seeds)
        setups.append(setup_s)
    try:
        plain = Segment(spans)
        if not trace:
            await _mixed_segment(service, seeds, seed, seconds, plain, 0,
                                 min_answers=MIN_ANSWERS)
            e2e = {"setup_s": median(setups), **plain.e2e()}
            return [plain], e2e, {}, report
        # Same service, untraced half then traced half.
        await _mixed_segment(service, seeds, seed, seconds / 2, plain, 0)
        _start_tracing()
        traced = Segment(spans)
        await _mixed_segment(service, seeds, seed, seconds / 2, traced, 1)
        obs.disable()
        layers = _traced_layers(plain, traced, setups[0])
        return [plain, traced], {}, layers, report
    finally:
        service.close()


def run_mixed(sizes, seed, seconds, trace, spans):
    segments, e2e, layers, report = asyncio.run(
        _mixed(sizes, seed, seconds, trace, spans)
    )
    for segment in segments:
        segment.check_all()
    return _result(segments, e2e, layers, report)


# ----------------------------------------------------------------------
# serve-dynamic
# ----------------------------------------------------------------------


class EdgeMirror:
    """The benchmark's own edge set, rebuilt from scratch to check the
    dynamic matrix (unit weights, so the key set is the whole matrix)."""

    def __init__(self, adjacency):
        self.n = adjacency.n_rows
        self.keys = set((adjacency.rows * self.n + adjacency.cols).tolist())

    def apply(self, batch) -> None:
        for op in batch:
            key = op[1] * self.n + op[2]
            if op[0] == "insert":
                self.keys.add(key)
            else:
                self.keys.discard(key)

    def rebuilt(self) -> CSRMatrix:
        keys = np.fromiter(self.keys, dtype=np.int64, count=len(self.keys))
        coo = COOMatrix.from_edges(keys // self.n, keys % self.n,
                                   (self.n, self.n))
        return CSRMatrix.from_coo(coo)


def _update_batch(rng, adjacency):
    """Half unit-weight inserts of random edges, half deletes of base
    edges (a delete of an edge already gone is a no-op)."""
    n = adjacency.n_rows
    half = BATCH_OPS // 2
    src = rng.integers(n, size=half)
    dst = (src + 1 + rng.integers(n - 1, size=half)) % n
    picks = rng.integers(adjacency.nnz, size=BATCH_OPS - half)
    batch = [("insert", int(r), int(c), 1.0) for r, c in zip(src, dst)]
    batch += [
        ("delete", int(adjacency.rows[k]), int(adjacency.cols[k]))
        for k in picks
    ]
    return batch


async def _dynamic_setup(adjacency, seeds):
    """Base format build, register and warm; returns
    (service, matrix, seconds)."""
    tick = time.perf_counter()
    matrix = DynamicMatrix(
        CSRMatrix.from_coo(adjacency), nnz_delta=COMPACT_EVERY * BATCH_OPS
    )
    service = QueryService(max_batch=MIXED_CALLERS)
    service.register(GRAPH, matrix)
    await service.query(GRAPH, seed=int(seeds[0]), tol=DYNAMIC_TOL)
    return service, matrix, time.perf_counter() - tick


async def _dynamic_segment(service, matrix, adjacency, seeds, seed,
                           segment, *, seconds=None, rounds=None):
    """Closed-loop rounds: one update batch, ``notify_update``, then
    concurrent PPR queries that must see the new version.  Each round's
    replies are checked between rounds, outside the timed time, so old
    versions' operators are not kept alive."""
    update_rng = np.random.default_rng([seed, 7, 1])
    query_rng = np.random.default_rng([seed, 7, 2])
    mirror = EdgeMirror(adjacency)
    applies = []

    def more() -> bool:
        if rounds is not None:
            return len(applies) < rounds
        return segment.elapsed < seconds or len(segment.queries) < MIN_ANSWERS

    while more():
        batch = _update_batch(update_rng, adjacency)
        mirror.apply(batch)
        compactions = matrix.stats["compactions"]
        tick = time.perf_counter()
        matrix.apply_updates(batch)
        applied = time.perf_counter()
        compacted = matrix.stats["compactions"] > compactions
        applies.append((applied - tick, compacted, matrix.overlay_nnz))
        service.notify_update(GRAPH)
        version = matrix.data_version
        round_span = segment.spans.add("dynamic.round", tick, tick)
        segment.spans.add("dynamic.apply", tick, applied, round_span,
                          compacted=compacted)
        records = await asyncio.gather(*(
            segment.ask(service, round_span,
                        seed=int(seeds[query_rng.integers(seeds.size)]),
                        tol=DYNAMIC_TOL)
            for _ in range(DYNAMIC_QUERIES)
        ))
        segment.elapsed += segment.spans.close(round_span)
        for record in records:
            if record is not None:
                segment.check(record, version)
    return applies, mirror


def _final_check(matrix, mirror, seed) -> int:
    """Failures among the two end-of-run checks: no fallback rebuild,
    and an SpMV bitwise equal to the from-scratch rebuild."""
    x = np.random.default_rng([seed, 7, 3]).random(matrix.n_cols)
    same = np.array_equal(matrix.spmv(x), mirror.rebuilt().spmv(x))
    return int(matrix.stats["rebuilds"] != 0) + int(not same)


async def _dynamic_run(adjacency, seeds, seed, spans, **window):
    """Fresh setup, one segment, final checks; returns
    (segment, applies, matrix, setup seconds, final failures)."""
    service, matrix, setup_s = await _dynamic_setup(adjacency, seeds)
    segment = Segment(spans)
    try:
        applies, mirror = await _dynamic_segment(
            service, matrix, adjacency, seeds, seed, segment, **window
        )
    finally:
        service.close()
    return segment, applies, matrix, setup_s, _final_check(
        matrix, mirror, seed
    )


async def _dynamic(sizes, seed, seconds, trace, spans):
    adjacency, seeds, report = _graph(sizes, seed)
    report["vector_bytes"] = 2 * adjacency.n_rows * DYNAMIC_QUERIES * 8
    if not trace:
        setups = []
        for _ in range(DYNAMIC_SETUP_REPEATS - 1):
            service, _, setup_s = await _dynamic_setup(adjacency, seeds)
            service.close()
            setups.append(setup_s)
        segment, applies, _, setup_s, final_failed = await _dynamic_run(
            adjacency, seeds, seed, spans, seconds=seconds
        )
        setups.append(setup_s)
        segments = [segment]
        e2e = {"setup_s": median(setups), **segment.e2e()}
        layers = {}
        plain_applies = applies
    else:
        # Identical work from identical fresh state twice: untraced (the
        # overhead baseline), then traced.
        plain, plain_applies, _, _, final_failed = await _dynamic_run(
            adjacency, seeds, seed, spans, rounds=TRACED_ROUNDS
        )
        _start_tracing()
        traced, applies, matrix, warm_s, failed = await _dynamic_run(
            adjacency, seeds, seed, spans, rounds=TRACED_ROUNDS
        )
        obs.disable()
        final_failed += failed
        segments = [plain, traced]
        e2e = {}
        layers = _traced_layers(plain, traced, warm_s)
        layers.update({
            "dynamic.apply_ms": median(
                [s for s, compacted, _ in applies if not compacted]
            ) * 1e3,
            "dynamic.compact_apply_ms": median(
                [s for s, compacted, _ in applies if compacted]
            ) * 1e3,
            "dynamic.compactions": matrix.stats["compactions"],
            "dynamic.repairs": matrix.stats["repairs"],
            "dynamic.rebuilds": matrix.stats["rebuilds"],
            "dynamic.overlay_nnz_mean": float(
                np.mean([nnz for _, _, nnz in applies])
            ),
        })
    apply_s = [s for s, _, _ in plain_applies]
    report["update_batches"] = len(apply_s)
    report["update_p50_ms"] = median(apply_s) * 1e3
    # Amortises the compaction tail, which p50 does not see.
    report["updates_per_s"] = BATCH_OPS * len(apply_s) / sum(apply_s)
    if trace:
        layers["dynamic.update_p50_ms"] = report["update_p50_ms"]
        layers["dynamic.updates_per_s"] = report["updates_per_s"]
    batches = len(apply_s) * len(segments)
    # Attempted: queries, update batches and two final checks a segment.
    return _result(segments, e2e, layers, report,
                   extra_attempted=batches + 2 * len(segments),
                   extra_failed=final_failed,
                   extra_checked=2 * len(segments))


def run_dynamic(sizes, seed, seconds, trace, spans):
    return asyncio.run(_dynamic(sizes, seed, seconds, trace, spans))
