"""Differential proof of the dynamic-graph bitwise contract.

The headline guarantee of :mod:`repro.graphs.dynamic`: a matrix evolved
through ``apply_updates`` — overlay live or compacted — produces SpMV
and SpMM results **bit-identical** to rebuilding the same format from
scratch at the same logical version.  This suite proves it
differentially against an independent dict-of-edges reference
implementation of the update semantics, across every registered format,
every execution backend, sharded executors in both fan-out modes, and
hypothesis-driven random operation streams (which shrink to minimal
failing streams on regression).

It also pins the honesty contracts around the guarantee: formats that
declare ``supports_repair`` must never silently fall back to a full
rebuild, batches must commit atomically, and the steady state must stay
on cached plans.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.exec import available_backends, build_plan
from repro.exec.sharded import ShardedExecutor
from repro.formats.coo import COOMatrix
from repro.formats.registry import format_names, get_format
from repro.graphs.dynamic import (
    DEFAULT_NNZ_DELTA,
    DynamicMatrix,
    seeded_update_stream,
)
from tests.test_exec_engine import build

ALL_FORMATS = format_names()
BACKENDS = available_backends()
#: Formats exercised under the sharded executor (mirrors the scenario
#: corpus choice: one gather format, one load-balanced one).
SHARDED_FORMATS = ["coo", "mpcsr"]


def random_coo(n_rows=24, n_cols=24, nnz=96, seed=3) -> COOMatrix:
    rng = np.random.default_rng(seed)
    return COOMatrix.from_unsorted(
        rng.integers(0, n_rows, size=nnz),
        rng.integers(0, n_cols, size=nnz),
        rng.standard_normal(nnz),
        (n_rows, n_cols),
    )


def apply_reference(coo: COOMatrix, batches) -> COOMatrix:
    """Independent implementation of the update semantics.

    A plain dict of ``(row, col) -> value``: upserts assign (explicit
    zeros included), deletes discard, last write wins by construction.
    Sorting the keys reproduces the canonical (row, col) entry order,
    so the result is comparable triple-for-triple with
    ``DynamicMatrix.to_coo()``.
    """
    entries = {
        (int(r), int(c)): v
        for r, c, v in zip(coo.rows, coo.cols, coo.data)
    }
    for batch in batches:
        for op in batch:
            key = (int(op[1]), int(op[2]))
            if op[0] == "delete":
                entries.pop(key, None)
            else:
                entries[key] = float(op[3])
    keys = sorted(entries)
    return COOMatrix(
        np.array([r for r, _ in keys], dtype=np.int64),
        np.array([c for _, c in keys], dtype=np.int64),
        np.array([entries[k] for k in keys], dtype=np.float64),
        coo.shape,
    )


def split_batches(stream, n_batches):
    bounds = np.linspace(0, len(stream), n_batches + 1).astype(int)
    return [
        stream[bounds[i]:bounds[i + 1]] for i in range(n_batches)
    ]


# ----------------------------------------------------------------------
# The headline sweep: formats x backends, overlay live and compacted
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_updates_bitwise_equal_full_rebuild(fmt, backend):
    base_coo = random_coo(seed=11)
    dyn = DynamicMatrix(build(fmt, base_coo))
    stream = seeded_update_stream(dyn, 60, seed=5)
    batches = split_batches(stream, 3)
    reference = apply_reference(base_coo, batches)
    rng = np.random.default_rng(0)
    x = rng.random(dyn.n_cols)
    X = rng.random((dyn.n_cols, 2))

    for batch in batches:
        dyn.apply_updates(batch)
    # The logical content matches the reference triple-for-triple ...
    merged = dyn.to_coo()
    np.testing.assert_array_equal(merged.rows, reference.rows)
    np.testing.assert_array_equal(merged.cols, reference.cols)
    np.testing.assert_array_equal(merged.data, reference.data)
    # ... and so do the numerics, overlay live or eagerly compacted.
    rebuilt = build(fmt, reference)
    ref_plan = rebuilt.spmv_plan(backend)
    plan = dyn.spmv_plan(backend)
    assert np.array_equal(plan.execute(x), ref_plan.execute(x))
    assert np.array_equal(
        plan.execute_many(X), ref_plan.execute_many(X)
    )
    # Compaction folds the overlay without perturbing a single bit.
    dyn.compact()
    assert dyn.overlay_nnz == 0
    plan = dyn.spmv_plan(backend)
    assert np.array_equal(plan.execute(x), ref_plan.execute(x))
    assert np.array_equal(
        plan.execute_many(X), ref_plan.execute_many(X)
    )


@pytest.mark.parametrize("mode", ["thread", "process"])
@pytest.mark.parametrize("n_shards", [1, 3])
@pytest.mark.parametrize("fmt", SHARDED_FORMATS)
def test_sharded_executor_tracks_updates(fmt, n_shards, mode):
    base_coo = random_coo(n_rows=32, n_cols=32, nnz=160, seed=17)
    dyn = DynamicMatrix(build(fmt, base_coo))
    stream = seeded_update_stream(dyn, 48, seed=9)
    batches = split_batches(stream, 2)
    x = np.random.default_rng(1).random(dyn.n_cols)
    with ShardedExecutor(dyn, n_shards, mode=mode) as ex:
        before = ex.spmv(x)
        assert np.array_equal(
            before, build_plan(dyn.to_coo(), backend=ex.backend).execute(x)
        )
        for batch in batches:
            dyn.apply_updates(batch)
            got = ex.spmv(x)
            want = build_plan(
                dyn.to_coo(), backend=ex.backend
            ).execute(x)
            assert np.array_equal(got, want)
        assert (
            ex.resilience_stats.get("invalidations", 0) >= len(batches)
        )


# ----------------------------------------------------------------------
# Hypothesis: random interleavings shrink to minimal failing streams
# ----------------------------------------------------------------------

#: Exactly-representable values, explicit zero included.
_VALUES = st.sampled_from([0.0, 1.0, -1.0, 2.5, -0.375, 3.0])


@st.composite
def update_streams(draw, n_rows, n_cols, max_ops=40):
    n_ops = draw(st.integers(0, max_ops))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["insert", "update", "delete"]))
        # A tight coordinate range forces duplicate edges, self-loops,
        # deletes of absent edges and row-emptying interleavings.
        r = draw(st.integers(0, n_rows - 1))
        c = draw(st.integers(0, n_cols - 1))
        if kind == "delete":
            ops.append(("delete", r, c))
        else:
            ops.append((kind, r, c, draw(_VALUES)))
    return ops


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**16),
    n_batches=st.integers(1, 3),
)
def test_random_streams_round_trip(data, seed, n_batches):
    base_coo = random_coo(n_rows=6, n_cols=6, nnz=12, seed=seed)
    stream = data.draw(update_streams(n_rows=6, n_cols=6))
    batches = split_batches(stream, n_batches)
    reference = apply_reference(base_coo, batches)

    dyn = DynamicMatrix(build("csr", base_coo))
    for batch in batches:
        dyn.apply_updates(batch)
    merged = dyn.to_coo()
    np.testing.assert_array_equal(merged.rows, reference.rows)
    np.testing.assert_array_equal(merged.cols, reference.cols)
    np.testing.assert_array_equal(merged.data, reference.data)
    assert dyn.nnz == reference.nnz

    x = np.random.default_rng(2).random(6)
    want = build("csr", reference).spmv_plan().execute(x)
    assert np.array_equal(dyn.spmv_plan().execute(x), want)
    dyn.compact()
    assert np.array_equal(dyn.spmv_plan().execute(x), want)


# ----------------------------------------------------------------------
# Honesty contracts around the guarantee
# ----------------------------------------------------------------------


def test_repair_capable_formats_never_silently_rebuild():
    for fmt in ALL_FORMATS:
        spec = get_format(fmt)
        if not spec.supports_repair:
            continue
        dyn = DynamicMatrix(build(fmt, random_coo(seed=23)))
        dyn.apply_updates(seeded_update_stream(dyn, 30, seed=2))
        dyn.compact()
        assert dyn.stats["compactions"] >= 1, fmt
        assert dyn.stats["repairs"] == dyn.stats["compactions"], fmt
        assert dyn.stats["rebuilds"] == 0, (
            f"{fmt} declares supports_repair but fell back to a full "
            "rebuild"
        )


def test_repair_flag_honest_about_builtins():
    # The split must stay explicit: repair-capable formats carry a
    # repair callable, the rest rebuild and say so.
    for fmt in ALL_FORMATS:
        spec = get_format(fmt)
        if spec.supports_repair:
            assert spec.repair is not None, fmt


def test_update_semantics_unit_cases():
    base = COOMatrix(
        np.array([0, 0, 1]), np.array([0, 2, 1]),
        np.array([1.0, 2.0, 3.0]), (3, 3),
    )
    dyn = DynamicMatrix(build("csr", base))
    # Last write wins inside one batch; upsert 0.0 stores the zero.
    dyn.apply_updates([
        ("insert", 2, 2, 5.0),
        ("update", 2, 2, 7.0),
        ("insert", 0, 0, 0.0),
        ("delete", 2, 0),          # absent: no-op
        ("delete", 1, 1),          # empties row 1
    ])
    merged = dyn.to_coo()
    np.testing.assert_array_equal(merged.rows, [0, 0, 2])
    np.testing.assert_array_equal(merged.cols, [0, 2, 2])
    np.testing.assert_array_equal(merged.data, [0.0, 2.0, 7.0])
    assert dyn.nnz == 3
    np.testing.assert_array_equal(dyn.row_lengths(), [2, 0, 1])


def test_batch_commits_atomically():
    dyn = DynamicMatrix(build("csr", random_coo(seed=4)))
    dyn.apply_updates([("insert", 1, 1, 4.0)])
    version = dyn.data_version
    before = dyn.to_coo()
    for bad in (
        [("insert", 0, 0, 1.0), ("frobnicate", 1, 1, 2.0)],
        [("insert", 0, 0, 1.0), ("insert", 99, 0, 2.0)],
        [("insert", 0, 0, 1.0), ("insert", 0, 0, float("nan"))],
        [("insert", 0, 0, 1.0), ("insert", 0, 0)],
    ):
        with pytest.raises(ValidationError):
            dyn.apply_updates(bad)
        assert dyn.data_version == version
        assert dyn.to_coo() is before  # cache untouched: no state change


def test_steady_state_reuses_cached_plans():
    dyn = DynamicMatrix(build("csr", random_coo(seed=6)))
    x = np.random.default_rng(3).random(dyn.n_cols)
    # Empty overlay: the base's own cached plan, no wrapping.
    assert dyn.spmv_plan() is dyn.base.spmv_plan()
    dyn.apply_updates([("insert", 0, 1, 2.0)])
    plan = dyn.spmv_plan()
    assert plan is dyn.spmv_plan()  # cached per (backend, version)
    plan.execute(x)
    buffers_after_first = len(plan.pool)
    for _ in range(5):
        plan.execute(x)
    assert len(plan.pool) == buffers_after_first
    # A new batch invalidates: new version, new plan.
    dyn.apply_updates([("insert", 2, 2, 1.5)])
    assert dyn.spmv_plan() is not plan


def test_version_and_threshold_compaction():
    base = random_coo(seed=8)
    dyn = DynamicMatrix(build("csr", base), nnz_delta=4)
    v0 = dyn.data_version
    dyn.apply_updates([("insert", 0, 0, 1.0)])
    assert dyn.data_version == v0 + 1
    assert dyn.stats["compactions"] == 0
    dyn.apply_updates([
        ("insert", 1, 1, 1.0), ("insert", 2, 2, 1.0),
        ("insert", 3, 3, 1.0),
    ])
    # 4 pending ops >= the absolute threshold: compacted.  The fold
    # changes only the representation, so the batch is one version.
    assert dyn.stats["compactions"] == 1
    assert dyn.overlay_nnz == 0
    assert dyn.data_version == v0 + 2
    dyn.compact()
    assert dyn.data_version == v0 + 2


def test_eager_compaction_for_non_bitwise_formats():
    for fmt in ALL_FORMATS:
        if get_format(fmt).bitwise:
            continue
        dyn = DynamicMatrix(build(fmt, random_coo(seed=12)))
        dyn.apply_updates([("insert", 0, 0, 2.0)])
        assert dyn.overlay_nnz == 0, fmt
        assert dyn.stats["compactions"] == 1, fmt


def test_constructor_and_option_validation():
    base = build("csr", random_coo(seed=1))
    with pytest.raises(ValidationError):
        DynamicMatrix(DynamicMatrix(base))
    with pytest.raises(ValidationError):
        DynamicMatrix(np.eye(3))
    with pytest.raises(ValidationError):
        DynamicMatrix(base, nnz_delta=-1)
    dyn = DynamicMatrix(base)
    assert dyn.nnz_delta == DEFAULT_NNZ_DELTA
    with pytest.raises(ValidationError):
        dyn.apply_updates([], frobnicate=True)


def test_sparse_matrix_apply_updates_entry_point():
    base = build("csr", random_coo(seed=19))
    dyn = base.apply_updates([("insert", 0, 0, 9.0)])
    assert isinstance(dyn, DynamicMatrix)
    assert dyn.base is base
    assert dyn.data_version == 1


def test_concurrent_queries_during_updates():
    """8-thread hammer: every concurrent read sees a committed version.

    Each reader records the version it observed alongside its result;
    the result must be bitwise-equal to a from-scratch rebuild of that
    exact version's content.
    """
    base_coo = random_coo(n_rows=48, n_cols=48, nnz=240, seed=21)
    dyn = DynamicMatrix(build("coo", base_coo))
    stream = seeded_update_stream(dyn, 120, seed=14)
    batches = split_batches(stream, 12)
    x = np.random.default_rng(5).random(dyn.n_cols)
    snapshots = {0: dyn.to_coo()}
    results = []
    errors = []
    stop = threading.Event()

    def reader():
        try:
            while not stop.is_set():
                version = dyn.data_version
                out = dyn.spmv_plan().execute(x)
                # Re-read: only keep samples whose version was stable
                # across the query (the plan itself is immutable, so a
                # stable version pins the exact content queried).
                if dyn.data_version == version:
                    results.append((version, out))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    try:
        for batch in batches:
            dyn.apply_updates(batch)
            snapshots[dyn.data_version] = dyn.to_coo()
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert not errors
    assert results
    expected = {
        version: build("coo", snapshot).spmv_plan().execute(x)
        for version, snapshot in snapshots.items()
    }
    for version, out in results:
        assert version in expected
        assert np.array_equal(out, expected[version])
