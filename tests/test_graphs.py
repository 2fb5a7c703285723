"""Generator and dataset-registry tests."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graphs import datasets, stats
from repro.graphs.chung_lu import chung_lu_graph, powerlaw_weights
from repro.graphs.datasets import matched_cpu, matched_device
from repro.graphs.rmat import rmat_edges, rmat_graph
from repro.graphs.synthetic import (
    banded_matrix,
    circuit_matrix,
    dense_matrix,
    fem_matrix,
    lp_matrix,
    protein_matrix,
)


class TestRMAT:
    def test_deterministic(self):
        a = rmat_graph(512, 4000, seed=1)
        b = rmat_graph(512, 4000, seed=1)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)

    def test_seed_changes_output(self):
        a = rmat_graph(512, 4000, seed=1)
        b = rmat_graph(512, 4000, seed=2)
        assert not (
            a.nnz == b.nnz and np.array_equal(a.rows, b.rows)
        )

    def test_shape(self):
        g = rmat_graph(300, 2000, seed=3)
        assert g.shape == (300, 300)

    def test_no_self_loops_by_default(self):
        g = rmat_graph(256, 3000, seed=4)
        assert np.all(g.rows != g.cols)

    def test_skewed_degrees(self):
        g = rmat_graph(2048, 40_000, seed=5)
        assert stats.gini(g.col_lengths()) > 0.3

    def test_rejects_bad_probs(self):
        with pytest.raises(ValidationError):
            rmat_edges(4, 10, probs=(0.5, 0.5, 0.5, 0.5))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValidationError):
            rmat_edges(0, 10)


class TestChungLu:
    def test_deterministic(self):
        a = chung_lu_graph(400, 3000, seed=7)
        b = chung_lu_graph(400, 3000, seed=7)
        assert np.array_equal(a.rows, b.rows)

    def test_exponent_controls_skew(self):
        mild = chung_lu_graph(4000, 40_000, exponent=3.5, seed=8)
        harsh = chung_lu_graph(4000, 40_000, exponent=2.0, seed=8)
        assert stats.gini(harsh.col_lengths()) > stats.gini(
            mild.col_lengths()
        )

    def test_power_law_fit_in_range(self):
        g = chung_lu_graph(20_000, 200_000, exponent=2.2, seed=9)
        alpha = stats.powerlaw_mle(g.col_lengths(), k_min=3)
        assert 1.6 < alpha < 3.2

    def test_weights_validation(self):
        with pytest.raises(ValidationError):
            powerlaw_weights(10, 0.9)
        with pytest.raises(ValidationError):
            powerlaw_weights(0, 2.0)

    def test_label_shuffle_preserves_degrees(self):
        a = chung_lu_graph(500, 5000, seed=10, shuffle_labels=False)
        b = chung_lu_graph(500, 5000, seed=10, shuffle_labels=True)
        assert sorted(a.col_lengths()) == sorted(b.col_lengths())


class TestSyntheticMatrices:
    def test_dense_full(self):
        m = dense_matrix(20, seed=1)
        assert m.nnz == 400

    def test_circuit_has_diagonal(self):
        m = circuit_matrix(100, 500, seed=2)
        dense = m.to_dense()
        assert np.all(np.diag(dense) != 0)

    def test_fem_banded_and_variable(self):
        m = fem_matrix(500, nnz_per_row=20, seed=3)
        band = np.abs(m.rows - m.cols).max()
        assert band <= 2 * int(np.sqrt(500)) + 2
        lengths = m.row_lengths()
        assert lengths.max() > 1.5 * lengths.mean()

    def test_lp_rectangular(self):
        m = lp_matrix(20, 400, 2000, seed=4)
        assert m.shape == (20, 400)
        assert stats.gini(m.row_lengths()) < 0.2

    def test_protein_blocky(self):
        m = protein_matrix(200, block_size=20, seed=5)
        assert m.nnz > 200
        assert not stats.is_power_law(m)

    def test_banded_validation(self):
        with pytest.raises(ValidationError):
            banded_matrix(10, -1, 3)


class TestStats:
    def test_gini_uniform_zero(self):
        assert stats.gini(np.full(100, 5.0)) == pytest.approx(0.0, abs=1e-9)

    def test_gini_concentrated(self):
        values = np.zeros(100)
        values[0] = 100
        assert stats.gini(values) > 0.95

    def test_gini_rejects_negative(self):
        with pytest.raises(ValidationError):
            stats.gini(np.array([-1.0, 2.0]))

    def test_concentration(self):
        values = np.concatenate([np.full(10, 100.0), np.full(90, 1.0)])
        assert stats.concentration(values, 0.1) == pytest.approx(
            1000 / 1090
        )

    def test_ccdf_monotone(self):
        degrees = np.random.default_rng(1).integers(1, 50, 500)
        _values, survival = stats.ccdf(degrees)
        assert np.all(np.diff(survival) <= 0)

    def test_summary_power_law_verdict(self):
        g = chung_lu_graph(5000, 60_000, exponent=2.1, seed=11)
        assert stats.summarize(g).power_law

    def test_summary_uniform_not_power_law(self):
        m = circuit_matrix(2000, 12_000, seed=12)
        assert not stats.summarize(m).power_law

    def test_mle_validation(self):
        with pytest.raises(ValidationError):
            stats.powerlaw_mle(np.array([1, 2]), k_min=0)

    def test_mle_validates_k_min_before_filtering(self):
        # k_min=0 must raise even when the filter would empty the
        # sequence first (the old code validated after filtering).
        with pytest.raises(ValidationError):
            stats.powerlaw_mle(np.array([], dtype=np.int64), k_min=0)

    def test_mle_rejects_negative_degrees(self):
        with pytest.raises(ValidationError):
            stats.powerlaw_mle(np.array([3, -1, 2]))

    def test_mle_all_zero_sentinel(self):
        # All-zero matrix: defined inf sentinel, no warning, no NaN.
        assert stats.powerlaw_mle(np.zeros(50, dtype=np.int64)) == np.inf

    def test_mle_single_degree_sentinel(self):
        assert stats.powerlaw_mle(np.array([7])) == np.inf

    def test_mle_uniform_degrees_sentinel(self):
        # Perfectly uniform degrees have no tail: inf, never a
        # misleading finite exponent.
        assert stats.powerlaw_mle(np.full(100, 9)) == np.inf

    def test_mle_empty_sentinel(self):
        assert stats.powerlaw_mle(np.array([], dtype=np.int64)) == np.inf

    def test_gini_rejects_negative_even_when_sum_is_zero(self):
        # [-1, 1] sums to zero; it must raise, not read as "uniform".
        with pytest.raises(ValidationError):
            stats.gini(np.array([-1.0, 1.0]))

    def test_summarize_degenerate_matrices(self):
        from repro.formats.coo import COOMatrix

        empty = np.array([], dtype=np.int64)
        all_zero = COOMatrix.from_unsorted(
            empty, empty, np.array([]), (8, 8)
        )
        single_row = COOMatrix.from_unsorted(
            np.zeros(3, dtype=np.int64),
            np.arange(3, dtype=np.int64),
            np.ones(3),
            (1, 5),
        )
        uniform = COOMatrix.from_unsorted(
            np.repeat(np.arange(6, dtype=np.int64), 2),
            np.tile(np.arange(2, dtype=np.int64), 6),
            np.ones(12),
            (6, 6),
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for matrix in (all_zero, single_row, uniform):
                summary = stats.summarize(matrix)
                assert not summary.power_law
                assert not np.isnan(summary.row_exponent)
                assert not np.isnan(summary.col_exponent)


class TestDatasetRegistry:
    def test_all_names_load(self):
        # Scale each name to about 100K of its paper non-zeros at most:
        # a fixed scale would leave the web crawls (1-5.5 billion paper
        # non-zeros) at millions of entries, for a check of loadability.
        specs = {
            **datasets.POWER_LAW_GRAPHS,
            **datasets.UNSTRUCTURED_MATRICES,
            **datasets.WEB_GRAPHS,
        }
        assert sorted(specs) == datasets.list_datasets()
        for name, spec in specs.items():
            ds = datasets.load(name, scale=max(200, spec.paper_nnz / 1e5))
            assert ds.nnz > 0
            assert ds.name == name

    def test_kind_filter(self):
        graphs = datasets.list_datasets("power-law-graph")
        assert "flickr" in graphs
        assert "dense" not in graphs

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            datasets.load("no-such-dataset")

    def test_scale_changes_size(self):
        small = datasets.load("youtube", scale=200)
        large = datasets.load("youtube", scale=100)
        assert large.nnz > small.nnz

    def test_rejects_bad_scale(self):
        with pytest.raises(ValidationError):
            datasets.load("flickr", scale=0)

    def test_power_law_flags_hold(self):
        flickr = datasets.load("flickr", scale=100)
        assert stats.is_power_law(flickr.matrix)
        circuit = datasets.load("circuit", scale=20)
        assert not stats.is_power_law(circuit.matrix)

    def test_paper_shape_metadata(self):
        ds = datasets.load("livejournal", scale=500)
        rows, cols, nnz = ds.paper_shape
        assert (rows, cols, nnz) == (5_204_176, 5_204_176, 77_402_652)

    def test_matched_device_scales_cache(self):
        ds = datasets.load("flickr", scale=100)
        dev = matched_device(ds)
        assert dev.texture_cache_bytes < 256 * 1024
        assert dev.texture_cache_bytes % dev.texture_line_bytes == 0

    def test_matched_cpu_scales_l2(self):
        ds = datasets.load("flickr", scale=100)
        cpu = matched_cpu(ds)
        assert cpu.l2_cache_bytes < 1024 * 1024

    def test_average_degree_matches_paper(self):
        # nnz/node ratio of the analogue should track the original.
        ds = datasets.load("flickr", scale=100)
        paper_ratio = ds.paper_shape[2] / ds.paper_shape[0]
        ours = ds.nnz / ds.matrix.n_rows
        assert ours == pytest.approx(paper_ratio, rel=0.35)
