"""Sort-free operator, format and plan construction.

Each construction path that skips the whole-matrix ``np.lexsort`` must
return arrays ``array_equal`` to the lexsort construction it replaces;
the references below keep that lexsort.  A guard then runs the default
PageRank and HITS paths with ``np.lexsort`` disabled.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats.coo import COOMatrix, column_order
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.hyb import HYBMatrix
from repro.graphs.rmat import rmat_graph
from repro.kernels import create
from repro.mining.hits import hits, hits_operator
from repro.mining.pagerank import pagerank, pagerank_operator

# ----------------------------------------------------------------------
# lexsort references
# ----------------------------------------------------------------------


def lexsorted(rows, cols, data, shape):
    order = np.lexsort((cols, rows))
    return COOMatrix(rows[order], cols[order], data[order], shape)


def ref_transpose(coo):
    return lexsorted(coo.cols, coo.rows, coo.data, (coo.n_cols, coo.n_rows))


def ref_pagerank_operator(adj):
    out_deg = adj.row_lengths().astype(np.float64)
    weights = np.where(out_deg[adj.rows] > 0,
                       1.0 / np.maximum(out_deg[adj.rows], 1), 0.0)
    return lexsorted(adj.cols, adj.rows, weights, adj.shape)


def ref_hits_operator(adj):
    n = adj.n_rows
    return lexsorted(
        np.concatenate([adj.cols, adj.rows + n]),
        np.concatenate([adj.rows + n, adj.cols]),
        np.concatenate([adj.data, adj.data]),
        (2 * n, 2 * n),
    )


def ref_ell_to_coo(ell):
    rows, slots = np.nonzero(ell.valid)
    return lexsorted(
        rows, ell.indices[rows, slots], ell.data[rows, slots], ell.shape
    )


def ref_hyb_to_coo(hyb):
    head = ref_ell_to_coo(hyb.ell)
    return lexsorted(
        np.concatenate([head.rows, hyb.coo.rows]),
        np.concatenate([head.cols, hyb.coo.cols]),
        np.concatenate([head.data, hyb.coo.data]),
        hyb.shape,
    )


def ref_csc_from_coo(coo):
    order = np.lexsort((coo.rows, coo.cols))
    counts = np.bincount(coo.cols, minlength=coo.n_cols)
    indptr = np.zeros(coo.n_cols + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, coo.rows[order], coo.data[order]


def ref_csc_to_coo(csc):
    col_of = np.repeat(np.arange(csc.n_cols), np.diff(csc.indptr))
    return lexsorted(csc.indices, col_of, csc.data, csc.shape)


def assert_same(got, want):
    assert got.shape == want.shape
    for name in ("rows", "cols", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

#: Dimensions include 1 (1x1 matrices) and > 65536 (multi-digit radix).
DIMS = st.one_of(st.integers(1, 12), st.sampled_from([65536, 65537, 70001]))


@st.composite
def row_sorted_coos(draw, square=False):
    """Row-sorted COO matrices: canonical, with duplicate ``(row, col)``
    entries, with rows whose columns are out of order, mostly empty
    rows and columns, and ``nnz == 0``."""
    n_rows = draw(DIMS)
    n_cols = n_rows if square else draw(DIMS)
    nnz = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rows = np.sort(rng.integers(0, min(n_rows, 8), size=nnz))
    rows = rows * (n_rows // 8 if n_rows >= 8 else 1)
    cols = rng.integers(0, n_cols, size=nnz)
    if nnz and draw(st.booleans()):
        cols[rng.integers(0, nnz, size=nnz // 2)] = cols[0]  # duplicates
        cols[rng.integers(0, nnz, size=nnz // 2)] = n_cols - 1
    data = rng.standard_normal(nnz)
    if draw(st.booleans()):
        order = np.lexsort((cols, rows))  # canonical
        rows, cols, data = rows[order], cols[order], data[order]
    return COOMatrix(rows, cols, data, (n_rows, n_cols))


# ----------------------------------------------------------------------
# equivalence with the lexsort references
# ----------------------------------------------------------------------

SETTINGS = settings(max_examples=60, deadline=None)


@given(keys=st.lists(st.integers(0, 2**40 - 1), max_size=60),
       extra=st.integers(1, 2**20))
@SETTINGS
def test_column_order_is_a_stable_argsort(keys, extra):
    keys = np.asarray(keys, dtype=np.int64)
    bound = int(keys.max()) + extra if keys.size else extra
    assert np.array_equal(
        column_order(keys, bound), np.argsort(keys, kind="stable")
    )


@given(coo=row_sorted_coos())
@SETTINGS
def test_transpose(coo):
    assert_same(coo.transpose(), ref_transpose(coo))


@given(coo=row_sorted_coos(), dedupe=st.booleans())
@SETTINGS
def test_from_unsorted(coo, dedupe):
    got = COOMatrix.from_unsorted(
        coo.rows, coo.cols, coo.data, coo.shape, sum_duplicates=dedupe
    )
    ref = lexsorted(coo.rows, coo.cols, coo.data, coo.shape)
    if dedupe:
        ref = COOMatrix.from_unsorted(
            ref.rows, ref.cols, ref.data, coo.shape, sum_duplicates=True
        )
    assert_same(got, ref)
    assert not np.shares_memory(got.rows, coo.rows)
    assert not np.shares_memory(got.data, coo.data)


@given(coo=row_sorted_coos(square=True))
@SETTINGS
def test_pagerank_operator(coo):
    assert_same(pagerank_operator(coo), ref_pagerank_operator(coo))


@given(coo=row_sorted_coos(square=True))
@SETTINGS
def test_hits_operator(coo):
    assert_same(hits_operator(coo), ref_hits_operator(coo))


@given(coo=row_sorted_coos(), data=st.data())
@SETTINGS
def test_ell_and_hyb_to_coo(coo, data):
    max_len = int(coo.row_lengths().max()) if coo.nnz else 0
    width = data.draw(st.integers(0, max_len))
    hyb = HYBMatrix.from_coo(coo, ell_width=width)
    assert_same(hyb.ell.to_coo(), ref_ell_to_coo(hyb.ell))
    assert_same(hyb.to_coo(), ref_hyb_to_coo(hyb))
    ell = ELLMatrix.from_coo(coo, enforce_padding_limit=False)
    assert_same(ell.to_coo(), ref_ell_to_coo(ell))


@given(coo=row_sorted_coos())
@SETTINGS
def test_hyb_scipy_plan(coo):
    pytest.importorskip("scipy")
    kernel = create("hyb", coo)
    plan = kernel.spmv_plan("scipy")
    ref = CSRMatrix.from_coo(ref_hyb_to_coo(kernel.hyb))
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(plan, name), getattr(ref, name)), name


@given(coo=row_sorted_coos())
@SETTINGS
def test_csc_roundtrip(coo):
    csc = CSCMatrix.from_coo(coo)
    indptr, indices, data = ref_csc_from_coo(coo)
    assert np.array_equal(csc.indptr, indptr)
    assert np.array_equal(csc.indices, indices)
    assert np.array_equal(csc.data, data)
    assert_same(csc.to_coo(), ref_csc_to_coo(csc))
    # The same triples read as a CSC of the transpose: columns whose row
    # indices are out of order unless ``coo`` is canonical.
    indptr = np.zeros(coo.n_rows + 1, dtype=np.int64)
    np.cumsum(coo.row_lengths(), out=indptr[1:])
    raw = CSCMatrix(indptr, coo.cols, coo.data, (coo.n_cols, coo.n_rows))
    assert_same(raw.to_coo(), ref_csc_to_coo(raw))


def test_hyb_to_coo_sorts_a_row_with_columns_out_of_order():
    # One row whose head holds columns (5, 3) and whose tail holds 1:
    # the merge must fall back to the (row, col) sort.
    coo = COOMatrix([0, 0, 0], [5, 3, 1], [1.0, 2.0, 3.0], (1, 6))
    hyb = HYBMatrix.from_coo(coo, ell_width=2)
    got = hyb.to_coo()
    assert got.cols.tolist() == [1, 3, 5]
    assert_same(got, ref_hyb_to_coo(hyb))


# ----------------------------------------------------------------------
# regression guard: no whole-matrix sort on the mining build path
# ----------------------------------------------------------------------


def test_pagerank_and_hits_build_without_lexsort(monkeypatch):
    # More than 65536 nodes, so the column sorts take two radix passes.
    adjacency = rmat_graph(1 << 17, 1 << 19, seed=3)

    def no_lexsort(*args, **kwargs):
        raise AssertionError("np.lexsort on the mining build path")

    monkeypatch.setattr(np, "lexsort", no_lexsort)
    assert pagerank(adjacency, tol=1e-6).converged
    assert hits(adjacency, tol=1e-6).converged
