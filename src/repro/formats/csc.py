"""Compressed sparse column (CSC) format.

Column-oriented twin of CSR.  The paper's tiling transform works on
columns (reorder by column length, slice into 64K-column tiles), for
which CSC is the natural layout.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix, check_shape
from repro.formats.coo import COOMatrix, column_order

__all__ = ["CSCMatrix"]


class CSCMatrix(SparseMatrix):
    """Compressed sparse column storage.

    ``indptr`` has length ``n_cols + 1``; column *j* owns
    ``indices[indptr[j]:indptr[j+1]]`` (row indices) and the matching
    slice of ``data``.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        self.shape = check_shape(shape)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self._validate()

    def _validate(self) -> None:
        if self.indptr.size != self.n_cols + 1:
            raise ValidationError(
                f"indptr has length {self.indptr.size}, expected "
                f"{self.n_cols + 1}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValidationError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValidationError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise ValidationError("indices and data must have equal lengths")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.n_rows
        ):
            raise ValidationError("row index out of range")

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSCMatrix":
        """Build from a COO matrix; each column's rows come out ascending.

        COO rows are ascending, so a stable sort by column alone is the
        ``(col, row)`` order.
        """
        order = column_order(coo.cols, coo.n_cols)
        counts = np.bincount(coo.cols, minlength=coo.n_cols)
        indptr = np.zeros(coo.n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, coo.rows[order], coo.data[order], coo.shape)

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self._array_bytes(self.indptr, self.indices, self.data)

    def _build_plan(self):
        from repro.exec.plan import CSCPlan

        return CSCPlan(self)

    def to_coo(self) -> COOMatrix:
        # Columns are ascending here, so a stable sort by row index alone
        # gives the (row, col) order, as in COOMatrix.transpose.
        col_of = np.repeat(np.arange(self.n_cols), np.diff(self.indptr))
        order = column_order(self.indices, self.n_rows)
        return COOMatrix(
            self.indices[order], col_of[order], self.data[order], self.shape
        )

    def _compute_col_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def select_cols(self, col_ids: np.ndarray) -> "CSCMatrix":
        """Sub-matrix of the given columns in the given order, renumbered.

        The workhorse of the column-reordering step: passing a
        permutation of all columns reorders the matrix, passing a subset
        slices out a tile.
        """
        col_ids = np.asarray(col_ids, dtype=np.int64)
        lengths = np.diff(self.indptr)[col_ids]
        indptr = np.zeros(col_ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int64)
        data = np.empty(total, dtype=np.float64)
        starts = self.indptr[col_ids]
        if total:
            offsets = np.arange(total) - np.repeat(indptr[:-1], lengths)
            src = np.repeat(starts, lengths) + offsets
            indices[:] = self.indices[src]
            data[:] = self.data[src]
        return CSCMatrix(indptr, indices, data, (self.n_rows, col_ids.size))

    def normalize_cols(self) -> "CSCMatrix":
        """Column-stochastic copy (columns summing to 1).

        This is the ``W`` of the RWR formulation (Appendix F).
        """
        lengths = np.diff(self.indptr)
        col_ids = np.repeat(np.arange(self.n_cols), lengths)
        sums = np.bincount(col_ids, weights=self.data, minlength=self.n_cols)
        scale = np.ones(self.n_cols)
        nonzero = sums != 0
        scale[nonzero] = 1.0 / sums[nonzero]
        col_of = col_ids
        return CSCMatrix(
            self.indptr.copy(),
            self.indices.copy(),
            self.data * scale[col_of],
            self.shape,
        )
