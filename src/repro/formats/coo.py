"""Coordinate (COO) format.

All non-zeros as ``(row, col, value)`` triples, sorted by row (the order
NVIDIA's COO kernel requires for its segmented reduction, Appendix B).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix, check_shape

__all__ = ["COOMatrix", "canonical_order", "column_order"]

#: Width of one LSD radix digit in :func:`column_order`.  numpy's stable
#: argsort is a radix sort only for keys of 16 bits or less; wider keys
#: fall back to timsort, several times slower on graph-sized inputs.
_DIGIT_BITS = 16


def column_order(cols: np.ndarray, n_cols: int) -> np.ndarray:
    """Stable argsort of column indices in ``[0, n_cols)``.

    Sorts one 16-bit digit at a time, least significant first, so every
    pass is a numpy radix sort.  On row-sorted triples the result is the
    permutation ``np.lexsort((rows, cols))`` would give: ties keep their
    input order, which is ascending row, then input order.  That makes
    it the whole transpose of a :class:`COOMatrix`.
    """
    order = np.argsort(cols.astype(np.uint16), kind="stable")
    shift = _DIGIT_BITS
    while n_cols > 1 << shift:
        digit = cols >> shift
        top = n_cols <= 1 << (shift + 8)
        digit = digit.astype(np.uint8 if top else np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += _DIGIT_BITS
    return order


def canonical_order(rows: np.ndarray, cols: np.ndarray) -> np.ndarray | None:
    """Permutation that ``(row, col)``-sorts the triples stably.

    Returns ``None`` when they already are sorted: one O(nnz) check
    spares the ``np.lexsort``, whose permutation would be the identity.
    """
    if rows.size > 1:
        step = np.diff(rows)
        if (step < 0).any() or ((step == 0) & (np.diff(cols) < 0)).any():
            return np.lexsort((cols, rows))
    return None


class COOMatrix(SparseMatrix):
    """Row-sorted coordinate storage.

    Parameters
    ----------
    rows, cols, data:
        Parallel arrays of equal length.  ``rows`` must be sorted
        non-decreasing (use :meth:`from_unsorted` otherwise).
    shape:
        ``(n_rows, n_cols)``.
    """

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        self.shape = check_shape(shape)
        self.rows = np.ascontiguousarray(rows, dtype=np.int64)
        self.cols = np.ascontiguousarray(cols, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self._validate()

    def _validate(self) -> None:
        n = self.rows.size
        if self.cols.size != n or self.data.size != n:
            raise ValidationError(
                "rows, cols and data must have equal lengths "
                f"({self.rows.size}, {self.cols.size}, {self.data.size})"
            )
        if n == 0:
            return
        if self.rows.min() < 0 or self.rows.max() >= self.n_rows:
            raise ValidationError("row index out of range")
        if self.cols.min() < 0 or self.cols.max() >= self.n_cols:
            raise ValidationError("column index out of range")
        if np.any(np.diff(self.rows) < 0):
            raise ValidationError(
                "rows must be sorted; use COOMatrix.from_unsorted"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_unsorted(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
        *,
        sum_duplicates: bool = True,
    ) -> "COOMatrix":
        """Build from unsorted (and possibly duplicated) triples.

        The result never shares memory with the inputs.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        order = canonical_order(rows, cols)
        if order is None:
            rows, cols, data = rows.copy(), cols.copy(), data.copy()
        else:
            rows, cols, data = rows[order], cols[order], data[order]
        if sum_duplicates and rows.size:
            keep = np.ones(rows.size, dtype=bool)
            keep[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
            if not keep.all():
                group = np.cumsum(keep) - 1
                data = np.bincount(group, weights=data)
                rows, cols = rows[keep], cols[keep]
        return cls(rows, cols, data, shape)

    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        shape: tuple[int, int],
        *,
        dedupe: bool = True,
    ) -> "COOMatrix":
        """Adjacency matrix of a directed edge list with unit weights.

        Duplicate edges collapse to a single entry of value 1.0 when
        ``dedupe`` is set (the graph-mining convention: ``A(u, v) = 1``
        iff the edge exists).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        data = np.ones(src.size, dtype=np.float64)
        matrix = cls.from_unsorted(src, dst, data, shape, sum_duplicates=dedupe)
        if dedupe:
            matrix.data[:] = 1.0
        return matrix

    # ------------------------------------------------------------------
    # SparseMatrix interface
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self._array_bytes(self.rows, self.cols, self.data)

    def _build_plan(self):
        from repro.exec.plan import COOPlan

        return COOPlan(self)

    def to_coo(self) -> "COOMatrix":
        return self

    def _compute_row_lengths(self) -> np.ndarray:
        return np.bincount(self.rows, minlength=self.n_rows)

    def _compute_col_lengths(self) -> np.ndarray:
        return np.bincount(self.cols, minlength=self.n_cols)

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------

    @classmethod
    def _from_row_sorted(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> "COOMatrix":
        """Internal: adopt fresh row-sorted triples, ``(row, col)``-sorting
        them only when some row's columns are out of order.

        Equal to ``from_unsorted(..., sum_duplicates=False)`` without its
        copies; callers must not keep using the arrays.
        """
        order = canonical_order(rows, cols)
        if order is not None:
            rows, cols, data = rows[order], cols[order], data[order]
        return cls(rows, cols, data, shape)

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix, ``(row, col)``-sorted.

        Needs no lexsort: rows are already ascending, so a stable sort by
        column alone orders the transposed entries by ``(row, col)``.
        """
        order = column_order(self.cols, self.n_cols)
        return COOMatrix(
            self.cols[order], self.rows[order], self.data[order],
            (self.n_cols, self.n_rows),
        )

    def permute(
        self,
        row_perm: np.ndarray | None = None,
        col_perm: np.ndarray | None = None,
    ) -> "COOMatrix":
        """Relabel rows/columns.

        ``row_perm[i]`` is the *new* index of old row ``i`` (and likewise
        for columns) — the relabelling convention of the paper's column
        reordering step.
        """
        rows = self.rows if row_perm is None else np.asarray(row_perm)[self.rows]
        cols = self.cols if col_perm is None else np.asarray(col_perm)[self.cols]
        return COOMatrix.from_unsorted(
            rows, cols, self.data, self.shape, sum_duplicates=False
        )

    def select_rows(self, row_ids: np.ndarray) -> "COOMatrix":
        """Extract a sub-matrix of the given rows, renumbered 0..k-1.

        Used by the multi-GPU row partitioner: each node keeps a local
        slice of rows but the full column space (it needs all of ``x``).
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        lookup = np.full(self.n_rows, -1, dtype=np.int64)
        lookup[row_ids] = np.arange(row_ids.size)
        mask = lookup[self.rows] >= 0
        return COOMatrix.from_unsorted(
            lookup[self.rows[mask]],
            self.cols[mask],
            self.data[mask],
            (row_ids.size, self.n_cols),
            sum_duplicates=False,
        )

    def select_col_range(self, start: int, stop: int) -> "COOMatrix":
        """Extract columns ``[start, stop)`` renumbered from 0.

        This is the tiling primitive: a tile of fixed column width only
        needs the matching segment of ``x``.
        """
        if not 0 <= start <= stop <= self.n_cols:
            raise ValidationError(
                f"column range [{start}, {stop}) out of bounds for "
                f"{self.n_cols} columns"
            )
        mask = (self.cols >= start) & (self.cols < stop)
        return COOMatrix(
            self.rows[mask],
            self.cols[mask] - start,
            self.data[mask],
            (self.n_rows, stop - start),
        )
