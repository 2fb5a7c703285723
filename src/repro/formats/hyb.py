"""Hybrid (HYB) format: ELL head + COO tail.

NVIDIA's best-performing format on power-law matrices (paper §4.1):
the first *K* non-zeros of every row go into a regular ELL block, the
remainder spill into COO.  *K* is chosen so that padding stays
profitable — the standard Bell & Garland heuristic keeps column *k* of
the ELL block only while at least ``HYB_ELL_THRESHOLD`` of the rows
still have an entry there.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.ell import ELLMatrix

__all__ = ["HYBMatrix", "choose_ell_width"]

#: Keep an ELL column while at least this fraction of rows use it
#: (Bell & Garland use 1/3).
HYB_ELL_THRESHOLD = 1.0 / 3.0


def choose_ell_width(
    row_lengths: np.ndarray, *, threshold: float = HYB_ELL_THRESHOLD
) -> int:
    """Pick the ELL width K for a HYB split.

    K is the largest k such that at least ``threshold`` of the rows have
    k or more non-zeros, i.e. adding ELL column k costs at most
    ``(1 - threshold)`` padding.
    """
    lengths = np.asarray(row_lengths)
    if lengths.size == 0:
        return 0
    max_len = int(lengths.max())
    if max_len == 0:
        return 0
    # rows_with_at_least[k] = #rows with length >= k, k = 1..max_len.
    hist = np.bincount(lengths, minlength=max_len + 1)
    rows_with_at_least = np.cumsum(hist[::-1])[::-1]
    needed = threshold * lengths.size
    ks = np.nonzero(rows_with_at_least[1:] >= needed)[0] + 1
    return int(ks.max()) if ks.size else 0


class HYBMatrix(SparseMatrix):
    """ELL + COO hybrid storage."""

    def __init__(self, ell: ELLMatrix, coo: COOMatrix) -> None:
        if ell.shape != coo.shape:
            from repro.errors import ValidationError

            raise ValidationError(
                f"ELL part shape {ell.shape} != COO part shape {coo.shape}"
            )
        self.shape = ell.shape
        self.ell = ell
        self.coo = coo

    @classmethod
    def from_coo(
        cls, coo: COOMatrix, *, ell_width: int | None = None
    ) -> "HYBMatrix":
        """Split a COO matrix into ELL head and COO tail."""
        row_lengths = np.bincount(coo.rows, minlength=coo.n_rows)
        if ell_width is None:
            ell_width = choose_ell_width(row_lengths)
        starts = np.zeros(coo.n_rows + 1, dtype=np.int64)
        np.cumsum(row_lengths, out=starts[1:])
        slot = np.arange(coo.nnz) - starts[coo.rows]
        head = slot < ell_width
        ell_part = COOMatrix(
            coo.rows[head], coo.cols[head], coo.data[head], coo.shape
        )
        tail_part = COOMatrix(
            coo.rows[~head], coo.cols[~head], coo.data[~head], coo.shape
        )
        ell = ELLMatrix.from_coo(
            ell_part, width=ell_width, enforce_padding_limit=False
        )
        return cls(ell, tail_part)

    @property
    def nnz(self) -> int:
        return self.ell.nnz + self.coo.nnz

    @property
    def nbytes(self) -> int:
        return self.ell.nbytes + self.coo.nbytes

    def _build_plan(self):
        from repro.exec.plan import HYBPlan

        return HYBPlan(self)

    def to_coo(self) -> COOMatrix:
        """Merge head and tail back into one ``(row, col)``-sorted COO.

        Each row's ELL slots come first, then its COO tail entries, at
        positions given by the row-length prefix sums.  For a HYB split
        from a ``(row, col)``-sorted COO that is already the sorted
        order, so no sort runs; otherwise the stable lexsort of
        :meth:`COOMatrix._from_row_sorted` gives the order a lexsort of
        the concatenated parts would.
        """
        ell, tail = self.ell, self.coo
        head_rows, slots = np.nonzero(ell.valid)
        head_len = np.bincount(head_rows, minlength=self.n_rows)
        tail_len = np.bincount(tail.rows, minlength=self.n_rows)
        head_start = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(head_len, out=head_start[1:])
        tail_start = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(tail_len, out=tail_start[1:])
        # Row r starts at head_start[r] + tail_start[r] and holds its
        # head entries, then its tail entries: the i-th head entry
        # overall lands at i + tail_start[r], the j-th tail entry at
        # j + head_start[r + 1].
        head_pos = np.arange(head_rows.size) + tail_start[head_rows]
        tail_pos = np.arange(tail.nnz) + head_start[tail.rows + 1]
        nnz = head_rows.size + tail.nnz
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int64), head_len + tail_len
        )
        cols = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=np.float64)
        cols[head_pos] = ell.indices[head_rows, slots]
        cols[tail_pos] = tail.cols
        data[head_pos] = ell.data[head_rows, slots]
        data[tail_pos] = tail.data
        return COOMatrix._from_row_sorted(rows, cols, data, self.shape)
