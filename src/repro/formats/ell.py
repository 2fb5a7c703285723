"""ELLPACK (ELL) format.

Every row padded with zeros to a common width *K* and the resulting
``n_rows x K`` arrays stored column-major, so that the thread assigned to
each row streams down a column of the array with fully coalesced
accesses (Appendix B).  The padding is the format's Achilles heel on
power-law matrices: *K* is the maximum row length, so one hub row can
inflate storage catastrophically — which is why :class:`HYBMatrix`
caps *K* and spills the rest to COO.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatNotApplicableError, ValidationError
from repro.formats.base import SparseMatrix, check_shape
from repro.formats.coo import COOMatrix

__all__ = ["ELLMatrix"]

#: Refuse to build an ELL matrix whose padded storage would exceed this
#: multiple of the raw non-zero storage.  Mirrors the practical limit
#: that makes pure ELL unusable on graphs ("k cannot be large",
#: Appendix B).
MAX_PADDING_RATIO = 50.0


class ELLMatrix(SparseMatrix):
    """ELLPACK storage.

    Parameters
    ----------
    indices, data:
        ``(n_rows, width)`` arrays.  Unused slots hold column 0 and
        value 0.0 (reading them is harmless, as on the GPU).
    valid:
        Boolean mask of genuine entries.
    """

    def __init__(
        self,
        indices: np.ndarray,
        data: np.ndarray,
        valid: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        self.shape = check_shape(shape)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.valid = np.ascontiguousarray(valid, dtype=bool)
        self._validate()

    def _validate(self) -> None:
        if self.indices.ndim != 2:
            raise ValidationError("ELL indices must be 2-D")
        if self.indices.shape != self.data.shape or (
            self.indices.shape != self.valid.shape
        ):
            raise ValidationError("ELL arrays must share one shape")
        if self.indices.shape[0] != self.n_rows:
            raise ValidationError(
                f"ELL arrays have {self.indices.shape[0]} rows, expected "
                f"{self.n_rows}"
            )
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= max(self.n_cols, 1)
        ):
            raise ValidationError("column index out of range")

    @property
    def width(self) -> int:
        """Padded row width *K*."""
        return self.indices.shape[1]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_coo(
        cls,
        coo: COOMatrix,
        *,
        width: int | None = None,
        enforce_padding_limit: bool = True,
    ) -> "ELLMatrix":
        """Build from COO, padding rows to ``width``.

        ``width`` defaults to the longest row.  Raises
        :class:`FormatNotApplicableError` when padding would explode
        (the pure-ELL failure mode on power-law data) unless
        ``enforce_padding_limit`` is disabled, or when a row exceeds
        ``width``.
        """
        row_lengths = np.bincount(coo.rows, minlength=coo.n_rows)
        max_len = int(row_lengths.max()) if row_lengths.size else 0
        if width is None:
            width = max_len
        elif max_len > width:
            raise FormatNotApplicableError(
                f"row of length {max_len} exceeds ELL width {width}; "
                "use HYB to spill the excess to COO"
            )
        n_rows = coo.n_rows
        padded = n_rows * width
        if (
            enforce_padding_limit
            and coo.nnz > 0
            and padded > MAX_PADDING_RATIO * coo.nnz
        ):
            raise FormatNotApplicableError(
                f"ELL padding ratio {padded / coo.nnz:.1f} exceeds "
                f"{MAX_PADDING_RATIO}; matrix is too skewed for ELL"
            )
        indices = np.zeros((n_rows, width), dtype=np.int64)
        data = np.zeros((n_rows, width), dtype=np.float64)
        valid = np.zeros((n_rows, width), dtype=bool)
        if coo.nnz:
            # Slot of each entry within its row: COO is row-sorted, so a
            # running position within equal-row runs gives the slot.
            starts = np.zeros(n_rows + 1, dtype=np.int64)
            np.cumsum(row_lengths, out=starts[1:])
            slot = np.arange(coo.nnz) - starts[coo.rows]
            indices[coo.rows, slot] = coo.cols
            data[coo.rows, slot] = coo.data
            valid[coo.rows, slot] = True
        return cls(indices, data, valid, coo.shape)

    # ------------------------------------------------------------------
    # SparseMatrix interface
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.valid.sum())

    @property
    def padded_entries(self) -> int:
        """Total slots including padding (what the kernel streams)."""
        return self.indices.size

    @property
    def nbytes(self) -> int:
        # indices + data arrays, padding included; the valid mask is a
        # modelling artefact (the GPU encodes it in the index array).
        return self._array_bytes(self.indices, self.data)

    def _build_plan(self):
        from repro.exec.plan import ELLPlan

        return ELLPlan(self)

    def to_coo(self) -> COOMatrix:
        # Row-major ``nonzero`` yields the entries row-sorted, in slot
        # order; only rows whose slots hold descending columns need a sort.
        rows, slots = np.nonzero(self.valid)
        return COOMatrix._from_row_sorted(
            rows,
            self.indices[rows, slots],
            self.data[rows, slots],
            self.shape,
        )

    def _compute_row_lengths(self) -> np.ndarray:
        return self.valid.sum(axis=1)
