"""The vectorized backend: blocked flat scatter-adds, fused products.

The F-COO segment reduction must be strictly sequential — every output
cell starts at +0.0 and receives its addends one at a time in stream order
— because that is the reference's ``np.add.at`` association and what
bit-identity is defined against.  ``np.add.reduceat`` is *not* an option:
it uses pairwise summation, which diverges from the sequential order from
segment length 4 onward.

``np.add.at`` itself is strictly sequential; what makes the reference slow
is its 2-D form (a row-indexed scatter into a matrix).  This backend
scatters the same values through *flat* 1-D indices
(``segment_id * width + column``) into a zero-initialised flat output.
Every cell still starts at +0.0 and receives exactly the same addends in
exactly the same order, so the result is bit-identical for any segment-id
order, including the sign of zero.  That holds on every supported NumPy
(>= 1.22); only the speed depends on the version: from NumPy 1.25 on the
flat call takes ``ufunc.at``'s 1-D fast path and runs several times faster
than the 2-D call.

The non-zero stream is walked in fixed row blocks: each block's partial
products are computed (left-to-right, the reference's per-element order)
and scatter-added before the next block starts, so the full
``(nnz, width)`` partial array is never materialised.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro.backends.base import Backend

__all__ = ["VectorizedBackend"]

#: Partial-product elements (rows × width) computed and scattered per block:
#: large enough to amortise the per-block interpreter cost, small enough to
#: bound the temporaries to a few MB whatever the non-zero count.
_BLOCK_ELEMENTS = 1 << 18


def _blocked_segment_sums(
    partials: Callable[[int, int], np.ndarray],
    n: int,
    width: int,
    segment_ids: np.ndarray,
    num_segments: int,
) -> np.ndarray:
    """Strict-order segment sums of the row blocks ``partials(lo, hi)``.

    ``partials(lo, hi)`` returns the ``(hi - lo, width)`` (or, for
    ``width == 1``, ``(hi - lo,)``) partials of non-zeros ``lo:hi``.
    Returns the flat ``(num_segments * width,)`` sums, row-major.
    """
    out = np.zeros(num_segments * width, dtype=np.float64)
    cols = np.arange(width, dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        ids = segment_ids[lo:hi].astype(np.int64, copy=False)
        np.add.at(out, (ids[:, None] * width + cols).ravel(), partials(lo, hi).ravel())
    return out


class VectorizedBackend(Backend):
    """Blocked flat scatter-add execution; bit-identical to the reference."""

    name = "vectorized"

    # ------------------------------------------------------------------ #
    # Segment reduction
    # ------------------------------------------------------------------ #
    def segment_reduce(
        self,
        values: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        values, segment_ids, num_segments = self._validated(
            values, segment_ids, num_segments
        )
        width = 1 if values.ndim == 1 else values.shape[1]
        out = _blocked_segment_sums(
            lambda lo, hi: values[lo:hi],
            values.shape[0],
            width,
            segment_ids,
            num_segments,
        )
        return out if values.ndim == 1 else out.reshape(num_segments, width)

    # ------------------------------------------------------------------ #
    # Per-non-zero products
    # ------------------------------------------------------------------ #
    def slice_products(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
    ) -> np.ndarray:
        if not mats:
            return self._empty_product(values)
        rows = self._as_streams(rows)
        # In-place chain: per element the same left-to-right pairing as the
        # reference's `partial = partial * mat[rows]`, one temporary fewer.
        partial = np.asarray(values, dtype=np.float64)[:, None] * mats[0][rows[0], :]
        for mat, row_idx in zip(mats[1:], rows[1:]):
            partial *= mat[row_idx, :]
        return partial

    def kron_products(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
    ) -> np.ndarray:
        vals = np.asarray(values, dtype=np.float64)
        if not mats:
            return vals[:, None].copy()
        rows = self._as_streams(rows)
        nnz = vals.shape[0]
        if nnz == 0:
            width = math.prod(mat.shape[1] for mat in mats)
            return np.zeros((0, width), dtype=np.float64)
        if len(mats) == 2:
            # One fused pass; operands multiply left-to-right — the same
            # (value · last-mode row) · first-mode row pairing as the loop.
            # (einsum's `optimize=` must stay off: path optimisation
            # re-associates the products and breaks bit-identity.)
            a = mats[0][rows[0], :]
            b = mats[1][rows[1], :]
            return np.einsum("i,ib,ia->iba", vals, b, a).reshape(nnz, -1)
        partial = vals[:, None]
        for pos in range(len(mats) - 1, -1, -1):
            picked = mats[pos][rows[pos], :]
            partial = (partial[:, :, None] * picked[:, None, :]).reshape(nnz, -1)
        return partial

    # ------------------------------------------------------------------ #
    # Fused product + reduction
    # ------------------------------------------------------------------ #
    def hadamard_segment_sums(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        width = mats[0].shape[1] if mats else 1
        return self._fused_segment_sums(
            self.slice_products, width, values, mats, rows, segment_ids, num_segments
        )

    def kron_segment_sums(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        width = math.prod(mat.shape[1] for mat in mats)
        return self._fused_segment_sums(
            self.kron_products, width, values, mats, rows, segment_ids, num_segments
        )

    def _fused_segment_sums(
        self,
        products: Callable[..., np.ndarray],
        width: int,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        """Segment sums of ``products(values, mats, rows)``, one block at a time."""
        vals, segment_ids, num_segments = self._validated(
            values, segment_ids, num_segments
        )
        rows = self._as_streams(rows)
        out = _blocked_segment_sums(
            lambda lo, hi: products(vals[lo:hi], mats, [r[lo:hi] for r in rows]),
            vals.shape[0],
            width,
            segment_ids,
            num_segments,
        )
        return out.reshape(num_segments, width)

    # ------------------------------------------------------------------ #
    # Dense updates
    # ------------------------------------------------------------------ #
    def dense_hadamard(self, grams: Sequence[np.ndarray], rank: int) -> np.ndarray:
        if not grams:
            return np.ones((rank, rank), dtype=np.float64)
        # 1.0 * x == x exactly in IEEE-754, so dropping the reference's
        # np.ones seed and chaining from the first Gram is bit-identical.
        out = np.array(grams[0], dtype=np.float64, copy=True)
        for gram in grams[1:]:
            out *= gram
        return out


def _self_check(seed: int = 0, n: int = 512, width: int = 4) -> Optional[str]:
    """Quick import-safe sanity probe used by tests; None when healthy."""
    rng = np.random.default_rng(seed)
    seg = np.sort(rng.integers(0, 40, size=n))
    vals = rng.standard_normal((n, width))
    vals[seg == 0] = -0.0  # a segment of negative zeros sums to +0.0
    from repro.backends.reference import ReferenceBackend

    ref = ReferenceBackend().segment_reduce(vals, seg, 41)
    vec = VectorizedBackend().segment_reduce(vals, seg, 41)
    if (ref.dtype, ref.shape, ref.tobytes()) != (vec.dtype, vec.shape, vec.tobytes()):
        return "vectorized segment_reduce diverged from the reference order"
    return None
