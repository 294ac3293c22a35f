"""One entry point over the three unified kernels, keyed by operation.

Callers that hold a job's :class:`~repro.formats.mode_encoding.OperationKind`
and its full per-mode factor list (the serving executor, the scaling and
plan/execute benchmarks) run the matching kernel through
:func:`run_unified` instead of repeating the per-operation call ladder.
"""

from __future__ import annotations

from typing import Any, Sequence, Union

import numpy as np

from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.kernels.common import MTTKRPResult, SpTTMResult, TTMcResult
from repro.kernels.unified.spmttkrp import unified_spmttkrp
from repro.kernels.unified.spttm import unified_spttm
from repro.kernels.unified.spttmc import unified_spttmc
from repro.tensor.sparse import SparseTensor

__all__ = ["run_unified"]


def run_unified(
    operation: OperationKind,
    tensor: Union[SparseTensor, FCOOTensor],
    factors: Sequence[np.ndarray],
    mode: int,
    **kwargs: Any,
) -> Union[SpTTMResult, MTTKRPResult, TTMcResult]:
    """Run the unified kernel of ``operation`` on ``tensor`` along ``mode``.

    ``factors`` holds one dense factor per tensor mode: SpMTTKRP and SpTTMc
    take the whole list, SpTTM multiplies by ``factors[mode]``.  ``kwargs``
    (``device``, ``block_size``, ``threadlen``, ``fused``, ``ctx``) pass to
    the kernel unchanged, so the result — output and profile — is exactly
    the kernel's own.
    """
    if operation is OperationKind.SPTTM:
        return unified_spttm(tensor, factors[mode], mode, **kwargs)
    if operation is OperationKind.SPMTTKRP:
        return unified_spmttkrp(tensor, factors, mode, **kwargs)
    return unified_spttmc(tensor, factors, mode, **kwargs)
