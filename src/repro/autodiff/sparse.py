"""Sparse-dense products with gradients: the graph-propagation primitive.

Graph propagation in every spectral filter is the product of a constant
``n × n`` sparse matrix (the normalized adjacency or Laplacian) with a dense
``n × F`` representation. The sparse operand never needs a gradient — the
graph is data, not a parameter — so only the dense-side gradient
``Pᵀ · grad_out`` is implemented. The CSR backend computes it through
scipy's CSC view ``csr.T``, which needs no materialized transpose and
is byte-identical to ``csr.T.tocsr() @ grad_out``: both accumulate each
output row over the same nonzeros in the same order.

Two backends are provided, mirroring the paper's Table 6 comparison between
PyG's ``torch.sparse`` (SP) and ``EdgeIndex`` (EI) backends:

- ``csr``: scipy CSR matmul. Fast, O(m) index memory.
- ``coo_gather``: explicit gather / multiply / scatter-add over the edge
  list. Same result, but materializes an O(mF) intermediate — exactly the
  memory blow-up the paper measures for the EI backend.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import AutodiffError
from ..runtime import blocked as _blocked
from .tensor import Tensor, _notify_alloc, _notify_op


def spmm(matrix: sp.spmatrix, dense: Tensor, backend: str = "csr") -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor: ``P @ X``.

    Parameters
    ----------
    matrix:
        ``(n, n)`` scipy sparse matrix, treated as a constant.
    dense:
        ``(n, F)`` tensor; gradient flows through this operand.
    backend:
        ``"csr"`` (scipy matmul) or ``"coo_gather"`` (edge-wise gather /
        scatter, the memory-hungrier PyG-EdgeIndex analogue).
    """
    if matrix.shape[1] != dense.shape[0]:
        raise AutodiffError(
            f"spmm shape mismatch: {matrix.shape} @ {dense.shape}"
        )
    if backend == "csr":
        # All CSR products route through the blocked tier hook: a no-op
        # `csr @ dense` without an active blocked scope, row-tiled (and
        # bit-identical, since CSR rows accumulate independently) with one.
        csr = matrix.tocsr()
        data = _blocked.spmm_csr(csr, dense.data)
        width = dense.shape[1] if dense.ndim > 1 else 1
        _notify_op("spmm", 2 * csr.nnz * width, data.nbytes)

        def backward(grad: np.ndarray):
            return (np.asarray(csr.T @ grad),)

        return Tensor._make(np.asarray(data), (dense,), backward, "spmm")
    if backend == "coo_gather":
        return _spmm_coo_gather(matrix, dense)
    raise AutodiffError(f"unknown spmm backend {backend!r}")


def _spmm_coo_gather(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Edge-list propagation: gather source rows, weight, scatter to targets.

    Numerically identical to the CSR backend but allocates an ``(m, F)``
    message buffer, reproducing the O(mF) footprint of edge-indexed
    message-passing backends.
    """
    coo = matrix.tocoo()
    rows, cols, vals = coo.row, coo.col, coo.data

    messages = dense.data[cols] * vals[:, None]
    _notify_alloc(messages)  # the O(mF) intermediate is what we meter
    data = np.zeros((matrix.shape[0], dense.shape[1]), dtype=dense.dtype)
    np.add.at(data, rows, messages)
    _notify_op("spmm", 2 * len(vals) * dense.shape[1],
               data.nbytes + messages.nbytes)

    def backward(grad: np.ndarray):
        gathered = grad[rows] * vals[:, None]
        _notify_alloc(gathered)
        out = np.zeros_like(dense.data)
        np.add.at(out, cols, gathered)
        return (out,)

    return Tensor._make(data, (dense,), backward, "spmm_coo")


def spmm_numpy(matrix: sp.spmatrix, dense: np.ndarray, backend: str = "csr") -> np.ndarray:
    """Gradient-free sparse-dense product for precomputation stages.

    Mini-batch precomputation runs outside the autodiff graph (on "CPU", in
    the paper's terms); this helper keeps that code path free of Tensor
    bookkeeping while still supporting both backends.
    """
    if backend == "csr":
        csr = matrix.tocsr()
        out = _blocked.spmm_csr(csr, dense)
        width = dense.shape[1] if dense.ndim > 1 else 1
        _notify_op("spmm", 2 * csr.nnz * width, out.nbytes)
        return out
    if backend == "coo_gather":
        coo = matrix.tocoo()
        messages = dense[coo.col] * coo.data[:, None]
        out = np.zeros((matrix.shape[0], dense.shape[1]), dtype=dense.dtype)
        np.add.at(out, coo.row, messages)
        _notify_op("spmm", 2 * coo.nnz * dense.shape[1],
                   out.nbytes + messages.nbytes)
        return out
    raise AutodiffError(f"unknown spmm backend {backend!r}")
