"""Experimental CuPy :class:`~repro.sparse.backend.ArrayBackend`.

A GPU scaffold, not a tuned port: every primitive mirrors its host
operands to the device, runs the CuPy analogue of the reference NumPy
operation, and copies the result back into the caller's host buffer.
That round-trips PCIe per call — the point is a working seam client to
grow resident-device workspaces behind (override :meth:`empty` /
:meth:`zeros` to allocate on device and the transfers disappear), not
competitive numbers today.  Registered unconditionally; *available*
only where ``cupy`` imports with a usable device, so environments
without a GPU skip it cleanly.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.backend import ArrayBackend, BackendUnavailableError

try:
    import cupy as cp

    try:
        _HAVE_CUPY = cp.cuda.runtime.getDeviceCount() > 0
    except Exception:
        _HAVE_CUPY = False
except ImportError:
    cp = None
    _HAVE_CUPY = False

__all__ = ["CupyBackend"]


class CupyBackend(ArrayBackend):  # pragma: no cover - needs a GPU + cupy
    """CuPy device execution (experimental; requires ``cupy`` + a GPU)."""

    name = "cupy"
    description = "experimental CuPy GPU kernels (pip install cupy)"

    @classmethod
    def available(cls) -> bool:
        return _HAVE_CUPY

    def __init__(self) -> None:
        if not _HAVE_CUPY:  # pragma: no cover - backend_by_name gates this
            raise BackendUnavailableError(
                "cupy backend requested but cupy/device is not usable"
            )

    @staticmethod
    def _d(a):  # host -> device
        return cp.asarray(a)

    @staticmethod
    def _h(out, dev):  # device -> caller's host buffer
        np.copyto(out, cp.asnumpy(dev))
        return out

    # -- blocked streaming primitives ---------------------------------
    def copy(self, dst, src):
        np.copyto(dst, src)
        return dst

    def fill(self, a, value):
        a.fill(value)
        return a

    def subtract(self, a, b, out):
        return self._h(out, self._d(a) - self._d(b))

    def xpay_cols(self, P, beta, Z):
        d = self._d(P)
        d *= self._d(beta)
        d += self._d(Z)
        return self._h(P, d)

    def axpy_cols(self, Y, s, V, work):
        d = self._d(Y)
        d += self._d(s) * self._d(V)
        return self._h(Y, d)

    def axmy_cols(self, Y, s, V, work):
        d = self._d(Y)
        d -= self._d(s) * self._d(V)
        return self._h(Y, d)

    def colwise_dot(self, V, W, out):
        return self._h(out, (self._d(V) * self._d(W)).sum(axis=0))

    def sqrt_(self, a):
        return np.sqrt(a, out=a)

    # -- gather / apply / scatter -------------------------------------
    def gather_rows(self, X, idx, out):
        return self._h(out, cp.take(self._d(X), self._d(idx), axis=0))

    def batched_matmul(self, A, X, out):
        return self._h(out, cp.matmul(self._d(A), self._d(X)))

    def scatter_rows(self, Y, targets, values):
        d = cp.zeros(Y.shape)
        d[self._d(targets)] = self._d(values)
        return self._h(Y, d)

    # -- operator kernels ---------------------------------------------
    def block_diag_matvec(self, inv, R, out):
        nb = inv.shape[0]
        r = R.shape[-1]
        dev = cp.matmul(self._d(inv), self._d(R).reshape(nb, 3, r))
        return self._h(out, dev.reshape(out.shape))

    def spmv_csr(self, indptr, indices, data, X, out):
        from cupyx.scipy import sparse as cusp

        n = out.shape[0]
        m = cusp.csr_matrix(
            (self._d(data), self._d(indices), self._d(indptr)),
            shape=(n, X.shape[0]),
        )
        return self._h(out, m @ self._d(X))
