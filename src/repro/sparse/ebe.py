"""Matrix-free Element-by-Element (EBE) operator (paper Eqs. 2, 8, 9).

Applies ``sum_e P_e^T (A_e (P_e x))`` without a global matrix:

1. gather  — ``x`` restricted to each element's 30 local dofs;
2. apply   — batched dense 30x30 mat-vec against the element matrices;
3. scatter — accumulate element results back to global dofs through a
   prebuilt CSR scatter plan (one row per dof, listing its element
   contributions in element order); deterministic, no atomics needed
   on the host.

The fused multi-RHS path applies all ``r`` case vectors inside one
gather/scatter sweep — the paper's Eq. 9, which reduces the random
access per case to ``1/r``.  The sweep runs entirely inside
preallocated per-``r`` workspaces (gather and apply buffers plus the
result block), so steady-state applications — e.g. every ``pcg``
iteration of a campaign cell — allocate nothing.

The host execution stores ``A_e`` in memory and runs the sweep through
the pluggable :class:`~repro.sparse.backend.ArrayBackend` primitives
(gather / batched apply / CSR SpMV); the *modeled* device kernel (what
the tally is charged with) recomputes element matrices on the fly like
the paper's OpenACC kernel, per
:func:`repro.sparse.traffic.ebe_traffic` — identically for every
backend.
"""

from __future__ import annotations

import numpy as np

from repro.fem.assembly import element_dof_ids
from repro.sparse.backend import ArrayBackend, as_backend
from repro.sparse.precision import Precision, as_precision
from repro.sparse.traffic import ebe_traffic
from repro.util import counters

__all__ = ["EBEOperator"]


class _SweepWorkspace:
    """Reusable buffers for one fused sweep width ``r``."""

    __slots__ = ("xe", "ye", "y")

    def __init__(self, ne: int, n: int, r: int,
                 backend: ArrayBackend) -> None:
        self.xe = backend.empty((ne, 30, r))
        self.ye = backend.empty((ne, 30, r))
        self.y = backend.empty((n, r))


class EBEOperator:
    """Matrix-free SPD operator defined by per-element dense matrices.

    Parameters
    ----------
    elem_mats : (ne, 30, 30) effective element matrices (already
        Dirichlet-constrained; see
        :func:`repro.fem.assembly.apply_dirichlet_to_elements`).
    elems : (ne, 10) TET10 connectivity.
    n_nodes : global node count.
    tag : base kernel tag; the actual charge is ``f"{tag}{r}"`` so
        single- and multi-RHS sweeps are distinguishable
        (``spmv.ebe1``, ``spmv.ebe4``, ...).
    precision : storage policy for the element matrices and the fused
        gather buffers (the transprecision kernel): values are
        quantized to the format and the modeled vector traffic is
        charged at its itemsize.  Default fp64 — bit-identical to the
        precision-unaware operator.
    backend : execution engine for the sweep
        (:class:`~repro.sparse.backend.ArrayBackend`, registry name, or
        ``None`` for the ambient default).  ``numpy`` executes the
        historical call sequence bit-for-bit; the modeled traffic is
        backend-independent.
    """

    def __init__(
        self,
        elem_mats: np.ndarray,
        elems: np.ndarray,
        n_nodes: int,
        tag: str = "spmv.ebe",
        precision: Precision | str | None = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.precision = as_precision(precision)
        self.backend = as_backend(backend)
        elem_mats = np.asarray(elem_mats, dtype=float)
        ne, nd, nd2 = elem_mats.shape
        if nd != nd2 or nd != 3 * elems.shape[1]:
            raise ValueError("element matrices inconsistent with connectivity")
        if not self.precision.is_fp64:
            elem_mats = self.precision.quantize(elem_mats)
        self.Ae = elem_mats
        self.elems = np.asarray(elems, dtype=np.int64)
        self.n_nodes = int(n_nodes)
        self.tag = tag
        self._dof = element_dof_ids(self.elems)  # (ne, 30)
        self._dof_flat = self._dof.ravel()
        if self._dof.max() >= 3 * n_nodes:
            raise ValueError("connectivity references nodes beyond n_nodes")
        if self._dof.min() < 0:
            # the clip-mode gather below relies on validated
            # indices; negatives would silently wrap instead of raising
            raise ValueError("connectivity references negative node ids")
        # Scatter plan: a fixed (n, 30 ne) CSR matrix of ones whose row
        # d lists, in element order (stable sort), every flat element
        # contribution landing on dof d.  One SpMV accumulates each dof
        # sequentially — bit-equal to ``np.add.at`` from zeros.
        self._scatter_indices = np.argsort(self._dof_flat, kind="stable")
        self._scatter_indptr = np.zeros(
            self.n + 1, dtype=self._scatter_indices.dtype)
        np.cumsum(np.bincount(self._dof_flat, minlength=self.n),
                  out=self._scatter_indptr[1:])
        self._scatter_data = np.ones(self._dof_flat.size)
        self._ws: dict[int, _SweepWorkspace] = {}

    def _workspace(self, r: int) -> _SweepWorkspace:
        ws = self._ws.get(r)
        if ws is None:
            ws = _SweepWorkspace(self.n_elems, self.n, r, self.backend)
            self._ws[r] = ws
        return ws

    @property
    def shape(self) -> tuple[int, int]:
        n = 3 * self.n_nodes
        return (n, n)

    @property
    def n(self) -> int:
        return 3 * self.n_nodes

    @property
    def n_elems(self) -> int:
        return int(self.elems.shape[0])

    def memory_bytes(self) -> int:
        """Device footprint of the matrix-free kernel: connectivity +
        nodal coordinates + material, *not* the element matrices (the
        modeled kernel recomputes them; this is the paper's memory
        saving that allows 2 x 4 concurrent cases)."""
        return int(self.elems.nbytes // 2 + 24 * self.n_nodes + 16 * self.n_elems)

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply to ``(n,)`` or fused ``(n, r)`` vectors.

        ``out`` (block shape ``(n, r)``) receives the result — without
        allocating when it is C-contiguous, through one temporary
        otherwise (e.g. a column slice); without ``out`` a fresh copy
        is returned (the sweep itself still runs in the workspace
        buffers, so callers may hold several results simultaneously).
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x[:, None] if single else x
        n, r = X.shape
        if n != self.n:
            raise ValueError(f"operand size {n} != {self.n}")

        ws = self._workspace(r)
        Y = ws.y if out is None else out
        if Y.shape != (n, r):
            raise ValueError(f"out must have shape {(n, r)}, got {Y.shape}")
        self._sweep(X, Y, ws)

        w = ebe_traffic(self.n_elems, self.n_nodes, n_rhs=r,
                        value_bytes=self.precision.itemsize)
        counters.charge(f"{self.tag}{r}", w.flops * r, w.bytes * r)
        if single:
            return Y[:, 0].copy() if out is None else Y[:, 0]
        return Y.copy() if out is None else Y

    def _sweep(self, X: np.ndarray, Y: np.ndarray,
               ws: _SweepWorkspace) -> np.ndarray:
        """The gather/apply/scatter hot path, pure backend primitives
        (the gather indices are validated in range at construction, so
        the gather needs no bounds re-check; the scatter is one SpMV
        with the prebuilt plan)."""
        bk = self.backend
        bk.gather_rows(X, self._dof, ws.xe)
        bk.quantize_store(ws.xe, self.precision)  # storage-format gather
        bk.batched_matmul(self.Ae, ws.xe, ws.ye)
        bk.spmv_csr(self._scatter_indptr, self._scatter_indices,
                    self._scatter_data, ws.ye.reshape(-1, X.shape[1]), Y)
        return Y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal_blocks(self) -> np.ndarray:
        """Assembled 3x3 diagonal blocks (for block-Jacobi), computed
        without forming the global matrix."""
        nb = self.n_nodes
        out = np.zeros((nb, 3, 3))
        ne, na = self.elems.shape
        # element-local diagonal blocks: (ne, na, 3, 3)
        idx = 3 * np.arange(na)
        for i in range(3):
            for j in range(3):
                vals = self.Ae[:, idx + i, :][:, np.arange(na), idx + j]  # (ne, na)
                np.add.at(out[:, i, j], self.elems.ravel(), vals.ravel())
        return out

    def to_dense(self) -> np.ndarray:
        """Assemble densely (tests only; small meshes)."""
        n = self.n
        A = np.zeros((n, n))
        for e in range(self.n_elems):
            d = self._dof[e]
            A[np.ix_(d, d)] += self.Ae[e]
        return A
