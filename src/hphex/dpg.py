"""Element-level dense kernels for DPG condensation.

The enriched test space makes every DPG element a small least-squares
problem: with Gram matrix G = UᵀU and extended stiffness [B | B̂ | l],
the condensed Bubnov-Galerkin block is B̃ᵀB̃ where B̃ = U⁻ᵀ[B | B̂ | l].
The Gram matrix and its factor are kept in LAPACK's 'U' packed storage
(upper triangle column by column, k = j(j+1)/2 + i for i ≤ j), and the
kernels below are LAPACK/BLAS calls through scipy.  ``PackedSym`` stays
as the argument type of ``packed_cholesky`` and ``packed_tri_solve``
because the benchmark's tracer reads the dimension ``.n`` from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .errors import LinAlgError


@dataclass
class PackedSym:
    """Symmetric matrix, upper triangle in LAPACK 'U' packed storage."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        expect = self.n * (self.n + 1) // 2
        if self.values.shape != (expect,):
            raise LinAlgError(
                f"packed storage needs {expect} values for n={self.n}, "
                f"got {self.values.shape}"
            )

    @classmethod
    def from_dense(cls, A: np.ndarray) -> "PackedSym":
        A = np.asarray(A, dtype=float)
        return cls(A.shape[0], lapack.dtrttp(A, uplo="U")[0])

    def to_dense(self) -> np.ndarray:
        A = self.to_upper()
        return A + np.triu(A, 1).T

    def to_upper(self) -> np.ndarray:
        """Dense copy of the upper triangle only (strict lower = 0)."""
        return lapack.dtpttr(self.n, self.values, uplo="U")[0]


def packed_cholesky(g: PackedSym) -> PackedSym:
    """Factor G = UᵀU with U upper triangular (LAPACK dpptrf).

    A pivot U_kk² ≤ 1e-14·max(|diag G|, 1) is rejected even when LAPACK
    accepts it: such a Gram matrix is numerically singular.
    """
    n = g.n
    diag = np.arange(n) * (np.arange(n) + 3) // 2
    scale = max(np.max(np.abs(g.values[diag])), 1.0) if n else 1.0
    u, info = lapack.dpptrf(n, g.values)
    # on failure LAPACK stops at pivot info-1 and leaves it unrooted
    stop = info - 1 if info > 0 else n
    pivots = u[diag]
    pivots[:stop] **= 2
    small = np.flatnonzero(pivots[:stop] <= 1e-14 * scale)
    k = small[0] if small.size else stop
    if k < n:
        raise LinAlgError(
            f"gram matrix is not positive definite: pivot {k} = "
            f"{pivots[k]:.3e}"
        )
    return PackedSym(n, u)


def packed_tri_solve(u: PackedSym, rhs: np.ndarray) -> np.ndarray:
    """Solve Uᵀx = rhs (rhs may be a block)."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != u.n:
        raise LinAlgError(f"rhs has {rhs.shape[0]} rows, factor has {u.n}")
    return solve_triangular(u.to_upper(), rhs, trans="T", check_finite=False)


def condense_dpg(stiff_all: np.ndarray, gram: PackedSym) -> np.ndarray:
    """(ntrial+1)² condensed block [[BᵀG⁻¹B, BᵀG⁻¹l], [lᵀG⁻¹B, lᵀG⁻¹l]].

    `stiff_all` is [B | B̂ | l] with one row per test dof, `gram` the
    packed Gram matrix G over the same test dofs.  The caller keeps the
    last column as the load and discards the last row.  The upper
    triangle is computed once and mirrored, so the output is exactly
    symmetric.
    """
    factor = packed_cholesky(gram)
    btilde = packed_tri_solve(factor, stiff_all)
    cond = btilde.T @ btilde
    cond = np.triu(cond)
    cond = cond + cond.T - np.diag(np.diag(cond))
    return cond


def residual_norm_sq(factor: PackedSym, resid: np.ndarray) -> float:
    """‖U⁻ᵀ r‖² for r = l − [B | B̂]·w: the DPG energy residual."""
    rpsi = packed_tri_solve(factor, resid)
    return float(rpsi @ rpsi)
