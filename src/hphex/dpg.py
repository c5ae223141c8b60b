"""Element-level dense kernels for DPG condensation.

The enriched test space makes every DPG element a small least-squares
problem: with Gram matrix G = UᵀU and extended stiffness [B | B̂ | l],
the condensed Bubnov-Galerkin block is B̃ᵀB̃ where B̃ = U⁻ᵀ[B | B̂ | l].
Element builders return a full symmetric G; LAPACK dpotrf reads only its
upper triangle, and the factor U is a dense array whose strict lower
triangle is zero.  Every kernel is a LAPACK/BLAS call through scipy, and
condensation mirrors B̃ᵀB̃ in place, holding no full-size copy.  `_tri_solve`
(BLAS dtrsm) is the package's one triangular solve, bubble solves included.

``packed_cholesky`` and ``packed_tri_solve`` keep their names, and pass
G and U in the ``Upper`` holder, because the benchmark's tracer probes
these two names and reads the dimension ``.n`` from their first argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import LinAlgError


@dataclass(frozen=True)
class Upper:
    """A dense square matrix of which only the upper triangle is read."""

    a: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]


def packed_cholesky(g: Upper) -> Upper:
    """Factor G = UᵀU with U upper triangular (LAPACK dpotrf).

    A pivot U_kk² ≤ 1e-14·max(|diag G|, 1) is rejected even when LAPACK
    accepts it: such a Gram matrix is numerically singular.
    """
    n = g.n
    scale = max(np.max(np.abs(np.diag(g.a))), 1.0) if n else 1.0
    u, info = lapack.dpotrf(g.a, lower=0, clean=1)
    # on failure LAPACK stops at pivot info-1 and leaves it unrooted
    stop = info - 1 if info > 0 else n
    pivots = np.diag(u).copy()
    pivots[:stop] **= 2
    small = np.flatnonzero(pivots[:stop] <= 1e-14 * scale)
    k = small[0] if small.size else stop
    if k < n:
        raise LinAlgError(
            f"gram matrix is not positive definite: pivot {k} = "
            f"{pivots[k]:.3e}"
        )
    return Upper(u)


def _tri_solve(a, b, lower, trans=0):
    """scipy's triangular solve on a stack a (..., n, n), b (..., n, m), on
    BLAS: per item one dtrsm (dtrsv for m = 1) in scipy's form (a
    non-F-contiguous item goes in transposed, `lower` and `trans` flipped),
    stacked as scipy stacks them; a 2-D b's result is BLAS's own, F-ordered
    like scipy's.  Same bits as scipy's LAPACK solve, which OpenBLAS threads
    even for 1x1; its zero-pivot check runs once here."""
    n, m = b.shape[-2:]
    if not (d := np.diagonal(a, axis1=-2, axis2=-1)).all():
        raise LinAlgError("singular triangular factor at row "
                          f"{np.argwhere(d.reshape(-1, n) == 0)[0, 1] + 1}")
    xs = []
    for i in np.ndindex(b.shape[:-2]):
        a_i, b_i = a[i], b[i]
        a_i, lo, tr = ((a_i, lower, trans) if a_i.flags.f_contiguous
                       else (a_i.T, not lower, not trans))
        xs.append(blas.dtrsv(a_i, b_i[:, 0], lower=lo, trans=tr) if m == 1
                  else blas.dtrsm(1.0, a_i, b_i, lower=lo, trans_a=tr))
    return (xs[0] if b.ndim == 2 else np.stack(xs)).reshape(b.shape)


def packed_tri_solve(u: Upper, rhs: np.ndarray) -> np.ndarray:
    """Solve Uᵀx = rhs (rhs may be a block)."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != u.n:
        raise LinAlgError(f"rhs has {rhs.shape[0]} rows, factor has {u.n}")
    return _tri_solve(u.a, rhs.reshape(u.n, -1), lower=False,
                      trans=1).reshape(rhs.shape)


def _mirror_upper(a: np.ndarray) -> np.ndarray:
    """The bits of ``triu(a) + triu(a).T - diag(diag(a))``, -0.0 made +0.0,
    in place: the upper triangle is mirrored by blocks of 32 rows."""
    for s in range(0, len(a), 32):
        d = a[s:s + 32, s:s + 32]
        d[...] = np.triu(d) + np.triu(d, 1).T
        a[s + 32:, s:s + 32] = a[s:s + 32, s + 32:].T
    a += 0.0
    return a


def condense_dpg(stiff_all: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(ntrial+1)² condensed block [[BᵀG⁻¹B, BᵀG⁻¹l], [lᵀG⁻¹B, lᵀG⁻¹l]].

    `stiff_all` is [B | B̂ | l] with one row per test dof, `G` the Gram
    matrix over the same test dofs (its upper triangle is read).  The
    caller keeps the last column as the load and discards the last row.
    The upper triangle is mirrored in place, so the output is exactly
    symmetric, and the peak is the factor and B̃: about the inputs' bytes.
    """
    btilde = packed_tri_solve(packed_cholesky(Upper(G)), stiff_all)
    cond = btilde.T @ btilde
    del btilde
    return _mirror_upper(cond)


def residual_norm_sq(G: np.ndarray, resid: np.ndarray) -> float:
    """‖U⁻ᵀ r‖² for G = UᵀU and r = l − [B | B̂]·w: the DPG energy residual."""
    rpsi = packed_tri_solve(packed_cholesky(Upper(G)), resid)
    return float(rpsi @ rpsi)
