"""Global assembly, static condensation, and linear solve.

The element loop visits active elements in natural order exactly once.
Each element routine returns one dense local system (K, b), rows and
columns in the mesh's attribute order; assembly expands it through the
constrained-approximation matrix C, moves Dirichlet columns to the
load, optionally eliminates interior (bubble) DOFs by a Schur
complement, and scatters into one sparse symmetric system over the
surviving global unknowns.

Global DOF numbering: nodes in id order, attributes in exact-sequence
order within a node, vector components innermost.  Only modified
(constraint-parent), non-Dirichlet dofs are numbered; bubbles are
numbered only when condensation is off.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import conformity as cf
from .errors import ConfigError, LinAlgError, SolveError


@dataclass
class CondensedLocal:
    """Interface system left after bubble elimination, plus recovery data."""

    K: np.ndarray
    b: np.ndarray
    interface: np.ndarray       # indices of interface dofs in the input
    bubble: np.ndarray          # indices of bubble dofs in the input
    factor: np.ndarray = None   # Cholesky factor of A_bb
    K_ib: np.ndarray = None
    b_b: np.ndarray = None


def static_condense(K: np.ndarray, b: np.ndarray,
                    bubble: np.ndarray) -> CondensedLocal:
    """Schur-eliminate the bubble dofs: A_ii − A_ib A_bb⁻¹ A_bi.

    The factors are kept for `recover_bubbles`.  An all-false mask
    returns (K, b) unchanged.
    """
    bubble = np.asarray(bubble, dtype=bool)
    iface = np.flatnonzero(~bubble)
    bub = np.flatnonzero(bubble)
    if bub.size == 0:
        return CondensedLocal(K=K, b=b, interface=iface, bubble=bub)
    A_bb = K[np.ix_(bub, bub)]
    A_ib = K[np.ix_(iface, bub)]
    try:
        L = np.linalg.cholesky(A_bb)
    except np.linalg.LinAlgError as exc:
        raise LinAlgError(f"bubble block is singular: {exc}") from exc
    Y = scipy.linalg.solve_triangular(L, np.column_stack([A_ib.T, b[bub]]),
                                      lower=True)
    Zb = Y[:, -1]
    Yi = Y[:, :-1]
    K_c = K[np.ix_(iface, iface)] - Yi.T @ Yi
    b_c = b[iface] - Yi.T @ Zb
    return CondensedLocal(K=K_c, b=b_c, interface=iface, bubble=bub,
                          factor=L, K_ib=A_ib, b_b=b[bub].copy())


def recover_bubbles(cond: CondensedLocal, u_iface: np.ndarray) -> np.ndarray:
    """u_b = A_bb⁻¹ (b_b − A_bi u_i), from the stored factors."""
    if cond.bubble.size == 0:
        return np.zeros(0)
    L = cond.factor
    rhs = cond.b_b - cond.K_ib.T @ u_iface
    y = scipy.linalg.solve_triangular(L, rhs, lower=True)
    return scipy.linalg.solve_triangular(L.T, y, lower=False)


# ---------------------------------------------------------------------------
# sparse system

@dataclass
class SparseSystem:
    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    index: dict                 # (node, attr, comp, k) -> global dof

    @property
    def ndof(self) -> int:
        return self.rhs.shape[0]

    def symmetry_error(self) -> float:
        d = self.matrix - self.matrix.T
        return 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))


def cg_solve(A, b, tol: float = 1e-12, maxit: int = None):
    """Jacobi-preconditioned conjugate gradient.

    Stops when the recurrence residual falls to tol and returns
    (x, iterations, ‖b − Ax‖/‖b‖), the true relative residual of x.  The
    matrix must be symmetric positive definite; failure to reach tol
    raises.
    """
    n = b.shape[0]
    if n == 0:
        return np.zeros(0), 0, 0.0
    if maxit is None:
        maxit = max(200, 20 * n)
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise LinAlgError("matrix diagonal has non-positive entries")
    inv_d = 1.0 / diag
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0
    x = np.zeros(n)
    r = b.copy()
    z = inv_d * r
    p = z.copy()
    rz = r @ z
    for it in range(1, maxit + 1):
        q = A @ p
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) / bnorm <= tol:
            return x, it, np.linalg.norm(b - A @ x) / bnorm
        z = inv_d * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolveError(
        f"cg did not converge in {maxit} iterations "
        f"(relative residual {np.linalg.norm(r) / bnorm:.3e})"
    )


_DENSE_LIMIT = 2000


def _dense_solve(A, b):
    n = b.shape[0]
    if n > _DENSE_LIMIT:
        raise ConfigError(
            f"dense fallback limited to {_DENSE_LIMIT} dofs, system has {n}"
        )
    try:
        c, low = scipy.linalg.cho_factor(A.toarray())
    except np.linalg.LinAlgError as exc:
        raise LinAlgError(f"dense factorization failed: {exc}") from exc
    x = scipy.linalg.cho_solve((c, low), b)
    bnorm = np.linalg.norm(b)
    res = np.linalg.norm(b - A @ x) / bnorm if bnorm else 0.0
    return x, 1, res


# ---------------------------------------------------------------------------
# the element loop

@dataclass
class SolveReport:
    ndof: int
    iterations: int
    residual: float


def _sort_key(key):
    nid, attr, comp, k = key
    return (nid, attr, k, comp)


def _number_dofs(mods, istc: bool) -> dict:
    keys = set()
    for mod in mods:
        for i, key in enumerate(mod.dof_nodes):
            if mod.dirichlet[i]:
                continue
            if istc and mod.bubble[i]:
                continue
            keys.add(key)
    return {key: g for g, key in enumerate(sorted(keys, key=_sort_key))}


def _local_system(mesh, elem_fn, mod):
    K, b = elem_fn(mesh, mod.mdle)
    C = mod.C
    n = C.shape[0]
    if K.shape != (n, n) or b.shape != (n,):
        raise ConfigError(
            f"element {mod.mdle}: elem_fn produced K {K.shape} and b "
            f"{b.shape}, modified element expects ({n}, {n}) and ({n},)"
        )
    Km = C.T @ K @ C
    bm = C.T @ b
    if mod.dirichlet.any():
        bm = bm - Km[:, mod.dirichlet] @ mod.dirichlet_values[mod.dirichlet]
    free = ~mod.dirichlet
    return Km[np.ix_(free, free)], bm[free], free


def map_elements(work, items, workers: int = 1) -> list:
    """[work(item) for item in items], on a pool of `workers` threads.

    Results come back in the order of `items`, so anything summed from
    them is summed in the same order for every worker count.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if workers == 1:
        return [work(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, items))


def assemble_system(mesh, elem_fn, istc: bool = True, workers: int = 1):
    """Build the global sparse system; returns (system, per-element data).

    With `istc` off no dof counts as a bubble, so nothing is condensed.
    """
    mods = [cf.modified_element(mesh, mdle)
            for mdle in mesh.ELEM_ORDER]
    index = _number_dofs(mods, istc)

    def element_work(mod):
        Ku, bu, free = _local_system(mesh, elem_fn, mod)
        bubble = mod.bubble[free] if istc else np.zeros(bu.shape[0], bool)
        cond = static_condense(Ku, bu, bubble)
        free_keys = [key for i, key in enumerate(mod.dof_nodes)
                     if not mod.dirichlet[i]]
        gidx = np.array([index[free_keys[i]] for i in cond.interface],
                        dtype=int)
        return cond, gidx, free_keys

    results = map_elements(element_work, mods, workers)

    n = len(index)
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for cond, gidx, _ in results:
        m = gidx.shape[0]
        if m == 0:
            continue
        rows.append(np.repeat(gidx, m))
        cols.append(np.tile(gidx, m))
        vals.append(cond.K.ravel())
        np.add.at(rhs, gidx, cond.b)
    if rows:
        coo = scipy.sparse.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
        matrix = coo.tocsr()
    else:
        matrix = scipy.sparse.csr_matrix((n, n))
    system = SparseSystem(matrix=matrix, rhs=rhs, index=index)
    return system, mods, results


def _write_dofs(mesh, pairs):
    """Store ((node, attr, comp, k), value) pairs in the node dof arrays.

    Each node's array for an attribute grows once, to its largest k.
    """
    by_node = {}
    for (nid, attr, comp, k), val in pairs:
        by_node.setdefault((nid, attr), []).append((k, comp, val))
    for (nid, attr), items in by_node.items():
        node = mesh.NODES[nid]
        nc = mesh.physics.attrs[attr].ncomp
        kmax = max(k for k, _, _ in items)
        node.dofs = node.dofs or {}
        dofs = node.dofs.get(attr)
        if dofs is None or dofs.shape[0] < kmax + 1:
            fresh = np.zeros((kmax + 1, nc))
            if dofs is not None:
                fresh[:dofs.shape[0]] = dofs
            dofs = fresh
            node.dofs[attr] = dofs
        for k, comp, val in items:
            dofs[k, comp] = val


def assemble_and_solve(mesh, elem_fn, *, istc: bool = True,
                       solver: str = "cg", tol: float = 1e-12,
                       maxit: int = None, workers: int = 1) -> SolveReport:
    """Element loop, global solve, and DOF storage (including bubbles)."""
    system, _, results = assemble_system(
        mesh, elem_fn, istc=istc, workers=workers)
    if solver == "dense":
        x, iters, res = _dense_solve(system.matrix, system.rhs)
    elif solver == "cg":
        x, iters, res = cg_solve(system.matrix, system.rhs,
                                 tol=tol, maxit=maxit)
    else:
        raise ConfigError(f"unknown solver {solver!r}")
    _write_dofs(mesh, ((key, x[g]) for key, g in system.index.items()))
    # bubble recovery, element by element in natural order
    bubbles = []
    for cond, gidx, free_keys in results:
        u_b = recover_bubbles(cond, x[gidx])
        bubbles.extend(zip((free_keys[i] for i in cond.bubble), u_b))
    _write_dofs(mesh, bubbles)
    return SolveReport(ndof=system.ndof, iterations=iters, residual=res)

