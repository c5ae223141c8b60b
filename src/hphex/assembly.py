"""Global assembly, static condensation, and linear solve.

The element loop visits active elements in natural order exactly once.
Each element routine returns attribute-blocked matrices (AlocBloc);
assembly expands them through the constrained-approximation matrix C,
moves Dirichlet columns to the load, optionally eliminates interior
(bubble) DOFs by a Schur complement, and scatters into one sparse
symmetric system over the surviving global unknowns.

Global DOF numbering: nodes in id order, attributes in exact-sequence
order within a node, vector components innermost.  Only modified
(constraint-parent), non-Dirichlet dofs are numbered; bubbles are
numbered only when condensation is off.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from . import conformity as cf
from .errors import ConfigError, LinAlgError, SolveError


@dataclass
class AlocBloc:
    """Attribute-blocked element matrices.

    ALOC[i][j] couples test attribute i with trial attribute j and is
    read only when Itest[i] and Itrial[j] are both set; unflagged
    blocks may hold anything.  BLOC[i] is the load for attribute i.
    """

    ALOC: list
    BLOC: list
    Itest: list
    Itrial: list

    @classmethod
    def zeros(cls, counts: list) -> "AlocBloc":
        n = len(counts)
        return cls(
            ALOC=[[np.zeros((counts[i], counts[j])) for j in range(n)]
                  for i in range(n)],
            BLOC=[np.zeros(counts[i]) for i in range(n)],
            Itest=[1] * n,
            Itrial=[1] * n,
        )

    def dense(self, attrs: list, counts: dict) -> tuple[np.ndarray, np.ndarray]:
        """Assemble flagged blocks into one local (K, b) over `attrs`."""
        sizes = [counts[a] for a in attrs]
        offs = np.concatenate([[0], np.cumsum(sizes)])
        n = offs[-1]
        K = np.zeros((n, n))
        b = np.zeros(n)
        for ia, a in enumerate(attrs):
            if self.Itest[a]:
                blo = self.BLOC[a]
                if blo.shape != (sizes[ia],):
                    raise ConfigError(
                        f"load block {a}: got {blo.shape}, expected "
                        f"({sizes[ia]},)"
                    )
                b[offs[ia]:offs[ia + 1]] = blo
            for ja, c in enumerate(attrs):
                if not (self.Itest[a] and self.Itrial[c]):
                    continue
                blk = self.ALOC[a][c]
                if blk.shape != (sizes[ia], sizes[ja]):
                    raise ConfigError(
                        f"stiffness block ({a},{c}): got {blk.shape}, "
                        f"expected ({sizes[ia]}, {sizes[ja]})"
                    )
                K[offs[ia]:offs[ia + 1], offs[ja]:offs[ja + 1]] = blk
        return K, b


@dataclass
class CondensedLocal:
    """Interface system left after bubble elimination, plus recovery data."""

    K: np.ndarray
    b: np.ndarray
    interface: np.ndarray       # indices of interface dofs in the input
    bubble: np.ndarray          # indices of bubble dofs in the input
    factor: np.ndarray = None   # Cholesky factor of A_bb when stored
    K_ib: np.ndarray = None
    b_b: np.ndarray = None
    recompute: object = None    # () -> (K, b) when factors are not stored


def static_condense(K: np.ndarray, b: np.ndarray, bubble: np.ndarray,
                    store: bool = True, recompute=None) -> CondensedLocal:
    """Schur-eliminate the bubble dofs: A_ii − A_ib A_bb⁻¹ A_bi."""
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
    return CondensedLocal(
        K=K_c, b=b_c, interface=iface, bubble=bub,
        factor=L if store else None,
        K_ib=A_ib if store else None,
        b_b=b[bub].copy() if store else None,
        recompute=None if store else recompute,
    )


def recover_bubbles(cond: CondensedLocal, u_iface: np.ndarray) -> np.ndarray:
    """u_b = A_bb⁻¹ (b_b − A_bi u_i), from stored factors or recomputed."""
    if cond.bubble.size == 0:
        return np.zeros(0)
    if cond.factor is not None:
        L, A_ib, b_b = cond.factor, cond.K_ib, cond.b_b
    else:
        if cond.recompute is None:
            raise SolveError("no stored factors and no recompute path")
        K, b = cond.recompute()
        A_bb = K[np.ix_(cond.bubble, cond.bubble)]
        A_ib = K[np.ix_(cond.interface, cond.bubble)]
        b_b = b[cond.bubble]
        L = np.linalg.cholesky(A_bb)
    rhs = b_b - A_ib.T @ u_iface
    y = scipy.linalg.solve_triangular(L, rhs, lower=True)
    return scipy.linalg.solve_triangular(L.T, y, lower=False)


# ---------------------------------------------------------------------------
# sparse system

@dataclass
class SparseSystem:
    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    index: dict                 # (node, attr, comp, k) -> global dof
    keys: list = field(default_factory=list)

    @property
    def ndof(self) -> int:
        return self.rhs.shape[0]

    def symmetry_error(self) -> float:
        d = self.matrix - self.matrix.T
        return 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))


def cg_solve(A, b, tol: float = 1e-12, maxit: int = None):
    """Jacobi-preconditioned conjugate gradient.

    Returns (x, iterations, relative residual).  The matrix must be
    symmetric positive definite; failure to reach tol raises.
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
        res = np.linalg.norm(r) / bnorm
        if res <= tol:
            return x, it, res
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
    nreles: int


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


def _local_system(mesh, physics, elem_fn, mod):
    aloc = elem_fn(mesh, mod.mdle)
    attrs = mod.attrs
    K, b = aloc.dense(attrs, mod.local_counts)
    C = mod.C
    if K.shape[0] != C.shape[0]:
        raise ConfigError(
            f"element {mod.mdle}: elem_fn produced {K.shape[0]} rows, "
            f"modified element expects {C.shape[0]}"
        )
    Km = C.T @ K @ C
    bm = C.T @ b
    if mod.dirichlet.any():
        bm = bm - Km[:, mod.dirichlet] @ mod.dirichlet_values[mod.dirichlet]
    free = ~mod.dirichlet
    return Km[np.ix_(free, free)], bm[free], free


def assemble_system(mesh, physics, elem_fn, istc: bool = True,
                    store: bool = True, workers: int = 1):
    """Build the global sparse system; returns (system, per-element data)."""
    physics = physics or mesh.physics
    mods = [cf.modified_element(mesh, physics, mdle)
            for mdle in mesh.ELEM_ORDER]
    index = _number_dofs(mods, istc)

    def element_work(mod):
        Ku, bu, free = _local_system(mesh, physics, elem_fn, mod)
        bub_u = mod.bubble[free]
        if istc:
            def redo(mod=mod, free=free):
                return _local_system(mesh, physics, elem_fn, mod)[:2]
            cond = static_condense(Ku, bu, bub_u, store=store, recompute=redo)
        else:
            cond = CondensedLocal(K=Ku, b=bu,
                                  interface=np.arange(bu.shape[0]),
                                  bubble=np.zeros(0, dtype=int))
        free_keys = [key for i, key in enumerate(mod.dof_nodes)
                     if not mod.dirichlet[i]]
        gidx = np.array([index[free_keys[i]] for i in cond.interface],
                        dtype=int)
        return cond, gidx, free_keys

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(element_work, mods))
    else:
        results = [element_work(mod) for mod in mods]

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
    system = SparseSystem(matrix=matrix, rhs=rhs, index=index,
                          keys=sorted(index, key=_sort_key))
    return system, mods, results


def _write_dofs(mesh, physics, index, x):
    by_node = {}
    for (nid, attr, comp, k), g in index.items():
        by_node.setdefault((nid, attr), []).append((k, comp, x[g]))
    for (nid, attr), items in by_node.items():
        node = mesh.NODES[nid]
        nc = physics.attrs[attr].ncomp
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


def assemble_and_solve(mesh, physics, elem_fn, *, istc: bool = True,
                       store: bool = True, solver: str = "cg",
                       tol: float = 1e-12, maxit: int = None,
                       workers: int = 1) -> SolveReport:
    """Element loop, global solve, and DOF storage (including bubbles)."""
    physics = physics or mesh.physics
    system, mods, results = assemble_system(
        mesh, physics, elem_fn, istc=istc, store=store, workers=workers)
    if solver == "dense":
        x, iters, res = _dense_solve(system.matrix, system.rhs)
    elif solver == "cg":
        x, iters, res = cg_solve(system.matrix, system.rhs,
                                 tol=tol, maxit=maxit)
    else:
        raise ConfigError(f"unknown solver {solver!r}")
    _write_dofs(mesh, physics, system.index, x)

    # bubble recovery, element by element in natural order
    for mod, (cond, gidx, free_keys) in zip(mods, results):
        if cond.bubble.size == 0:
            continue
        u_i = x[gidx]
        u_b = recover_bubbles(cond, u_i)
        node = mesh.NODES[mod.mdle]
        node.dofs = node.dofs or {}
        for val, ib in zip(u_b, cond.bubble):
            nid, attr, comp, k = free_keys[ib]
            nc = physics.attrs[attr].ncomp
            dofs = node.dofs.get(attr)
            if dofs is None or dofs.shape[0] <= k:
                fresh = np.zeros((k + 1, nc))
                if dofs is not None:
                    fresh[:dofs.shape[0]] = dofs
                dofs = fresh
                node.dofs[attr] = dofs
            dofs[k, comp] = val
    return SolveReport(ndof=system.ndof, iterations=iters, residual=res,
                       nreles=mesh.NRELES)


def store_solution(mesh, mdle: int, attr: int, dofs: np.ndarray):
    """Write one element's local coefficients into the owning nodes.

    Constrained nodes own nothing and are skipped; shared nodes are
    simply overwritten (identical values on both sides by conformity).
    """
    physics = mesh.physics
    a = physics.attrs[attr]
    slots, _ = cf.scalar_slot_counts(mesh, mdle, a.fe_space, a.is_trace)
    nc = a.ncomp
    total = sum(c for _, c in slots)
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape != (total, nc):
        raise ConfigError(
            f"element {mdle} attr {attr}: got {dofs.shape}, "
            f"expected ({total}, {nc})"
        )
    pos = 0
    for nid, count in slots:
        if count == 0:
            continue
        if not cf.is_constrained(mesh, nid):
            node = mesh.NODES[nid]
            node.dofs = node.dofs or {}
            node.dofs[attr] = dofs[pos:pos + count].copy()
        pos += count
