"""Global assembly, static condensation, and linear solve.

The element loop runs over batches of elements sharing one order vector
(one thread-pool item each, at most `_BATCH_BYTES` of local matrices);
the element routine returns a batch's local systems stacked, rows and
columns in attribute order.  Assembly expands each through the
constrained-approximation matrix C (unless C = I), moves Dirichlet
columns to the load, eliminates interior (bubble) DOFs by a Schur
complement on the sub-stacks that share one (free, bubble) layout, and
scatters in natural element order into one sparse symmetric system.

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
from . import masterel as me
from .errors import ConfigError, LinAlgError, SolveError
from .mesh import element_info


@dataclass
class CondensedLocal:
    """Interface system left after bubble elimination, plus recovery data
    (arrays keep the stack axes of the input)."""

    K: np.ndarray
    b: np.ndarray
    interface: np.ndarray       # indices of interface dofs in the input
    bubble: np.ndarray          # indices of bubble dofs in the input
    factor: np.ndarray = None   # Cholesky factor of A_bb
    K_ib: np.ndarray = None
    b_b: np.ndarray = None


def _tri_solve(a, b, lower, trans=0):
    """`scipy.linalg.solve_triangular` on a stack a (..., n, n), b (..., n, m)
    minus its per-item Python wrapper: one dtrtrs call per item in scipy's
    form (a non-F-contiguous item goes in transposed, `lower` and `trans`
    flipped), stacked as scipy stacks them, so every bit is scipy's."""
    n, m = b.shape[-2:]
    xs = []
    for a_i, b_i in zip(a.reshape(-1, n, n), b.reshape(-1, n, m)):
        f = a_i.flags.f_contiguous
        x, info = scipy.linalg.lapack.dtrtrs(
            a_i if f else a_i.T, b_i, lower=lower if f else not lower,
            trans=trans if f else not trans)
        if info > 0:
            raise LinAlgError(f"singular triangular factor at row {info}")
        xs.append(x)
    return np.stack(xs).reshape(b.shape)


def static_condense(K: np.ndarray, b: np.ndarray,
                    bubble: np.ndarray) -> CondensedLocal:
    """Schur-eliminate the bubble dofs: A_ii − A_ib A_bb⁻¹ A_bi.

    K (..., n, n) and b (..., n) may be stacks that share one mask; each
    result equals the single-element call bit for bit.  The factors are
    kept for `recover_bubbles`.  An all-false mask returns (K, b).
    """
    bubble = np.asarray(bubble, dtype=bool)
    iface = np.flatnonzero(~bubble)
    bub = np.flatnonzero(bubble)
    if bub.size == 0:
        return CondensedLocal(K=K, b=b, interface=iface, bubble=bub)
    A_bb = K[..., bub[:, None], bub]
    A_ib = np.ascontiguousarray(K[..., iface[:, None], bub])
    try:
        L = np.linalg.cholesky(A_bb)
    except np.linalg.LinAlgError as exc:
        raise LinAlgError(f"bubble block is singular: {exc}") from exc
    rhs = np.concatenate([A_ib.swapaxes(-1, -2), b[..., bub, None]], -1)
    Y = _tri_solve(L, rhs, lower=True)
    Yt = Y[..., :-1].swapaxes(-1, -2)
    K_c = K[..., iface[:, None], iface] - Yt @ Y[..., :-1]
    b_c = b[..., iface] - (Yt @ Y[..., -1:])[..., 0]
    return CondensedLocal(K=K_c, b=b_c, interface=iface, bubble=bub,
                          factor=L, K_ib=A_ib, b_b=b[..., bub])


def recover_bubbles(cond: CondensedLocal, u_iface: np.ndarray) -> np.ndarray:
    """u_b = A_bb⁻¹ (b_b − A_bi u_i), from the stored factors."""
    if cond.bubble.size == 0:
        return np.zeros(u_iface.shape[:-1] + (0,))
    L = cond.factor
    rhs = cond.b_b[..., None] - cond.K_ib.swapaxes(-1, -2) @ u_iface[..., None]
    y = _tri_solve(L, rhs, lower=True)
    return _tri_solve(L.swapaxes(-1, -2), y, lower=False)[..., 0]


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


def _local_system(K, b, mod):
    """Expand one element's (K, b) through C, lift the Dirichlet columns
    to the load, and keep the free rows and columns."""
    if not mod.conforming:
        K, b = mod.C.T @ K @ mod.C, mod.C.T @ b
    free = ~mod.dirichlet
    if free.all():
        return K, b, free
    b = b - K[:, mod.dirichlet] @ mod.dirichlet_values[mod.dirichlet]
    return K[np.ix_(free, free)], b[free], free


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


_BATCH_BYTES = 1_500_000   # cap on one batch's stacked arrays


def element_batches(mesh, elem_bytes) -> list:
    """[(norder, [mdle, ...]), ...]: active elements that share one order
    vector, in natural order, at most max(1, _BATCH_BYTES //
    elem_bytes(norder)) per batch."""
    groups = {}
    for mdle in mesh.ELEM_ORDER:
        groups.setdefault(tuple(element_info(mesh, mdle)[0]), []).append(mdle)
    return [(norder, mdles[i:i + size]) for norder, mdles in groups.items()
            for size in [max(1, _BATCH_BYTES // elem_bytes(norder))]
            for i in range(0, len(mdles), size)]


def assemble_system(mesh, elem_fn, istc: bool = True, workers: int = 1):
    """Build the global sparse system; returns (system, modified elements,
    groups).  A group is (mdles, stacked CondensedLocal, global interface
    dofs (S, m), free dof keys per element): the elements of one batch
    with one (free, bubble) layout, condensed as one stack.

    `elem_fn(mesh, mdles)` returns the stacked (K, b) of one batch.
    With `istc` off no dof counts as a bubble, so nothing is condensed.
    """
    mods = {mdle: cf.modified_element(mesh, mdle) for mdle in mesh.ELEM_ORDER}
    index = _number_dofs(mods.values(), istc)

    def nbytes(norder):                 # one element's local matrix
        return 8 * sum(a.ncomp * int(me.layout_counts(
            a.fe_space, norder, not a.is_trace).sum())
            for a in mesh.physics.attrs) ** 2

    def batch_work(batch):
        mdles = batch[1]
        K, b = elem_fn(mesh, mdles)
        n, E = mods[mdles[0]].C.shape[0], len(mdles)
        if K.shape != (E, n, n) or b.shape != (E, n):
            raise ConfigError(
                f"element {mdles[0]}: elem_fn produced K {K.shape} and b "
                f"{b.shape}, modified elements expect {(E, n, n)}, {(E, n)}")
        layouts = {}
        for mdle, Ke, be in zip(mdles, K, b):
            mod = mods[mdle]
            Ku, bu, free = _local_system(Ke, be, mod)
            bubble = mod.bubble[free] & istc
            keys = [key for key, f in zip(mod.dof_nodes, free) if f]
            layouts.setdefault((free.tobytes(), bubble.tobytes()), []).append(
                (mdle, Ku, bu, keys, bubble))
        groups = []
        for members in layouts.values():
            ids, Ks, bs, keys, bubble = zip(*members)
            cond = static_condense(np.stack(Ks), np.stack(bs), bubble[0])
            gidx = np.array([[index[k[i]] for i in cond.interface]
                             for k in keys], dtype=int).reshape(len(ids), -1)
            groups.append((ids, cond, gidx, keys))
        return groups

    groups = [g for gs in map_elements(
        batch_work, element_batches(mesh, nbytes), workers) for g in gs]

    # scatter in natural element order: duplicate sums depend on it
    where = {mdle: (cond, gidx, s) for ids, cond, gidx, _ in groups
             for s, mdle in enumerate(ids)}
    gidx, K, b = zip(*((gi[s], c.K[s], c.b[s])
                       for c, gi, s in map(where.get, mesh.ELEM_ORDER)))
    n = len(index)
    rhs = np.zeros(n)
    np.add.at(rhs, np.concatenate(gidx), np.concatenate(b))
    matrix = scipy.sparse.coo_matrix(
        (np.concatenate([k.ravel() for k in K]),
         (np.concatenate([np.repeat(i, i.size) for i in gidx]),
          np.concatenate([np.tile(i, i.size) for i in gidx]))),
        shape=(n, n)).tocsr()
    system = SparseSystem(matrix=matrix, rhs=rhs, index=index)
    return system, list(mods.values()), groups


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
    system, _, groups = assemble_system(
        mesh, elem_fn, istc=istc, workers=workers)
    if solver == "dense":
        x, iters, res = _dense_solve(system.matrix, system.rhs)
    elif solver == "cg":
        x, iters, res = cg_solve(system.matrix, system.rhs,
                                 tol=tol, maxit=maxit)
    else:
        raise ConfigError(f"unknown solver {solver!r}")
    _write_dofs(mesh, ((key, x[g]) for key, g in system.index.items()))
    # bubble recovery, one stack per element group
    bubbles = []
    for _, cond, gidx, keys in groups:
        for k, u_b in zip(keys, recover_bubbles(cond, x[gidx])):
            bubbles.extend(zip((k[i] for i in cond.bubble), u_b))
    _write_dofs(mesh, bubbles)
    return SolveReport(ndof=system.ndof, iterations=iters, residual=res)

