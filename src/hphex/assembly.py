"""Global assembly, static condensation, and linear solve.

The element loop runs over batches of elements sharing one order vector
(one thread-pool item each, at most `_BATCH_BYTES` of local matrices);
the element routine returns a batch's local systems stacked, rows and
columns in attribute order.  Assembly expands a constrained element's
through its constrained-approximation matrix C, built there and dropped
before the next (a conforming one has C = I), moves Dirichlet columns to
the load, eliminates interior (bubble) DOFs by a Schur complement on the
sub-stacks that share one (free, bubble) layout, and writes the condensed
blocks straight into CSR arrays laid out before the loop in natural
element order, so duplicates are summed in that order for any grouping;
a batch keeps only its bubble-recovery data.

Global DOF numbering: nodes in id order, attributes in exact-sequence
order within a node, vector components innermost.  Only modified
(constraint-parent), non-Dirichlet dofs are numbered; bubbles are
numbered only when condensation is off; each key is one int64 code in
that order, and one `np.unique` numbers them all.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import cho_factor, cho_solve

from . import conformity as cf
from . import masterel as me
from .dpg import _tri_solve
from .errors import ConfigError, LinAlgError, SolveError


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
    keys: np.ndarray            # (ndof, 4): (node, attr, comp, k) per dof

    @property
    def ndof(self) -> int:
        return self.rhs.shape[0]

    def symmetry_error(self) -> float:
        d = self.matrix - self.matrix.T
        return 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))


def cg_solve(A, b, tol: float = 1e-12, maxit: int = None):
    """Jacobi-preconditioned conjugate gradient (`scipy.sparse.linalg.cg`).

    Stops once the recurrence residual falls below tol·‖b‖ and returns
    (x, iterations, ‖b − Ax‖/‖b‖), the true relative residual of x.  The
    matrix must be symmetric positive definite; failure to reach tol in
    maxit iterations raises.
    """
    n = b.shape[0]
    if maxit is None:
        maxit = max(200, 20 * n)
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise LinAlgError("matrix diagonal has non-positive entries")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0
    inv_d = 1.0 / diag
    updates = []                # the callback sees x once per update
    # scipy tests the residual before each update: maxit + 1 passes let a
    # run that converges on its maxit-th update report success
    x, info = scipy.sparse.linalg.cg(
        A, b, rtol=tol, atol=0.0, maxiter=maxit + 1, callback=updates.append,
        M=scipy.sparse.linalg.LinearOperator(A.shape, lambda r: inv_d * r))
    res = np.linalg.norm(b - A @ x) / bnorm
    if info:
        raise SolveError(f"cg did not converge in {maxit} iterations "
                         f"(relative residual {res:.3e})")
    return x, len(updates), res


_DENSE_LIMIT = 2000


def _dense_solve(A, b):
    n = b.shape[0]
    if n > _DENSE_LIMIT:
        raise ConfigError(
            f"dense fallback limited to {_DENSE_LIMIT} dofs, system has {n}"
        )
    try:
        c, low = cho_factor(A.toarray())
    except np.linalg.LinAlgError as exc:
        raise LinAlgError(f"dense factorization failed: {exc}") from exc
    x = cho_solve((c, low), b)
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


def _codes(keys, shape):
    """One int64 per (node, attr, comp, k) key, ordered as the global
    numbering orders dofs: node, attribute, k, component."""
    nattr, nk, nc = shape
    return ((keys[..., 0] * nattr + keys[..., 1]) * nk
            + keys[..., 3]) * nc + keys[..., 2]


def _number_dofs(mods, istc: bool):
    """Number every free dof key of the modified element stacks (bubbles
    only with `istc` off) with one `np.unique` of the key codes; returns
    the sorted codes, their keys (n, 4) and the code shape."""
    keys = np.concatenate([m.dof_nodes.reshape(-1, 4) for m in mods])
    nattr, nc, nk = (keys[:, 1:].max(axis=0) + 1).tolist()
    keys = keys[np.concatenate([(~m.dirichlet & ~(m.bubble & istc)).ravel()
                                for m in mods])]
    codes, first = np.unique(_codes(keys, (nattr, nk, nc)), return_index=True)
    return codes, keys[first], (nattr, nk, nc)


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
    nodes, groups = mesh.NODES, {}
    for mdle in mesh.ELEM_ORDER:
        node = nodes[mdle]
        norder = tuple([nodes[n].order for n in node.elem_nodes[8:26]]
                       + [node.order])
        groups.setdefault(norder, []).append(mdle)
    return [(norder, mdles[i:i + size]) for norder, mdles in groups.items()
            for size in [max(1, _BATCH_BYTES // elem_bytes(norder))]
            for i in range(0, len(mdles), size)]


def solve_batches(mesh) -> list:
    """`element_batches` capped by one element's local matrix: the batches
    of `assemble_system`, which the residual estimate walks too."""
    return element_batches(mesh, lambda norder: 8 * sum(
        a.ncomp * int(me.layout_counts(a.fe_space, norder, not a.is_trace).sum())
        for a in mesh.physics.attrs) ** 2)


def _layout_groups(mod, istc, codes, shape):
    """Per (Dirichlet, bubble) layout of a modified element stack: its rows,
    Dirichlet mask, free dofs, bubble mask, interface numbers, bubble keys."""
    n, layouts = mod.dirichlet.shape[1], np.concatenate([mod.dirichlet, mod.bubble], 1)
    bits = np.packbits(layouts, axis=1)     # one bytes key per row: fast unique
    _, first, which = np.unique(bits.view(f"V{bits.shape[1]}")[:, 0],
                                return_index=True, return_inverse=True)
    groups = []
    for g, layout in enumerate(layouts[first]):
        sel, free = np.flatnonzero(which == g), np.flatnonzero(~layout[:n])
        bub = layout[n:][free] & istc
        keys = mod.dof_nodes[sel][:, free]
        gidx = np.searchsorted(codes, _codes(keys[:, ~bub], shape))
        groups.append((sel, layout[:n], free, bub, gidx, keys[:, bub]))
    return groups


def _condense_group(K, b, mod, sel, dirichlet, free, bub):
    """Lift a layout group's Dirichlet columns to the load, then condense."""
    Kg, bg = (K, b) if len(sel) == len(K) else (K[sel], b[sel])
    if dirichlet.any():
        # items laid out as K[:, D], a contiguous vector: one GEMV's bits
        KD = np.ascontiguousarray(Kg.swapaxes(1, 2)[:, dirichlet])
        vals = np.ascontiguousarray(mod.dirichlet_values[sel][:, dirichlet])
        bg = (bg - (KD.swapaxes(1, 2) @ vals[..., None])[..., 0])[:, free]
        Kg = Kg[:, free[:, None], free]
    return static_condense(Kg, bg, bub)


def assemble_system(mesh, elem_fn, istc: bool = True, workers: int = 1):
    """Build the global sparse system; returns (system, groups).  A group
    is (mdles, stacked CondensedLocal holding recovery data only, K and b
    None, global interface dofs (S, m), bubble dof keys (S, nb, 4)): one
    batch's elements with one (free, bubble) layout, condensed as a stack.

    `elem_fn(mesh, mdles)` returns the stacked (K, b) of one batch.
    With `istc` off no dof counts as a bubble, so nothing is condensed.
    """
    batches = [(mdles, cf.modified_element(mesh, mdles))
               for _, mdles in solve_batches(mesh)]
    codes, keys, shape = _number_dofs(
        [m for _, mods in batches for m in mods], istc)
    batches = [(mdles, [(mod, _layout_groups(mod, istc, codes, shape))
                        for mod in mods]) for mdles, mods in batches]

    # numbering pass: a block row (element, interface dof) starts in its
    # CSR row after those of elements earlier in natural order, as tocsr
    # puts them: each row's unstable sort and sums see one order, any batching
    flat = [(mod.mdle[sel], gidx) for _, mods in batches
            for mod, layouts in mods for sel, *_, gidx, _ in layouts]
    pos = np.zeros(len(mesh.NODES), dtype=np.int64)
    pos[mesh.ELEM_ORDER] = np.arange(len(mesh.ELEM_ORDER))
    size = np.zeros(len(mesh.ELEM_ORDER), dtype=np.int64)
    for ids, gidx in flat:
        size[pos[ids]] = gidx.shape[1]
    at, n, nnz = np.cumsum(size) - size, len(codes), int(size @ size)
    brow = np.empty(size.sum(), dtype=np.int64)
    for ids, gidx in flat:
        brow[at[pos[ids], None] + np.arange(gidx.shape[1])] = gidx
    width, order = np.repeat(size, size), np.argsort(brow, kind="stable")
    start, bval = np.empty_like(brow), np.empty(len(brow))
    start[order] = np.cumsum(width[order]) - width[order]
    itype = np.int32 if nnz < 2 ** 31 else np.int64     # as scipy picks it
    indptr = np.r_[0, np.cumsum(np.bincount(brow, width, n))].astype(itype)
    indices, data = np.empty(nnz, itype), np.empty(nnz)

    def batch_work(batch):      # numeric pass: writes its disjoint slots
        mdles, mods = batch
        K, b = elem_fn(mesh, mdles)
        E, row, groups = len(mdles), {mdle: e for e, mdle in enumerate(mdles)}, []
        for mod, layouts in mods:
            sub = [row[mdle] for mdle in mod.mdle.tolist()]
            C = None if mod.conforming else cf.constraint_matrix(mesh, mod.mdle[0])
            n = mod.dof_nodes.shape[1] if C is None else len(C)
            if K.shape != (E, n, n) or b.shape != (E, n):
                raise ConfigError(
                    f"element {mdles[0]}: elem_fn produced K {K.shape} and b "
                    f"{b.shape}, modified elements expect {(E, n, n)}, {(E, n)}")
            if C is None:
                Ks, bs = (K, b) if len(sub) == E else (K[sub], b[sub])
            else:
                Ks, bs = (C.T @ K[sub[0]] @ C)[None], (C.T @ b[sub[0]])[None]
            for sel, dirichlet, free, bub, gidx, bkeys in layouts:
                cond = _condense_group(Ks, bs, mod, sel, dirichlet, free, bub)
                i1 = at[pos[mod.mdle[sel]], None] + np.arange(gidx.shape[1])
                i2 = start[i1][..., None] + np.arange(gidx.shape[1])
                bval[i1], indices[i2], data[i2] = cond.b, gidx[:, None], cond.K
                cond.K = cond.b = None
                groups.append((mod.mdle[sel], cond, gidx, bkeys))
        return groups

    groups = [g for gs in map_elements(batch_work, batches, workers)
              for g in gs]
    rhs = np.zeros(n)
    np.add.at(rhs, brow, bval)
    # the sort and the duplicate sums of coo_matrix.tocsr
    matrix = scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    matrix.sum_duplicates()
    return SparseSystem(matrix=matrix, rhs=rhs, keys=keys), groups


def assemble_and_solve(mesh, elem_fn, *, istc: bool = True,
                       solver: str = "cg", workers: int = 1) -> SolveReport:
    """Element loop, global solve, and DOF storage (including bubbles)."""
    solve = {"cg": cg_solve, "dense": _dense_solve}.get(solver)
    if solve is None:           # checked before any element is built
        raise ConfigError(f"unknown solver {solver!r}")
    system, groups = assemble_system(
        mesh, elem_fn, istc=istc, workers=workers)
    x, iters, res = solve(system.matrix, system.rhs)
    system.matrix = None        # not held through recovery and the write
    # bubble recovery, one stack per element group
    bubbles = [(keys.reshape(-1, 4), recover_bubbles(cond, x[gidx]).ravel())
               for _, cond, gidx, keys in groups]
    cf._write_dofs(mesh, *(np.concatenate(a) for a in zip(
        (system.keys, x), *bubbles)))
    return SolveReport(ndof=system.ndof, iterations=iters, residual=res)

