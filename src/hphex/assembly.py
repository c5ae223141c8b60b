"""Global assembly, static condensation, and linear solve.

The element loop runs over batches of elements sharing one order vector
(one thread-pool item each, at most `_BATCH_BYTES` of local matrices);
the element routine returns a batch's local systems stacked, rows and
columns in attribute order.  Assembly expands each through the
constrained-approximation matrix C (unless C = I), moves Dirichlet
columns to the load, eliminates interior (bubble) DOFs by a Schur
complement on the sub-stacks that share one (free, bubble) layout, and
scatters into one sparse symmetric system at block offsets in natural
element order, so duplicates are summed in that order for any grouping.

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
import scipy.linalg
import scipy.sparse

from . import conformity as cf
from . import masterel as me
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
    keys: np.ndarray            # (ndof, 4): (node, attr, comp, k) per dof

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


def _condense_stack(K, b, mod, istc, codes, shape):
    """Groups of one modified element stack: its local systems (C already
    applied), split by (Dirichlet, bubble) layout, with the Dirichlet
    columns lifted to the load, the free rows and columns condensed, and
    the global numbers of the interface dofs."""
    n, layouts = mod.dirichlet.shape[1], np.concatenate([mod.dirichlet, mod.bubble], 1)
    bits = np.packbits(layouts, axis=1)     # one bytes key per row: fast unique
    _, first, which = np.unique(bits.view(f"V{bits.shape[1]}")[:, 0],
                                return_index=True, return_inverse=True)
    groups = []
    for g, layout in enumerate(layouts[first]):
        sel = np.flatnonzero(which == g)
        dirichlet, free = layout[:n], np.flatnonzero(~layout[:n])
        Kg, bg = (K, b) if len(sel) == len(K) else (K[sel], b[sel])
        if dirichlet.any():
            # items laid out as K[:, D], a contiguous vector: one GEMV's bits
            KD = np.ascontiguousarray(Kg.swapaxes(1, 2)[:, dirichlet])
            vals = np.ascontiguousarray(mod.dirichlet_values[sel][:, dirichlet])
            bg = (bg - (KD.swapaxes(1, 2) @ vals[..., None])[..., 0])[:, free]
            Kg = Kg[:, free[:, None], free]
        cond = static_condense(Kg, bg, layout[n:][free] & istc)
        keys = mod.dof_nodes[sel][:, free]
        gidx = np.searchsorted(codes, _codes(keys[:, cond.interface], shape))
        groups.append((mod.mdle[sel], cond, gidx, keys[:, cond.bubble]))
    return groups


def assemble_system(mesh, elem_fn, istc: bool = True, workers: int = 1):
    """Build the global sparse system; returns (system, groups).  A group
    is (mdles, stacked CondensedLocal, global interface dofs (S, m),
    bubble dof keys (S, nb, 4)): the elements of one batch with one
    (free, bubble) layout, condensed as one stack.

    `elem_fn(mesh, mdles)` returns the stacked (K, b) of one batch.
    With `istc` off no dof counts as a bubble, so nothing is condensed.
    """
    batches = [(mdles, cf.modified_element(mesh, mdles))
               for _, mdles in solve_batches(mesh)]
    codes, keys, shape = _number_dofs(
        [m for _, mods in batches for m in mods], istc)

    def batch_work(batch):
        mdles, mods = batch
        K, b = elem_fn(mesh, mdles)
        n, E = mods[0].C.shape[1], len(mdles)
        if K.shape != (E, n, n) or b.shape != (E, n):
            raise ConfigError(
                f"element {mdles[0]}: elem_fn produced K {K.shape} and b "
                f"{b.shape}, modified elements expect {(E, n, n)}, {(E, n)}")
        row = {mdle: e for e, mdle in enumerate(mdles)}
        groups = []
        for mod in mods:
            at = [row[mdle] for mdle in mod.mdle.tolist()]
            if not mod.conforming:
                C = mod.C[0]
                Ks, bs = (C.T @ K[at[0]] @ C)[None], (C.T @ b[at[0]])[None]
            else:
                Ks, bs = (K, b) if len(at) == E else (K[at], b[at])
            groups += _condense_stack(Ks, bs, mod, istc, codes, shape)
        return groups

    groups = [g for gs in map_elements(batch_work, batches, workers)
              for g in gs]

    # scatter in natural element order: duplicate sums depend on it
    pos = np.zeros(len(mesh.NODES), dtype=np.int64)
    pos[mesh.ELEM_ORDER] = np.arange(len(mesh.ELEM_ORDER))
    size = np.zeros(len(mesh.ELEM_ORDER), dtype=np.int64)
    for ids, _, gidx, _ in groups:
        size[pos[ids]] = gidx.shape[1]
    at1, at2 = np.cumsum(size) - size, np.cumsum(size ** 2) - size ** 2
    n = len(codes)
    bidx, bval = np.empty(size.sum(), dtype=np.int64), np.empty(size.sum())
    # the index type scipy gives the COO matrix, so it takes them uncopied
    rows, cols = (np.empty((size ** 2).sum(), dtype=np.int32 if n < 2 ** 31
                           else np.int64) for _ in "rc")
    data = np.empty(rows.shape)
    for ids, cond, gidx, _ in groups:
        S, m = gidx.shape
        i1 = at1[pos[ids], None] + np.arange(m)
        i2 = at2[pos[ids], None] + np.arange(m * m)
        bidx[i1], bval[i1] = gidx, cond.b
        data[i2] = cond.K.reshape(S, m * m)
        rows[i2], cols[i2] = np.repeat(gidx, m, axis=1), np.tile(gidx, (1, m))
    rhs = np.zeros(n)
    np.add.at(rhs, bidx, bval)
    matrix = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    return SparseSystem(matrix=matrix, rhs=rhs, keys=keys), groups


def _write_dofs(mesh, keys, vals):
    """Store vals at their (node, attr, comp, k) keys in the node dof arrays.

    Each (node, attr) written takes a fresh array, rows of one buffer,
    as long as its largest k and its old array, whose values it keeps
    where no key lands.
    """
    nattr, nodes = mesh.physics.nr_physa, mesh.NODES
    pairs, at = np.unique(keys[:, 0] * nattr + keys[:, 1], return_inverse=True)
    nids, attrs = (pairs // nattr).tolist(), (pairs % nattr).tolist()
    olds = [nodes[n].dofs.get(a) if nodes[n].dofs else None
            for n, a in zip(nids, attrs)]
    nrow = np.array([0 if d is None else len(d) for d in olds], dtype=np.int64)
    np.maximum.at(nrow, at, keys[:, 3] + 1)
    ncomp = np.array(mesh.physics.nr_comp)[pairs % nattr]
    start = np.cumsum(nrow * ncomp) - nrow * ncomp
    buf = np.zeros(int((nrow * ncomp).sum()))
    for nid, attr, old, lo, r, c in zip(nids, attrs, olds, start.tolist(),
                                        nrow.tolist(), ncomp.tolist()):
        node, new = nodes[nid], buf[lo:lo + r * c].reshape(r, c)
        node.dofs = node.dofs or {}
        node.dofs[attr] = new
        if old is not None:
            new[:len(old)] = old
    buf[start[at] + keys[:, 3] * ncomp[at] + keys[:, 2]] = vals


def assemble_and_solve(mesh, elem_fn, *, istc: bool = True,
                       solver: str = "cg", workers: int = 1) -> SolveReport:
    """Element loop, global solve, and DOF storage (including bubbles)."""
    system, groups = assemble_system(
        mesh, elem_fn, istc=istc, workers=workers)
    if solver == "dense":
        x, iters, res = _dense_solve(system.matrix, system.rhs)
    elif solver == "cg":
        x, iters, res = cg_solve(system.matrix, system.rhs)
    else:
        raise ConfigError(f"unknown solver {solver!r}")
    # bubble recovery, one stack per element group
    bubbles = [(keys.reshape(-1, 4), recover_bubbles(cond, x[gidx]).ravel())
               for _, cond, gidx, keys in groups]
    _write_dofs(mesh, *(np.concatenate(a) for a in zip(
        (system.keys, x), *bubbles)))
    return SolveReport(ndof=system.ndof, iterations=iters, residual=res)

