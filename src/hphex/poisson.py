"""Poisson model problems: manufactured solutions and element routines.

Three discretizations of -div(grad u) = f on hexahedral meshes:

* ``galerkin``  -- standard continuous Galerkin, one H1 field.
* ``primal``    -- primal DPG: H1 field plus a normal-trace flux on the
  mesh skeleton, tested against a broken enriched H1 space.
* ``uw``        -- ultraweak DPG: both field equations move to L2, the
  skeleton carries an H1 trace and a normal trace, and the broken test
  space is H1 x H(div) at the enriched order.

Every element routine takes (mesh, mdles, problem), a batch sharing one
order vector, and returns stacks: the local systems (K[E, n, n], b[E, n])
that `Problem.elems` dispatches for, rows and columns over the attributes
in declaration order (the row order of C), or the squared residuals (E,)
of `elem_residual`.  The Galerkin kernel is one stacked pass; the DPG
builders condense each element's extended stiffness against its factored
Gram matrix into the batch's stacks, and the batch that holds the last
element leaves those systems on the mesh.  The estimate walks the solve's
batches, reads them and builds the others again.

Galerkin and primal integrals are weighted GEMMs.  Ultraweak ones stay
einsums until c09's benchmark reference is re-pinned (c09 marks near-ties
by roundoff).  Their G is written in place, its symmetric blocks by row
blocks of the half Cholesky reads, mirrored: no full-size temporary.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import assembly as asm
from . import conformity as cf
from . import dpg
from . import geometry as gm
from . import masterel as me
from .errors import ConfigError, OrderError
from .mesh import element_info, element_vertices, generate_initial_mesh
from .physics import PhysicsAttr, PhysicsTable


# ---------------------------------------------------------------------------
# manufactured solutions

@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form solution bundle: u, its gradient, and f = -laplacian(u)."""

    name: str
    u: Callable
    grad: Callable
    f: Callable

    def dirichlet(self, x):
        return self.u(x), self.grad(x)


def _linear():
    return ManufacturedSolution(
        "linear",
        u=lambda x: x[:, 0],
        grad=lambda x: np.column_stack(
            [np.ones(len(x)), np.zeros(len(x)), np.zeros(len(x))]),
        f=lambda x: np.zeros(len(x)),
    )


def _quadratic():
    return ManufacturedSolution(
        "quadratic",
        u=lambda x: x[:, 0] ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2,
        grad=lambda x: 2.0 * x,
        f=lambda x: np.full(len(x), -6.0),
    )


def _smooth():
    pi = np.pi

    def u(x):
        return np.sin(pi * x[:, 0]) * np.sin(pi * x[:, 1]) * np.sin(pi * x[:, 2])

    def grad(x):
        sx, sy, sz = (np.sin(pi * x[:, i]) for i in range(3))
        cx, cy, cz = (np.cos(pi * x[:, i]) for i in range(3))
        return pi * np.column_stack([cx * sy * sz, sx * cy * sz, sx * sy * cz])

    return ManufacturedSolution(
        "smooth", u=u, grad=grad, f=lambda x: 3.0 * pi ** 2 * u(x))


def _boundary_layer(eps: float = 0.05):
    """u = x + tanh((x-1/2)/eps) q(y) q(z): steep inner layer.

    The cutoff q(s) = 4s(1-s) tapers the layer to zero on the lateral
    boundaries while staying bi-quadratic, so away from the layer the
    solution is a plain low-order polynomial and all of the numerical
    difficulty sits in the slab around x = 1/2.
    """

    def parts(x):
        t = np.tanh((x[:, 0] - 0.5) / eps)
        qy = 4.0 * x[:, 1] * (1.0 - x[:, 1])
        qz = 4.0 * x[:, 2] * (1.0 - x[:, 2])
        return t, qy, qz

    def u(x):
        t, qy, qz = parts(x)
        return x[:, 0] + t * qy * qz

    def grad(x):
        t, qy, qz = parts(x)
        dt = (1.0 - t ** 2) / eps
        dqy = 4.0 * (1.0 - 2.0 * x[:, 1])
        dqz = 4.0 * (1.0 - 2.0 * x[:, 2])
        return np.column_stack(
            [1.0 + dt * qy * qz, t * dqy * qz, t * qy * dqz])

    def f(x):
        t, qy, qz = parts(x)
        ddt = -2.0 * t * (1.0 - t ** 2) / eps ** 2
        return -ddt * qy * qz + 8.0 * t * (qy + qz)

    return ManufacturedSolution("boundary_layer", u=u, grad=grad, f=f)


SOLUTIONS = {
    "linear": _linear,
    "quadratic": _quadratic,
    "smooth": _smooth,
    "boundary_layer": _boundary_layer,
}


def get_solution(name: str) -> ManufacturedSolution:
    try:
        return SOLUTIONS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown manufactured solution {name!r}; "
            f"choose from {sorted(SOLUTIONS)}"
        ) from None


# ---------------------------------------------------------------------------
# problem kinds

GALERKIN = "galerkin"
PRIMAL = "primal"
UW = "uw"
KINDS = (GALERKIN, PRIMAL, UW)


@dataclass
class Problem:
    """One discretization choice plus its physics layout and exact data."""

    kind: str
    physics: PhysicsTable
    exact: Optional[ManufacturedSolution]
    dp: int = 1

    @property
    def nexact(self) -> int:
        return 1 if self.exact is not None else 0

    @property
    def istc(self) -> bool:
        return self.kind in (PRIMAL, UW)

    @property
    def dirichlet_attr(self) -> int:
        return 0  # the H1 field (galerkin/primal) or the H1 trace (uw)

    def dirichlet_fn(self):
        return self.exact.dirichlet if self.exact is not None else None

    def elems(self, mesh, mdles) -> tuple[np.ndarray, np.ndarray]:
        """Stacked local systems (K[E, n, n], b[E, n]) of one batch, from
        the kind's element routine (looked up at each call)."""
        if self.kind == GALERKIN:
            return elem_galerkin(mesh, mdles, self)
        if self.kind == PRIMAL:
            return elem_primal_dpg(mesh, mdles, self)
        if self.kind == UW:
            return elem_uw_dpg(mesh, mdles, self)
        raise ConfigError(f"unknown problem kind {self.kind!r}")


def make_problem(kind: str, exact: Optional[str] = "smooth",
                 dp: int = 1) -> Problem:
    if kind not in KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}; choose from {KINDS}")
    if not 1 <= dp <= 3:
        raise ConfigError(f"test order increment {dp} outside 1..3")
    sol = get_solution(exact) if exact is not None else None
    if kind == GALERKIN:
        attrs = [PhysicsAttr("u", "contin", 1)]
    elif kind == PRIMAL:
        attrs = [PhysicsAttr("u", "contin", 1),
                 PhysicsAttr("sight", "normal", 1, is_trace=True)]
    else:
        attrs = [PhysicsAttr("ut", "contin", 1, is_trace=True),
                 PhysicsAttr("sight", "normal", 1, is_trace=True),
                 PhysicsAttr("u", "discon", 1),
                 PhysicsAttr("sig", "discon", 3)]
    physics = PhysicsTable(attrs)
    if sol is None:
        physics.attrs[0].homogeneous_dirichlet = True
    return Problem(kind=kind, physics=physics, exact=sol, dp=dp)


def make_mesh(problem: Problem, geometry, order):
    """Initial mesh with Dirichlet applied to the whole boundary.

    For the ultraweak problem the stored element order is the requested
    order plus one: the L2 spaces of the exact sequence live one degree
    below the H1 space on the same node, so the shift makes "order p"
    mean degree-p field variables for every kind, and p is at most
    MAXP - 1.
    """
    if np.isscalar(order) and 1 <= int(order) <= me.MAXP:
        order = (int(order),) * 3
    px, py, pz = me.check_order_triple(order)
    if problem.kind == UW:
        if max(px, py, pz) == me.MAXP:
            raise OrderError(
                f"ultraweak order p={me.MAXP} exceeds {me.MAXP - 1}: the "
                f"element stores p+1, and orders stop at {me.MAXP}")
        px, py, pz = px + 1, py + 1, pz + 1
    order = (px, py, pz)
    bids = {0} | {int(b) for _, _, b in geometry.bfaces}
    bc = [(bid, problem.dirichlet_attr, 0, 1) for bid in sorted(bids)]
    mesh = generate_initial_mesh(geometry, problem.physics, order,
                                 bc_assignments=bc)
    cf.update_Ddof(mesh, problem.dirichlet_fn())
    return mesh


def source_term(problem: Problem, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(x)
    if problem.exact is None:
        return np.zeros(len(x))
    return problem.exact.f(x)


# ---------------------------------------------------------------------------
# quadrature and order helpers

_GRAM_ROWS = 32  # rows per einsum call in _sym_gram

def _enriched_norder(norder, dp: int) -> list[int]:
    px, py, pz = me.decode_order(norder[18])
    out = [norder[e] + dp for e in range(12)]
    for f in range(6):
        p1, p2 = me.decode_face_order(norder[12 + f])
        out.append(me.encode_face_order(p1 + dp, p2 + dp))
    out.append(me.encode_order(px + dp, py + dp, pz + dp))
    return out


def _weighted_gram(w, a, b) -> np.ndarray:
    """Σ_q w_q a[k,…,q] b[l,…,q] as one GEMM."""
    return (a * w).reshape(len(a), -1) @ b.reshape(len(b), -1).T


def _sym_gram(w, terms, out):
    """Write Σ c Σ_q w_q a[k,…,q] a[l,…,q] over the (c, a) of `terms` into
    the square view `out`, by row blocks: entries on and above the diagonal
    have the bits of the full einsums scaled and added in `terms` order,
    the rest are their mirror, so `out` is exactly symmetric."""
    for s in range(0, len(out), _GRAM_ROWS):
        e = min(s + _GRAM_ROWS, len(out))
        blk = functools.reduce(np.add, (c * np.einsum(
            "q,kq,lq->kl" if a.ndim == 2 else "q,kiq,liq->kl",
            w, a[s:e], a[s:]) for c, a in terms))
        out[s:e, s:] = blk
        dpg._mirror_upper(out[s:e, s:e])
        out[e:, s:e] = blk[:, e - s:].T


# ---------------------------------------------------------------------------
# element routines

def elem_galerkin(mesh, mdles, problem: Problem):
    """(grad u, grad v) and (f, v) for the continuous Galerkin field, on
    a batch of elements that share one order vector: K[E, n, n], b[E, n]."""
    norder = element_info(mesh, mdles[0])[0]
    xnod = element_vertices(mesh, mdles)
    qx, qy, qz = me.axis_orders(norder)
    xi, w = me.gauss_quadrature_3d((qx + 1, qy + 1, qz + 1))
    geom = gm.element_geometry(xnod, xi)
    shp = me.shape_functions_elem(me.H1, xi, norder)
    val, grad = gm.piola_transform(me.H1, shp, geom)
    wj = w * geom.rjac
    grad = np.ascontiguousarray(grad)   # one copy serves both operands
    g = grad.reshape(len(mdles), shp.nrdof, -1)
    K = (grad * wj[:, None, None, :]).reshape(g.shape) @ g.swapaxes(1, 2)
    fv = source_term(problem, geom.x.reshape(-1, 3)).reshape(len(mdles), -1)
    b = np.einsum("eq,kq->ek", wj * fv, val)
    return K, b


def _dpg_frame(mesh, mdle: int, problem: Problem):
    """Setup shared by the DPG systems: the order vector and its
    enrichment, the volume rule, geometry and weights wj, the enriched H1
    test values and gradients, and per face (points, geometry, weights,
    trial normal flux at the interface functions, enriched H1 test values)."""
    dp = problem.dp
    norder, xnod, _ = element_info(mesh, mdle)
    norder_enr = _enriched_norder(norder, dp)
    q = me.axis_orders(norder)
    pts, w = me.gauss_quadrature_3d(tuple(qa + dp + 1 for qa in q))
    geom = gm.element_geometry(xnod, pts)
    vshp = me.shape_functions_elem(me.H1, pts, norder_enr)
    vval, vgrad = gm.piola_transform(me.H1, vshp, geom)
    faces = []
    for f, (a1, a2) in enumerate(me.FACE_AXES):
        t2, w2 = me.gauss_quadrature_2d((q[a1] + dp + 1, q[a2] + dp + 1))
        xi, _ = me.face_param(f + 1, t2)
        fgeom = gm.face_geometry(xnod, f + 1, t2)
        fshp = me.shape_functions_elem(me.HDIV, xi, norder)
        sval, _ = gm.piola_transform(me.HDIV, fshp, fgeom)
        fluxn = np.einsum("kiq,qi->kq", sval[fshp.slots < 26], fgeom.rn)
        vtest = me.shape_functions_elem(me.H1, xi, norder_enr).values
        faces.append((xi, fgeom, w2 * fgeom.bjac, fluxn, vtest))
    return (norder, norder_enr, pts, geom, w * geom.rjac,
            vval, vgrad, faces)


def _check_test_dominates(mdle: int, ntest: int, ntrial: int):
    if ntest <= ntrial:
        raise ConfigError(
            f"element {mdle}: enriched test space ({ntest}) does not "
            f"dominate the trial space ({ntrial}); increase dp"
        )


def _primal_system(mesh, mdle: int, problem: Problem):
    """Extended stiffness [B | Bhat | l] and Gram matrix, by GEMMs."""
    norder, _, pts, geom, wj, tval, tgrad, faces = _dpg_frame(
        mesh, mdle, problem)
    trial = me.shape_functions_elem(me.H1, pts, norder)
    _, ugrad = gm.piola_transform(me.H1, trial, geom)
    ntest = len(tval)
    ns = int(me.layout_counts(me.HDIV, norder, include_middle=False).sum())
    _check_test_dominates(mdle, ntest, trial.nrdof + ns)

    G = _weighted_gram(wj, tval, tval)
    G += _weighted_gram(wj, tgrad, tgrad)
    B = _weighted_gram(wj, tgrad, ugrad)
    fv = source_term(problem, geom.x)
    load = np.einsum("q,kq->k", wj * fv, tval)

    # skeleton flux: -<sigma_hat . n, v> over the six faces
    Bhat = np.zeros((ntest, ns))
    for _, _, wb, fluxn, vtest in faces:
        Bhat -= _weighted_gram(wb, vtest, fluxn)
    return np.column_stack([B, Bhat, load]), G


def _dpg_batch(system, mesh, mdles, problem: Problem):
    """Stacked (K, b) of a batch, each element's [B | Bhat | l] condensed
    against its G in turn.  The batch holding the mesh's last element also
    leaves its read-only {mdle: (stiff_all, G)} on the mesh when done, for
    `elem_residual`: one batch per solve, the same for any `workers`."""
    keep, kept = mesh.ELEM_ORDER[-1] in mdles, {}
    for e, mdle in enumerate(mdles):
        stiff_all, G = system(mesh, mdle, problem)
        if keep:
            kept[mdle] = (me._read_only(stiff_all), me._read_only(G))
        cond = dpg.condense_dpg(stiff_all, G)     # (ntrial + 1)²
        if e == 0:
            n = len(cond) - 1
            K, b = np.empty((len(mdles), n, n)), np.empty((len(mdles), n))
        K[e], b[e] = cond[:-1, :-1], cond[:-1, -1]
        del stiff_all, G, cond  # freed before the next element's build
    if keep:
        mesh._dpg_systems = ((mesh.revision, problem.dp), problem, kept)
    return K, b


def elem_primal_dpg(mesh, mdles, problem: Problem):
    """Condensed primal DPG batch: trial (u, flux), broken H1 test."""
    return _dpg_batch(_primal_system, mesh, mdles, problem)


def _uw_system(mesh, mdle: int, problem: Problem):
    """Extended stiffness [B | Bhat | l] and full symmetric Gram matrix,
    by einsums: c09's pinned reference needs their bits until re-pinned.
    Both are written in place; each frame array goes after its last block."""
    norder, norder_enr, pts, geom, wj, vval, vgrad, faces = _dpg_frame(
        mesh, mdle, problem)
    tshp = me.shape_functions_elem(me.HDIV, pts, norder_enr)
    tau, tdiv = gm.piola_transform(me.HDIV, tshp, geom)
    nv, nt = len(vval), tshp.nrdof
    del tshp                    # the master table, as large as tau and tdiv
    ntest = nv + nt
    ushp = me.shape_functions_elem(me.L2, pts, norder)
    uval, _ = gm.piola_transform(me.L2, ushp, geom)
    nL2 = ushp.nrdof
    sizes = tuple(int(me.layout_counts(sp, norder, include_middle=False).sum())
                  for sp in (me.H1, me.HDIV)) + (nL2, 3 * nL2)
    ntrial = sum(sizes)
    _check_test_dominates(mdle, ntest, ntrial)

    off = np.concatenate([[0], np.cumsum(sizes)])
    stiff_all = np.zeros((ntest, ntrial + 1))
    G = np.empty((ntest, ntest))        # adjoint graph norm Gram
    # field equation rows (H1 tests): (sigma, grad v) - <sigma_hat.n, v> = (f, v)
    stiff_all[:nv, off[3]:off[4]] = np.einsum(
        "q,kiq,lq->kli", wj, vgrad, uval).reshape(nv, 3 * nL2)
    fv = source_term(problem, geom.x)
    stiff_all[:nv, ntrial] = np.einsum("q,kq->k", wj * fv, vval)
    _sym_gram(wj, ((1.0, vval), (1.0, vgrad)), G[:nv, :nv])
    del vval
    G[:nv, nv:] = np.einsum("q,kiq,liq->kl", wj, vgrad, tau)
    G[nv:, :nv] = G[:nv, nv:].T
    del vgrad
    # constitutive rows (H(div) tests): (u, div tau)+(sigma, tau)-<u_hat, tau.n>
    stiff_all[nv:, off[2]:off[3]] = np.einsum("q,kq,lq->kl", wj, tdiv, uval)
    stiff_all[nv:, off[3]:off[4]] = np.einsum(
        "q,kiq,lq->kli", wj, tau, uval).reshape(nt, 3 * nL2)
    _sym_gram(wj, ((1.0, tdiv), (2.0, tau)), G[nv:, nv:])
    del tau, tdiv, uval

    for xi, fgeom, wb, fluxn, v_here in faces:
        stiff_all[:nv, off[1]:off[2]] -= np.einsum(
            "q,kq,lq->kl", wb, v_here, fluxn)
        tau_here = me.shape_functions_elem(me.HDIV, xi, norder_enr)
        tval_here, _ = gm.piola_transform(me.HDIV, tau_here, fgeom)
        taun = np.einsum("kiq,qi->kq", tval_here, fgeom.rn)
        ut_shp = me.shape_functions_elem(me.H1, xi, norder)
        uhat = ut_shp.values[ut_shp.slots < 26]
        stiff_all[nv:, off[0]:off[1]] -= np.einsum(
            "q,kq,lq->kl", wb, taun, uhat)
    return stiff_all, G


def elem_uw_dpg(mesh, mdles, problem: Problem):
    """Condensed ultraweak DPG batch over (u_hat, flux, u, sigma)."""
    return _dpg_batch(_uw_system, mesh, mdles, problem)


_SYSTEMS = {PRIMAL: _primal_system, UW: _uw_system}


# ---------------------------------------------------------------------------
# residual estimator and exact errors

def _kept_system(mesh, mdle: int, problem: Problem):
    """Pop `mdle`'s (stiff_all, G) from the batch the DPG builders kept,
    if it kept them for this problem object at this mesh revision and dp."""
    key, owner, systems = mesh._dpg_systems
    if owner is problem and key == (mesh.revision, problem.dp):
        return systems.pop(mdle, None)
    return None


def elem_residual(mesh, mdles, problem: Problem) -> np.ndarray:
    """Squared DPG residuals (E,) of the computed solution on a batch; each
    element's extended system is the one the solve kept, else a fresh
    build (same bits for the ultraweak einsums), one at a time."""
    if problem.kind not in _SYSTEMS:
        raise ConfigError("the residual estimator needs a DPG problem")
    w = np.concatenate([
        cf.gather_solution(mesh, mdles, attr).reshape(len(mdles), -1)
        for attr in range(mesh.physics.nr_physa)], axis=1)
    out = np.empty(len(mdles))
    for e, mdle in enumerate(mdles):
        stiff_all, G = (_kept_system(mesh, mdle, problem)
                        or _SYSTEMS[problem.kind](mesh, mdle, problem))
        resid = stiff_all[:, -1] - stiff_all[:, :-1] @ w[e]
        out[e] = dpg.residual_norm_sq(G, resid)
        del stiff_all, G        # freed before the next element's build
    return out


_OPENBLAS_THREADS = ("scipy_openblas_%s_num_threads64_",
                     "scipy_openblas_%s_num_threads",
                     "openblas_%s_num_threads64_", "openblas_%s_num_threads")


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of every OpenBLAS loaded (Linux),
    read once: numpy's and scipy's, both loaded when this module is
    imported (`assembly` imports scipy.linalg), so the first read has both."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        libs = []
    pairs = tuple((getattr(lib, sym % "get"), getattr(lib, sym % "set"))
                  for lib in map(ctypes.CDLL, libs) for sym in _OPENBLAS_THREADS
                  if hasattr(lib, sym % "get"))
    for get, set_n in pairs:
        get.argtypes, get.restype = [], ctypes.c_int
        set_n.argtypes, set_n.restype = [ctypes.c_int], None
    return pairs


@contextmanager
def _one_blas_thread():
    """Run every OpenBLAS on one thread, then restore each one's count."""
    saved = [(set_n, get()) for get, set_n in _openblas_threads()]
    for set_n, _ in saved:
        set_n(1)
    try:
        yield
    finally:
        for set_n, n in saved:
            set_n(n)


def residual_summary(mesh, problem: Problem, workers: int = 1):
    """Per-element squared residuals in natural order, plus their sum.

    The loop runs over the solve's batches on `workers` threads, like
    assembly, and BLAS on one thread for every `workers`, so the
    indicators do not depend on it.  Threaded, each n=365 Gram factor
    kept OpenBLAS's own pool spinning against the second element thread
    on two cores, and c09's estimate ran slow and erratic.  Assembly
    keeps threaded BLAS until c09's reference is re-pinned: its roundoff
    decides step-3 marking.  The kept systems' slot is emptied on return.
    """
    batches = [mdles for _, mdles in asm.solve_batches(mesh)]
    with _one_blas_thread():
        vals = asm.map_elements(
            lambda mdles: elem_residual(mesh, mdles, problem),
            batches, workers)
    mesh._dpg_systems = (None, None, {})
    table = dict(zip(itertools.chain(*batches), itertools.chain(*vals)))
    vals = np.array([table[mdle] for mdle in mesh.ELEM_ORDER])
    return vals, float(vals.sum())


def compute_exact_error(mesh, problem: Problem):
    """Exact errors against the manufactured solution.

    Returns (gradient-norm error, L2 error, per-element table); the
    gradient slot compares grad u_h for the H1 discretizations and the
    sigma field for the ultraweak one.  Batches, summed in natural order.
    """
    if problem.exact is None:
        raise ConfigError("no manufactured solution: exact error unavailable")
    exact = problem.exact
    uw = problem.kind == UW
    table = {}
    # per element: the two (3, 3) Jacobian tables at every point
    for norder, mdles in asm.element_batches(mesh, lambda norder: 144 * int(
            np.prod([qa + 2 for qa in me.axis_orders(norder)]))):
        xi, w = me.gauss_quadrature_3d(
            tuple(qa + 2 for qa in me.axis_orders(norder)))
        xnod = element_vertices(mesh, mdles)
        geom = gm.element_geometry(xnod, xi)
        wj = w * geom.rjac
        x = geom.x.reshape(-1, 3)
        gu = exact.grad(x).reshape(len(mdles), -1, 3).swapaxes(1, 2)
        uu = exact.u(x).reshape(len(mdles), -1)
        shp = me.shape_functions_elem(me.L2 if uw else me.H1, xi, norder)
        cu = cf.gather_solution(mesh, mdles, 2 if uw else 0)[..., 0]
        uh = cu @ shp.values
        if uw:
            cs = cf.gather_solution(mesh, mdles, 3)
            uh = uh / geom.rjac
            gh = cs.swapaxes(1, 2) @ shp.values / geom.rjac[:, None, :]
        else:
            ref = (cu @ shp.grad.reshape(shp.nrdof, -1)).reshape(gu.shape)
            gh = gm._covariant(geom, ref[:, None])[:, 0]
        d2g = np.einsum("eq,eiq->e", wj, (gh - gu) ** 2)
        d2l = np.einsum("eq,eq->e", wj, (uh - uu) ** 2)
        table.update(zip(mdles, zip(d2g.tolist(), d2l.tolist())))
    table = {mdle: table[mdle] for mdle in mesh.ELEM_ORDER}
    e_grad2 = e_l22 = 0.0
    for d2g, d2l in table.values():
        e_grad2 += d2g
        e_l22 += d2l
    return float(np.sqrt(e_grad2)), float(np.sqrt(e_l22)), table


# ---------------------------------------------------------------------------
# driver

def solve_problem(mesh, problem: Problem, *, solver: str = "cg",
                  workers: int = 1, istc: bool = True) -> asm.SolveReport:
    """Refresh Dirichlet data, assemble, solve, and store all DOFs."""
    if problem.istc and not istc:
        raise ConfigError("DPG problems require interior condensation")
    cf.update_Ddof(mesh, problem.dirichlet_fn())
    return asm.assemble_and_solve(
        mesh, problem.elems, istc=istc, solver=solver, workers=workers)
