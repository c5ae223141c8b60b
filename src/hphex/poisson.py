"""Poisson model problems: manufactured solutions and element routines.

Three discretizations of -div(grad u) = f on hexahedral meshes:

* ``galerkin``  -- standard continuous Galerkin, one H1 field.
* ``primal``    -- primal DPG: H1 field plus a normal-trace flux on the
  mesh skeleton, tested against a broken enriched H1 space.
* ``uw``        -- ultraweak DPG: both field equations move to L2, the
  skeleton carries an H1 trace and a normal trace, and the broken test
  space is H1 x H(div) at the enriched order.

Every element routine returns one dense local system (K, b) whose rows
and columns run over the problem's attributes in declaration order,
the row order of the constraint matrix C of the modified element.  The
DPG routines build the rectangular extended stiffness, factor the Gram
matrix, and hand back the condensed trial-space system.

Galerkin and primal integrals are weighted GEMMs.  Ultraweak ones stay
einsums until c09's benchmark reference is re-pinned (c09 marks near-ties
by roundoff); symmetric Gram products evaluate only the half Cholesky reads.
"""

from __future__ import annotations

import ctypes
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
from .mesh import element_info, generate_initial_mesh
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

    def elem(self, mesh, mdle: int) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == GALERKIN:
            return elem_galerkin(mesh, mdle, self)
        if self.kind == PRIMAL:
            return elem_primal_dpg(mesh, mdle, self)
        if self.kind == UW:
            return elem_uw_dpg(mesh, mdle, self)
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


def _interface(shapes: me.ShapeSet) -> np.ndarray:
    return np.flatnonzero(np.asarray(shapes.slots) < 26)


def _weighted_gram(w, a, b) -> np.ndarray:
    """Σ_q w_q a[k,…,q] b[l,…,q] as one GEMM."""
    return (a * w).reshape(len(a), -1) @ b.reshape(len(b), -1).T


def _sym_gram(w, a) -> np.ndarray:
    """Σ_q w_q a[k,…,q] a[l,…,q], exactly symmetric: entries on and above
    the diagonal have the full einsum's bits, the rest are their mirror."""
    spec = "q,kq,lq->kl" if a.ndim == 2 else "q,kiq,liq->kl"
    G = np.empty((len(a), len(a)))
    for s in range(0, len(a), _GRAM_ROWS):
        e = min(s + _GRAM_ROWS, len(a))
        blk = np.einsum(spec, w, a[s:e], a[s:])
        G[s:e, s:e] = np.triu(blk[:, :e - s]) + np.triu(blk[:, :e - s], 1).T
        G[s:e, e:] = blk[:, e - s:]
        G[e:, s:e] = blk[:, e - s:].T
    return G


# ---------------------------------------------------------------------------
# element routines

def elem_galerkin(mesh, mdle: int, problem: Problem):
    """(grad u, grad v) and (f, v) for the continuous Galerkin field."""
    norder, xnod, _ = element_info(mesh, mdle)
    qx, qy, qz = me.axis_orders(norder)
    rule = me.gauss_quadrature_3d((qx + 1, qy + 1, qz + 1))
    geom = gm.element_geometry(xnod, rule.points)
    shp = me.shape_functions_elem(me.H1, rule.points, norder)
    val, grad = gm.piola_transform(me.H1, shp, geom)
    wj = rule.weights * geom.rjac
    K = _weighted_gram(wj, grad, grad)
    fv = source_term(problem, geom.x)
    b = np.einsum("q,kq->k", wj * fv, val)
    return K, b


def _face_rule(f: int, orders, extra: int):
    a1, a2 = me.FACE_AXES[f]
    n1 = orders[a1] + extra + 1
    n2 = orders[a2] + extra + 1
    return me.gauss_quadrature_2d((n1, n2))


def _primal_system(mesh, mdle: int, problem: Problem):
    """Extended stiffness [B | Bhat | l] and Gram matrix, by GEMMs."""
    dp = problem.dp
    norder, xnod, _ = element_info(mesh, mdle)
    norder_enr = _enriched_norder(norder, dp)
    q = me.axis_orders(norder)
    rule = me.gauss_quadrature_3d(tuple(qa + dp + 1 for qa in q))
    geom = gm.element_geometry(xnod, rule.points)
    wj = rule.weights * geom.rjac

    test = me.shape_functions_elem(me.H1, rule.points, norder_enr)
    tval, tgrad = gm.piola_transform(me.H1, test, geom)
    trial = me.shape_functions_elem(me.H1, rule.points, norder)
    _, ugrad = gm.piola_transform(me.H1, trial, geom)
    ntest = test.nrdof
    nu = trial.nrdof
    ns = int(me.layout_counts(me.HDIV, norder, include_middle=False).sum())
    ntrial = nu + ns
    if ntest <= ntrial:
        raise ConfigError(
            f"element {mdle}: enriched test space ({ntest}) does not "
            f"dominate the trial space ({ntrial}); increase dp"
        )

    G = _weighted_gram(wj, tval, tval) + _weighted_gram(wj, tgrad, tgrad)
    B = _weighted_gram(wj, tgrad, ugrad)
    fv = source_term(problem, geom.x)
    load = np.einsum("q,kq->k", wj * fv, tval)

    # skeleton flux: -<sigma_hat . n, v> over the six faces
    Bhat = np.zeros((ntest, ns))
    for f in range(6):
        t2, w2 = _face_rule(f, q, dp)
        xi, _ = me.face_param(f + 1, t2)
        fgeom = gm.face_geometry(xnod, f + 1, t2)
        fshp = me.shape_functions_elem(me.HDIV, xi, norder)
        sval, _ = gm.piola_transform(me.HDIV, fshp, fgeom)
        fluxn = np.einsum("kiq,qi->kq", sval[_interface(fshp)], fgeom.rn)
        vtest = me.shape_functions_elem(me.H1, xi, norder_enr).values
        Bhat -= _weighted_gram(w2 * fgeom.bjac, vtest, fluxn)
    return np.column_stack([B, Bhat, load]), G


def _condensed(stiff_all, G):
    """Condense [B | Bhat | l] against G into the trial system (K, b)."""
    n = stiff_all.shape[1] - 1
    cond = dpg.condense_dpg(stiff_all, G)
    return cond[:n, :n], cond[:n, n]


def elem_primal_dpg(mesh, mdle: int, problem: Problem):
    """Condensed primal DPG element: trial (u, flux), broken H1 test."""
    return _condensed(*_primal_system(mesh, mdle, problem))


def _uw_system(mesh, mdle: int, problem: Problem):
    """Extended stiffness [B | Bhat | l] and full symmetric Gram matrix,
    by einsums: c09's pinned reference needs their bits until re-pinned."""
    dp = problem.dp
    norder, xnod, _ = element_info(mesh, mdle)
    norder_enr = _enriched_norder(norder, dp)
    q = me.axis_orders(norder)
    rule = me.gauss_quadrature_3d(tuple(qa + dp + 1 for qa in q))
    geom = gm.element_geometry(xnod, rule.points)
    wj = rule.weights * geom.rjac

    vshp = me.shape_functions_elem(me.H1, rule.points, norder_enr)
    vval, vgrad = gm.piola_transform(me.H1, vshp, geom)
    tshp = me.shape_functions_elem(me.HDIV, rule.points, norder_enr)
    tau, tdiv = gm.piola_transform(me.HDIV, tshp, geom)
    nv, nt = vshp.nrdof, tshp.nrdof
    ntest = nv + nt

    ushp = me.shape_functions_elem(me.L2, rule.points, norder)
    uval, _ = gm.piola_transform(me.L2, ushp, geom)
    nL2 = ushp.nrdof

    sizes = tuple(int(me.layout_counts(sp, norder, include_middle=False).sum())
                  for sp in (me.H1, me.HDIV)) + (nL2, 3 * nL2)
    ntrial = sum(sizes)
    if ntest <= ntrial:
        raise ConfigError(
            f"element {mdle}: enriched test space ({ntest}) does not "
            f"dominate the trial space ({ntrial}); increase dp"
        )

    off = np.concatenate([[0], np.cumsum(sizes)])
    stiff_all = np.zeros((ntest, ntrial + 1))
    # field equation rows (H1 tests): (sigma, grad v) - <sigma_hat.n, v> = (f, v)
    sig_v = np.einsum("q,kiq,lq->kli", wj, vgrad, uval).reshape(nv, 3 * nL2)
    stiff_all[:nv, off[3]:off[4]] = sig_v
    fv = source_term(problem, geom.x)
    stiff_all[:nv, ntrial] = np.einsum("q,kq->k", wj * fv, vval)
    # constitutive rows (H(div) tests): (u, div tau)+(sigma, tau)-<u_hat, tau.n>
    stiff_all[nv:, off[2]:off[3]] = np.einsum("q,kq,lq->kl", wj, tdiv, uval)
    stiff_all[nv:, off[3]:off[4]] = np.einsum(
        "q,kiq,lq->kli", wj, tau, uval).reshape(nt, 3 * nL2)

    for f in range(6):
        t2, w2 = _face_rule(f, q, dp)
        xi, _ = me.face_param(f + 1, t2)
        fgeom = gm.face_geometry(xnod, f + 1, t2)
        wb = w2 * fgeom.bjac
        fshp = me.shape_functions_elem(me.HDIV, xi, norder)
        sval, _ = gm.piola_transform(me.HDIV, fshp, fgeom)
        fluxn = np.einsum("kiq,qi->kq", sval[_interface(fshp)], fgeom.rn)
        v_here = me.shape_functions_elem(me.H1, xi, norder_enr).values
        stiff_all[:nv, off[1]:off[2]] -= np.einsum(
            "q,kq,lq->kl", wb, v_here, fluxn)
        tau_here = me.shape_functions_elem(me.HDIV, xi, norder_enr)
        tval_here, _ = gm.piola_transform(me.HDIV, tau_here, fgeom)
        taun = np.einsum("kiq,qi->kq", tval_here, fgeom.rn)
        ut_shp = me.shape_functions_elem(me.H1, xi, norder)
        uhat = ut_shp.values[_interface(ut_shp)]
        stiff_all[nv:, off[0]:off[1]] -= np.einsum(
            "q,kq,lq->kl", wb, taun, uhat)

    # adjoint graph norm Gram
    G = np.zeros((ntest, ntest))
    G[:nv, :nv] = _sym_gram(wj, vval) + _sym_gram(wj, vgrad)
    cross = np.einsum("q,kiq,liq->kl", wj, vgrad, tau)
    G[:nv, nv:] = cross
    G[nv:, :nv] = cross.T
    G[nv:, nv:] = _sym_gram(wj, tdiv) + 2.0 * _sym_gram(wj, tau)
    return stiff_all, G


def elem_uw_dpg(mesh, mdle: int, problem: Problem):
    """Condensed ultraweak DPG element over (u_hat, flux, u, sigma)."""
    return _condensed(*_uw_system(mesh, mdle, problem))


# ---------------------------------------------------------------------------
# residual estimator and exact errors

def _gather_trial(mesh, mdle: int) -> np.ndarray:
    """The element's trial coefficients, attribute by attribute."""
    return np.concatenate([cf.gather_solution(mesh, mdle, attr).reshape(-1)
                           for attr in range(mesh.physics.nr_physa)])


def elem_residual(mesh, mdle: int, problem: Problem) -> float:
    """Squared DPG residual of the computed solution on one element."""
    if problem.kind == GALERKIN:
        raise ConfigError("the residual estimator needs a DPG problem")
    build = _primal_system if problem.kind == PRIMAL else _uw_system
    stiff_all, G = build(mesh, mdle, problem)
    w = _gather_trial(mesh, mdle)
    resid = stiff_all[:, -1] - stiff_all[:, :-1] @ w
    return dpg.residual_norm_sq(G, resid)


_OPENBLAS_THREADS = ("scipy_openblas_%s_num_threads64_",
                     "scipy_openblas_%s_num_threads",
                     "openblas_%s_num_threads64_", "openblas_%s_num_threads")


@contextmanager
def _one_blas_thread():
    """Run every OpenBLAS the process has loaded on one thread (Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        libs = []
    saved = []
    for lib in map(ctypes.CDLL, libs):
        for sym in _OPENBLAS_THREADS:
            if hasattr(lib, sym % "get"):
                get, set_n = (getattr(lib, sym % k) for k in ("get", "set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_n.argtypes, set_n.restype = [ctypes.c_int], None
                saved.append((set_n, get()))
    for set_n, _ in saved:
        set_n(1)
    try:
        yield
    finally:
        for set_n, n in saved:
            set_n(n)


def residual_summary(mesh, problem: Problem, workers: int = 1):
    """Per-element squared residuals in natural order, plus their sum.

    The element loop runs on `workers` threads, like assembly, and BLAS
    on one thread for every `workers`, so the indicators do not depend
    on it.  Threaded, each n=365 Gram factor kept OpenBLAS's own pool
    spinning against the second element thread on two cores, and c09's
    estimate ran slow and erratic.  Assembly keeps threaded BLAS until
    c09's reference is re-pinned: its roundoff decides step-3 marking.
    """
    with _one_blas_thread():
        vals = np.array(asm.map_elements(
            lambda mdle: elem_residual(mesh, mdle, problem),
            mesh.ELEM_ORDER, workers))
    return vals, float(vals.sum())


def compute_exact_error(mesh, problem: Problem):
    """Exact errors against the manufactured solution.

    Returns (gradient-norm error, L2 error, per-element table); the
    gradient slot compares grad u_h for the H1 discretizations and the
    sigma field for the ultraweak one.
    """
    if problem.exact is None:
        raise ConfigError("no manufactured solution: exact error unavailable")
    exact = problem.exact
    table = {}
    e_grad2 = 0.0
    e_l22 = 0.0
    for mdle in mesh.ELEM_ORDER:
        norder, xnod, _ = element_info(mesh, mdle)
        q = me.axis_orders(norder)
        rule = me.gauss_quadrature_3d(tuple(qa + 2 for qa in q))
        geom = gm.element_geometry(xnod, rule.points)
        wj = rule.weights * geom.rjac
        gu = exact.grad(geom.x)
        uu = exact.u(geom.x)
        if problem.kind == UW:
            shp = me.shape_functions_elem(me.L2, rule.points, norder)
            val, _ = gm.piola_transform(me.L2, shp, geom)
            cu = cf.gather_solution(mesh, mdle, 2)[:, 0]
            cs = cf.gather_solution(mesh, mdle, 3)
            uh = cu @ val
            sh = np.einsum("kc,kq->cq", cs, val)
            d2g = float(np.einsum("q,cq->", wj, (sh - gu.T) ** 2))
            d2l = float(wj @ (uh - uu) ** 2)
        else:
            shp = me.shape_functions_elem(me.H1, rule.points, norder)
            val, grad = gm.piola_transform(me.H1, shp, geom)
            cu = cf.gather_solution(mesh, mdle, 0)[:, 0]
            uh = cu @ val
            gh = np.einsum("k,kiq->iq", cu, grad)
            d2g = float(np.einsum("q,iq->", wj, (gh - gu.T) ** 2))
            d2l = float(wj @ (uh - uu) ** 2)
        table[mdle] = (d2g, d2l)
        e_grad2 += d2g
        e_l22 += d2l
    return float(np.sqrt(e_grad2)), float(np.sqrt(e_l22)), table


# ---------------------------------------------------------------------------
# driver

def solve_problem(mesh, problem: Problem, *, solver: str = "cg",
                  tol: float = 1e-12, maxit: int = None, workers: int = 1,
                  istc: bool = True) -> asm.SolveReport:
    """Refresh Dirichlet data, assemble, solve, and store all DOFs."""
    if problem.istc and not istc:
        raise ConfigError("DPG problems require interior condensation")
    cf.update_Ddof(mesh, problem.dirichlet_fn())
    return asm.assemble_and_solve(
        mesh, problem.elem, istc=istc,
        solver=solver, tol=tol, maxit=maxit, workers=workers)
