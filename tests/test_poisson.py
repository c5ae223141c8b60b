import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hphex import assembly as asm
from hphex import conformity as cf
from hphex import dpg
from hphex import geometry as gm
from hphex import masterel as me
from hphex import poisson
from hphex.errors import ConfigError, OrderError
from hphex.mesh import close_mesh, element_info, refine_element

from conftest import apply_hp_ops, grid_geometry, hp_ops


def make(kind, exact="linear", grid=(1, 1, 1), order=1, dp=1):
    problem = poisson.make_problem(kind, exact=exact, dp=dp)
    mesh = poisson.make_mesh(problem, grid_geometry(*grid), order)
    return mesh, problem


def global_href(mesh):
    for mdle in list(mesh.ELEM_ORDER):
        refine_element(mesh, mdle)
    close_mesh(mesh)
    cf.update_gdof(mesh)


def eval_h1(mesh, mdle, attr, pts):
    norder, xnod, _ = element_info(mesh, mdle)
    geom = gm.element_geometry(xnod, pts)
    shp = me.shape_functions_elem(me.H1, pts, norder)
    val, _ = gm.piola_transform(me.H1, shp, geom)
    coef = cf.gather_solution(mesh, mdle, attr)[:, 0]
    if coef.shape[0] < shp.nrdof:   # trace attribute: interface dofs only
        val = val[np.flatnonzero(np.asarray(shp.slots) < 26)]
    return coef @ val, geom.x


def eval_l2(mesh, mdle, attr, pts):
    norder, xnod, _ = element_info(mesh, mdle)
    geom = gm.element_geometry(xnod, pts)
    shp = me.shape_functions_elem(me.L2, pts, norder)
    val, _ = gm.piola_transform(me.L2, shp, geom)
    coef = cf.gather_solution(mesh, mdle, attr)
    return np.einsum("kc,kq->cq", coef, val), geom.x


# ---------------------------------------------------------------------------
# manufactured solutions


def test_manufactured_derivatives_by_finite_differences():
    rng = np.random.default_rng(5)
    x = 0.1 + 0.8 * rng.random((40, 3))
    h = 1e-4
    for name in poisson.SOLUTIONS:
        sol = poisson.get_solution(name)
        grad = np.zeros((40, 3))
        lap = np.zeros(40)
        for c in range(3):
            xp, xm = x.copy(), x.copy()
            xp[:, c] += h
            xm[:, c] -= h
            grad[:, c] = (sol.u(xp) - sol.u(xm)) / (2 * h)
            lap += (sol.u(xp) - 2 * sol.u(x) + sol.u(xm)) / h ** 2
        scale = 1.0 + np.abs(sol.f(x))
        assert np.max(np.abs(grad - sol.grad(x)) / scale[:, None]) < 1e-5
        assert np.max(np.abs(-lap - sol.f(x)) / scale) < 1e-5


def test_source_term_values():
    x = np.array([[0.3, 0.4, 0.5], [0.25, 0.75, 0.5]])
    lin = poisson.make_problem("galerkin", exact="linear")
    assert np.allclose(poisson.source_term(lin, x), 0.0)
    quad = poisson.make_problem("galerkin", exact="quadratic")
    assert np.allclose(poisson.source_term(quad, x), -6.0)
    smooth = poisson.make_problem("galerkin", exact="smooth")
    u = smooth.exact.u(x)
    assert np.allclose(poisson.source_term(smooth, x), 3 * np.pi ** 2 * u)
    nosol = poisson.make_problem("galerkin", exact=None)
    assert np.allclose(poisson.source_term(nosol, x), 0.0)


def test_unknown_solution_name():
    with pytest.raises(ConfigError):
        poisson.get_solution("bogus")


# ---------------------------------------------------------------------------
# Galerkin element


def test_galerkin_element_p1_frozen_values():
    mesh, problem = make("galerkin", exact="quadratic", order=1)
    problem.exact = poisson.ManufacturedSolution(
        "unit-load", u=lambda x: np.zeros(len(x)),
        grad=lambda x: np.zeros((len(x), 3)), f=lambda x: np.ones(len(x)))
    K, b = poisson.elem_galerkin(mesh, 1, problem)
    assert K.shape == (8, 8)
    assert np.max(np.abs(K.sum(axis=1))) < 1e-13
    assert np.allclose(np.diag(K), 1.0 / 3.0, atol=1e-14)
    assert np.allclose(b, 0.125, atol=1e-14)


def test_galerkin_element_symmetric():
    mesh, problem = make("galerkin", grid=(1, 1, 1), order=3)
    # stretch the element so the Jacobian is not the identity
    for v in mesh.NODES[1].elem_nodes[0:8]:
        mesh.NODES[v].coords = mesh.NODES[v].coords * np.array([2.0, 0.7, 1.3])
    K, _ = poisson.elem_galerkin(mesh, 1, problem)
    assert np.max(np.abs(K - K.T)) < 1e-12


# ---------------------------------------------------------------------------
# quadrature sums


_SPEC = {0: "q,kq,lq->kl", 3: "q,kiq,liq->kl"}  # scalar / vector operands


def _operands(n, ncomp, nq, seed):
    rng = np.random.default_rng(seed)
    shape = (n, nq) if ncomp == 0 else (n, ncomp, nq)
    return rng.random(nq) + 0.1, rng.standard_normal(shape)


# row counts below, at and across multiples of the einsum row block
_ROWS = st.one_of(st.integers(1, 70), st.integers(71, 300))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=_ROWS, ncomp=st.sampled_from([0, 3]), nq=st.integers(1, 64),
       seed=st.integers(0, 2**16))
def test_sym_gram_upper_half_is_full_einsum_bitwise(n, ncomp, nq, seed):
    w, a = _operands(n, ncomp, nq, seed)
    full = np.einsum(_SPEC[ncomp], w, a, a)
    G = poisson._sym_gram(w, a)
    assert np.array_equal(G, G.T)
    upper = np.triu_indices(n)
    assert np.array_equal(G[upper], full[upper])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(1, 120), m=st.integers(1, 120),
       ncomp=st.sampled_from([0, 3]), nq=st.integers(1, 64),
       seed=st.integers(0, 2**16))
def test_weighted_gram_matches_einsum(n, m, ncomp, nq, seed):
    w, a = _operands(n, ncomp, nq, seed)
    _, b = _operands(m, ncomp, nq, seed + 1)
    ref = np.einsum(_SPEC[ncomp], w, a, b)
    got = poisson._weighted_gram(w, a, b)
    assert got.shape == (n, m)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


# ---------------------------------------------------------------------------
# primal DPG element


def test_primal_blocks_symmetric():
    mesh, problem = make("primal", order=2)
    K, _ = poisson.elem_primal_dpg(mesh, 1, problem)
    assert np.array_equal(K, K.T)


def test_primal_condensation_matches_saddle_oracle():
    mesh, problem = make("primal", exact="smooth", order=2)
    stiff_all, G = poisson._primal_system(mesh, 1, problem)
    brute = stiff_all.T @ np.linalg.solve(G, stiff_all)
    K, b = poisson.elem_primal_dpg(mesh, 1, problem)
    n = K.shape[0]
    assert np.max(np.abs(np.column_stack([K, b]) - brute[:n, :])) < 1e-10


def test_primal_requires_test_space_domination():
    mesh, problem = make("primal", order=2)
    problem.dp = 0
    with pytest.raises(ConfigError):
        poisson.elem_primal_dpg(mesh, 1, problem)


def test_primal_patch_single_element():
    mesh, problem = make("primal", exact="linear", order=1)
    poisson.solve_problem(mesh, problem)
    err, el2, _ = poisson.compute_exact_error(mesh, problem)
    assert err < 1e-10 and el2 < 1e-10
    assert poisson.elem_residual(mesh, 1, problem) < 1e-12


def test_primal_patch_irregular_mesh():
    mesh, problem = make("primal", exact="linear", grid=(2, 1, 1), order=2)
    refine_element(mesh, 1)
    close_mesh(mesh)
    cf.update_gdof(mesh)
    poisson.solve_problem(mesh, problem)
    err, _, _ = poisson.compute_exact_error(mesh, problem)
    assert err < 1e-9
    for mdle in mesh.ELEM_ORDER:
        assert poisson.elem_residual(mesh, mdle, problem) < 1e-12


# ---------------------------------------------------------------------------
# ultraweak DPG element


def test_uw_test_space_count_frozen():
    mesh, problem = make("uw", order=1)  # stored middle order 2
    stiff_all, G = poisson._uw_system(mesh, 1, problem)
    norder = element_info(mesh, 1)[0]
    sizes = tuple(
        int(me.layout_counts(a.fe_space, norder,
                             include_middle=not a.is_trace).sum()) * a.ncomp
        for a in problem.physics.attrs)
    assert stiff_all.shape[0] == 64 + 108
    assert G.shape == (172, 172)
    assert sizes == (26, 24, 8, 24)
    assert stiff_all.shape == (172, 83)


def test_uw_gram_spd_up_to_p3():
    for p in (1, 2, 3):
        problem = poisson.make_problem("uw")
        mesh = poisson.make_mesh(
            problem, grid_geometry(1, 1, 1, lengths=(1.4, 0.8, 1.1)), p)
        _, G = poisson._uw_system(mesh, 1, problem)
        assert np.array_equal(G, G.T)
        dpg.packed_cholesky(dpg.Upper(G))  # must not raise


def test_uw_patch_single_element():
    mesh, problem = make("uw", exact="linear", order=1)
    poisson.solve_problem(mesh, problem)
    pts = np.random.default_rng(2).random((30, 3))
    uh, x = eval_l2(mesh, 1, 2, pts)
    assert np.max(np.abs(uh[0] - x[:, 0])) < 1e-9
    sh, _ = eval_l2(mesh, 1, 3, pts)
    assert np.max(np.abs(sh - np.array([[1.0], [0.0], [0.0]]))) < 1e-9
    uhat, x2 = eval_h1(mesh, 1, 0, me.face_param(3, pts[:, :2])[0])
    assert np.max(np.abs(uhat - x2[:, 0])) < 1e-9
    assert poisson.elem_residual(mesh, 1, problem) < 1e-12


def test_uw_flux_trace_on_x_faces():
    mesh, problem = make("uw", exact="linear", order=1)
    poisson.solve_problem(mesh, problem)
    norder, xnod, _ = element_info(mesh, 1)
    t = np.random.default_rng(4).random((20, 2))
    for face, sign in ((6, -1.0), (4, 1.0)):   # x=0 and x=1 faces
        xi, _ = me.face_param(face, t)
        fgeom = gm.face_geometry(xnod, face, t)
        shp = me.shape_functions_elem(me.HDIV, xi, norder)
        sel = np.flatnonzero(np.asarray(shp.slots) < 26)
        sval, _ = gm.piola_transform(me.HDIV, shp, fgeom)
        coef = cf.gather_solution(mesh, 1, 1)[:, 0]
        fluxn = coef @ np.einsum("kiq,qi->kq", sval[sel], fgeom.rn)
        # sigma_hat.n is the x-flux of u=x through the face: +-1
        assert np.max(np.abs(fluxn - sign)) < 1e-9


def test_uw_patch_irregular_mesh():
    mesh, problem = make("uw", exact="linear", grid=(2, 1, 1), order=1)
    refine_element(mesh, 1)
    close_mesh(mesh)
    cf.update_gdof(mesh)
    poisson.solve_problem(mesh, problem)
    rng = np.random.default_rng(8)
    for mdle in mesh.ELEM_ORDER:
        pts = rng.random((10, 3))
        uh, x = eval_l2(mesh, mdle, 2, pts)
        assert np.max(np.abs(uh[0] - x[:, 0])) < 1e-9
        sh, _ = eval_l2(mesh, mdle, 3, pts)
        assert np.max(np.abs(sh - np.array([[1.0], [0.0], [0.0]]))) < 1e-9


def test_patch_and_symmetry_on_random_hp_meshes():
    """On random 1-irregular hp meshes every formulation reproduces the
    linear solution and assembles a symmetric global matrix."""

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(nx=st.integers(1, 2), ny=st.integers(1, 2),
           kind=st.sampled_from([poisson.GALERKIN, poisson.PRIMAL, poisson.UW]),
           p=st.integers(1, 2), ops=hp_ops(3))
    def check(nx, ny, kind, p, ops):
        problem = poisson.make_problem(kind, exact="linear")
        mesh = poisson.make_mesh(problem, grid_geometry(nx, ny, 1), p)
        apply_hp_ops(mesh, ops)
        # stored order ≤ 3 bounds the cost of the ultraweak elements
        assume(max(max(me.decode_order(mesh.element(m).order))
                   for m in mesh.ELEM_ORDER) <= 3)
        cf.update_gdof(mesh)
        poisson.solve_problem(mesh, problem, solver="dense")
        err, el2, _ = poisson.compute_exact_error(mesh, problem)
        assert err < 1e-9 and el2 < 1e-9
        system, _, _ = asm.assemble_system(mesh, problem.elem)
        scale = np.abs(system.matrix.data).max(initial=0.0)
        assert system.symmetry_error() <= 1e-12 * scale

    check()


def test_uw_condensed_blocks_symmetric():
    mesh, problem = make("uw", order=1)
    K, _ = poisson.elem_uw_dpg(mesh, 1, problem)
    assert np.array_equal(K, K.T)


# ---------------------------------------------------------------------------
# residual estimator


def test_residual_unsupported_for_galerkin():
    mesh, problem = make("galerkin", order=1)
    with pytest.raises(ConfigError):
        poisson.elem_residual(mesh, 1, problem)


def test_residual_decreases_under_refinement():
    problem = poisson.make_problem("primal", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(1, 1, 1), 2)
    totals = []
    for _ in range(3):
        poisson.solve_problem(mesh, problem)
        _, total = poisson.residual_summary(mesh, problem)
        totals.append(total)
        global_href(mesh)
    assert totals[0] > totals[1] > totals[2]


# ---------------------------------------------------------------------------
# exact error


def test_exact_error_needs_solution():
    mesh, problem = make("galerkin", exact=None, order=1)
    with pytest.raises(ConfigError):
        poisson.compute_exact_error(mesh, problem)


def test_error_of_zero_solution_is_solution_norm():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 2), 1)
    problem.physics.attrs[0].homogeneous_dirichlet = True
    cf.update_Ddof(mesh)
    poisson.solve_problem(mesh, poisson.Problem(
        "galerkin", problem.physics, None))  # f=0 -> u_h = 0
    problem.physics.attrs[0].homogeneous_dirichlet = False
    eg, el, _ = poisson.compute_exact_error(mesh, problem)
    # |grad u| = sqrt(3 pi^2 / 8), |u| = sqrt(1/8) for the sine product
    assert abs(eg - np.sqrt(3 * np.pi ** 2 / 8)) < 2e-2
    assert abs(el - np.sqrt(1.0 / 8.0)) < 2e-3


def test_h1_error_halves_with_mesh_size():
    errs = []
    for n in (1, 2):
        problem = poisson.make_problem("galerkin", exact="smooth")
        mesh = poisson.make_mesh(problem, grid_geometry(n, n, n), 1)
        poisson.solve_problem(mesh, problem)
        errs.append(poisson.compute_exact_error(mesh, problem)[0])
    assert 1.5 < errs[0] / errs[1] < 2.6



def test_uw_order_limit_is_maxp_minus_one():
    problem = poisson.make_problem(poisson.UW, exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(1, 1, 1), me.MAXP - 1)
    assert me.decode_order(mesh.NODES[1].order) == (me.MAXP,) * 3
    for order in (me.MAXP, (2, 2, me.MAXP)):
        with pytest.raises(OrderError, match=f"p={me.MAXP} exceeds"):
            poisson.make_mesh(problem, grid_geometry(1, 1, 1), order)
