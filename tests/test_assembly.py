import numpy as np
import pytest
import scipy.sparse

from hphex import assembly as asm
from hphex import conformity as cf
from hphex import poisson
from hphex.errors import ConfigError, LinAlgError, SolveError
from hphex.mesh import close_mesh, refine_element

from conftest import grid_geometry


def _patch(kind="galerkin", grid=(1, 1, 1), order=1):
    problem = poisson.make_problem(kind, exact="linear")
    mesh = poisson.make_mesh(problem, grid_geometry(*grid), order)
    return mesh, problem


# ---------------------------------------------------------------------------
# static condensation on toy matrices


def test_condense_toy_example():
    K = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, 1.0])
    cond = asm.static_condense(K, b, np.array([False, True]))
    assert abs(cond.K[0, 0] - 1.5) < 1e-15
    assert abs(cond.b[0] - 0.5) < 1e-15


def test_condense_singular_bubble_raises():
    K = np.array([[2.0, 1.0], [1.0, 0.0]])
    with pytest.raises(LinAlgError):
        asm.static_condense(K, np.zeros(2), np.array([False, True]))


def test_recover_toy_example():
    # K = [[2,1],[1,2]], b=(1,1): u_i = 1/3 gives u_b = (1 - 1/3)/2 = 1/3
    K = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, 1.0])
    cond = asm.static_condense(K, b, np.array([False, True]))
    u_b = asm.recover_bubbles(cond, np.array([1.0 / 3.0]))
    assert abs(u_b[0] - 1.0 / 3.0) < 1e-14


def test_recover_stored_vs_recomputed():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((7, 7))
    K = A @ A.T + 7 * np.eye(7)
    b = rng.standard_normal(7)
    bub = np.zeros(7, dtype=bool)
    bub[3:] = True
    kept = asm.static_condense(K, b, bub, store=True)
    redo = asm.static_condense(K, b, bub, store=False,
                               recompute=lambda: (K, b))
    u_i = rng.standard_normal(3)
    assert np.allclose(asm.recover_bubbles(kept, u_i),
                       asm.recover_bubbles(redo, u_i), atol=1e-12)


def test_condensed_solution_equals_direct():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((9, 9))
    K = A @ A.T + 9 * np.eye(9)
    b = rng.standard_normal(9)
    bub = rng.random(9) < 0.5
    cond = asm.static_condense(K, b, bub)
    full = np.linalg.solve(K, b)
    u_i = np.linalg.solve(cond.K, cond.b)
    assert np.allclose(u_i, full[~bub], atol=1e-11)
    assert np.allclose(asm.recover_bubbles(cond, u_i), full[bub], atol=1e-11)


# ---------------------------------------------------------------------------
# conjugate gradient


def test_cg_identity_one_iteration():
    A = scipy.sparse.identity(5, format="csr")
    b = np.arange(1.0, 6.0)
    x, it, _ = asm.cg_solve(A, b, tol=1e-14)
    assert it == 1
    assert np.allclose(x, b, atol=1e-14)


def test_cg_diagonal_inverse():
    d = np.arange(1.0, 11.0)
    A = scipy.sparse.diags(d).tocsr()
    x, _, _ = asm.cg_solve(A, np.ones(10), tol=1e-14)
    assert np.allclose(x, 1.0 / d, atol=1e-13)


def _five_point(n):
    """2D 5-point Laplacian on an n-by-n interior grid."""
    main = 4.0 * np.ones(n * n)
    side = -np.ones(n * n - 1)
    side[np.arange(1, n * n) % n == 0] = 0.0
    updown = -np.ones(n * n - n)
    return scipy.sparse.diags(
        [main, side, side, updown, updown], [0, 1, -1, n, -n]).tocsr()


def test_cg_five_point_matches_dense():
    A = _five_point(10)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(100)
    x, _, _ = asm.cg_solve(A, b, tol=1e-12)
    assert np.max(np.abs(x - np.linalg.solve(A.toarray(), b))) < 1e-8


def test_cg_maxit_exceeded_raises():
    A = _five_point(10)
    with pytest.raises(SolveError):
        asm.cg_solve(A, np.ones(100), tol=1e-14, maxit=3)


def test_dense_fallback_limit():
    n = asm._DENSE_LIMIT + 1
    A = scipy.sparse.identity(n, format="csr")
    with pytest.raises(ConfigError):
        asm._dense_solve(A, np.ones(n))


# ---------------------------------------------------------------------------
# AlocBloc flag contract


def test_unflagged_blocks_are_never_read():
    bloc = asm.AlocBloc.zeros([2, 3])
    bloc.ALOC[0][0] = np.eye(2)
    bloc.Itest[1] = 0
    bloc.Itrial[1] = 0
    bloc.ALOC[1][1] = np.full((3, 3), np.nan)   # garbage, must be ignored
    bloc.ALOC[0][1] = np.full((2, 3), np.nan)
    bloc.ALOC[1][0] = np.full((3, 2), np.nan)
    bloc.BLOC[1] = np.full(3, np.nan)
    K, b = bloc.dense([0, 1], {0: 2, 1: 3})
    assert np.all(np.isfinite(K)) and np.all(np.isfinite(b))
    assert np.allclose(K[:2, :2], np.eye(2))


def test_wrong_block_shape_raises():
    bloc = asm.AlocBloc.zeros([2])
    bloc.ALOC[0][0] = np.zeros((3, 3))
    with pytest.raises(ConfigError):
        bloc.dense([0], {0: 2})


# ---------------------------------------------------------------------------
# end-to-end element loop (Poisson Galerkin)


def test_patch_all_dirichlet_no_unknowns():
    mesh, problem = _patch(order=1)
    report = poisson.solve_problem(mesh, problem)
    assert report.ndof == 0
    u = cf.gather_solution(mesh, 1, 0)[:, 0]
    xnod = mesh.vertex_coords(mesh.NODES[1].elem_nodes[0:8])
    assert np.allclose(u, xnod[:, 0], atol=1e-12)


def test_patch_two_elements_p2():
    mesh, problem = _patch(grid=(2, 1, 1), order=2)
    poisson.solve_problem(mesh, problem, istc=False)
    for mdle in mesh.ELEM_ORDER:
        err, _, _ = poisson.compute_exact_error(mesh, problem)
        assert err < 1e-10


def test_istc_on_off_identical():
    results = {}
    for istc in (False, True):
        problem = poisson.make_problem("galerkin", exact="smooth")
        mesh = poisson.make_mesh(problem, grid_geometry(2, 1, 1), 3)
        poisson.solve_problem(mesh, problem, istc=istc)
        results[istc] = np.concatenate(
            [cf.gather_solution(mesh, mdle, 0).ravel()
             for mdle in mesh.ELEM_ORDER])
    assert np.max(np.abs(results[True] - results[False])) < 1e-10


def test_store_flag_does_not_change_solution():
    sols = {}
    for store in (True, False):
        problem = poisson.make_problem("galerkin", exact="smooth")
        mesh = poisson.make_mesh(problem, grid_geometry(2, 1, 1), 2)
        poisson.solve_problem(mesh, problem, istc=True, store=store)
        sols[store] = np.concatenate(
            [cf.gather_solution(mesh, mdle, 0).ravel()
             for mdle in mesh.ELEM_ORDER])
    assert np.max(np.abs(sols[True] - sols[False])) < 1e-12


def test_numbering_and_determinism():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 1), 2)
    cf.update_Ddof(mesh, problem.physics, problem.dirichlet_fn())
    sys1, _, _ = asm.assemble_system(mesh, problem.physics, problem.elem)
    sys2, _, _ = asm.assemble_system(mesh, problem.physics, problem.elem)
    assert np.array_equal(sys1.matrix.data, sys2.matrix.data)
    assert np.array_equal(sys1.rhs, sys2.rhs)
    # keys sorted: node id major, then attribute, then dof, comps innermost
    assert sys1.keys == sorted(sys1.keys, key=lambda t: (t[0], t[1], t[3], t[2]))
    assert sys1.symmetry_error() < 1e-12


def test_threaded_assembly_matches_serial():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 2), 2)
    cf.update_Ddof(mesh, problem.physics, problem.dirichlet_fn())
    s1, _, _ = asm.assemble_system(mesh, problem.physics, problem.elem,
                                   workers=1)
    s4, _, _ = asm.assemble_system(mesh, problem.physics, problem.elem,
                                   workers=4)
    assert np.array_equal(s1.matrix.data, s4.matrix.data)
    assert np.array_equal(s1.rhs, s4.rhs)


def test_galerkin_orthogonality_residual():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 2), 2)
    poisson.solve_problem(mesh, problem, tol=1e-13)
    sys, _, _ = asm.assemble_system(mesh, problem.physics, problem.elem)
    x = np.empty(sys.ndof)
    for key, g in sys.index.items():
        nid, attr, comp, k = key
        x[g] = mesh.NODES[nid].dofs[attr][k, comp]
    resid = sys.matrix @ x - sys.rhs
    assert np.max(np.abs(resid)) < 1e-13 * np.max(np.abs(sys.rhs)) * 10


def test_solve_on_irregular_mesh_keeps_conformity():
    problem = poisson.make_problem("galerkin", exact="linear")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 1, 1), 2)
    refine_element(mesh, 1)
    close_mesh(mesh)
    cf.update_gdof(mesh)
    poisson.solve_problem(mesh, problem)
    err, _, _ = poisson.compute_exact_error(mesh, problem)
    assert err < 1e-10


def test_dense_solver_matches_cg():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 1), 2)
    poisson.solve_problem(mesh, problem, solver="dense")
    dense = np.concatenate([cf.gather_solution(mesh, m, 0).ravel()
                            for m in mesh.ELEM_ORDER])
    mesh2 = poisson.make_mesh(problem, grid_geometry(2, 2, 1), 2)
    poisson.solve_problem(mesh2, problem, solver="cg", tol=1e-14)
    cg = np.concatenate([cf.gather_solution(mesh2, m, 0).ravel()
                         for m in mesh2.ELEM_ORDER])
    assert np.max(np.abs(dense - cg)) < 1e-9


def test_dense_solver_reports_true_residual():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 1), 2)
    report = poisson.solve_problem(mesh, problem, solver="dense")
    system, _, _ = asm.assemble_system(mesh, problem.physics, problem.elem)
    x = np.zeros(system.ndof)
    for (nid, attr, comp, k), g in system.index.items():
        x[g] = mesh.NODES[nid].dofs[attr][k, comp]
    b = system.rhs
    true = np.linalg.norm(b - system.matrix @ x) / np.linalg.norm(b)
    assert report.residual == true


# ---------------------------------------------------------------------------
# store_solution


def test_store_solution_round_trip():
    mesh, problem = _patch(grid=(2, 1, 1), order=2)
    poisson.solve_problem(mesh, problem)
    ref = cf.gather_solution(mesh, 1, 0)
    asm.store_solution(mesh, 1, 0, ref)
    assert np.allclose(cf.gather_solution(mesh, 1, 0), ref, atol=1e-14)


def test_store_solution_shape_mismatch():
    mesh, _ = _patch(order=2)
    with pytest.raises(ConfigError):
        asm.store_solution(mesh, 1, 0, np.zeros((5, 1)))
