import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hphex import assembly as asm
from hphex import conformity as cf
from hphex import geometry as gm
from hphex import masterel as me
from hphex import poisson
from hphex.errors import ConfigError, LinAlgError, SolveError
from hphex.mesh import (close_mesh, element_info, execute_pref,
                        refine_element)

from conftest import apply_hp_ops, grid_geometry, hp_ops


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
    # converging on the last allowed update is a success, not a failure
    x, it, _ = asm.cg_solve(A, b, tol=1e-14, maxit=1)
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


def test_cg_reports_true_residual():
    A = _five_point(10)
    b = np.random.default_rng(3).standard_normal(100)
    x, _, res = asm.cg_solve(A, b, tol=1e-10)
    assert res == np.linalg.norm(b - A @ x) / np.linalg.norm(b)


# ---------------------------------------------------------------------------
# local system shape contract


def test_wrong_local_system_shape_raises():
    mesh, problem = _patch(order=2)

    def short_K(mesh, mdles):
        K, b = problem.elems(mesh, mdles)
        return K[:, :-1, :-1], b

    def short_b(mesh, mdles):
        K, b = problem.elems(mesh, mdles)
        return K, b[:, :-1]

    for elem_fn in (short_K, short_b):
        with pytest.raises(ConfigError, match="element 1: "):
            asm.assemble_system(mesh, elem_fn)


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


def test_numbering_and_determinism():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 1), 2)
    cf.update_Ddof(mesh, problem.dirichlet_fn())
    sys1, _ = asm.assemble_system(mesh, problem.elems)
    sys2, _ = asm.assemble_system(mesh, problem.elems)
    assert np.array_equal(sys1.matrix.data, sys2.matrix.data)
    assert np.array_equal(sys1.rhs, sys2.rhs)
    # numbered by node id, then attribute, then dof, comps innermost
    index = {tuple(k): i for i, k in enumerate(sys1.keys.tolist())}
    keys = sorted(index, key=index.get)
    assert [index[key] for key in keys] == list(range(sys1.ndof))
    assert keys == sorted(keys, key=lambda t: (t[0], t[1], t[3], t[2]))
    assert sys1.symmetry_error() < 1e-12


def test_threaded_assembly_matches_serial():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 2), 2)
    cf.update_Ddof(mesh, problem.dirichlet_fn())
    s1, _ = asm.assemble_system(mesh, problem.elems, workers=1)
    s4, _ = asm.assemble_system(mesh, problem.elems, workers=4)
    assert np.array_equal(s1.matrix.data, s4.matrix.data)
    assert np.array_equal(s1.rhs, s4.rhs)


def test_workers_below_one_rejected():
    mesh, problem = _patch()
    for workers in (0, -1):
        with pytest.raises(ConfigError, match="workers"):
            asm.assemble_system(mesh, problem.elems, workers=workers)


def test_galerkin_orthogonality_residual():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 2), 2)
    poisson.solve_problem(mesh, problem)
    sys, _ = asm.assemble_system(mesh, problem.elems)
    x = np.empty(sys.ndof)
    index = {tuple(k): i for i, k in enumerate(sys.keys.tolist())}
    for key, g in index.items():
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
    poisson.solve_problem(mesh2, problem, solver="cg")
    cg = np.concatenate([cf.gather_solution(mesh2, m, 0).ravel()
                         for m in mesh2.ELEM_ORDER])
    assert np.max(np.abs(dense - cg)) < 1e-9


def test_dense_solver_reports_true_residual():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 1), 2)
    report = poisson.solve_problem(mesh, problem, solver="dense")
    system, _ = asm.assemble_system(mesh, problem.elems)
    x = np.zeros(system.ndof)
    index = {tuple(k): i for i, k in enumerate(system.keys.tolist())}
    for (nid, attr, comp, k), g in index.items():
        x[g] = mesh.NODES[nid].dofs[attr][k, comp]
    b = system.rhs
    true = np.linalg.norm(b - system.matrix @ x) / np.linalg.norm(b)
    assert report.residual == true


def test_unknown_solver_rejected_before_any_element_is_built():
    mesh, _ = _patch()
    built = []

    def elem_fn(mesh, mdles):
        built.append(mdles)
        raise AssertionError("element routine called")

    with pytest.raises(ConfigError, match="unknown solver 'lu'"):
        asm.assemble_and_solve(mesh, elem_fn, solver="lu")
    assert built == []


# ---------------------------------------------------------------------------
# element batches


def _same(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


def _bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_stacked_condensation_matches_single_elements():
    rng = np.random.default_rng(5)
    for n, nb in ((2, 1), (27, 1), (40, 8)):
        A = rng.standard_normal((4, n, n))
        A = A @ np.swapaxes(A, 1, 2) + n * np.eye(n)
        b = rng.standard_normal((4, n))
        bub = np.zeros(n, bool)
        bub[-nb:] = True
        u = rng.standard_normal((4, n - nb))
        cond = asm.static_condense(A, b, bub)
        u_b = asm.recover_bubbles(cond, u)
        for s in range(4):
            one = asm.static_condense(A[s], b[s], bub)
            assert _same(one.K, cond.K[s]) and _same(one.b, cond.b[s])
            assert _same(asm.recover_bubbles(one, u[s]), u_b[s])


def test_batches_share_order_and_respect_the_cap(monkeypatch):
    mesh, _ = _patch(grid=(2, 2, 1), order=2)
    execute_pref(mesh, [mesh.ELEM_ORDER[0]])
    refine_element(mesh, mesh.ELEM_ORDER[-1])
    close_mesh(mesh)
    batches = asm.element_batches(mesh, lambda norder: 1)
    assert sorted(m for _, mdles in batches for m in mdles) == \
        sorted(mesh.ELEM_ORDER)
    for norder, mdles in batches:
        assert all(tuple(element_info(mesh, m)[0]) == norder for m in mdles)
        assert mdles == sorted(mdles, key=mesh.ELEM_ORDER.index)
    monkeypatch.setattr(asm, "_BATCH_BYTES", 3)
    assert all(len(mdles) == 1 for _, mdles in
               asm.element_batches(mesh, lambda norder: 4))
    assert all(len(mdles) <= 3 for _, mdles in
               asm.element_batches(mesh, lambda norder: 1))


def test_batched_kernels_match_single_elements_property(monkeypatch):
    """On random hp meshes with jittered vertices, hanging nodes and
    Dirichlet faces, one pass over a batch gives the bits of the
    single-element passes: each kind's element routine, the stacked
    geometry and Piola maps, the modified elements, and the Galerkin,
    primal and ultraweak systems assembled with one element per batch."""
    seen = set()

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(kind=st.sampled_from((poisson.GALERKIN, poisson.PRIMAL, poisson.UW)),
           nx=st.integers(1, 2), ny=st.integers(1, 2), p=st.integers(1, 3),
           ops=hp_ops(3), seed=st.integers(0, 2 ** 16))
    @example(kind=poisson.GALERKIN, nx=2, ny=1, p=1, ops=[("h", 0)], seed=0)
    @example(kind=poisson.UW, nx=2, ny=1, p=1, ops=[("h", 0)], seed=0)
    def check(kind, nx, ny, p, ops, seed):
        problem = poisson.make_problem(
            kind, exact="smooth", dp=2 if kind == poisson.PRIMAL else 1)
        if kind == poisson.UW:      # h only, at p=1: ~40 ms per element build
            ny, p, ops = 1, 1, [op for op in ops if op[0] == "h"]
        mesh = poisson.make_mesh(problem, grid_geometry(nx, ny, 1),
                                 min(p, 2) if kind == poisson.PRIMAL else p)
        apply_hp_ops(mesh, ops)
        rng = np.random.default_rng(seed)
        for node in mesh.NODES[1:]:
            if node.kind == "VERTEX":
                node.coords = node.coords + 0.02 * rng.uniform(-1, 1, 3)
        cf.update_Ddof(mesh, problem.dirichlet_fn())

        for norder, mdles in asm.element_batches(mesh, lambda norder: 1):
            for mod in cf.modified_element(mesh, mdles):
                for e, mdle in enumerate(mod.mdle.tolist()):
                    one = cf.modified_element(mesh, mdle)
                    assert one.mdle == mdle and one.conforming == mod.conforming
                    for f in ("dof_nodes", "dirichlet",
                              "dirichlet_values", "bubble"):
                        assert _bits(getattr(one, f), getattr(mod, f)[e])
                    if mod.conforming:
                        n = mod.dof_nodes.shape[1]
                        assert _bits(cf.constraint_matrix(mesh, mdle), np.eye(n))
                    if len(mdles) > 1 and not mod.conforming:
                        seen.add((kind, "constrained"))
                    if mod.dirichlet_values[e].any():
                        seen.add((kind, "dirichlet"))
            K, b = problem.elems(mesh, mdles)
            for e, mdle in enumerate(mdles):
                K1, b1 = problem.elems(mesh, [mdle])
                assert _same(K1[0], K[e]) and _same(b1[0], b[e])

            xi, _ = me.gauss_quadrature_3d((4, 3, 2))
            xnod = np.array([element_info(mesh, m)[1] for m in mdles])
            geom = gm.element_geometry(xnod, xi)
            for e in range(len(mdles)):
                one = gm.element_geometry(xnod[e], xi)
                for f in ("x", "dxdxi", "dxidx", "rjac"):
                    assert _same(getattr(one, f), getattr(geom, f)[e])
                for space in (me.H1, me.HDIV, me.L2):
                    shp = me.shape_functions_elem(space, xi, norder)
                    stacked = gm.piola_transform(space, shp, geom)
                    single = gm.piola_transform(space, shp, one)
                    for s, o in zip(stacked, single):
                        if o is None:
                            assert s is None
                        elif s.shape == o.shape:    # H1 values: master table
                            assert _same(s, o)
                        else:
                            assert _same(s[e], o)

        whole, _ = asm.assemble_system(mesh, problem.elems)
        with monkeypatch.context() as m:
            m.setattr(asm, "_BATCH_BYTES", 1)
            single, _ = asm.assemble_system(mesh, problem.elems)
        for f in ("indptr", "indices", "data"):
            assert _bits(getattr(whole.matrix, f), getattr(single.matrix, f))
        assert _bits(whole.rhs, single.rhs)
        assert ({tuple(k): i for i, k in enumerate(whole.keys.tolist())}
                == {tuple(k): i for i, k in enumerate(single.keys.tolist())})

    check()
    assert seen == {(kind, what) for kind in poisson.KINDS
                    for what in ("constrained", "dirichlet")}


def test_batched_estimate_matches_single_elements_property():
    """On random solved hp meshes, `elem_residual` on a batch gives the
    bits of the single-element calls, and `residual_summary` returns them
    in natural order, not batch order, at `workers` 1 and 2.  Solve and
    estimate run on one BLAS thread, so kept and rebuilt systems agree."""
    seen = set()

    @settings(derandomize=True, max_examples=16, deadline=None)
    @given(kind=st.sampled_from((poisson.PRIMAL, poisson.UW)),
           nx=st.integers(1, 2), p=st.integers(1, 2), ops=hp_ops(3),
           workers=st.sampled_from((1, 2)))
    def check(kind, nx, p, ops, workers):
        problem = poisson.make_problem(kind, exact="smooth")
        if kind == poisson.UW:      # ~40 ms per element build at p=1
            p = 1
        mesh = poisson.make_mesh(problem, grid_geometry(nx, 1, 1), p)
        apply_hp_ops(mesh, ops)
        cf.update_gdof(mesh)
        with poisson._one_blas_thread():
            poisson.solve_problem(mesh, problem)
            vals, _ = poisson.residual_summary(mesh, problem, workers)
            single = {m: poisson.elem_residual(mesh, [m], problem)
                      for m in mesh.ELEM_ORDER}
            batches = [m for _, m in asm.solve_batches(mesh)]
            for mdles in batches:
                got = poisson.elem_residual(mesh, mdles, problem)
                assert _bits(got, np.concatenate([single[m] for m in mdles]))
        assert _bits(vals, np.concatenate([single[m]
                                           for m in mesh.ELEM_ORDER]))
        if sum(batches, []) != mesh.ELEM_ORDER:
            seen.add((kind, "batch order"))
        if max(map(len, batches)) > 1:
            seen.add((kind, "batch"))

    check()
    assert seen == {(kind, what) for kind in (poisson.PRIMAL, poisson.UW)
                    for what in ("batch order", "batch")}


def test_csr_matches_coo_of_the_same_blocks_property(monkeypatch):
    """On random hp meshes with hanging nodes and Dirichlet faces, the CSR
    arrays and the load that `assemble_system` writes in place equal, in
    dtype and in every byte, `coo_matrix((data, (rows, cols))).tocsr()`
    and `np.add.at` on the condensed blocks' triplets in natural element
    order, for the three kinds at `workers` 1 and 2.  The returned groups
    keep no condensed block."""
    blocks, seen = {}, set()
    condense = asm.static_condense

    def recorded(K, b, bubble):
        cond = condense(K, b, bubble)
        blocks[id(cond)] = (cond.K, cond.b)
        return cond

    monkeypatch.setattr(asm, "static_condense", recorded)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(kind=st.sampled_from((poisson.GALERKIN, poisson.PRIMAL, poisson.UW)),
           nx=st.integers(1, 2), p=st.integers(1, 3), ops=hp_ops(3),
           workers=st.sampled_from((1, 2)))
    @example(kind=poisson.GALERKIN, nx=2, p=2, ops=[("h", 0)], workers=1)
    @example(kind=poisson.UW, nx=2, p=1, ops=[("h", 0)], workers=2)
    def check(kind, nx, p, ops, workers):
        problem = poisson.make_problem(kind, exact="smooth")
        if kind != poisson.GALERKIN:    # DPG element builds are slow
            p, ops = 1, [op for op in ops if op[0] == "h"]
        mesh = poisson.make_mesh(problem, grid_geometry(nx, 1, 1), p)
        apply_hp_ops(mesh, ops)
        cf.update_Ddof(mesh, problem.dirichlet_fn())
        blocks.clear()
        system, groups = asm.assemble_system(mesh, problem.elems,
                                             workers=workers)
        pos = {mdle: e for e, mdle in enumerate(mesh.ELEM_ORDER)}
        elems = sorted(((pos[mdle], blocks[id(cond)], s, gidx[s])
                        for ids, cond, gidx, _ in groups
                        for s, mdle in enumerate(ids.tolist())),
                       key=lambda t: t[0])
        assert all(c.K is None and c.b is None for _, c, _, _ in groups)
        data = np.concatenate([K[s].ravel() for _, (K, _), s, _ in elems])
        rhs_v = np.concatenate([b[s] for _, (_, b), s, _ in elems])
        g = [g.astype(np.int32) for *_, g in elems]
        rows = np.concatenate([np.repeat(gi, len(gi)) for gi in g])
        cols = np.concatenate([np.tile(gi, len(gi)) for gi in g])
        n = system.ndof
        ref = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        for f in ("indptr", "indices", "data"):
            assert _bits(getattr(system.matrix, f), getattr(ref, f))
        rhs = np.zeros(n)
        np.add.at(rhs, np.concatenate(g), rhs_v)
        assert _bits(system.rhs, rhs)
        for _, mdles in asm.solve_batches(mesh):
            for mod in cf.modified_element(mesh, mdles):
                if not mod.conforming:
                    seen.add((kind, "constrained"))
                if mod.dirichlet_values.any():
                    seen.add((kind, "dirichlet"))
        if len(rows) > ref.nnz:
            seen.add((kind, "duplicates"))

    check()
    assert seen == {(kind, what) for kind in poisson.KINDS
                    for what in ("constrained", "dirichlet", "duplicates")}


def test_assembly_peak_memory_is_a_few_csr_copies(monkeypatch):
    """The condensed blocks go straight into the CSR arrays: no triplet
    copy and no condensed stack of the whole mesh is held.  With batches
    of 8 elements, so that, as on large meshes, whole-mesh arrays and not
    one batch's kernel temporaries set the peak, assembling a 6x6x6
    Galerkin p=2 mesh peaks at 3.9 times the bytes of the returned CSR
    arrays; a scatter through COO triplets that keeps every condensed
    block reads 6.0."""
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(6, 6, 6), 2)
    cf.update_Ddof(mesh, problem.dirichlet_fn())
    monkeypatch.setattr(asm, "_BATCH_BYTES", 8 * 8 * 27 ** 2)
    asm.assemble_system(mesh, problem.elems)        # warm the table caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system, _ = asm.assemble_system(mesh, problem.elems)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    A = system.matrix
    assert peak <= 4.5 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def test_assembly_holds_no_constraint_matrices():
    """No dense constraint matrix is held through the element loop: every
    batch's modified element stacks hold a few bytes per dof of each
    element, with no (E, n, m) array, and a constrained element's C is
    built when its system is expanded.  On a 3x1x1 ultraweak p=2 mesh
    with one element refined (10 elements, 4 of them constrained by
    closed hanging faces, n = 218 local dofs), assembly peaks at 17.9
    local matrices (8 n^2 bytes each); holding a conforming stack's
    identity per batch and every constrained element's C read 25.9."""
    problem = poisson.make_problem("uw", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(3, 1, 1), 2)
    refine_element(mesh, mesh.ELEM_ORDER[0])
    close_mesh(mesh)
    cf.update_Ddof(mesh, problem.dirichlet_fn())
    constrained = 0
    for _, mdles in asm.solve_batches(mesh):
        for mod in cf.modified_element(mesh, mdles):
            E, m = mod.dof_nodes.shape[:2]
            fields = [v for v in vars(mod).values() if isinstance(v, np.ndarray)]
            assert all(v.shape in ((E,), (E, m), (E, m, 4)) for v in fields)
            # per element: its id; per dof: the key, value and two masks
            assert sum(v.nbytes for v in fields) <= E * (8 + 42 * m)
            constrained += not mod.conforming
    assert constrained == 4
    asm.assemble_system(mesh, problem.elems)        # warm the table caches
    n = problem.elems(mesh, mesh.ELEM_ORDER[:1])[0].shape[-1]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        asm.assemble_system(mesh, problem.elems)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert n == 218
    assert peak <= 21 * 8 * n ** 2
