import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hphex import adapt
from hphex import assembly as asm
from hphex import conformity as cf
from hphex import dpg
from hphex import geometry as gm
from hphex import masterel as me
from hphex import poisson
from hphex.errors import ConfigError, OrderError
from hphex.mesh import (adaptive_pref, close_mesh, element_info, execute_pref,
                        refine_element)

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
    (K,), (b,) = poisson.elem_galerkin(mesh, [1], problem)
    assert K.shape == (8, 8)
    assert np.max(np.abs(K.sum(axis=1))) < 1e-13
    assert np.allclose(np.diag(K), 1.0 / 3.0, atol=1e-14)
    assert np.allclose(b, 0.125, atol=1e-14)


def test_galerkin_element_symmetric():
    mesh, problem = make("galerkin", grid=(1, 1, 1), order=3)
    # stretch the element so the Jacobian is not the identity
    for v in mesh.NODES[1].elem_nodes[0:8]:
        mesh.NODES[v].coords = mesh.NODES[v].coords * np.array([2.0, 0.7, 1.3])
    (K,), _ = poisson.elem_galerkin(mesh, [1], problem)
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


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


_SCALES = [(1.0,), (2.0,), (1.0, 1.0), (1.0, 2.0)]   # one and two terms


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=_ROWS, ncomps=st.tuples(*[st.sampled_from([0, 3])] * 2),
       scales=st.sampled_from(_SCALES), nq=st.integers(1, 64),
       seed=st.integers(0, 2**16))
def test_sym_gram_upper_half_is_full_einsum_bitwise(n, ncomps, scales, nq,
                                                     seed):
    """Written into a strided block of a larger array, the upper triangle
    has the bits of full_A + c·full_B (or c·full_A for one term), the
    block is exactly symmetric, and nothing outside it is touched."""
    w = _operands(n, 0, nq, seed)[0]
    terms, expect = [], None
    for t, c in enumerate(scales):
        a = _operands(n, ncomps[t], nq, seed + t)[1]
        full = c * np.einsum(_SPEC[ncomps[t]], w, a, a)
        terms.append((c, a))
        expect = full if expect is None else expect + full
    big = np.random.default_rng(seed).standard_normal((n + 3, 2 * n + 5))
    before = big.copy()
    inside = np.zeros(big.shape, dtype=bool)
    inside[1:n + 1, 2:2 * n + 2:2] = True
    G = big[1:n + 1, 2:2 * n + 2:2]
    poisson._sym_gram(w, terms, G)
    assert np.array_equal(_bits(G), _bits(G.T))
    upper = np.triu_indices(n)
    assert np.array_equal(_bits(G[upper]), _bits(expect[upper]))
    assert np.array_equal(_bits(big[~inside]), _bits(before[~inside]))


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
    K, _ = poisson.elem_primal_dpg(mesh, [1], problem)
    assert np.array_equal(K[0], K[0].T)


def test_primal_condensation_matches_saddle_oracle():
    mesh, problem = make("primal", exact="smooth", order=2)
    stiff_all, G = poisson._primal_system(mesh, 1, problem)
    brute = stiff_all.T @ np.linalg.solve(G, stiff_all)
    K, b = poisson.elem_primal_dpg(mesh, [1], problem)
    n = K.shape[1]
    assert np.max(np.abs(np.column_stack([K[0], b[0]]) - brute[:n, :])) < 1e-10


def test_primal_requires_test_space_domination():
    mesh, problem = make("primal", order=2)
    problem.dp = 0
    with pytest.raises(ConfigError):
        poisson.elem_primal_dpg(mesh, [1], problem)


def test_primal_patch_single_element():
    mesh, problem = make("primal", exact="linear", order=1)
    poisson.solve_problem(mesh, problem)
    err, el2, _ = poisson.compute_exact_error(mesh, problem)
    assert err < 1e-10 and el2 < 1e-10
    assert poisson.elem_residual(mesh, [1], problem)[0] < 1e-12


def test_primal_patch_irregular_mesh():
    mesh, problem = make("primal", exact="linear", grid=(2, 1, 1), order=2)
    refine_element(mesh, 1)
    close_mesh(mesh)
    cf.update_gdof(mesh)
    poisson.solve_problem(mesh, problem)
    err, _, _ = poisson.compute_exact_error(mesh, problem)
    assert err < 1e-9
    for mdle in mesh.ELEM_ORDER:
        assert poisson.elem_residual(mesh, [mdle], problem)[0] < 1e-12


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


def test_uw_gram_blocks_are_the_full_einsums_bitwise():
    """On a jittered element, the G that `_uw_system` writes by row blocks
    holds the bits of the full-size einsum formulas: the upper triangles
    of the H1 block A + B and the H(div) block A + 2.0·B, mirrored, and
    the cross block with its transpose below the diagonal."""
    rng = np.random.default_rng(7)
    for p in (1, 2, 3):
        problem = poisson.make_problem("uw", exact="smooth")
        geo = grid_geometry(1, 1, 1, lengths=(1.4, 0.8, 1.1))
        geo.points += rng.uniform(-0.05, 0.05, geo.points.shape)
        mesh = poisson.make_mesh(problem, geo, p)
        _, G = poisson._uw_system(mesh, 1, problem)
        _, norder_enr, pts, geom, wj, vval, vgrad, _ = poisson._dpg_frame(
            mesh, 1, problem)
        tau, tdiv = gm.piola_transform(
            me.HDIV, me.shape_functions_elem(me.HDIV, pts, norder_enr), geom)
        nv = len(vval)
        h1 = (np.einsum("q,kq,lq->kl", wj, vval, vval)
              + np.einsum("q,kiq,liq->kl", wj, vgrad, vgrad))
        hdiv = (np.einsum("q,kq,lq->kl", wj, tdiv, tdiv)
                + 2.0 * np.einsum("q,kiq,liq->kl", wj, tau, tau))
        cross = np.einsum("q,kiq,liq->kl", wj, vgrad, tau)
        for block, full in ((G[:nv, :nv], h1), (G[nv:, nv:], hdiv)):
            upper = np.triu_indices(len(full))
            assert np.array_equal(_bits(block[upper]), _bits(full[upper]))
            assert np.array_equal(_bits(block), _bits(block.T))
        assert np.array_equal(_bits(G[:nv, nv:]), _bits(cross))
        assert np.array_equal(_bits(G[nv:, :nv]), _bits(cross.T))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_uw_build_and_condense_peak_memory():
    """At UW p=3 the in-place build peaks at 2.0 times the bytes it
    returns ([B | Bhat | l] and G), against 3.4 for full-size Gram sums
    and an extra master H(div) table; condensation peaks at the bytes of
    its inputs (the factor and B̃), against 1.2 with a full-size mirror."""
    mesh, problem = make("uw", exact="smooth", order=3)
    poisson._uw_system(mesh, 1, problem)        # warm the table caches
    (stiff_all, G), build = _traced_peak(poisson._uw_system, mesh, 1, problem)
    inputs = stiff_all.nbytes + G.nbytes
    _, condense = _traced_peak(dpg.condense_dpg, stiff_all, G)
    assert build <= 2.6 * inputs
    assert condense <= 1.1 * inputs


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
    assert poisson.elem_residual(mesh, [1], problem)[0] < 1e-12


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
        system, _ = asm.assemble_system(mesh, problem.elems)
        scale = np.abs(system.matrix.data).max(initial=0.0)
        assert system.symmetry_error() <= 1e-12 * scale

    check()


def test_uw_condensed_blocks_symmetric():
    mesh, problem = make("uw", order=1)
    K, _ = poisson.elem_uw_dpg(mesh, [1], problem)
    assert np.array_equal(K[0], K[0].T)


# ---------------------------------------------------------------------------
# residual estimator


def test_residual_unsupported_for_galerkin():
    mesh, problem = make("galerkin", order=1)
    with pytest.raises(ConfigError):
        poisson.elem_residual(mesh, [1], problem)


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
# element systems kept from the solve for the estimate


def _solved(kind, grid=(3, 1, 1), order=2):
    mesh, problem = make(kind, exact="smooth", grid=grid, order=order)
    poisson.solve_problem(mesh, problem)
    kept = dict(mesh._dpg_systems[2])
    assert mesh.ELEM_ORDER[-1] in kept and set(kept) <= set(mesh.ELEM_ORDER)
    return mesh, problem, kept


@pytest.mark.parametrize("kind", ["uw", "primal"])
def test_kept_systems_give_the_indicators_of_a_rebuild(kind):
    mesh, problem, kept = _solved(kind)
    vals, _ = poisson.residual_summary(mesh, problem)
    with poisson._one_blas_thread():    # the estimate's BLAS, rebuilt
        fresh = np.array([poisson.elem_residual(mesh, [mdle], problem)[0]
                          for mdle in mesh.ELEM_ORDER])
    if kind == "uw":
        assert np.array_equal(vals, fresh)
    else:   # the solve built G on default BLAS threads
        assert np.allclose(vals, fresh, rtol=1e-13, atol=0.0)


def test_kept_systems_are_read_only_and_emptied_by_the_summary():
    mesh, problem, kept = _solved("uw")
    for stiff_all, G in kept.values():
        assert not stiff_all.flags.writeable and not G.flags.writeable
        with pytest.raises(ValueError):
            G[0, 0] = 0.0
    poisson.residual_summary(mesh, problem)
    assert mesh._dpg_systems == (None, None, {})


def test_kept_batch_is_the_one_with_the_last_element():
    """The middle element's own order group is built last; the batch
    kept is still the one holding the last element in natural order."""
    mesh, problem = make("uw", exact="smooth", grid=(3, 1, 1), order=1)
    first, middle, last = mesh.ELEM_ORDER
    execute_pref(mesh, [middle])
    batches = [m for _, m in asm.element_batches(mesh, lambda norder: 1)]
    assert middle in batches[-1] and last not in batches[-1]
    poisson.solve_problem(mesh, problem)
    assert last in mesh._dpg_systems[2] and middle not in mesh._dpg_systems[2]


def test_kept_systems_are_popped_once():
    mesh, problem, kept = _solved("uw")
    mdle = next(iter(kept))
    assert poisson._kept_system(mesh, mdle, problem) is kept[mdle]
    assert poisson._kept_system(mesh, mdle, problem) is None


def test_kept_systems_need_the_same_revision_problem_and_dp():
    mesh, problem, kept = _solved("uw")
    mdle = next(iter(kept))

    def unused(other=problem):
        assert poisson._kept_system(mesh, mdle, other) is None
        assert mdle in mesh._dpg_systems[2]     # a miss pops nothing

    unused(poisson.make_problem("uw", exact="smooth"))
    unused(poisson.Problem(**vars(problem)))    # equal fields, other object
    problem.dp = 2
    unused()
    problem.dp = 1
    assert poisson._kept_system(mesh, mdle, problem) is kept[mdle]


def test_kept_systems_unused_after_h_refinement():
    mesh, problem, kept = _solved("uw")
    refine_element(mesh, mesh.ELEM_ORDER[0])
    close_mesh(mesh)
    cf.update_gdof(mesh)
    for mdle in kept:
        assert poisson._kept_system(mesh, mdle, problem) is None


def test_kept_systems_unused_after_p_refinement():
    mesh, problem, kept = _solved("uw")
    execute_pref(mesh, list(kept))
    for mdle in kept:
        assert poisson._kept_system(mesh, mdle, problem) is None


def test_threaded_solve_keeps_one_batch(monkeypatch):
    """Four element threads, switching often: the slot holds exactly the
    batch with the last element, the store holds every active element
    with its fresh bits, and the threaded estimate has the serial bits."""
    batches, elems = [], poisson.Problem.elems

    def spy(self, mesh, mdles):
        batches.append(set(mdles))
        return elems(self, mesh, mdles)

    monkeypatch.setattr(poisson.Problem, "elems", spy)
    mesh, problem = make("uw", exact="smooth", grid=(4, 2, 1), order=2)
    refine_element(mesh, 1)
    close_mesh(mesh)
    cf.update_gdof(mesh)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        poisson.solve_problem(mesh, problem, workers=4)
        kept = set(mesh._dpg_systems[2])
        threaded, _ = poisson.residual_summary(mesh, problem, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert len(batches) > 4 and kept in batches
    assert mesh.ELEM_ORDER[-1] in kept
    serial, _ = poisson.residual_summary(mesh, problem)
    assert np.array_equal(threaded, serial)
    store = mesh._dpg_store[2]
    assert set(store) == set(mesh.ELEM_ORDER)
    for mdle, entry in store.items():
        assert all(map(_same_bits, _unpacked(entry), _fresh(mesh, mdle, problem)))


def test_adaptive_history_independent_of_workers():
    """A 4x1x1 ultraweak Dörfler run gives the same history rows, and ends
    with the same stored condensed systems bit for bit, at `workers` 1
    and 2."""
    def run(workers):
        problem = poisson.make_problem("uw", exact="boundary_layer")
        mesh = poisson.make_mesh(problem, grid_geometry(4, 1, 1), 1)
        return mesh, adapt.adaptive_loop(
            mesh, problem, adapt.MarkingConfig(adapt.DOERFLER, 0.5),
            tol=0.0, max_steps=3, workers=workers)

    (mesh1, serial), (mesh2, threaded) = run(1), run(2)
    assert len(serial) == 3
    assert [r.as_csv() for r in threaded] == [r.as_csv() for r in serial]
    store1, store2 = mesh1._dpg_store[2], mesh2._dpg_store[2]
    assert set(store1) == set(store2) == set(mesh1.ELEM_ORDER)
    for mdle, (norder, upper, b) in store1.items():
        assert store2[mdle][0] == norder
        assert _same_bits(store2[mdle][1], upper)
        assert _same_bits(store2[mdle][2], b)


# ---------------------------------------------------------------------------
# condensed DPG systems stored across solves


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _fresh(mesh, mdle, problem):
    """An element's condensed (K, b) from a fresh build and condensation."""
    cond = dpg.condense_dpg(*poisson._SYSTEMS[problem.kind](mesh, mdle, problem))
    return cond[:-1, :-1], cond[:-1, -1]


def _unpacked(entry):
    """The full K and b of a store entry (K's upper triangle, row by row)."""
    _, upper, b = entry
    K = np.zeros((len(b), len(b)))
    i, j = np.triu_indices(len(b))
    K[i, j] = K[j, i] = upper
    return K, b


def _norder(mesh, mdle):
    return tuple(element_info(mesh, mdle)[0])


def _count_condensations(monkeypatch):
    """A list that grows by one per `condense_dpg` call: one per miss."""
    calls, condense = [], dpg.condense_dpg

    def counted(stiff_all, G):
        calls.append(len(G))
        return condense(stiff_all, G)

    monkeypatch.setattr(dpg, "condense_dpg", counted)
    return calls


def test_store_holds_and_serves_fresh_bits_property(monkeypatch):
    """Short h and p sequences with a solve after each operation, ultraweak
    and primal: after each solve the store holds exactly the active
    elements, each entry under the element's order vector and with its
    freshly built and condensed (K, b) bit for bit; every (K, b) the DPG
    builders hand out has those bits too, so no inactive or re-ordered
    element is ever served; and every node's dofs equal, bit for bit,
    those of a twin run whose store is emptied before every solve."""
    served, batch = [], poisson._dpg_batch

    def spy(system, mesh, mdles, problem):
        K, b = batch(system, mesh, mdles, problem)
        served.append((mesh, list(mdles), K.copy(), b.copy()))
        return K, b

    monkeypatch.setattr(poisson, "_dpg_batch", spy)

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(kind=st.sampled_from((poisson.PRIMAL, poisson.UW)),
           nx=st.integers(1, 2), ops=hp_ops(3))
    # a neighbour's p-refinement raises the face element 1 shares with it
    @example(kind=poisson.UW, nx=2, ops=[("p", 0), ("p", 1)])
    @example(kind=poisson.PRIMAL, nx=2, ops=[("h", 0), ("p", 1), ("h", 2)])
    def check(kind, nx, ops):
        if kind == poisson.UW:          # ~20 ms per element build at p=1
            ops = ops[:2]
            if any(op == "h" for op, _ in ops):
                nx, ops = 1, ops[:1]
        problem = poisson.make_problem(kind, exact="smooth")
        mesh, twin = (poisson.make_mesh(problem, grid_geometry(nx, 1, 1), 1)
                      for _ in range(2))
        fresh = {}                      # (mdle, order vector): fixed geometry
        for step in range(len(ops) + 1):
            for m in (mesh, twin):
                apply_hp_ops(m, ops[step - 1:step] if step else [])
            served.clear()
            poisson.solve_problem(mesh, problem)
            for m, mdles, K, b in served:
                assert m is mesh and set(mdles) <= set(mesh.ELEM_ORDER)
                for e, mdle in enumerate(mdles):
                    key = (mdle, _norder(mesh, mdle))
                    if key not in fresh:
                        fresh[key] = _fresh(mesh, mdle, problem)
                    assert _same_bits(K[e], fresh[key][0])
                    assert _same_bits(b[e], fresh[key][1])
            store = mesh._dpg_store[2]
            assert set(store) == set(mesh.ELEM_ORDER)
            for mdle, entry in store.items():
                assert entry[0] == _norder(mesh, mdle)
                K, b = _unpacked(entry)
                assert _same_bits(K, fresh[mdle, entry[0]][0])
                assert _same_bits(b, fresh[mdle, entry[0]][1])
            twin._dpg_store = (None, None, {})
            poisson.solve_problem(twin, problem)
            for node, other in zip(mesh.NODES[1:], twin.NODES[1:]):
                assert (node.dofs or {}).keys() == (other.dofs or {}).keys()
                for attr, dofs in (node.dofs or {}).items():
                    assert _same_bits(dofs, other.dofs[attr])

    check()


def test_store_misses_for_another_problem_or_dp(monkeypatch):
    """The same problem object at the same dp builds nothing again; a
    different problem object, an equal-field copy of it, and dp changed
    and then restored each build every element."""
    mesh, problem = make("uw", exact="smooth", grid=(2, 1, 1))
    condensed = _count_condensations(monkeypatch)

    def builds(other):
        condensed.clear()
        poisson.solve_problem(mesh, other)
        return len(condensed)

    assert builds(problem) == 2 and builds(problem) == 0
    assert builds(poisson.make_problem("uw", exact="smooth")) == 2
    assert builds(problem) == 2
    copy = poisson.Problem(**vars(problem))
    assert copy == problem and builds(copy) == 2
    assert builds(problem) == 2
    problem.dp = 2
    assert builds(problem) == 2
    problem.dp = 1
    assert builds(problem) == 2 and builds(problem) == 0


@pytest.mark.parametrize("before, after", [((3, 2), (3, 3)), ((3, 3), (3, 2))])
def test_store_misses_when_a_neighbour_moves_a_shared_order(
        monkeypatch, before, after):
    """A neighbour's p-refinement that raises or lowers the face (and its
    edges) shared with element 1 changes element 1's order vector but not
    its middle order: element 1 is built again, not served."""
    mesh, problem = make("primal", exact="smooth", grid=(2, 1, 1))
    first, second = mesh.ELEM_ORDER
    adaptive_pref(mesh, [(m, (p,) * 3) for m, p in zip(mesh.ELEM_ORDER, before)])
    poisson.solve_problem(mesh, problem)
    middle, norder = mesh.NODES[first].order, _norder(mesh, first)
    condensed = _count_condensations(monkeypatch)
    adaptive_pref(mesh, [(second, (after[1],) * 3)])
    assert mesh.NODES[first].order == middle
    assert _norder(mesh, first) != norder
    poisson.solve_problem(mesh, problem)
    assert len(condensed) == 2
    assert mesh._dpg_store[2][first][0] == _norder(mesh, first)


def test_store_drops_elements_deactivated_by_refinement():
    mesh, problem = make("primal", exact="smooth", grid=(3, 1, 1))
    poisson.solve_problem(mesh, problem)
    assert set(mesh._dpg_store[2]) == set(mesh.ELEM_ORDER)
    old = list(mesh.ELEM_ORDER)
    refine_element(mesh, old[0])
    close_mesh(mesh)
    gone = [mdle for mdle in old if not mesh.NODES[mdle].active]
    assert gone and set(gone) <= set(mesh._dpg_store[2])  # until a solve
    poisson.solve_problem(mesh, problem)
    assert set(mesh._dpg_store[2]) == set(mesh.ELEM_ORDER)
    assert not set(gone) & set(mesh._dpg_store[2])


def test_kept_batch_holds_only_the_elements_the_solve_built(monkeypatch):
    """A second solve of an unchanged mesh condenses nothing and keeps
    nothing: every element is read from the store, and the estimate
    rebuilds it with the first estimate's bits.  After an h-refinement of
    the last element the kept batch holds exactly its new sons."""
    mesh, problem = make("uw", exact="smooth", grid=(2, 1, 1))
    poisson.solve_problem(mesh, problem)
    assert set(mesh._dpg_systems[2]) == set(mesh.ELEM_ORDER)
    first, _ = poisson.residual_summary(mesh, problem)
    condensed = _count_condensations(monkeypatch)
    poisson.solve_problem(mesh, problem)
    assert condensed == []
    assert mesh._dpg_systems[2] == {}
    second, _ = poisson.residual_summary(mesh, problem)
    assert _same_bits(first, second)
    old = set(mesh.ELEM_ORDER)
    refine_element(mesh, mesh.ELEM_ORDER[-1])
    close_mesh(mesh)
    poisson.solve_problem(mesh, problem)
    sons = set(mesh.ELEM_ORDER) - old
    last = next(set(m) for _, m in asm.solve_batches(mesh)
                if mesh.ELEM_ORDER[-1] in m)
    assert sons and set(mesh._dpg_systems[2]) == sons & last


def test_stored_arrays_are_read_only():
    mesh, problem = make("uw", exact="smooth", grid=(2, 1, 1))
    poisson.solve_problem(mesh, problem)
    for _, upper, b in mesh._dpg_store[2].values():
        assert not upper.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            upper[0] = 0.0


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
