import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hphex import assembly as asm
from hphex import conformity as cf
from hphex import masterel as me
from hphex import poisson
from hphex.errors import ConfigError, IrregularityError, SolveError
from hphex.geometry import element_geometry, piola_transform
from hphex.mesh import (SONS, close_mesh, element_info, element_vertices,
                        generate_initial_mesh, refine_element)

from conftest import (apply_hp_ops, galerkin_physics, grid_geometry, hp_ops,
                      uw_physics)


def build(geo, physics, order=(2, 2, 2)):
    return generate_initial_mesh(geo, physics, order)


def h1v(p, t):
    return me.h1_basis_1d(p, np.asarray(t, dtype=float))[0]


# ---------------------------------------------------------------------------
# coefficient matrices


def test_edge_midpoint_lowest_order():
    M = cf.constraint_coefficients("H1", "edge-midpoint-vertex", 1)
    assert M.shape == (1, 2)
    assert np.allclose(M, [[0.5, 0.5]], atol=1e-14)


def test_edge_half_reproduces_parent_trace():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        coef = rng.standard_normal(p + 1)
        mid = cf.constraint_coefficients("H1", "edge-midpoint-vertex", p) @ coef
        for half in (0, 1):
            M = cf.constraint_coefficients("H1", f"edge-half-{half + 1}", p)
            assert M.shape == (p - 1, p + 1)
            bub = M @ coef
            s = rng.random(20)
            t = 0.5 * (s + half)
            g = coef @ h1v(p, t)
            ends = coef @ h1v(p, [0.5 * half, 0.5 * (half + 1)])
            child = ends[0] * (1 - s) + ends[1] * s
            child += bub @ h1v(p, s)[2:]
            assert np.max(np.abs(child - g)) < 1e-12
            # the half's inner endpoint is the midpoint-vertex value
            inner = ends[1] if half == 0 else ends[0]
            assert abs(inner - mid[0]) < 1e-13


def test_edge_half_higher_child_order():
    # son order may exceed the father's after p adaptivity
    coef = np.array([0.3, -0.7, 1.1])
    M = cf.constraint_coefficients("H1", "edge-half-1", 2, child_order=4)
    assert M.shape == (3, 3)
    s = np.linspace(0.05, 0.95, 9)
    g = coef @ h1v(2, 0.5 * s)
    ends = coef @ h1v(2, [0.0, 0.5])
    child = ends[0] * (1 - s) + ends[1] * s + (M @ coef) @ h1v(4, s)[2:]
    assert np.max(np.abs(child - g)) < 1e-12


def test_hdiv_quadrant_constant_flux():
    M = cf.constraint_coefficients("HDIV", "face-quadrant-1", (1, 1))
    assert M.shape == (1, 1)
    assert abs(M[0, 0] - 0.25) < 1e-14


def test_hdiv_quadrant_scales_parent_trace():
    rng = np.random.default_rng(11)
    p1, p2 = 2, 3
    coef = rng.standard_normal(p1 * p2)
    s = rng.random((20, 2))
    for q in range(4):
        h1_, h2_ = q & 1, q >> 1
        M = cf.constraint_coefficients("HDIV", f"face-quadrant-{q + 1}", (p1, p2))
        child_coef = M @ coef

        def ev(cv, n1, n2, t1, t2):
            P1, _ = me.legendre_shifted(n1, t1)
            P2, _ = me.legendre_shifted(n2, t2)
            out = np.zeros_like(t1)
            for j1 in range(n1):
                for j2 in range(n2):
                    out += cv[j1 * n2 + j2] * P1[j1] * P2[j2]
            return out

        child = ev(child_coef, p1, p2, s[:, 0], s[:, 1])
        parent = ev(coef, p1, p2, 0.5 * (s[:, 0] + h1_), 0.5 * (s[:, 1] + h2_))
        assert np.max(np.abs(child - 0.25 * parent)) < 1e-12


def _face_layout(p1, p2, qb, qt, ql, qr):
    """(k1, k2) tensor indices of a face's parent-group columns, written out
    by hand: 4 vertices, the bottom, top, left and right edge bubbles, then
    the face bubbles, n1 outer."""
    cols = [(0, 0), (1, 0), (0, 1), (1, 1)]
    cols += [(n, 0) for n in range(2, qb + 1)]
    cols += [(n, 1) for n in range(2, qt + 1)]
    cols += [(0, n) for n in range(2, ql + 1)]
    cols += [(1, n) for n in range(2, qr + 1)]
    cols += [(n1, n2) for n1 in range(2, p1 + 1) for n2 in range(2, p2 + 1)]
    return cols


def _eval_face(cols, coef, pp1, pp2, t1, t2):
    t1 = np.asarray(t1, dtype=float)
    B1 = h1v(pp1, t1)
    B2 = h1v(pp2, np.asarray(t2, dtype=float))
    out = np.zeros_like(t1)
    for c, (k1, k2) in zip(coef, cols):
        out += c * B1[k1] * B2[k2]
    return out


def test_h1_face_catalogue_reproduces_trace():
    """All face constraint cases jointly rebuild the father trace exactly."""
    rng = np.random.default_rng(23)
    for p1, p2 in ((2, 2), (3, 2)):
        cols = _face_layout(p1, p2, p1, p1, p2, p2)
        coef = rng.standard_normal(len(cols))
        order = (p1, p2)

        def edge_group(which):
            # [value a, value b, bubbles] along one father edge
            if which == "b":
                va, vb = _eval_face(cols, coef, p1, p2, [0.0, 1.0], [0.0, 0.0])
                bub = [c for c, (k1, k2) in zip(coef, cols) if k1 >= 2 and k2 == 0]
            elif which == "t":
                va, vb = _eval_face(cols, coef, p1, p2, [0.0, 1.0], [1.0, 1.0])
                bub = [c for c, (k1, k2) in zip(coef, cols) if k1 >= 2 and k2 == 1]
            elif which == "l":
                va, vb = _eval_face(cols, coef, p1, p2, [0.0, 0.0], [0.0, 1.0])
                bub = [c for c, (k1, k2) in zip(coef, cols) if k1 == 0 and k2 >= 2]
            else:
                va, vb = _eval_face(cols, coef, p1, p2, [1.0, 1.0], [0.0, 1.0])
                bub = [c for c, (k1, k2) in zip(coef, cols) if k1 == 1 and k2 >= 2]
            return np.concatenate([[va, vb], bub])

        s = rng.random((25, 2))
        s1, s2 = s[:, 0], s[:, 1]
        for q in range(4):
            h1_, h2_ = q & 1, q >> 1
            corners = _eval_face(
                cols, coef, p1, p2,
                [0.5 * h1_, 0.5 * (h1_ + 1), 0.5 * h1_, 0.5 * (h1_ + 1)],
                [0.5 * h2_, 0.5 * h2_, 0.5 * (h2_ + 1), 0.5 * (h2_ + 1)],
            )
            w = (corners[0] * (1 - s1) * (1 - s2) + corners[1] * s1 * (1 - s2)
                 + corners[2] * (1 - s1) * s2 + corners[3] * s1 * s2)

            # bottom / top child edges run along a1
            if h2_ == 0:
                cb = cf.constraint_coefficients(
                    "H1", f"edge-half-{h1_ + 1}", p1) @ edge_group("b")
                ct = cf.constraint_coefficients(
                    "H1", f"face-interior-edge-{h1_ + 1}", order) @ coef
            else:
                cb = cf.constraint_coefficients(
                    "H1", f"face-interior-edge-{h1_ + 1}", order) @ coef
                ct = cf.constraint_coefficients(
                    "H1", f"edge-half-{h1_ + 1}", p1) @ edge_group("t")
            B1 = h1v(p1, s1)
            w += (cb @ B1[2:]) * (1 - s2) + (ct @ B1[2:]) * s2

            # left / right child edges run along a2
            if h1_ == 0:
                cl = cf.constraint_coefficients(
                    "H1", f"edge-half-{h2_ + 1}", p2) @ edge_group("l")
                cr = cf.constraint_coefficients(
                    "H1", f"face-interior-edge-{h2_ + 3}", order) @ coef
            else:
                cl = cf.constraint_coefficients(
                    "H1", f"face-interior-edge-{h2_ + 3}", order) @ coef
                cr = cf.constraint_coefficients(
                    "H1", f"edge-half-{h2_ + 1}", p2) @ edge_group("r")
            B2 = h1v(p2, s2)
            w += (cl @ B2[2:]) * (1 - s1) + (cr @ B2[2:]) * s1

            fq = cf.constraint_coefficients(
                "H1", f"face-quadrant-{q + 1}", order) @ coef
            i = 0
            for m1 in range(2, p1 + 1):
                for m2 in range(2, p2 + 1):
                    w += fq[i] * B1[m1] * B2[m2]
                    i += 1

            g = _eval_face(cols, coef, p1, p2,
                           0.5 * (s1 + h1_), 0.5 * (s2 + h2_))
            assert np.max(np.abs(w - g)) < 1e-12

        ctr = cf.constraint_coefficients("H1", "face-center-vertex", order) @ coef
        assert abs(ctr[0] - _eval_face(cols, coef, p1, p2, [0.5], [0.5])[0]) < 1e-13


def test_constraint_cache_reuse_and_bad_case():
    A = cf.constraint_coefficients("H1", "edge-half-1", 3)
    B = cf.constraint_coefficients("H1", "edge-half-1", 3)
    assert A is B or np.array_equal(A, B)
    with pytest.raises(ConfigError):
        cf.constraint_coefficients("H1", "face-octant-1", (2, 2))
    with pytest.raises(ConfigError):
        cf.constraint_coefficients("HCURL", "edge-half-1", 2)


def test_cached_tables_are_read_only_and_bitwise_reproducible():
    cached = ((cf._h1_restriction, (3, 2, 1)),
              (cf._legendre_restriction, (3, 2, 0)),
              (cf._h1_values_at_half, (3,)))
    edge = cf.constraint_coefficients("H1", "edge-half-1", 3)
    tables = [f(*args) for f, args in cached] + [edge]
    for t in tables:
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[...] = 0.0
    for f, _ in cached:
        f.cache_clear()
    fresh = [f(*args) for f, args in cached]
    fresh.append(cf.constraint_coefficients("H1", "edge-half-1", 3))
    for old, new in zip(tables, fresh):
        assert new is not old and new.tobytes() == old.tobytes()


@pytest.mark.parametrize("space, case, parent, child", [
    ("HDIV", "face-quadrant-5", (2, 2), None),      # parent outside the face
    ("HDIV", "face-octant-1", (2, 2), None),        # no such case
    ("H1", "face-quadrant-1", (3, 3), (2, 3)),      # child below parent
    ("HDIV", "face-quadrant-1", (3, 3), (2, 3)),
    ("H1", "face-interior-edge-1", (3, 3), 2),
    ("HDIV", "face-quadrant-1", 3, None),           # an HDIV face takes (p1, p2)
    ("HDIV", "face-quadrant-1", (2, 2, 2), None),
    ("H1", "edge-half-1", (2, 3), None),            # an edge takes one order
])
def test_malformed_face_cases_raise(space, case, parent, child):
    with pytest.raises(ConfigError):
        cf.constraint_coefficients(space, case, parent, child)


def _loop_coefficients(space, case, parent_order, child_order):
    """Edge and face matrices entry by entry: the reference for the outer
    products."""
    if space == "HDIV":
        son = cf._CASES["FACE"].index(case)
        p1, p2 = parent_order
        c1, c2 = child_order or parent_order
        L1 = cf._legendre_restriction(c1, p1, son & 1)
        L2 = cf._legendre_restriction(c2, p2, son >> 1)
        M = np.empty((c1 * c2, p1 * p2))
        for i1, i2, j1, j2 in np.ndindex(c1, c2, p1, p2):
            M[i1 * c2 + i2, j1 * p2 + j2] = 0.25 * L1[i1, j1] * L2[i2, j2]
        return M
    if case in cf._CASES["EDGE"]:
        orders = tuple(np.atleast_1d(parent_order))
        cols, pp = [(k,) for k in range(orders[0] + 1)], orders
    else:
        orders = (tuple(parent_order) if len(parent_order) == 6 else
                  (*parent_order, parent_order[0], parent_order[0],
                   parent_order[1], parent_order[1]))
        cols = _face_layout(*orders)
        pp = (max(orders[0], orders[2], orders[3]), max(orders[1], orders[4], orders[5]))
    factors = []
    for a, half in enumerate(cf._HALVES[case]):
        if half is None:
            factors.append([me.h1_basis_1d(pp[a], np.array([0.5]))[0][:, 0]])
            continue
        c = (orders[a] if child_order is None
             else child_order[a] if "quadrant" in case else child_order)
        E = cf._h1_restriction(c, pp[a], half)
        factors.append([E[m] for m in range(2, c + 1)])
    rows = list(itertools.product(*factors))
    M = np.empty((len(rows), len(cols)))
    for i, r in enumerate(rows):
        for j, k in enumerate(cols):
            M[i, j] = functools.reduce(operator.mul, (f[ka] for f, ka in zip(r, k)))
    return M


@pytest.mark.parametrize("parent, child", [
    ((1, 1), None), ((2, 3), None), ((3, 2), (4, 3)), ((3, 2, 2, 3, 1, 2), None)])
def test_face_coefficients_match_entrywise_loops(parent, child):
    """Every face case in both spaces, and the three edge cases in H1 on
    the parent's first order (the child's first order for the halves)."""
    for space in ("H1", "HDIV"):
        for case in cf._CASES["FACE"] + cf._CASES["EDGE"]:
            if space == "HDIV" and (len(parent) > 2 or "quadrant" not in case):
                continue
            po, co = parent, child
            if case in cf._CASES["EDGE"]:
                po, co = parent[0], None if child is None else child[0]
            if child is not None and "interior-edge" in case:
                co = child[0] if case[-1] in "12" else child[1]
            if child is not None and "vertex" in case:
                co = None
            M = cf.constraint_coefficients(space, case, po, co)
            assert M.flags.c_contiguous
            assert np.array_equal(M, _loop_coefficients(space, case, po, co))


def test_sons_sit_at_their_lattice_positions_property():
    """On random hp meshes over a jittered grid, the son at each SONS
    position of every refined edge and face has its vertices at the
    father's (bi)linear map of the son's lattice corners / 4, and the
    parent halves conformity reads for that son's case are the halves
    those corners span per father axis (None: on the midline)."""
    seen = set()

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(nx=st.integers(1, 2), ny=st.integers(1, 2), p=st.integers(1, 2),
           ops=hp_ops(4))
    def check(nx, ny, p, ops):
        geo = grid_geometry(nx, ny, 1)
        geo.points += 0.1 * np.random.default_rng(nx + 2 * ny).uniform(
            -1.0, 1.0, geo.points.shape)
        mesh = build(geo, galerkin_physics(), order=(p, p, p))
        apply_hp_ops(mesh, ops)
        for father in mesh.NODES[1:]:
            if father.kind not in ("EDGE", "FACE") or not father.sons:
                continue
            xf = mesh.vertex_coords(father.verts)
            for sid, centre, case in zip(father.sons, SONS[father.kind],
                                         cf._CASES[father.kind]):
                son = mesh.NODES[sid]
                corners = [np.array(centre)]
                for a in range(len(centre)):
                    if centre[a] % 2:
                        corners = [c + s * np.eye(len(centre), dtype=int)[a]
                                   for s in (-1, 1) for c in corners]
                t = np.array(corners) / 4.0
                k = t.shape[1]              # (bi)linear weight of father vertex j
                w = np.array([[np.prod([x[a] if j >> a & 1 else 1 - x[a]
                                        for a in range(k)]) for j in range(2 ** k)]
                              for x in t])
                xs = (son.coords[None] if son.kind == "VERTEX"
                      else mesh.vertex_coords(son.verts))
                assert np.allclose(xs, w @ xf, rtol=0.0, atol=1e-12)
                spans = {(0.0, 0.5): 0, (0.5, 1.0): 1, (0.5, 0.5): None}
                assert cf._HALVES[case] == tuple(
                    spans[(t[:, a].min(), t[:, a].max())] for a in range(k))
                seen.add((father.kind, son.kind))

    check()
    assert seen == {("EDGE", "EDGE"), ("EDGE", "VERTEX"), ("FACE", "FACE"),
                    ("FACE", "EDGE"), ("FACE", "VERTEX")}


# ---------------------------------------------------------------------------
# modified element


def test_conforming_element_gives_identity():
    physics = uw_physics(traces=True)
    mesh = build(grid_geometry(1, 1, 1), physics)
    mod = cf.modified_element(mesh, 1)
    C = cf.constraint_matrix(mesh, 1)
    n = C.shape[0]
    assert C.shape == (n, n)
    assert np.array_equal(C, np.eye(n))
    assert len(mod.dof_nodes) == n
    # traces own no interior dofs: every bubble dof belongs to u or sigma
    for i in np.flatnonzero(mod.bubble):
        nid, attr, comp, k = mod.dof_nodes[i]
        assert nid == 1
        assert attr in (2, 3)
    assert not mod.dirichlet.any()


def test_hanging_face_rows_lowest_order():
    mesh = build(grid_geometry(2, 1, 1, lengths=(2.0, 1.0, 1.0)),
                 galerkin_physics(), order=(1, 1, 1))
    refine_element(mesh, 1)
    son = mesh.NODES[1].sons[1]  # octant touching the shared face
    C = cf.constraint_matrix(mesh, son)
    nloc = C.shape[0]
    assert nloc == 8 and C.shape[1] < 2 * nloc
    sums = C.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    row_kinds = set()
    for i in range(nloc):
        nz = np.sort(C[i][np.abs(C[i]) > 0])
        row_kinds.add(tuple(np.round(nz, 12)))
    assert (0.5, 0.5) in row_kinds          # hanging edge midpoint
    assert (0.25, 0.25, 0.25, 0.25) in row_kinds  # hanging face center


def test_two_level_hanging_is_rejected():
    mesh = build(grid_geometry(2, 1, 1, lengths=(2.0, 1.0, 1.0)),
                 galerkin_physics(), order=(1, 1, 1))
    refine_element(mesh, 1)
    son = mesh.NODES[1].sons[1]
    refine_element(mesh, son)  # no closure: mesh is now 2-irregular
    with pytest.raises(IrregularityError):
        for mdle in mesh.ELEM_ORDER:
            cf.modified_element(mesh, mdle)


def test_dirichlet_values_flow_into_modified_element():
    mesh = build(grid_geometry(1, 1, 1), galerkin_physics())
    mesh.set_boundary_flag(0, 0, 0, 1)
    cf.update_Ddof(mesh, _linear_fn)
    mod = cf.modified_element(mesh, 1)
    for i in np.flatnonzero(mod.dirichlet):
        nid, attr, comp, k = mod.dof_nodes[i]
        node = mesh.NODES[nid]
        if node.kind == "VERTEX":
            assert abs(mod.dirichlet_values[i] - node.coords[0]) < 1e-13
        else:
            assert abs(mod.dirichlet_values[i]) < 1e-12
    # fully clamped cube at p=2: 8 verts + 12 edge bubbles + 6 face bubbles
    assert mod.dirichlet.sum() == 26


def test_constraint_matrix_and_constrained_systems_property(monkeypatch):
    """On random 1-irregular Galerkin and ultraweak meshes,
    `constraint_matrix` is the identity exactly on the elements that
    `modified_element` calls conforming (assembly takes C = I there without
    building it), and the local system each constrained element gets in
    `assemble_system` is C.T @ K @ C and C.T @ b bit for bit, with K and b
    the element routine's and C from `constraint_matrix`."""
    seen, elems, local = set(), {}, {}
    condense = asm._condense_group

    def recorded(K, b, mod, *rest):
        if not mod.conforming:
            local[int(mod.mdle[0])] = (K[0], b[0])
        return condense(K, b, mod, *rest)

    monkeypatch.setattr(asm, "_condense_group", recorded)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(uw=st.booleans(), nx=st.integers(1, 2), p=st.integers(1, 2),
           ops=hp_ops(4))
    def check(uw, nx, p, ops):
        problem = poisson.make_problem(poisson.UW if uw else poisson.GALERKIN,
                                       exact="smooth")
        if uw:                      # h only, at p=1: ~40 ms per element build
            p, ops = 1, [op for op in ops if op[0] == "h"][:2]
        mesh = poisson.make_mesh(problem, grid_geometry(nx, 1, 1), p)
        apply_hp_ops(mesh, ops)
        cf.update_Ddof(mesh, problem.dirichlet_fn())

        def elem_fn(mesh, mdles):
            K, b = problem.elems(mesh, mdles)
            elems.update((m, (K[e], b[e])) for e, m in enumerate(mdles))
            return K, b

        elems.clear()
        local.clear()
        asm.assemble_system(mesh, elem_fn)
        for mdle in mesh.ELEM_ORDER:
            C = cf.constraint_matrix(mesh, mdle)
            identity = _bits(C, np.eye(len(C)))
            assert identity == cf.modified_element(mesh, mdle).conforming
            assert identity == (mdle not in local)
            if not identity:
                K, b = elems[mdle]
                assert _bits(local[mdle][0], C.T @ K @ C)
                assert _bits(local[mdle][1], C.T @ b)
            seen.add((uw, identity))

    check()
    assert seen == {(uw, identity) for uw in (False, True)
                    for identity in (False, True)}


# ---------------------------------------------------------------------------
# gather


def _linear_fn(x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    grads = np.zeros((len(x), 3))
    grads[:, 0] = 1.0
    return x[:, 0].copy(), grads


def _quadratic_fn(x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    grads = np.zeros((len(x), 3))
    grads[:, 0] = 2.0 * x[:, 0]
    return x[:, 0] ** 2, grads


def test_gather_reproduces_linear_field_across_hanging_face():
    mesh = build(grid_geometry(2, 1, 1, lengths=(2.0, 1.0, 1.0)),
                 galerkin_physics(), order=(1, 1, 1))
    refine_element(mesh, 1)
    for nid in mesh.skeleton_in_use():
        node = mesh.NODES[nid]
        if node.kind == "VERTEX" and not mesh.hanging_nodes()[nid]:
            node.dofs = {0: np.array([[node.coords[0]]])}
    for mdle in mesh.ELEM_ORDER:
        local = cf.gather_solution(mesh, mdle, 0)
        _, xnod, _ = element_info(mesh, mdle)
        assert local.shape == (8, 1)
        assert np.max(np.abs(local[:, 0] - xnod[:, 0])) < 1e-12


def test_gather_resolves_constrained_nodes_whatever_they_store():
    """A constrained vertex takes its values from its parent edge or face,
    even when it holds stored rows of its own."""
    mesh = build(grid_geometry(2, 1, 1, lengths=(2.0, 1.0, 1.0)),
                 galerkin_physics(), order=(1, 1, 1))
    refine_element(mesh, 1)
    hanging = mesh.hanging_nodes()
    vertices = [n for n in mesh.skeleton_in_use() if mesh.NODES[n].kind == "VERTEX"]
    assert hanging[vertices].any()
    for nid in vertices:
        node = mesh.NODES[nid]
        node.dofs = {0: np.array([[1e3 if hanging[nid] else node.coords[0]]])}
    for mdle in mesh.ELEM_ORDER:
        _, xnod, _ = element_info(mesh, mdle)
        local = cf.gather_solution(mesh, mdle, 0)
        assert np.max(np.abs(local[:, 0] - xnod[:, 0])) < 1e-12


_CONSTRAINED_KINDS = {("H1", "VERTEX"), ("H1", "EDGE"), ("H1", "FACE"),
                      ("HDIV", "FACE")}


def test_gather_matches_modified_element_property():
    """On random 1-irregular hp meshes, gather_solution equals C times the
    modified dofs: both resolve each hanging node the same way."""
    seen = set()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(nx=st.integers(1, 2), ny=st.integers(1, 2), uw=st.booleans(),
           p=st.integers(1, 2), seed=st.integers(0, 2**16), ops=hp_ops(5))
    def check(nx, ny, uw, p, seed, ops):
        physics = uw_physics(traces=True) if uw else galerkin_physics()
        mesh = build(grid_geometry(nx, ny, 1), physics, order=(p, p, p))
        apply_hp_ops(mesh, ops)
        rng = np.random.default_rng(seed)
        for mdle in mesh.ELEM_ORDER:
            for attr, a in enumerate(physics.attrs):
                slots, _ = cf.scalar_slot_counts(mesh, mdle, a.fe_space,
                                                 a.is_trace)
                for nid, count in slots:
                    node = mesh.NODES[nid]
                    if count and mesh.hanging_nodes()[nid]:
                        seen.add((a.fe_space, node.kind))
                    elif count:
                        node.dofs = node.dofs or {}
                        node.dofs.setdefault(
                            attr, rng.standard_normal((count, a.ncomp)))
        for mdle in mesh.ELEM_ORDER:
            mod = cf.modified_element(mesh, mdle)
            v = np.array([mesh.NODES[nid].dofs[attr][k, c]
                          for nid, attr, c, k in mod.dof_nodes])
            expect = cf.constraint_matrix(mesh, mdle) @ v
            local = np.concatenate([
                cf.gather_solution(mesh, mdle, attr).reshape(-1)
                for attr in range(len(physics.attrs))])
            assert np.max(np.abs(local - expect)) <= 1e-12 * np.max(np.abs(expect))

    check()
    assert seen >= _CONSTRAINED_KINDS


def _h1_value(mesh, mdle, x):
    """The first H1 field of an element at physical points inside its box,
    evaluated as c07 does."""
    norder, xnod, _ = element_info(mesh, mdle)
    lo, hi = xnod.min(axis=0), xnod.max(axis=0)
    xi = (x - lo) / (hi - lo)
    geom = element_geometry(xnod, xi)
    val, _ = piola_transform(me.H1, me.shape_functions_elem(me.H1, xi, norder), geom)
    return cf.gather_solution(mesh, mdle, 0)[:, 0] @ val


def test_h1_continuous_across_hanging_faces_property():
    """On random 1-irregular Galerkin hp meshes with random free dofs, the
    H1 field is continuous across every hanging face, by c07's jump measure
    (the largest gap between the values from either side at points of the
    face), to 1e-9."""
    seen = set()

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(nx=st.integers(1, 2), ny=st.integers(1, 2), p=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16), ops=hp_ops(4))
    def check(nx, ny, p, seed, ops):
        mesh = build(grid_geometry(nx, ny, 1), galerkin_physics(), order=(p, p, p))
        apply_hp_ops(mesh, ops)
        rng = np.random.default_rng(seed)
        for mdle in mesh.ELEM_ORDER:
            slots, _ = cf.scalar_slot_counts(mesh, mdle, me.H1)
            for nid, count in slots:
                node = mesh.NODES[nid]
                if count and not mesh.hanging_nodes()[nid]:
                    node.dofs = node.dofs or {}
                    node.dofs.setdefault(0, rng.standard_normal((count, 1)))
        boxes = {m: (xnod.min(axis=0), xnod.max(axis=0)) for m, xnod
                 in zip(mesh.ELEM_ORDER, element_vertices(mesh, mesh.ELEM_ORDER))}
        hanging = mesh.hanging_nodes()
        for m in mesh.ELEM_ORDER:
            lo, hi = boxes[m]
            for f, fid in enumerate(mesh.NODES[m].elem_nodes[20:26]):
                if not hanging[fid]:
                    continue
                xi = rng.uniform(0.05, 0.95, (6, 3))
                xi[:, me.FACE_NORMAL_AXIS[f]] = me.FACE_SIDE[f]
                x = lo + xi * (hi - lo)
                other = [n for n, (a, b) in boxes.items() if n != m
                         and (a - 1e-12 <= x).all() and (x <= b + 1e-12).all()]
                assert len(other) == 1
                jump = np.abs(_h1_value(mesh, m, x) - _h1_value(mesh, other[0], x))
                assert jump.max() < 1e-9
                coarse = mesh.NODES[other[0]].order
                seen.add("same order" if coarse == mesh.NODES[m].order else "mixed")

    check()
    assert seen == {"same order", "mixed"}


def _is_hanging(mesh, nid):
    """The definition: the node's father is an edge or face in use."""
    father = mesh.NODES[mesh.NODES[nid].father] if mesh.NODES[nid].father else None
    return (father is not None and father.kind in ("EDGE", "FACE")
            and father.id in mesh.skeleton_in_use())


def _check_hanging_table(mesh):
    table = mesh.hanging_nodes()
    assert table.shape == (len(mesh.NODES),) and not table.flags.writeable
    assert table.tolist() == [False] + [_is_hanging(mesh, n)
                                        for n in range(1, len(mesh.NODES))]
    assert mesh.hanging_nodes() is table        # cached while the revision stands
    return table


def test_hanging_table_matches_definition_property():
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(nx=st.integers(1, 2), ny=st.integers(1, 2), ops=hp_ops(6))
    def check(nx, ny, ops):
        mesh = build(grid_geometry(nx, ny, 1), galerkin_physics(), order=(1, 1, 1))
        apply_hp_ops(mesh, ops)
        _check_hanging_table(mesh)

    check()


def test_hanging_table_rebuilt_after_refine_and_close():
    mesh = build(grid_geometry(2, 1, 1), galerkin_physics(), order=(1, 1, 1))
    assert not _check_hanging_table(mesh).any()
    refine_element(mesh, 1)
    refined = _check_hanging_table(mesh)
    assert refined.any()            # the sons of the face shared with element 2
    # a son on the shared face: refining it makes the mesh 2-irregular, so
    # closing refines element 2 and the face's sons hang no more
    sons = mesh.NODES[1].sons
    xmax = element_vertices(mesh, sons)[..., 0].max(axis=1)
    refine_element(mesh, sons[int(np.argmax(xmax))])
    before_close = _check_hanging_table(mesh)
    close_mesh(mesh)
    closed = _check_hanging_table(mesh)
    assert (before_close & ~closed[:len(before_close)]).any()
    assert 2 not in mesh.ELEM_ORDER


def test_gather_before_solve_raises():
    mesh = build(grid_geometry(1, 1, 1), galerkin_physics())
    with pytest.raises(SolveError):
        cf.gather_solution(mesh, 1, 0)
    # a son whose hanging vertex reads a parent vertex the son does not hold
    mesh = build(grid_geometry(2, 1, 1, lengths=(2.0, 1.0, 1.0)),
                 galerkin_physics(), order=(1, 1, 1))
    refine_element(mesh, 1)
    hanging = mesh.hanging_nodes()
    for nid in mesh.skeleton_in_use():
        if mesh.NODES[nid].kind == "VERTEX" and not hanging[nid]:
            mesh.NODES[nid].dofs = {0: np.zeros((1, 1))}
    mdle, g = next((m, g) for m in mesh.ELEM_ORDER
                   for h in mesh.element(m).elem_nodes if hanging[h]
                   for g, _ in cf._parent_group(mesh, "H1", h)[0]
                   if g not in mesh.element(m).elem_nodes)
    cf.gather_solution(mesh, mdle, 0)
    mesh.NODES[g].dofs = None
    with pytest.raises(SolveError, match=f"node {g} "):
        cf.gather_solution(mesh, mdle, 0)


# ---------------------------------------------------------------------------
# Dirichlet data


def test_ddof_linear_data_lands_on_vertices():
    mesh = build(grid_geometry(2, 2, 2), galerkin_physics())
    mesh.set_boundary_flag(0, 0, 0, 1)
    cf.update_Ddof(mesh, _linear_fn)
    for node in mesh.NODES[1:]:
        if not node.bcond or node.dofs is None:
            continue
        dofs = node.dofs.get(0)
        if dofs is None or dofs.size == 0:
            continue
        if node.kind == "VERTEX":
            assert abs(dofs[0, 0] - node.coords[0]) < 1e-13
        else:
            assert np.max(np.abs(dofs)) < 1e-12


def test_ddof_quadratic_edge_projection_is_exact():
    mesh = build(grid_geometry(1, 1, 1), galerkin_physics())
    mesh.set_boundary_flag(0, 0, 0, 1)
    cf.update_Ddof(mesh, _quadratic_fn)
    checked = 0
    for node in mesh.NODES[1:]:
        if node.kind != "EDGE":
            continue
        xa = mesh.NODES[node.verts[0]].coords
        xb = mesh.NODES[node.verts[1]].coords
        if abs((xb - xa)[0]) < 0.5:  # only x-directed edges vary
            assert np.max(np.abs(node.dofs[0])) < 1e-12
            continue
        t = np.linspace(0.0, 1.0, 10)
        H = h1v(node.order, t)
        w = xa[0] ** 2 * H[0] + xb[0] ** 2 * H[1] + node.dofs[0][0, 0] * H[2]
        g = (xa[0] + t * (xb - xa)[0]) ** 2
        assert np.max(np.abs(w - g)) < 1e-12
        checked += 1
    assert checked == 4


def test_ddof_face_projection_reproduces_biquadratic():
    # u0 = x^2 y^2 puts a genuine bubble on z-faces
    def fn(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g = np.zeros((len(x), 3))
        g[:, 0] = 2.0 * x[:, 0] * x[:, 1] ** 2
        g[:, 1] = 2.0 * x[:, 0] ** 2 * x[:, 1]
        return x[:, 0] ** 2 * x[:, 1] ** 2, g

    mesh = build(grid_geometry(1, 1, 1), galerkin_physics(), order=(3, 3, 3))
    mesh.set_boundary_flag(0, 0, 0, 1)
    cf.update_Ddof(mesh, fn)
    # reconstruct on the z=0 face and compare pointwise
    fid = None
    for node in mesh.NODES[1:]:
        if node.kind == "FACE":
            if all(abs(mesh.NODES[v].coords[2]) < 1e-14 for v in node.verts):
                fid = node.id
    assert fid is not None
    face = mesh.NODES[fid]
    p1, p2 = me.decode_face_order(face.order)
    rng = np.random.default_rng(3)
    pts = rng.random((12, 2))
    B1 = h1v(p1, pts[:, 0])
    B2 = h1v(p2, pts[:, 1])
    w = np.zeros(12)
    for val, (k1, k2) in zip(
            [mesh.NODES[v].dofs[0][0, 0] for v in face.verts],
            [(0, 0), (1, 0), (0, 1), (1, 1)]):
        w += val * B1[k1] * B2[k2]
    for pos, kmap in ((0, lambda n: (n, 0)), (1, lambda n: (n, 1)),
                      (2, lambda n: (0, n)), (3, lambda n: (1, n))):
        en = mesh.NODES[face.edges[pos]]
        for n in range(2, en.order + 1):
            k1, k2 = kmap(n)
            w += en.dofs[0][n - 2, 0] * B1[k1] * B2[k2]
    i = 0
    for n1 in range(2, p1 + 1):
        for n2 in range(2, p2 + 1):
            w += face.dofs[0][i, 0] * B1[n1] * B2[n2]
            i += 1
    corners = mesh.vertex_coords(face.verts)
    x = np.einsum("cp,ci->pi", np.stack([
        (1 - pts[:, 0]) * (1 - pts[:, 1]), pts[:, 0] * (1 - pts[:, 1]),
        (1 - pts[:, 0]) * pts[:, 1], pts[:, 0] * pts[:, 1]]), corners)
    assert np.max(np.abs(w - fn(x)[0])) < 1e-10


def test_ddof_homogeneous_zeroes_without_data():
    physics = galerkin_physics()
    physics.attrs[0].homogeneous_dirichlet = True
    mesh = build(grid_geometry(1, 1, 1), physics)
    mesh.set_boundary_flag(0, 0, 0, 1)
    cf.update_Ddof(mesh)  # no function needed
    corner = mesh.NODES[1].elem_nodes[0]
    assert np.array_equal(mesh.NODES[corner].dofs[0], np.zeros((1, 1)))


def test_ddof_normal_trace_data_unsupported():
    mesh = build(grid_geometry(1, 1, 1), uw_physics())
    mesh.set_boundary_flag(0, 1, 0, 1)  # flux trace attribute
    with pytest.raises(ConfigError):
        cf.update_Ddof(mesh, _linear_fn)


def test_ddof_requires_function_for_inhomogeneous_data():
    mesh = build(grid_geometry(1, 1, 1), galerkin_physics())
    mesh.set_boundary_flag(0, 0, 0, 1)
    with pytest.raises(ConfigError):
        cf.update_Ddof(mesh)


def _bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_groups_of_one_match_whole_groups_property():
    """On random hp meshes with jittered vertices and mixed edge and face
    orders, projecting each masked node as its own group gives the
    Dirichlet DOFs of the grouped projection bit for bit, and a batch of
    one element gathers the bits of its whole batch, constrained
    elements included."""
    seen = set()

    def alone(project):
        return lambda mesh, group, *args: [project(mesh, [item], *args)
                                           for item in group]

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(nx=st.integers(1, 2), ny=st.integers(1, 2), p=st.integers(1, 3),
           ops=hp_ops(4), seed=st.integers(0, 2 ** 16))
    def check(nx, ny, p, ops, seed):
        problem = poisson.make_problem("galerkin", exact="boundary_layer")
        mesh = poisson.make_mesh(problem, grid_geometry(nx, ny, 1), p)
        apply_hp_ops(mesh, ops)
        rng = np.random.default_rng(seed)
        for node in mesh.NODES[1:]:
            if node.kind == "VERTEX":
                node.coords = node.coords + 0.02 * rng.uniform(-1, 1, 3)

        def project():
            for node in mesh.NODES[1:]:
                node.dofs = None
            cf.update_Ddof(mesh, problem.dirichlet_fn())
            return {n.id: n.dofs[0] for n in mesh.NODES[1:] if n.dofs}

        grouped = project()
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_project_vertices", "_project_edges",
                         "_project_faces"):
                mp.setattr(cf, name, alone(getattr(cf, name)))
            single = project()
        assert grouped.keys() == single.keys()
        assert all(_bits(grouped[nid], single[nid]) for nid in grouped)
        for nid in grouped:
            face = mesh.NODES[nid]
            if face.kind == "FACE" and {mesh.NODES[e].order for e in face.edges} \
                    != set(me.decode_face_order(face.order)):
                seen.add("mixed orders")

        poisson.solve_problem(mesh, problem)
        for _, mdles in asm.element_batches(mesh, lambda norder: 1):
            whole = cf.gather_solution(mesh, mdles, 0)
            for e, mdle in enumerate(mdles):
                assert _bits(cf.gather_solution(mesh, [mdle], 0)[0], whole[e])
                assert _bits(cf.gather_solution(mesh, mdle, 0), whole[e])
                if len(mdles) > 1 and not cf.modified_element(mesh, mdle).conforming:
                    seen.add("constrained")

    check()
    assert seen == {"mixed orders", "constrained"}


def _loop_face_dofs(mesh, group, dirichlet_fn, attr):
    """Face bubbles of one projection group with the lift written as two
    loops, the bilinear corners and then the bottom, top, left and right
    edge bubbles, each edge on bases of its own order: the reference for
    `_project_faces`' one loop over the group's columns."""
    face, comps = group[0]
    p1, p2 = me.decode_face_order(face.order)
    corners = np.array([mesh.vertex_coords(node.verts) for node, _ in group])
    t, w2 = me.gauss_quadrature_2d((p1 + 2, p2 + 2))
    t1, t2 = t[:, 0], t[:, 1]
    hats = ([(1 - t1) * (1 - t2), t1 * (1 - t2), (1 - t1) * t2, t1 * t2],
            [-(1 - t2), (1 - t2), -t2, t2], [-(1 - t1), -t1, (1 - t1), t1])
    x, dx1, dx2 = (np.einsum("cp,fci->fpi", np.stack(h), corners) for h in hats)
    _, grads = dirichlet_fn(x.reshape(-1, 3))
    g1, g2 = ((grads.reshape(x.shape) * dx).sum(-1) for dx in (dx1, dx2))
    col1, col2 = t1.tobytes(), t2.tobytes()
    H1b, dH1b, _, _ = me._axis_bases(p1, col1)
    H2b, dH2b, _, _ = me._axis_bases(p2, col2)
    cvals = dirichlet_fn(corners.reshape(-1, 3))[0].reshape(-1, 4, 1)
    l1, l2 = np.zeros_like(g1), np.zeros_like(g2)
    for c, (k1, k2) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        l1 += cvals[:, c] * dH1b[k1] * H2b[k2]
        l2 += cvals[:, c] * H1b[k1] * dH2b[k2]
    K, A1, A2 = cf._face_gram(p1, p2)
    out = {}
    for comp in comps:
        lift1, lift2 = l1.copy(), l2.copy()
        for pos in range(4):
            pe = cf._lift_order(mesh, face, pos, attr)
            if pe < 2:
                continue
            edofs = np.array([mesh.NODES[node.edges[pos]].dofs[attr][:, comp]
                              for node, _ in group])
            Hb1, dHb1, _, _ = me._axis_bases(max(p1, pe), col1)
            Hb2, dHb2, _, _ = me._axis_bases(max(p2, pe), col2)
            for n in range(2, pe + 1):
                k1, k2 = (n, pos) if pos < 2 else (pos - 2, n)
                lift1 += edofs[:, n - 2, None] * dHb1[k1] * Hb2[k2]
                lift2 += edofs[:, n - 2, None] * Hb1[k1] * dHb2[k2]
        r1, r2 = (g1 - lift1)[:, None], (g2 - lift2)[:, None]
        rhs = (w2 * (r1 * A1 + r2 * A2)).sum(-1)
        sol = np.linalg.solve(K, rhs[..., None])[..., 0]
        out.update(((node.id, comp), s) for (node, _), s in zip(group, sol))
    return out


def test_face_lift_matches_corner_and_edge_loops_property():
    """On random hp meshes over a jittered grid, with mixed face and edge
    orders, every face group's Dirichlet bubbles equal, bit for bit, those
    of the lift written as a corner loop and a per-edge loop."""
    seen = set()
    project = cf._project_faces

    def checked(mesh, group, dirichlet_fn, attr, nc):
        project(mesh, group, dirichlet_fn, attr, nc)
        face = group[0][0]
        if cf._node_count("H1", "FACE", face.order) == 0:
            return
        for (nid, comp), sol in _loop_face_dofs(mesh, group, dirichlet_fn, attr).items():
            assert mesh.NODES[nid].dofs[attr][:, comp].tobytes() == sol.tobytes()
        lift = {cf._lift_order(mesh, face, pos, attr) for pos in range(4)}
        seen.add("mixed lift orders" if len(lift) > 1 else "one lift order")
        if lift - set(me.decode_face_order(face.order)):
            seen.add("lift order off the face's")

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(nx=st.integers(1, 2), ny=st.integers(1, 2), p=st.integers(1, 3),
           ops=hp_ops(4), seed=st.integers(0, 2 ** 16))
    def check(nx, ny, p, ops, seed):
        problem = poisson.make_problem("galerkin", exact="boundary_layer")
        mesh = poisson.make_mesh(problem, grid_geometry(nx, ny, 1), p)
        apply_hp_ops(mesh, ops)
        rng = np.random.default_rng(seed)
        for node in mesh.NODES[1:]:
            if node.kind == "VERTEX":
                node.coords = node.coords + 0.02 * rng.uniform(-1, 1, 3)
        cf.update_Ddof(mesh, problem.dirichlet_fn())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cf, "_project_faces", checked)
        check()
    assert seen == {"mixed lift orders", "one lift order",
                    "lift order off the face's"}


def test_flagged_walk_matches_the_node_scan():
    """update_Ddof walks the in-use skeleton by id: on a refined hp mesh it
    finds the nodes of a scan over every node, in the same order, and
    projects the same Dirichlet bits."""
    problem = poisson.make_problem("uw", exact="boundary_layer")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 1), 1)
    apply_hp_ops(mesh, [("h", 0), ("p", 3), ("h", 5), ("p", 1), ("h", 9)])

    class Reversed(set):    # small int sets iterate by id: make this one not
        def __iter__(self):
            return iter(sorted(set.__iter__(self), reverse=True))

    used = Reversed(mesh.skeleton_in_use())
    mesh.skeleton_in_use = lambda: used

    def scan(mesh):
        return [n for n in mesh.NODES[1:]
                if n.kind != "MIDDLE" and n.bcond and n.id in used]

    assert [n.id for n in cf._flagged_nodes(mesh)] == [n.id for n in scan(mesh)]
    # refined boundary faces keep their bits but leave the skeleton
    assert any(n.bcond and n.kind == "FACE" and n.id not in used
               for n in mesh.NODES[1:])

    def project():
        for node in mesh.NODES[1:]:
            node.dofs = None
        cf.update_Ddof(mesh, problem.dirichlet_fn())
        return {n.id: n.dofs[0] for n in mesh.NODES[1:] if n.dofs}

    walked = project()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cf, "_flagged_nodes", scan)
        scanned = project()
    assert walked.keys() == scanned.keys() and walked
    assert all(_bits(walked[nid], scanned[nid]) for nid in walked)


# ---------------------------------------------------------------------------
# geometry dofs


def test_update_gdof_restores_derived_vertices():
    """A moved centre vertex is put back, and on random hp meshes over a
    jittered grid the refiner already places every vertex where
    update_gdof would: one call afterwards changes no coordinate byte,
    so the library need not call it."""
    mesh = build(grid_geometry(1, 1, 1, lengths=(2.0, 1.0, 1.0)),
                 galerkin_physics())
    refine_element(mesh, 1)
    center = mesh.NODES[1].interior[-1]
    assert np.allclose(mesh.NODES[center].coords, [1.0, 0.5, 0.5])
    mesh.NODES[center].coords = np.array([9.0, 9.0, 9.0])
    cf.update_gdof(mesh)
    assert np.allclose(mesh.NODES[center].coords, [1.0, 0.5, 0.5], atol=1e-14)
    before = {n.id: n.coords.copy() for n in mesh.NODES[1:]
              if n.kind == "VERTEX"}
    cf.update_gdof(mesh)
    for nid, xyz in before.items():
        assert np.array_equal(mesh.NODES[nid].coords, xyz)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(nx=st.integers(1, 2), ny=st.integers(1, 2), p=st.integers(1, 2),
           ops=hp_ops(4))
    def check(nx, ny, p, ops):
        geo = grid_geometry(nx, ny, 1)
        geo.points += 0.1 * np.random.default_rng(nx + 2 * ny).uniform(
            -1.0, 1.0, geo.points.shape)
        mesh = build(geo, galerkin_physics(), order=(p, p, p))
        apply_hp_ops(mesh, ops)
        before = {n.id: n.coords.tobytes() for n in mesh.NODES[1:]
                  if n.kind == "VERTEX"}
        cf.update_gdof(mesh)
        assert before == {nid: mesh.NODES[nid].coords.tobytes()
                          for nid in before}

    check()
