import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hphex import masterel as me
from hphex.errors import ConfigError, OrderError


def test_gauss_1d_exactness():
    # an n-point rule integrates monomials through degree 2n-1 on [0,1]
    for n in range(1, 11):
        x, w = me.gauss_1d(n)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert (w > 0).all()
        for a in range(2 * n):
            got = (w * x**a).sum()
            assert got == pytest.approx(1.0 / (a + 1), abs=1e-13)


def test_gauss_3d_tensor_exactness():
    rng = np.random.default_rng(7)
    for n in (1, 3, 6, 10):
        pts, w = me.gauss_quadrature_3d((n, n, n))
        assert pts.shape == (n**3, 3) and w.shape == (n**3,)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
        exps = rng.integers(0, 2 * n, size=(12, 3))
        for a, b, c in exps:
            got = (w * pts[:, 0]**a * pts[:, 1]**b * pts[:, 2]**c).sum()
            exact = 1.0 / ((a + 1) * (b + 1) * (c + 1))
            assert got == pytest.approx(exact, abs=1e-13)


def test_gauss_count_bounds():
    with pytest.raises(ConfigError):
        me.gauss_1d(0)
    with pytest.raises(ConfigError):
        me.gauss_1d(17)


def test_legendre_shifted_orthogonality():
    x, w = me.gauss_1d(12)
    P, dP = me.legendre_shifted(9, x)
    gram = (P * w) @ P.T
    expect = np.diag([1.0 / (2 * a + 1) for a in range(9)])
    assert np.allclose(gram, expect, atol=1e-13)


def test_h1_basis_1d_structure():
    x = np.linspace(0.0, 1.0, 11)
    H, dH = me.h1_basis_1d(6, x)
    assert H.shape == (7, 11)
    assert np.allclose(H[0], 1.0 - x)
    assert np.allclose(H[1], x)
    # bubbles vanish at both endpoints
    ends = np.array([0.0, 1.0])
    Hb, dHb = me.h1_basis_1d(6, ends)
    assert np.allclose(Hb[2:], 0.0, atol=1e-15)
    # derivative of the degree-n bubble is the shifted Legendre P_{n-1}
    P, _ = me.legendre_shifted(6, x)
    for n in range(2, 7):
        assert np.allclose(dH[n], P[n - 1], atol=1e-13)


def test_order_codecs():
    assert me.encode_order(2, 3, 4) == 234
    assert me.decode_order(234) == (2, 3, 4)
    assert me.decode_face_order(me.encode_face_order(5, 7)) == (5, 7)
    with pytest.raises(OrderError):
        me.check_order_triple((0, 1, 1))
    with pytest.raises(OrderError):
        me.check_order_triple(1110)  # px=11


@pytest.mark.parametrize("order,expect", [
    ((2, 2, 2), {"H1": 27, "HCURL": 54, "HDIV": 36, "L2": 8}),
    ((1, 1, 1), {"H1": 8, "HCURL": 12, "HDIV": 6, "L2": 1}),
    ((3, 2, 4), None),
])
def test_dof_count_matches_shape_sets(order, expect):
    xi = np.array([[0.3, 0.4, 0.5]])
    norder = me.uniform_norder(order)
    for space in me.SPACES:
        n = me.dof_count(space, order)
        if expect is not None:
            assert n == expect[space]
        shp = me.shape_functions(space, xi, order)
        assert shp.nrdof == n
        assert me.layout_counts(space, norder).sum() == n


def test_layout_counts_per_slot():
    norder = me.uniform_norder((3, 3, 3))
    h1 = me.layout_counts("H1", norder)
    assert (h1[:8] == 1).all()
    assert (h1[8:20] == 2).all()
    assert (h1[20:26] == 4).all()
    assert h1[26] == 8
    hdiv = me.layout_counts("HDIV", norder)
    assert (hdiv[:20] == 0).all()
    assert (hdiv[20:26] == 9).all()
    # interface-only view drops the interior block
    assert me.layout_counts("L2", norder, include_middle=False).sum() == 0


def test_slots_grouped_in_element_node_order():
    xi = np.array([[0.2, 0.7, 0.4]])
    for space in me.SPACES:
        shp = me.shape_functions(space, xi, (3, 2, 3))
        assert (np.diff(shp.slots) >= 0).all()


def test_h1_vertex_functions_are_trilinear():
    verts = me.VERT_COORDS
    shp = me.shape_functions("H1", verts, (3, 3, 3))
    vals = shp.values[:8]
    assert np.allclose(vals, np.eye(8), atol=1e-14)
    # all higher functions vanish at the vertices
    assert np.allclose(shp.values[8:], 0.0, atol=1e-14)


def test_h1_partition_of_unity():
    rng = np.random.default_rng(3)
    xi = rng.random((20, 3))
    shp = me.shape_functions("H1", xi, (4, 3, 2))
    assert np.allclose(shp.values[:8].sum(axis=0), 1.0, atol=1e-13)
    assert np.allclose(shp.grad[:8].sum(axis=0), 0.0, atol=1e-13)


def _fd_grad(space, xi, order, h=1e-6):
    shp0 = me.shape_functions(space, xi, order)
    out = np.zeros((shp0.nrdof, 3, xi.shape[0]))
    for ax in range(3):
        xp = xi.copy()
        xm = xi.copy()
        xp[:, ax] += h
        xm[:, ax] -= h
        vp = me.shape_functions(space, xp, order).values
        vm = me.shape_functions(space, xm, order).values
        out[:, ax] = (vp - vm) / (2 * h)
    return out


def test_h1_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    xi = 0.1 + 0.8 * rng.random((8, 3))
    shp = me.shape_functions("H1", xi, (3, 3, 3))
    fd = _fd_grad("H1", xi, (3, 3, 3))
    assert np.allclose(shp.grad, fd, atol=1e-7)


def test_hcurl_curl_matches_finite_differences():
    rng = np.random.default_rng(12)
    xi = 0.1 + 0.8 * rng.random((6, 3))
    order = (2, 3, 2)
    shp = me.shape_functions("HCURL", xi, order)
    h = 1e-6
    dv = np.zeros((shp.nrdof, 3, 3, xi.shape[0]))  # d values[:,j] / d xi[ax]
    for ax in range(3):
        xp = xi.copy()
        xm = xi.copy()
        xp[:, ax] += h
        xm[:, ax] -= h
        vp = me.shape_functions("HCURL", xp, order).values
        vm = me.shape_functions("HCURL", xm, order).values
        dv[:, ax] = (vp - vm) / (2 * h)
    curl_fd = np.stack([
        dv[:, 1, 2] - dv[:, 2, 1],
        dv[:, 2, 0] - dv[:, 0, 2],
        dv[:, 0, 1] - dv[:, 1, 0],
    ], axis=1)
    assert np.allclose(shp.curl, curl_fd, atol=1e-6)


def test_hdiv_divergence_matches_finite_differences():
    rng = np.random.default_rng(13)
    xi = 0.1 + 0.8 * rng.random((6, 3))
    order = (3, 2, 2)
    shp = me.shape_functions("HDIV", xi, order)
    h = 1e-6
    div_fd = np.zeros((shp.nrdof, xi.shape[0]))
    for ax in range(3):
        xp = xi.copy()
        xm = xi.copy()
        xp[:, ax] += h
        xm[:, ax] -= h
        vp = me.shape_functions("HDIV", xp, order).values
        vm = me.shape_functions("HDIV", xm, order).values
        div_fd += (vp[:, ax] - vm[:, ax]) / (2 * h)
    assert np.allclose(shp.div, div_fd, atol=1e-6)


def test_hdiv_normal_trace_locality():
    """A face-block flux function has zero normal component on every other face."""
    t = np.random.default_rng(5).random((9, 2))
    order = (2, 2, 2)
    for f in range(1, 7):
        xi, _ = me.face_param(f, t)
        shp = me.shape_functions("HDIV", xi, order)
        nrm = me.FACE_NORMAL_AXIS[f - 1]
        for k in range(shp.nrdof):
            slot = shp.slots[k]
            if slot != 20 + (f - 1):
                assert np.allclose(shp.values[k, nrm], 0.0, atol=1e-14)


def test_variable_order_selection():
    # dropping one edge to order 1 removes exactly its bubble functions
    base = me.uniform_norder((3, 3, 3))
    mod = list(base)
    mod[4] = 1
    xi = np.array([[0.3, 0.6, 0.2]])
    full = me.shape_functions_elem("H1", xi, base)
    part = me.shape_functions_elem("H1", xi, mod)
    assert full.nrdof - part.nrdof == 2
    assert (full.slots == 12).sum() == 2
    assert (part.slots == 12).sum() == 0


def _fresh(space, xi, norder):
    me._recipe.cache_clear()
    me._groups.cache_clear()
    me._axis_bases.cache_clear()
    return me.shape_functions_elem(space, xi, norder)


@pytest.mark.parametrize("space", me.SPACES)
def test_cached_tables_match_fresh_evaluation(space):
    norder = me.uniform_norder((3, 2, 4))
    norder[0] = 2
    t, _ = me.gauss_quadrature_2d((3, 4))
    for xi in (me.gauss_quadrature_3d((4, 3, 5))[0],
               me.face_param(4, t)[0]):
        me.shape_functions_elem(space, xi, norder)     # fill the caches
        cached = me.shape_functions_elem(space, xi, norder)
        fresh = _fresh(space, xi, norder)
        for name in ("values", "grad", "curl", "div", "slots"):
            a, b = getattr(cached, name), getattr(fresh, name)
            assert (a is None and b is None) or np.array_equal(a, b)
        # one point at a time gives the same values as the batch
        for q in range(len(xi)):
            one = me.shape_functions_elem(space, xi[q:q + 1], norder)
            assert np.array_equal(one.values[..., 0], cached.values[..., q])


@st.composite
def _anisotropic_norder(draw):
    p = draw(st.tuples(*[st.integers(1, 4)] * 3))
    norder = me.uniform_norder(p)
    for e in range(12):
        norder[e] = draw(st.integers(1, p[me.EDGE_AXIS[e]]))
    for f, (a1, a2) in enumerate(me.FACE_AXES):
        norder[12 + f] = me.encode_face_order(draw(st.integers(1, p[a1])),
                                              draw(st.integers(1, p[a2])))
    return norder


# a small pool makes repeated coordinates common
_COORD = st.sampled_from((0.0, 1.0, 0.5, 0.25, 1.0 / 3.0)) | st.floats(0.0, 1.0)


@st.composite
def _points(draw):
    if draw(st.booleans()):
        t = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=9))
        return me.face_param(draw(st.integers(1, 6)), t)[0]
    return np.array(draw(st.lists(st.tuples(_COORD, _COORD, _COORD),
                                  min_size=1, max_size=9)))


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("space", me.SPACES)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(norder=_anisotropic_norder(), xi=_points())
def test_cached_tables_match_fresh_evaluation_property(space, norder, xi):
    me.shape_functions_elem(space, xi, norder)         # fill the caches
    cached = me.shape_functions_elem(space, xi, norder)
    fresh = _fresh(space, xi, norder)
    for name in ("values", "grad", "curl", "div", "slots"):
        a, b = getattr(cached, name), getattr(fresh, name)
        assert _same_bits(a, b)
        assert a is None or not a.flags.writeable
    pmax = me._recipe(space, tuple(norder))[0]
    for ax in range(3):
        tabs = me._axis_bases(pmax[ax], xi[:, ax].tobytes())
        assert not any(a.flags.writeable for a in tabs)
    # one point at a time gives the same bits as the batch
    for q in range(len(xi)):
        one = me.shape_functions_elem(space, xi[q:q + 1], norder)
        assert one.values[..., 0].tobytes() == cached.values[..., q].tobytes()


def test_tables_are_read_only():
    pts3, w3 = me.gauss_quadrature_3d((2, 2, 2))
    shp = me.shape_functions_elem(me.HCURL, pts3,
                                  me.uniform_norder((2, 2, 2)))
    x, w = me.gauss_1d(3)
    pts, w2 = me.gauss_quadrature_2d((2, 3))
    for a in (shp.values, shp.curl, shp.slots, x, w, pts, w2,
              pts3, w3):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_face_param_examples():
    xi, dxidt = me.face_param(1, [(0.25, 0.75)])
    assert np.allclose(xi[0], (0.25, 0.75, 0.0))
    xi, _ = me.face_param(2, [(0.0, 0.0)])
    assert np.allclose(xi[0], (0.0, 0.0, 1.0))
    xi, dxidt = me.face_param(4, [(0.3, 0.9)])
    assert xi[0, 0] == 1.0
    assert np.allclose(dxidt[0], 0.0)
    with pytest.raises(ConfigError):
        me.face_param(7, [(0.0, 0.0)])


def test_edge_tables_consistent():
    # every face edge list walks the face boundary entities of that face
    for f in range(6):
        a1, a2 = me.FACE_AXES[f]
        for e in me.FACE_EDGES[f]:
            assert me.EDGE_AXIS[e] in (a1, a2)
        verts = set(me.FACE_VERTS[f])
        for e in me.FACE_EDGES[f]:
            assert set(me.EDGE_VERTS[e]) <= verts


def _recipe_digest():
    """sha256 of the integer recipe tables of every space over uniform
    orders 1..9 and 200 mixed order vectors; integers only, as little-endian
    int64, so the digest does not depend on platform float formatting."""
    rng = np.random.default_rng(0)
    norders = [me.uniform_norder((p, p, p)) for p in range(1, 10)]
    for _ in range(200):
        e = rng.integers(1, 10, size=12)
        f = rng.integers(1, 10, size=(6, 2))
        m = rng.integers(1, 10, size=3)
        norders.append([int(p) for p in e]
                       + [me.encode_face_order(*map(int, q)) for q in f]
                       + [me.encode_order(*map(int, m))])
    h = hashlib.sha256()
    for space in me.SPACES:
        for norder in norders:
            pmax, slots, fam, idx = me._recipe(space, tuple(norder))
            h.update(f"{space}{norder}{pmax}{idx.shape}".encode())
            for a in (slots, fam, idx):
                h.update(b"-" if a is None else a.astype("<i8").tobytes())
    return h.hexdigest()


_RECIPE_DIGEST = "66e0f5a04b9c08fcc895448022da178872d77bea97b89f0f0edad11eddd3843e"


def test_recipe_tables_digest():
    # pins the function order of every space: slots, families and 1D indices
    assert _recipe_digest() == _RECIPE_DIGEST


@pytest.mark.parametrize("space", me.SPACES)
def test_family_groups_split_the_recipe(space):
    norder = me.uniform_norder((3, 2, 4))
    norder[13] = me.encode_face_order(1, 2)
    pmax, slots, fam, idx = me._recipe(space, tuple(norder))
    gmax, gslots, gfam, groups = me._groups(space, tuple(norder))
    assert gmax == pmax and gslots is slots and gfam is fam
    seen = np.zeros(len(slots), dtype=int)
    for ax, sel, cols in groups:
        rows = np.arange(len(slots))[sel]
        seen[rows] += 1
        assert fam is None or (fam[rows] == ax).all()
        for d, (offset, col) in enumerate(cols):
            assert offset in (0, 2)
            assert np.array_equal(col, idx[rows, d])
            assert not col.flags.writeable
    assert (seen == 1).all()
