import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hphex import masterel as me
from hphex.errors import GeometryError
from hphex.geometry import element_geometry, face_geometry, piola_transform

UNIT = me.VERT_COORDS.copy()


def test_identity_map():
    g = element_geometry(UNIT, [(0.3, 0.4, 0.5)])
    assert np.allclose(g.x[0], (0.3, 0.4, 0.5))
    assert np.allclose(g.dxdxi[0], np.eye(3), atol=1e-14)
    assert g.rjac[0] == pytest.approx(1.0)


def test_uniform_scaling():
    g = element_geometry(2.0 * UNIT, [(0.5, 0.5, 0.5)])
    assert g.rjac[0] == pytest.approx(8.0)
    assert np.allclose(g.dxidx[0], np.eye(3) / 2.0, atol=1e-14)


def test_jacobian_inverse_identity():
    rng = np.random.default_rng(21)
    xnod = UNIT + 0.15 * rng.standard_normal((8, 3))
    xi = rng.random((10, 3))
    g = element_geometry(xnod, xi)
    prod = np.einsum("pij,pjk->pik", g.dxdxi, g.dxidx)
    assert np.allclose(prod, np.eye(3), atol=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(22)
    xnod = UNIT + 0.1 * rng.standard_normal((8, 3))
    xi = 0.2 + 0.6 * rng.random((5, 3))
    g = element_geometry(xnod, xi)
    h = 1e-6
    for ax in range(3):
        xp = xi.copy()
        xm = xi.copy()
        xp[:, ax] += h
        xm[:, ax] -= h
        fd = (element_geometry(xnod, xp).x - element_geometry(xnod, xm).x) / (2 * h)
        assert np.allclose(g.dxdxi[:, :, ax], fd, atol=1e-8)


def test_degenerate_element_rejected():
    bad = UNIT.copy()
    bad[1] = bad[0]  # collapse an edge
    with pytest.raises(GeometryError):
        element_geometry(bad, [(1.0, 0.0, 0.0)])


def test_face_normals_unit_cube():
    t = [(0.3, 0.6)]
    expect = {
        1: (0, 0, -1), 2: (0, 0, 1), 3: (0, -1, 0),
        4: (1, 0, 0), 5: (0, 1, 0), 6: (-1, 0, 0),
    }
    for f, n in expect.items():
        g = face_geometry(UNIT, f, t)
        assert np.allclose(g.rn[0], n, atol=1e-14)
        assert g.bjac[0] == pytest.approx(1.0)
        assert np.linalg.norm(g.rn[0]) == pytest.approx(1.0, abs=1e-12)


def test_face_area_scaling():
    g = face_geometry(2.0 * UNIT, 2, [(0.5, 0.5)])
    assert g.bjac[0] == pytest.approx(4.0)
    assert np.allclose(g.rn[0], (0, 0, 1))


def test_face_normals_outward_on_random_element():
    """Normals must point away from the element center for a convex element."""
    rng = np.random.default_rng(23)
    xnod = UNIT + 0.1 * rng.standard_normal((8, 3))
    center = element_geometry(xnod, [(0.5, 0.5, 0.5)]).x[0]
    for f in range(1, 7):
        g = face_geometry(xnod, f, [(0.5, 0.5)])
        assert np.dot(g.rn[0], g.x[0] - center) > 0


def test_piola_identity_map():
    rng = np.random.default_rng(24)
    xi = rng.random((4, 3))
    g = element_geometry(UNIT, xi)
    for space in me.SPACES:
        shp = me.shape_functions(space, xi, (2, 2, 2))
        val, deriv = piola_transform(space, shp, g)
        assert np.allclose(val, shp.values, atol=1e-14)
        if space == "H1":
            assert np.allclose(deriv, shp.grad, atol=1e-14)
        elif space == "HCURL":
            assert np.allclose(deriv, shp.curl, atol=1e-14)
        elif space == "HDIV":
            assert np.allclose(deriv, shp.div, atol=1e-14)


def test_piola_scaling():
    xi = np.array([[0.25, 0.5, 0.75]])
    g = element_geometry(2.0 * UNIT, xi)
    h1 = me.shape_functions("H1", xi, (2, 2, 2))
    _, grad = piola_transform("H1", h1, g)
    assert np.allclose(grad, h1.grad / 2.0, atol=1e-14)
    l2 = me.shape_functions("L2", xi, (2, 2, 2))
    val, _ = piola_transform("L2", l2, g)
    assert np.allclose(val, l2.values / 8.0, atol=1e-14)


def test_l2_pullback_integral():
    """Change of variables: physical integral of a pushed L2 function equals
    the master integral of the master function."""
    rng = np.random.default_rng(25)
    A = np.array([[2.0, 0.3, 0.0], [0.1, 1.5, 0.2], [0.0, 0.4, 1.2]])
    xnod = UNIT @ A.T + np.array([1.0, -2.0, 0.5])
    rule = me.gauss_quadrature_3d((4, 4, 4))
    g = element_geometry(xnod, rule.points)
    shp = me.shape_functions("L2", rule.points, (3, 3, 3))
    val, _ = piola_transform("L2", shp, g)
    phys = (val * rule.weights * g.rjac).sum(axis=1)
    master = (shp.values * rule.weights).sum(axis=1)
    assert np.allclose(phys, master, atol=1e-12)


def test_hdiv_flux_is_mapping_invariant():
    """Total face flux of a pushed HDIV function equals the master face flux."""
    A = np.array([[1.4, 0.2, 0.1], [0.0, 2.0, 0.3], [0.2, 0.1, 0.9]])
    xnod = UNIT @ A.T
    t, w2 = me.gauss_quadrature_2d((4, 4))
    for f in (1, 4, 5):
        g = face_geometry(xnod, f, t)
        xi, _ = me.face_param(f, t)
        shp = me.shape_functions("HDIV", xi, (2, 2, 2))
        val, _ = piola_transform("HDIV", shp, g)
        flux_phys = ((val * g.rn.T[None]).sum(axis=1) * w2 * g.bjac).sum(axis=1)
        # master flux: master normal component integrated over the square
        nrm = me.FACE_NORMAL_AXIS[f - 1]
        sign = 1.0 if me.FACE_SIDE[f - 1] == 1 else -1.0
        flux_master = (shp.values[:, nrm] * w2).sum(axis=1) * sign
        assert np.allclose(flux_phys, flux_master, atol=1e-12)


def _trilinear_stack(seed, nelem):
    """E unit cubes with every vertex moved by up to 0.1 per axis: general
    trilinear (non-affine) maps with a positive Jacobian everywhere."""
    rng = np.random.default_rng(seed)
    return UNIT + 0.1 * (2.0 * rng.random((nelem, 8, 3)) - 1.0)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(nelem=st.integers(1, 8), seed=st.integers(0, 2**16),
       order=st.tuples(*[st.integers(1, 4)] * 3),
       npts=st.tuples(*[st.integers(1, 4)] * 3))
def test_stacked_maps_equal_single_calls_bitwise(nelem, seed, order, npts):
    """A vertex stack gives every geometry field and every Piola transform
    of E single-element calls, bit for bit."""
    xnod = _trilinear_stack(seed, nelem)
    xi = me.gauss_quadrature_3d(npts).points
    stack = element_geometry(xnod, xi)
    singles = [element_geometry(x, xi) for x in xnod]
    for field in ("x", "dxdxi", "rjac", "dxidx"):
        assert _same_bits(getattr(stack, field),
                          np.stack([getattr(g, field) for g in singles]))
    for space in me.SPACES:
        shp = me.shape_functions_elem(space, xi, me.uniform_norder(order))
        val, der = piola_transform(space, shp, stack)
        for e, g in enumerate(singles):
            one_val, one_der = piola_transform(space, shp, g)
            assert _same_bits(val if space == me.H1 else val[e], one_val)
            assert (der is None and one_der is None) or _same_bits(der[e], one_der)


def test_piola_matches_einsum_definition():
    """Each space's map equals its contraction written as an einsum over J
    and a C-ordered J^-1, to 1e-15 relative and in the same memory layout,
    on non-affine elements; the inverse Jacobian is held points innermost."""
    xi = me.gauss_quadrature_3d((3, 4, 2)).points
    g = element_geometry(_trilinear_stack(26, 5), xi)
    jac, inv = g.dxdxi, np.linalg.inv(g.dxdxi)
    det = g.rjac[:, None, :]
    assert _same_bits(g.dxidx, inv)
    assert np.moveaxis(g.dxidx, -3, -1).flags.c_contiguous
    for space in me.SPACES:
        shp = me.shape_functions_elem(space, xi, me.uniform_norder((3, 2, 4)))
        if space == me.H1:
            want = shp.values, np.einsum("epji,kjp->ekip", inv, shp.grad)
        elif space == me.HCURL:
            want = (np.einsum("epji,kjp->ekip", inv, shp.values),
                    np.einsum("epij,kjp->ekip", jac, shp.curl) / det[:, :, None])
        elif space == me.HDIV:
            want = (np.einsum("epij,kjp->ekip", jac, shp.values) / det[:, :, None],
                    shp.div / det)
        else:
            want = shp.values / det, None
        for got, ref in zip(piola_transform(space, shp, g), want):
            if ref is None:
                assert got is None
            else:
                assert got.shape == ref.shape and got.strides == ref.strides
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
