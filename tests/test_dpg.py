import numpy as np
import pytest
import scipy.linalg

from hphex import dpg
from hphex.errors import ConfigError, LinAlgError


def random_spd(rng, n, shift=None):
    R = rng.standard_normal((n, n))
    return R @ R.T + (n if shift is None else shift) * np.eye(n)


def test_cholesky_known_factors():
    u = dpg.packed_cholesky(dpg.Upper(np.array([[4.0]])))
    assert np.allclose(u.a, [[2.0]])
    u = dpg.packed_cholesky(dpg.Upper(np.array([[4.0, 2.0], [2.0, 5.0]])))
    assert np.allclose(u.a, [[2.0, 1.0], [0.0, 2.0]], atol=1e-14)


def test_cholesky_rejects_indefinite():
    with pytest.raises(LinAlgError) as err:
        dpg.packed_cholesky(dpg.Upper(np.array([[1.0, 2.0], [2.0, 1.0]])))
    assert "pivot 1" in str(err.value)


def test_cholesky_rejects_tiny_positive_pivot():
    # LAPACK factors diag(1, 1e-16); the relative pivot check must not
    with pytest.raises(LinAlgError) as err:
        dpg.packed_cholesky(dpg.Upper(np.diag([1.0, 1e-16])))
    assert "pivot 1" in str(err.value)


def test_factor_identity_up_to_200():
    rng = np.random.default_rng(1)
    for n in (3, 20, 200):
        G = random_spd(rng, n)
        U = dpg.packed_cholesky(dpg.Upper(G)).a
        err = np.max(np.abs(U.T @ U - G)) / np.max(np.abs(G))
        assert err < 1e-12


def test_tri_solve_examples():
    ident = dpg.packed_cholesky(dpg.Upper(np.eye(3)))
    b = np.array([1.0, -2.0, 5.0])
    assert np.array_equal(dpg.packed_tri_solve(ident, b), b)

    u = dpg.Upper(np.array([[2.0, 1.0], [1.0, 2.0]]))
    # only the upper triangle is read: U = [[2,1],[0,2]]
    x = dpg.packed_tri_solve(u, np.array([4.0, 6.0]))
    assert np.allclose(x, [2.0, 2.0], atol=1e-14)

    empty = dpg.packed_tri_solve(u, np.zeros((2, 0)))
    assert empty.shape == (2, 0)

    with pytest.raises(LinAlgError):
        dpg.packed_tri_solve(u, np.zeros(3))


def _layout(x):
    """Shape and the strides of every axis longer than one."""
    return x.shape, [s for s, d in zip(x.strides, x.shape) if d > 1]


def test_tri_solve_matches_scipy_bitwise():
    """The per-item BLAS loop gives scipy's stacked and single
    solve_triangular results bit for bit, in scipy's memory layout, for
    1x1 and n x n factors stored C- and F-ordered, lower and upper, with
    and without the transpose, for one and for many right-hand sides
    (n = 108 and 500 with 111 columns: the bubble blocks of the adaptive
    ultraweak run and of the order sweep).  So do the DPG solves: an upper
    F-ordered factor, transposed, at the test-dof counts x columns of the
    adaptive ultraweak element and the sweep's ultraweak p=3 and p=4
    elements, and `packed_tri_solve` with one and with 219 right-hand
    sides at n = 365."""
    rng = np.random.default_rng(11)
    for n, m in ((1, 4), (6, 4), (1, 1), (6, 1), (108, 1), (108, 111),
                 (500, 1), (500, 111)):
        M = rng.standard_normal((5, n, n)) / np.sqrt(n) + 3.0 * np.eye(n)
        b = rng.standard_normal((5, n, m))
        for lower in (True, False):
            c = np.tril(M) if lower else np.triu(M)
            f = c.swapaxes(1, 2).copy().swapaxes(1, 2)
            assert f[0].flags.f_contiguous and np.array_equal(c, f)
            for a, trans in ((c, 0), (c, 1), (f, 0), (f, 1)):
                for a_s, b_s in ((a, b), (a[0], b[0])):
                    ref = scipy.linalg.solve_triangular(a_s, b_s, trans=trans,
                                                        lower=lower)
                    got = dpg._tri_solve(a_s, b_s, lower, trans)
                    assert got.tobytes() == ref.tobytes()
                    assert _layout(got) == _layout(ref)
    for n, m in ((365, 219), (666, 451), (1099, 803)):
        u = np.asfortranarray(np.triu(rng.standard_normal((n, n)) / np.sqrt(n)
                                      + 3.0 * np.eye(n)))
        b = rng.standard_normal((n, m))
        ref = scipy.linalg.solve_triangular(u, b, trans=1, lower=False)
        got = dpg._tri_solve(u, b, False, 1)
        assert got.tobytes() == ref.tobytes() and _layout(got) == _layout(ref)
    u = dpg.packed_cholesky(dpg.Upper(random_spd(rng, 365)))
    for b in (rng.standard_normal(365), rng.standard_normal((365, 219))):
        ref = scipy.linalg.solve_triangular(u.a, b, trans="T")
        got = dpg.packed_tri_solve(u, b)
        assert got.tobytes() == ref.tobytes() and _layout(got) == _layout(ref)
    with pytest.raises(LinAlgError):
        dpg._tri_solve(np.zeros((2, 3, 3)), np.ones((2, 3, 1)), True)


def test_condense_scalar_example():
    cond = dpg.condense_dpg(np.array([[2.0, 8.0]]), np.array([[4.0]]))
    assert cond.shape == (2, 2)
    assert abs(cond[0, 0] - 1.0) < 1e-14
    assert abs(cond[0, 1] - 4.0) < 1e-14


def test_condense_matches_saddle_oracle():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((6, 3))
    ell = rng.standard_normal(6)
    G = random_spd(rng, 6)
    full = np.hstack([B, ell[:, None]])
    cond = dpg.condense_dpg(full, G)
    oracle = full.T @ np.linalg.solve(G, full)
    assert np.max(np.abs(cond - oracle)) < 1e-10
    assert np.array_equal(cond, cond.T)  # mirroring is exact


def test_condense_mirror_is_the_old_triu_formula_bitwise():
    """The in-place mirror gives the bits of triu + triu.T - diag, which
    turns -0.0 into +0.0 above, on and below the diagonal."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 31, 32, 33, 70):
        a = rng.standard_normal((n, n))
        a[rng.random((n, n)) < 0.2] = -0.0
        np.fill_diagonal(a[:, ::-1], -0.0)
        a[np.arange(0, n, 3), np.arange(0, n, 3)] = -0.0
        upper = np.triu(a)
        old = upper + upper.T - np.diag(np.diag(upper))
        new = dpg._mirror_upper(a.copy())
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
        assert not np.signbit(new[new == 0.0]).any()


def test_condensed_blocks_are_psd():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.integers(4, 12)
        n = rng.integers(1, m)
        cond = dpg.condense_dpg(
            rng.standard_normal((int(m), int(n) + 1)),
            random_spd(rng, int(m)))
        assert np.linalg.eigvalsh(cond[:n, :n]).min() >= -1e-12


def test_residual_vanishes_for_exact_trial():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((8, 4))
    w = rng.standard_normal(4)
    ell = B @ w
    G = random_spd(rng, 8)
    assert dpg.residual_norm_sq(G, ell - B @ w) < 1e-24
    assert dpg.residual_norm_sq(G, rng.standard_normal(8)) >= 0.0


def test_inconsistent_shapes_rejected():
    with pytest.raises(LinAlgError, match="rhs has 3 rows, factor has 2"):
        dpg.condense_dpg(np.zeros((3, 3)), np.eye(2))
