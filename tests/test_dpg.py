import numpy as np
import pytest

from hphex import dpg
from hphex.errors import ConfigError, LinAlgError


def random_spd(rng, n, shift=None):
    R = rng.standard_normal((n, n))
    return R @ R.T + (n if shift is None else shift) * np.eye(n)


def test_packed_index_rule():
    A = np.array([[1.0, 2.0, 4.0],
                  [2.0, 3.0, 5.0],
                  [4.0, 5.0, 6.0]])
    p = dpg.PackedSym.from_dense(A)
    # column by column: (0,0) | (0,1) (1,1) | (0,2) (1,2) (2,2)
    assert np.array_equal(p.values, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert np.array_equal(p.to_upper(), np.triu(A))


def test_packed_round_trip():
    rng = np.random.default_rng(0)
    A = random_spd(rng, 7)
    p = dpg.PackedSym.from_dense(A)
    assert p.values.shape == (28,)
    assert np.array_equal(p.to_dense(), np.triu(A) + np.triu(A, 1).T)


def test_cholesky_known_factors():
    u = dpg.packed_cholesky(dpg.PackedSym.from_dense(np.array([[4.0]])))
    assert np.allclose(u.to_upper(), [[2.0]])
    u = dpg.packed_cholesky(dpg.PackedSym.from_dense(
        np.array([[4.0, 2.0], [2.0, 5.0]])))
    assert np.allclose(u.to_upper(), [[2.0, 1.0], [0.0, 2.0]], atol=1e-14)


def test_cholesky_rejects_indefinite():
    with pytest.raises(LinAlgError) as err:
        dpg.packed_cholesky(dpg.PackedSym.from_dense(
            np.array([[1.0, 2.0], [2.0, 1.0]])))
    assert "pivot 1" in str(err.value)


def test_cholesky_rejects_tiny_positive_pivot():
    # LAPACK factors diag(1, 1e-16); the relative pivot check must not
    with pytest.raises(LinAlgError) as err:
        dpg.packed_cholesky(dpg.PackedSym.from_dense(np.diag([1.0, 1e-16])))
    assert "pivot 1" in str(err.value)


def test_factor_identity_up_to_200():
    rng = np.random.default_rng(1)
    for n in (3, 20, 200):
        G = random_spd(rng, n)
        U = dpg.packed_cholesky(dpg.PackedSym.from_dense(G)).to_upper()
        err = np.max(np.abs(U.T @ U - G)) / np.max(np.abs(G))
        assert err < 1e-12


def test_tri_solve_examples():
    ident = dpg.packed_cholesky(dpg.PackedSym.from_dense(np.eye(3)))
    b = np.array([1.0, -2.0, 5.0])
    assert np.array_equal(dpg.packed_tri_solve(ident, b), b)

    u = dpg.PackedSym.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    # packed storage reads the upper triangle: U = [[2,1],[0,2]]
    x = dpg.packed_tri_solve(u, np.array([4.0, 6.0]))
    assert np.allclose(x, [2.0, 2.0], atol=1e-14)

    empty = dpg.packed_tri_solve(u, np.zeros((2, 0)))
    assert empty.shape == (2, 0)

    with pytest.raises(LinAlgError):
        dpg.packed_tri_solve(u, np.zeros(3))


def test_condense_scalar_example():
    cond = dpg.condense_dpg(np.array([[2.0, 8.0]]),
                            dpg.PackedSym.from_dense(np.array([[4.0]])))
    assert cond.shape == (2, 2)
    assert abs(cond[0, 0] - 1.0) < 1e-14
    assert abs(cond[0, 1] - 4.0) < 1e-14


def test_condense_matches_saddle_oracle():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((6, 3))
    ell = rng.standard_normal(6)
    G = random_spd(rng, 6)
    full = np.hstack([B, ell[:, None]])
    cond = dpg.condense_dpg(full, dpg.PackedSym.from_dense(G))
    oracle = full.T @ np.linalg.solve(G, full)
    assert np.max(np.abs(cond - oracle)) < 1e-10
    assert np.array_equal(cond, cond.T)  # mirroring is exact


def test_condensed_blocks_are_psd():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.integers(4, 12)
        n = rng.integers(1, m)
        cond = dpg.condense_dpg(
            rng.standard_normal((int(m), int(n) + 1)),
            dpg.PackedSym.from_dense(random_spd(rng, int(m))))
        assert np.linalg.eigvalsh(cond[:n, :n]).min() >= -1e-12


def test_residual_vanishes_for_exact_trial():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((8, 4))
    w = rng.standard_normal(4)
    ell = B @ w
    factor = dpg.packed_cholesky(dpg.PackedSym.from_dense(random_spd(rng, 8)))
    assert dpg.residual_norm_sq(factor, ell - B @ w) < 1e-24
    assert dpg.residual_norm_sq(factor, rng.standard_normal(8)) >= 0.0


def test_inconsistent_shapes_rejected():
    with pytest.raises(LinAlgError, match="rhs has 3 rows, factor has 2"):
        dpg.condense_dpg(np.zeros((3, 3)), dpg.PackedSym.from_dense(np.eye(2)))
