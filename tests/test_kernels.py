import numpy as np
import pytest

from twodevp.errors import TwoDevpError
from twodevp.kernels import (
    check_hermitian,
    hermitian_eig,
    isotropic_weights,
    orthonormalize,
    pinv_apply,
)
from twodevp.model import HermitianPair


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def test_hermitian_eig_identity():
    w, v = hermitian_eig(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2))


def test_hermitian_eig_exchange_matrix():
    w, v = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])
    # eigenvectors are (1,1)/sqrt2 and (1,-1)/sqrt2 up to phase
    for col, ref in zip(v.T, [np.array([1, 1]), np.array([1, -1])]):
        ref = ref / np.sqrt(2)
        assert abs(abs(np.vdot(ref, col)) - 1.0) < 1e-12


def test_hermitian_eig_reconstruction():
    m = random_hermitian(8, 0)
    w, v = hermitian_eig(m)
    assert np.linalg.norm(m - v @ np.diag(w) @ v.conj().T, 2) < 1e-12 * np.linalg.norm(m, 2)
    assert np.all(np.diff(w) <= 0)


def test_check_hermitian_symmetrizes_noise():
    m = random_hermitian(5, 2)
    noisy = m + 1e-14 * np.triu(np.ones((5, 5)))
    out = check_hermitian(noisy)
    assert np.array_equal(out, out.conj().T)


def test_orthonormalize_keeps_orthonormal_span():
    rng = np.random.default_rng(4)
    q = orthonormalize(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    q2 = orthonormalize(q)
    # idempotent up to unitary column mixing
    sigma = np.linalg.svd(q.conj().T @ q2, compute_uv=False)
    assert np.all(np.abs(sigma - 1.0) < 1e-13)


def test_orthonormalize_scaled_axes():
    m = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    q = orthonormalize(m)
    span = np.abs(q.conj().T @ np.eye(3)[:, :2])
    assert np.allclose(np.linalg.svd(span, compute_uv=False), 1.0)


def test_orthonormalize_output_is_orthonormal():
    rng = np.random.default_rng(5)
    q = orthonormalize(rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2)))
    assert np.linalg.norm(q.conj().T @ q - np.eye(2), 2) < 1e-13


def test_orthonormalize_rank_deficient():
    col = np.ones((4, 1))
    with pytest.raises(TwoDevpError, match="rank tolerance"):
        orthonormalize(np.hstack([col, col]))


def test_matrix_checks_reject_a_1d_array_and_an_empty_matrix():
    with pytest.raises(ValueError, match="2-d array"):
        HermitianPair(np.ones(3), np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(TwoDevpError, match="empty"):
        orthonormalize(np.zeros((3, 0)))


def test_isotropic_weights_give_unit_isotropic_mixes():
    rng = np.random.default_rng(3)
    c1 = rng.uniform(0.1, 2.0, size=(50, 4))
    c2 = -rng.uniform(0.1, 2.0, size=(50, 4))
    t, s = isotropic_weights(c1, c2)
    assert t.shape == s.shape == c1.shape
    assert np.max(np.abs(t**2 + s**2 - 1.0)) <= 1e-15
    assert np.max(np.abs(c1 * t**2 + c2 * s**2)) <= 1e-15


def test_pinv_apply_identity():
    b = np.array([1.0, 2.0, -3.0])
    assert np.allclose(pinv_apply(np.eye(3), b), b)


def test_pinv_apply_singular_diagonal():
    out = pinv_apply(np.diag([0.0, 2.0]), np.array([1.0, 4.0]), rank_tol=1e-10)
    assert np.allclose(out, [0.0, 2.0])


def test_pinv_apply_worked_2x2():
    # minimum-norm solution of [[-1,1],[1,-1]] y = (1,-1)/sqrt2
    m = np.array([[-1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, -1.0]) / np.sqrt(2)
    out = pinv_apply(m, b, rank_tol=1e-10)
    assert np.allclose(out, np.array([-1.0, 1.0]) / (2 * np.sqrt(2)))


def test_pinv_apply_projects_out_nullspace():
    m = random_hermitian(6, 6)
    # make m singular with a known null vector
    w, v = hermitian_eig(m)
    w[-1] = 0.0
    m = v @ np.diag(w) @ v.conj().T
    y = np.arange(1.0, 7.0) + 0j
    out = pinv_apply(m, m @ y, rank_tol=1e-10)
    y_perp = y - v[:, -1] * np.vdot(v[:, -1], y)
    assert np.linalg.norm(out - y_perp) < 1e-10 * np.linalg.norm(y)


def test_reconstruction_at_larger_sizes():
    for n in (16, 64):
        m = random_hermitian(n, n)
        w, v = hermitian_eig(m)
        err = np.linalg.norm(m - v @ np.diag(w) @ v.conj().T, 2)
        assert err < 1e-11 * n * np.linalg.norm(m, 2)
