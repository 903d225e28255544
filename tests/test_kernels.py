import sys
import threading

import numpy as np
import pytest

from twodevp import kernels
from twodevp.errors import TwoDevpError
from twodevp.kernels import (
    check_hermitian,
    hermitian_eig,
    isotropic_set,
    isotropic_weights,
    map_threads,
    orthonormalize,
    pinv_apply,
    thread_workers,
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


def test_isotropic_weights_on_python_floats_are_bitwise_those_on_arrays():
    # a step from one start takes its weights on Python floats, a stack of
    # starts on arrays; each takes correctly rounded square roots, and
    # numpy's division and sqrt round each entry alone, so a long array
    # gives what arrays of length one give
    rng = np.random.default_rng(37)
    c1 = 10.0 ** rng.uniform(-8.0, 8.0, 100_000)
    c2 = -(10.0 ** rng.uniform(-8.0, 8.0, 100_000))
    t, s = isotropic_weights(c1, c2)
    got = np.array([isotropic_weights(a, b) for a, b in zip(c1.tolist(), c2.tolist())])
    assert np.array_equal(got, np.stack((t, s), axis=-1))


def test_isotropic_set_mixes_the_extreme_directions_of_an_indefinite_form():
    c = np.diag([2.0, 0.5, -1.0, 3.0])
    basis = np.eye(4)[:, :3]
    v, w, e = isotropic_set(c, basis)
    assert np.array_equal(e, [2.0, 0.5, -1.0])
    x = v @ w
    assert v.shape == (4, 2) and abs(np.linalg.norm(x) - 1.0) <= 1e-15
    assert abs(np.vdot(x, c @ x)) <= 1e-15


@pytest.mark.parametrize("form", [[2.0, 0.5], [-0.5, -2.0], [1.0, 0.0]])
def test_isotropic_set_gives_none_for_a_definite_cluster_form(form):
    c = np.diag(form + [-3.0])
    v, w, e = isotropic_set(c, np.eye(3)[:, :2])
    assert v is None and w is None
    assert np.array_equal(e, form)


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


def test_map_threads_runs_below_the_floor_on_the_calling_thread():
    n = kernels.THREADS_MIN_N - 1
    assert thread_workers(n, 10) == 1
    assert map_threads(lambda x: (x, threading.get_ident()), range(5), n) == [
        (x, threading.get_ident()) for x in range(5)]


def test_map_threads_keeps_item_order_on_at_most_the_free_cpus():
    n = kernels.THREADS_MIN_N
    workers = thread_workers(n, 100)
    if workers < 2:
        pytest.skip("one CPU is free, so map_threads never starts a thread")
    assert thread_workers(n, 1) == 1 and thread_workers(n, 3) == min(workers, 3)
    seen, before = {}, threading.active_count()

    def square(x):
        seen.setdefault(threading.get_ident(), []).append(x)
        return x * x

    # switch threads as often as the interpreter can, so that items interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert map_threads(square, range(11), n) == [x * x for x in range(11)]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    # the pool's threads run every item once, and the calling thread none
    assert 1 <= len(seen) <= workers and threading.get_ident() not in seen
    assert sorted(x for xs in seen.values() for x in xs) == list(range(11))


@pytest.mark.parametrize("bad", [{3}, {4, 7}, {1, 2}, {9}])
def test_map_threads_raises_the_first_failure_in_item_order(bad):
    errors = {x: TwoDevpError("item %d" % x) for x in bad}

    def fn(x):
        if x in errors:
            raise errors[x]
        return x

    before = threading.active_count()
    with pytest.raises(TwoDevpError) as caught:
        map_threads(fn, range(10), kernels.THREADS_MIN_N)
    assert caught.value is errors[min(bad)]
    assert threading.active_count() == before


def test_map_threads_runs_every_item_past_failures_in_two_chunks():
    n = kernels.THREADS_MIN_N
    workers = thread_workers(n, 10)
    if workers < 2:
        pytest.skip("one CPU is free, so map_threads never starts a thread")
    bad = {1, workers}  # item 1 on a new thread, item `workers` on the calling one
    errors = {x: TwoDevpError("item %d" % x) for x in bad}
    ran = []

    def fn(x):
        ran.append(x)
        if x in errors:
            raise errors[x]
        return x

    with pytest.raises(TwoDevpError) as caught:
        map_threads(fn, range(10), n)
    assert caught.value is errors[1]
    assert sorted(ran) == list(range(10))


def test_map_threads_reraises_a_base_exception_of_a_pool_thread():
    n = kernels.THREADS_MIN_N
    if thread_workers(n, 10) < 2:
        pytest.skip("one CPU is free, so map_threads never starts a thread")
    before = threading.active_count()

    def fn(x):
        if x == 3:
            raise SystemExit(x)
        return x

    with pytest.raises(SystemExit) as caught:
        map_threads(fn, range(10), n)
    assert caught.value.code == 3
    assert threading.active_count() == before
