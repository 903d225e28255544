import numpy as np
import pytest

from twodevp import refpairs
from twodevp.curves import (
    eig_at,
    eigvec_derivative,
    lambda_double_prime,
    slopes,
    trace_curves,
)
from twodevp.errors import TwoDevpError
from twodevp.model import HermitianPair

SQ2 = np.sqrt(2.0)


def test_eig_at_simple_pair_origin():
    point = eig_at(refpairs.simple_pair_2x2(), 0.0)
    assert np.allclose(point.values, [1.0, -1.0])


def test_eig_at_simple_pair_mu_one():
    point = eig_at(refpairs.simple_pair_2x2(), 1.0)
    assert np.allclose(point.values, [SQ2, -SQ2])


def test_eig_at_multiple_pair_crossing():
    point = eig_at(refpairs.multiple_pair_2x2(), 1.0)
    assert np.allclose(point.values, [0.0, 0.0])


def _sorted_curves(grid):
    """The grid's mus and the samples of sorted curves 0 and 1."""
    values = np.array([p.values for p in grid.points])
    return np.array([p.mu for p in grid.points]), values[:, 0], values[:, 1]


def test_trace_curves_straight_lines_through_crossing():
    mus, top, bot = _sorted_curves(trace_curves(refpairs.multiple_pair_2x2(), 0.0, 2.0, 21))
    # the sorted curves take the kink where the lines 1 - mu and mu - 1 cross
    assert np.allclose(top, np.abs(1.0 - mus), atol=1e-12)
    assert np.allclose(bot, -np.abs(1.0 - mus), atol=1e-12)


def test_trace_curves_hyperbolas():
    mus, top, bot = _sorted_curves(trace_curves(refpairs.simple_pair_2x2(), -1.0, 1.0, 41))
    assert np.allclose(top, np.sqrt(1.0 + mus**2), atol=1e-12)
    assert np.allclose(bot, -np.sqrt(1.0 + mus**2), atol=1e-12)


def test_trace_curves_two_point_grid():
    grid = trace_curves(refpairs.simple_pair_2x2(), 0.2, 0.4, 2)
    assert [p.mu for p in grid.points] == [0.2, 0.4]


def test_trace_curves_bad_arguments():
    pair = refpairs.simple_pair_2x2()
    with pytest.raises(ValueError):
        trace_curves(pair, 1.0, 0.0, 8)
    with pytest.raises(ValueError):
        trace_curves(pair, 0.0, 1.0, 1)
    # finite ends whose width overflows: rejected before numpy's grid would
    # warn (an error under the test filters) and hold no finite mu
    for lo, hi in ((-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))):
        with pytest.raises(ValueError, match="finite width"):
            trace_curves(pair, lo, hi, 8)


def test_trace_sum_matches_trace():
    pair, _ = refpairs.simple_pair_desk()
    grid = trace_curves(pair, -0.5, 0.5, 11)
    for p in grid.points:
        expect = np.trace(pair.a).real - p.mu * np.trace(pair.c).real
        scale = pair.norm_a + abs(p.mu) * pair.norm_c
        assert abs(np.sum(p.values) - expect) < 1e-10 * pair.n * scale


def test_lambda_prime_isotropic_vector():
    pair = refpairs.simple_pair_2x2()
    assert abs(slopes(pair, np.array([[1.0], [1.0]]) / SQ2)[0]) < 1e-15


def test_lambda_prime_basis_vector():
    pair = refpairs.simple_pair_2x2()
    assert slopes(pair, np.array([[1.0], [0.0]]))[0] == -1.0


def test_lambda_prime_matches_finite_difference():
    pair, _ = refpairs.simple_pair_desk()
    h = 1e-4
    for mu in (-0.35, 0.1, 0.42):
        point = eig_at(pair, mu)
        x = point.vectors[:, 0]
        lp = slopes(pair, point.vectors[:, [0]])[0]

        def lam_at(m):
            q = eig_at(pair, m)
            j = int(np.argmax(np.abs(x.conj() @ q.vectors)))
            return float(q.values[j])

        fd = (lam_at(mu + h) - lam_at(mu - h)) / (2 * h)
        assert abs(lp - fd) < 1e-6


def test_lambda_prime_vanishes_at_critical_point():
    _, t = refpairs.simple_pair_desk()
    pair, _ = refpairs.simple_pair_desk()
    assert abs(slopes(pair, t.x[:, None])[0]) < 1e-10


def test_eigvec_derivative_worked_example():
    pair = refpairs.simple_pair_2x2()
    xp = eigvec_derivative(pair, 0.0, 1.0, np.array([1.0, 1.0]) / SQ2)
    assert np.allclose(xp, np.array([-1.0, 1.0]) / (2 * SQ2))


def test_eigvec_derivative_orthogonal_to_x():
    pair, t = refpairs.simple_pair_desk()
    xp = eigvec_derivative(pair, t.mu, t.lam, t.x)
    assert abs(np.vdot(t.x, xp)) < 1e-8
    assert np.linalg.norm(xp) > 1e-10


def test_eigvec_derivative_matches_traced_curve():
    pair, _ = refpairs.simple_pair_desk()
    mu, h = 0.15, 1e-4
    point = eig_at(pair, mu)
    x = point.vectors[:, 2]
    xp = eigvec_derivative(pair, mu, float(point.values[2]), x)

    def vec_at(m):
        q = eig_at(pair, m)
        j = int(np.argmax(np.abs(x.conj() @ q.vectors)))
        v = q.vectors[:, j]
        ov = np.vdot(x, v)
        return v * (ov.conj() / abs(ov))

    fd = (vec_at(mu + h) - vec_at(mu - h)) / (2 * h)
    assert np.linalg.norm(xp - fd) < 1e-5


def test_eigvec_derivative_rejects_multiple():
    pair = refpairs.multiple_pair_2x2()
    with pytest.raises(TwoDevpError, match="has multiplicity 2"):
        eigvec_derivative(pair, 1.0, 0.0, np.array([1.0, 0.0]))


def test_lambda_double_prime_top_curve():
    pair = refpairs.simple_pair_2x2()
    val = lambda_double_prime(pair, 0.0, 1.0, np.array([1.0, 1.0]) / SQ2)
    assert abs(val - 1.0) < 1e-12


def test_lambda_double_prime_bottom_curve():
    pair = refpairs.simple_pair_2x2()
    val = lambda_double_prime(pair, 0.0, -1.0, np.array([1.0, -1.0]) / SQ2)
    assert abs(val + 1.0) < 1e-12


def test_lambda_double_prime_second_difference():
    pair = refpairs.simple_pair_2x2()
    h = 1e-3
    # lambda(mu) = sqrt(1+mu^2) on the top curve
    fd = (np.sqrt(1 + h**2) - 2.0 + np.sqrt(1 + h**2)) / h**2
    val = lambda_double_prime(pair, 0.0, 1.0, np.array([1.0, 1.0]) / SQ2)
    assert abs(val - fd) < 1e-4


def test_trace_curves_samples_eig_at_at_triple_crossing():
    # A - C has the three-fold eigenvalue 0 at mu = 1, a grid point; the grid
    # adds no point there and keeps eig_at's sorted columns
    q = refpairs.haar_unitary(np.random.default_rng(0), 5)
    pair = HermitianPair(
        q.conj().T @ np.diag([1.0, -1.0, 2.0, 5.0, -5.0]) @ q,
        q.conj().T @ np.diag([1.0, -1.0, 2.0, 1.0, -1.0]) @ q,
    )
    grid = trace_curves(pair, 0.0, 2.0, 21)
    assert len(grid.points) == 21
    for p, mu in zip(grid.points, np.linspace(0.0, 2.0, 21)):
        ref = eig_at(pair, mu)
        assert p.mu == ref.mu
        assert np.array_equal(p.values, ref.values) and np.array_equal(p.vectors, ref.vectors)
