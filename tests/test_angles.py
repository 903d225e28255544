import numpy as np
import pytest

from twodevp import refpairs
from twodevp.angles import canonical_angles, dist_to_set
from twodevp.classify import eigvec_set
from twodevp.errors import TwoDevpError
from twodevp.harness import random_pair_with_crossing

SQ2 = np.sqrt(2.0)


def test_canonical_angles_identical_subspaces():
    rng = np.random.default_rng(0)
    x, _ = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
    assert np.allclose(canonical_angles(x, x), 0.0, atol=1e-14)


@pytest.mark.parametrize("a", [1e-4, 1e-8, 1e-12])
def test_canonical_angles_small_angle_to_relative_accuracy(a):
    e1 = np.array([1.0, 0.0, 0.0]).reshape(-1, 1)
    d = np.array([np.cos(a), np.sin(a), 0.0]).reshape(-1, 1)
    assert abs(canonical_angles(e1, d)[0] - a) <= 1e-10 * a


def test_canonical_angles_orthogonal_vectors():
    e1 = np.array([1.0, 0.0]).reshape(-1, 1)
    e2 = np.array([0.0, 1.0]).reshape(-1, 1)
    assert np.isclose(canonical_angles(e1, e2)[0], np.pi / 2)


def test_canonical_angles_forty_five_degrees():
    e1 = np.array([1.0, 0.0]).reshape(-1, 1)
    d = (np.array([1.0, 1.0]) / SQ2).reshape(-1, 1)
    assert np.isclose(canonical_angles(e1, d)[0], np.pi / 4)


def test_canonical_angles_sorted_and_bounded():
    rng = np.random.default_rng(1)
    x, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    y, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    ang = canonical_angles(x, y)
    assert np.all(np.diff(ang) >= 0)
    assert np.all((0 <= ang) & (ang <= np.pi / 2))


def test_canonical_angles_rejects_nonorthonormal():
    with pytest.raises(TwoDevpError, match="X deviates from orthonormality"):
        canonical_angles(np.ones((3, 2)), np.eye(3)[:, :2])


def test_sin_theta_phase_invariant():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u /= np.linalg.norm(u)
    v = u * np.exp(0.3j)
    assert np.sin(canonical_angles(u.reshape(-1, 1), v.reshape(-1, 1))[-1]) < 1e-7


def test_sin_theta_vector_formula():
    u = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0]) / SQ2
    got = np.sin(canonical_angles(u.reshape(-1, 1), v.reshape(-1, 1))[-1])
    assert np.isclose(got, 1.0 / SQ2)


def test_sin_theta_span_invariance():
    rng = np.random.default_rng(3)
    x, _ = np.linalg.qr(rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2)))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    assert np.sin(canonical_angles(x, x @ q)[-1]) < 1e-7


def test_sin_theta_matches_vector_closed_form_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        got = np.sin(canonical_angles(u.reshape(-1, 1), v.reshape(-1, 1))[-1])
        want = np.sqrt(max(0.0, 1.0 - abs(np.vdot(u, v)) ** 2))
        assert abs(got - want) < 1e-10


def test_dist_to_simple_set():
    s = eigvec_set(refpairs.simple_pair_2x2(), 0.0, 1.0)
    x = s.triplet.x
    assert dist_to_set(x, s) < 1e-15
    assert dist_to_set(x * np.exp(2.1j), s) < 1e-15
    perp = np.array([1.0, -1.0]) / SQ2
    assert np.isclose(dist_to_set(perp, s), SQ2)


def test_dist_to_multiple_set_phase_freedom():
    s = eigvec_set(refpairs.multiple_pair_2x2(), 1.0, 0.0)
    for phi in (0.0, 0.4, 2.2, -1.0):
        x = (np.exp(1j * phi) * np.array([1.0, 0.0]) + np.array([0.0, 1.0])) / SQ2
        assert dist_to_set(x, s) < 1e-12


def test_dist_to_simple_set_matches_grid_search():
    rng = np.random.default_rng(5)
    s = eigvec_set(refpairs.simple_pair_2x2(), 0.0, 1.0)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x /= np.linalg.norm(x)
    got = dist_to_set(x, s)
    phases = np.exp(1j * np.arange(0.0, 2 * np.pi, 1e-4))
    brute = min(np.linalg.norm(x - g * s.triplet.x) for g in phases)
    assert abs(got - brute) < 1e-7


def test_dist_to_multiple_set_matches_grid_search():
    rng = np.random.default_rng(6)
    pair, trip = refpairs.multiple_pair_desk()
    s = eigvec_set(pair, trip.mu, trip.lam)
    x = s.triplet.x + 0.3 * (rng.standard_normal(pair.n) + 1j * rng.standard_normal(pair.n))
    x /= np.linalg.norm(x)
    got = dist_to_set(x, s)
    phases = np.exp(1j * np.arange(0.0, 2 * np.pi, 1e-3))
    brute = min(
        np.linalg.norm(x - s.v @ (np.array([g1, g2]) * s.w))
        for g1 in phases[::10]
        for g2 in phases[::10]
    )
    assert got <= brute + 1e-12
    assert abs(got - brute) < 1e-3


def _dist_per_member(x, s):
    """The set distance of one vector, written out member by member."""
    y = np.zeros_like(x)
    for v, w in zip(s.v.T, s.w):
        ov = np.vdot(v, x)
        y = y + w * (ov / abs(ov) if abs(ov) > 0 else 1.0) * v
    return np.linalg.norm(x - y)


def test_dist_to_set_of_a_stack_matches_the_per_member_formula():
    rng = np.random.default_rng(14)
    crossing = random_pair_with_crossing(12, (6, 6), 0.4, -0.3, 11)
    sets = [eigvec_set(crossing, 0.4, -0.3)]
    for pair, trip in (refpairs.simple_pair_desk(), refpairs.multiple_pair_desk()):
        sets.append(eigvec_set(pair, trip.mu, trip.lam))
    for s in sets:
        n = s.v.shape[0]
        xs = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
        xs[0] = s.triplet.x
        xs[1] = 0.0  # v_i^H x = 0 for every i: each phase is taken as 1
        xs[2] -= s.v[:, 0] * np.vdot(s.v[:, 0], xs[2])  # v_1^H x at roundoff
        got = dist_to_set(xs, s)
        assert got.shape == (20,)
        for x, d in zip(xs, got):
            assert abs(d - _dist_per_member(x, s)) <= 1e-15 * max(1.0, d)
            assert abs(dist_to_set(x, s) - d) <= 1e-15 * max(1.0, d)
        assert abs(got[1] - 1.0) <= 1e-15
