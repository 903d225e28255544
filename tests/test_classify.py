import gc
import weakref

import numpy as np
import pytest

from twodevp import refpairs
from twodevp.angles import dist_to_set
from twodevp.classify import Kind, classify, eigvec_set, fix_phase, multiplicity
from twodevp.curves import eig_at, lambda_double_prime, slopes
from twodevp.errors import TwoDevpError
from twodevp.model import HermitianPair

SQ2 = np.sqrt(2.0)


def k3_pair():
    """A pair with a triple eigenvalue 0 of A - 0*C."""
    a = np.diag([0.0, 0.0, 0.0, 2.0, -2.0])
    c = np.diag([1.0, -1.0, 1.0, 1.0, -1.0])
    return HermitianPair(a, c)


def test_multiplicity_two_at_crossing():
    k, basis = multiplicity(refpairs.multiple_pair_2x2(), 1.0, 0.0)
    assert k == 2
    assert basis.shape == (2, 2)


def test_multiplicity_one_on_simple_pair():
    k, basis = multiplicity(refpairs.simple_pair_2x2(), 0.0, 1.0)
    assert k == 1
    assert basis.shape == (2, 1)


def test_multiplicity_zero_off_spectrum():
    k, _ = multiplicity(refpairs.simple_pair_2x2(), 0.0, 5.0)
    assert k == 0
    k, _ = multiplicity(refpairs.multiple_pair_2x2(), 0.0, 5.0)
    assert k == 0


def test_classify_simple_target():
    c = classify(refpairs.simple_pair_2x2(), 0.0, 1.0)
    assert c.kind is Kind.NONSINGULAR_SIMPLE
    assert c.multiplicity == 1
    assert abs(c.lambda_double_prime - 1.0) < 1e-8
    assert c.sigma_min_j > 0.1


def test_classify_multiple_target():
    c = classify(refpairs.multiple_pair_2x2(), 1.0, 0.0)
    assert c.kind is Kind.NONSINGULAR_MULTIPLE
    assert c.multiplicity == 2
    assert np.allclose(sorted(c.cluster_c_eigs), [-1.0, 1.0], atol=1e-10)


def test_classify_triple_cluster_is_singular():
    c = classify(k3_pair(), 0.0, 0.0)
    assert c.kind is Kind.SINGULAR
    assert c.multiplicity == 3


def test_classify_off_spectrum_raises():
    with pytest.raises(TwoDevpError, match="no eigenvalue of A - mu.C near lambda"):
        classify(refpairs.simple_pair_2x2(), 0.0, 5.0)


def test_classify_rejects_non_isotropic_simple_eigenpair():
    # at mu=1 the eigenvector of the larger eigenvalue has x^H C x != 0,
    # so (1, sqrt2) is an eigenpair but not a 2D-eigenvalue
    with pytest.raises(TwoDevpError, match="simple eigenvector is not isotropic"):
        classify(refpairs.simple_pair_2x2(), 1.0, SQ2)


def test_classify_definite_cluster_is_singular():
    # two curves with slopes of the same sign crossing at mu=1
    a = np.diag([0.0, 1.0, 5.0])
    c = np.diag([1.0, 2.0, -1.0])
    cls = classify(HermitianPair(a, c), 1.0, -1.0)
    assert cls.kind is Kind.SINGULAR
    assert cls.multiplicity == 2


def test_eigvec_set_simple():
    s = eigvec_set(refpairs.simple_pair_2x2(), 0.0, 1.0)
    assert s.regime == "simple"
    assert (s.mu, s.lam) == (0.0, 1.0)
    assert s.v.shape == (2, 1) and np.array_equal(s.w, [1.0])
    assert np.allclose(s.triplet.x, np.array([1.0, 1.0]) / SQ2)


def test_eigvec_set_multiple():
    s = eigvec_set(refpairs.multiple_pair_2x2(), 1.0, 0.0)
    assert s.regime == "multiple"
    assert s.v.shape == (2, 2) and np.allclose(s.w, [1.0 / SQ2, 1.0 / SQ2])
    # columns are e1, e2 up to phase
    mags = np.abs(s.v)
    assert np.allclose(mags, np.eye(2), atol=1e-12)


def test_errors_gives_mu_lambda_and_set_distances():
    x = np.array([1.0, 0.0])
    for pair, mu, lam in ((refpairs.simple_pair_2x2(), 0.0, 1.0), (refpairs.multiple_pair_2x2(), 1.0, 0.0)):
        s = eigvec_set(pair, mu, lam)
        errs = s.errors(mu + 0.25, lam - 0.5, x)
        assert errs == (0.25, 0.5, dist_to_set(x, s))
        assert abs(errs[2] - np.sqrt(2.0 - SQ2)) < 1e-15
        # a stack of k triplets gives k errors of each kind
        xs = np.array([x, s.triplet.x, [0.6, 0.8j]])
        stacked = s.errors(mu + np.array([0.25, 0.0, -1.0]), lam + np.array([-0.5, 0.0, 2.0]), xs)
        assert [e.shape for e in stacked] == [(3,)] * 3
        assert np.allclose(stacked[0], [0.25, 0.0, 1.0], rtol=0, atol=1e-15)
        assert np.allclose(stacked[1], [0.5, 0.0, 2.0], rtol=0, atol=1e-15)
        assert np.allclose(stacked[2], [dist_to_set(y, s) for y in xs], rtol=0, atol=1e-15)


def test_multiple_representative_is_isotropic_unit():
    pair, trip = refpairs.multiple_pair_desk()
    s = eigvec_set(pair, trip.mu, trip.lam)
    x = s.triplet.x
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    assert abs(np.vdot(x, pair.c @ x)) < 1e-12


def test_classify_phase_invariant():
    # evidence values do not depend on the eigenvector phase convention,
    # which classify never receives; rerun for determinism instead
    pair = refpairs.simple_pair_2x2()
    c1 = classify(pair, 0.0, 1.0)
    c2 = classify(pair, 0.0, 1.0)
    assert c1.kind is c2.kind
    assert abs(c1.lambda_double_prime - c2.lambda_double_prime) < 1e-12
    assert abs(c1.sigma_min_j - c2.sigma_min_j) < 1e-12


def test_simple_target_has_nonzero_cx_and_xprime():
    from twodevp.curves import eigvec_derivative

    pair, t = refpairs.simple_pair_desk()
    assert np.linalg.norm(pair.c @ t.x) > 1e-10
    assert np.linalg.norm(eigvec_derivative(pair, t.mu, t.lam, t.x)) > 1e-10


def test_multiple_cluster_slopes_have_opposite_signs():
    pair, trip = refpairs.multiple_pair_desk()
    s = eigvec_set(pair, trip.mu, trip.lam)
    s1, s2 = slopes(pair, s.v)
    assert s1 * s2 < 0


def test_fix_phase_makes_largest_entry_real_positive():
    x = np.array([0.3 * np.exp(2.0j), 0.9 * np.exp(-0.4j)])
    y = fix_phase(x)
    i = int(np.argmax(np.abs(y)))
    assert y[i].imag == pytest.approx(0.0, abs=1e-15)
    assert y[i].real > 0


def test_eigvec_set_takes_one_decomposition_per_point(count_linalg):
    # simple: one eigh of A - mu*C, which also gives lam''
    pair, trip = refpairs.simple_pair_desk()
    calls = count_linalg()
    eigvec_set(pair, trip.mu, trip.lam)
    assert calls == [("eigh", (pair.n, pair.n))]
    # multiple: one eigh of A - mu*C, one of the 2 x 2 cluster form of C
    pair, trip = refpairs.multiple_pair_desk()
    del calls[:]
    eigvec_set(pair, trip.mu, trip.lam)
    assert calls == [("eigh", (pair.n, pair.n)), ("eigh", (2, 2))]


def test_eigvec_set_keeps_nothing_on_the_pair():
    # with the cycle collector off, reference counting alone frees the pair
    pair, trip = refpairs.simple_pair_desk()
    target = eigvec_set(pair, trip.mu, trip.lam)
    alive = weakref.ref(pair)
    gc.disable()
    try:
        del pair, target
        assert alive() is None
    finally:
        gc.enable()


def test_eigvec_set_failure_raises_on_every_call(count_linalg):
    pair = k3_pair()
    calls = count_linalg()
    for k in (1, 2):
        with pytest.raises(TwoDevpError, match="nonsingular"):
            eigvec_set(pair, 0.0, 0.0)
        assert calls.count(("eigh", (pair.n, pair.n))) == k


def test_eigvec_set_arrays_are_read_only():
    for pair, trip in (refpairs.simple_pair_desk(), refpairs.multiple_pair_desk()):
        s = eigvec_set(pair, trip.mu, trip.lam)
        # the target is its own triplet, with x = v @ w
        assert s.triplet is s and np.array_equal(s.x, s.v @ s.w)
        for arr in (s.v, s.w, s.x):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def test_close_neighbour_outside_cluster_keeps_curvature():
    # At mu = 1 the eigenvalues +-delta are 2*delta apart: outside
    # default_tol_mult, so the branch is simple, and its curvature 1/delta
    # comes from exactly that close neighbour.
    delta = 1e-7
    a = np.array([[1.0, delta, 0.0], [delta, -1.0, 0.0], [0.0, 0.0, 100.0]])
    pair = HermitianPair(a, np.diag([1.0, -1.0, 1.0]))
    point = eig_at(pair, 1.0)
    lam, x = float(point.values[1]), point.vectors[:, 1]
    assert classify(pair, 1.0, lam).kind is Kind.NONSINGULAR_SIMPLE
    assert abs(lambda_double_prime(pair, 1.0, lam, x) * delta - 1.0) <= 1e-6
    assert eigvec_set(pair, 1.0, lam).regime == "simple"
