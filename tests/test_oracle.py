import numpy as np
import pytest

from twodevp import oracle, refpairs
from twodevp.classify import Kind, classify
from twodevp.curves import eig_at
from twodevp.errors import NotIndefinite, TwoDevpError
from twodevp.model import HermitianPair, residual
from twodevp.harness import random_pair, random_pair_with_crossing
from twodevp.oracle import HitKind, refine_critical, refine_crossing, scan

SQ2 = np.sqrt(2.0)


def test_scan_finds_both_critical_points():
    pair = refpairs.simple_pair_2x2()
    hits, _ = scan(pair, -1.0, 1.0, 64)
    crit = sorted(
        (h for h in hits if h.kind is HitKind.CRITICAL_POINT),
        key=lambda h: h.triplet.lam,
    )
    assert len(crit) == 2
    bot, top = crit
    assert abs(top.triplet.mu) < 1e-10 and abs(top.triplet.lam - 1.0) < 1e-10
    assert abs(bot.triplet.mu) < 1e-10 and abs(bot.triplet.lam + 1.0) < 1e-10
    assert abs(abs(np.vdot(top.triplet.x, np.array([1, 1]) / SQ2)) - 1.0) < 1e-8
    assert abs(abs(np.vdot(bot.triplet.x, np.array([1, -1]) / SQ2)) - 1.0) < 1e-8


def test_scan_finds_critical_points_on_the_last_grid_point():
    # the slopes vanish at mu = 0, the right end of the window
    hits, _ = scan(refpairs.simple_pair_2x2(), -1.0, 0.0, 8)
    crit = sorted((h.triplet for h in hits if h.kind is HitKind.CRITICAL_POINT), key=lambda t: t.lam)
    assert len(crit) == 2
    assert all(abs(t.mu) < 1e-12 for t in crit)
    assert np.allclose([t.lam for t in crit], [-1.0, 1.0], atol=1e-12)


def test_scan_finds_crossing():
    pair = refpairs.multiple_pair_2x2()
    hits, _ = scan(pair, 0.0, 2.0, 64)
    cross = [h for h in hits if h.kind is HitKind.CROSSING]
    assert len(cross) == 1
    h = cross[0]
    assert abs(h.triplet.mu - 1.0) < 1e-10 and abs(h.triplet.lam) < 1e-10
    assert abs(np.vdot(h.triplet.x, pair.c @ h.triplet.x)) < 1e-10


def test_scan_empty_away_from_solutions():
    # on [2, 4] the hyperbola slopes never change sign and nothing crosses
    pair = refpairs.simple_pair_2x2()
    hits, _ = scan(pair, 2.0, 4.0, 32)
    assert hits == []


def test_scan_excludes_same_sign_slope_crossings():
    # curves -mu and 1-2mu cross at mu=1 with slopes -1 and -2
    pair = HermitianPair(np.diag([0.0, 1.0, 5.0]), np.diag([1.0, 2.0, -1.0]))
    hits, _ = scan(pair, 0.0, 2.0, 64)
    assert all(h.kind is not HitKind.CROSSING for h in hits)


def test_scan_completeness_on_diagonal_pair():
    rng = np.random.default_rng(3)
    a_diag = rng.uniform(-2.0, 2.0, 6)
    c_diag = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    pair = HermitianPair(np.diag(a_diag), np.diag(c_diag))
    expected = sorted(
        (a_diag[i] - a_diag[j]) / (c_diag[i] - c_diag[j])
        for i in range(6)
        for j in range(i + 1, 6)
        if c_diag[i] * c_diag[j] < 0
        and -3.0 < (a_diag[i] - a_diag[j]) / (c_diag[i] - c_diag[j]) < 3.0
    )
    hits, _ = scan(pair, -3.0, 3.0, 128)
    got = sorted(h.triplet.mu for h in hits if h.kind is HitKind.CROSSING)
    assert len(got) == len(expected)
    assert max(abs(e - g) for e, g in zip(expected, got)) < 1e-10


def test_hits_have_small_residuals():
    for pair, window in [
        (refpairs.simple_pair_2x2(), (-1.0, 1.0)),
        (refpairs.multiple_pair_2x2(), (0.0, 2.0)),
    ]:
        hits, _ = scan(pair, window[0], window[1], 64)
        assert hits
        for h in hits:
            scale = pair.scale(h.triplet.mu, h.triplet.lam)
            assert np.linalg.norm(residual(pair, h.triplet)) <= 1e-9 * scale


def test_hits_classify_cleanly():
    pair, _ = refpairs.simple_pair_desk()
    hits, _ = scan(pair, -0.5, 0.5, 64)
    assert hits
    for h in hits:
        c = classify(pair, h.triplet.mu, h.triplet.lam)
        assert c.multiplicity >= 1


def test_refine_critical_rejects_bad_bracket():
    # on [1, 2] both hyperbola branches are monotone
    pair = refpairs.simple_pair_2x2()
    with pytest.raises(TwoDevpError, match="does not change sign"):
        refine_critical(pair, eig_at(pair, 1.0), eig_at(pair, 1.0 + 1.0 / 15.0), 0)


def _cell_at(mu):
    """The cell of linspace(-3, 3, 96) holding mu."""
    mus = np.linspace(-3.0, 3.0, 96)
    j = int(np.searchsorted(mus, mu)) - 1
    return mus[j], mus[j + 1]


def test_scan_tells_crossing_from_nearby_critical_point():
    # In this cell sorted curves 30 and 31 meet at the planted crossing,
    # and sorted curve 32 has a critical point 3.5e-5 away from it.
    pair = random_pair_with_crossing(64, (32, 32), 0.4, -0.3, 10)
    lo, hi = _cell_at(0.4)
    hits, suspects = scan(pair, lo, hi, 8)
    assert suspects == []
    assert [h.curves for h in hits if h.kind is HitKind.CROSSING] == [(30, 31)]
    crit = [h for h in hits if h.kind is HitKind.CRITICAL_POINT and h.curves == (32,)]
    assert len(crit) == 1
    mu, lam = crit[0].triplet.mu, crit[0].triplet.lam
    assert abs(mu - 0.4000345) < 1e-7
    assert classify(pair, mu, lam).kind is Kind.NONSINGULAR_SIMPLE


@pytest.mark.parametrize("seed", [9, 10, 11, 14])
def test_kink_steps_refine_a_crossing_in_few_decompositions(monkeypatch, seed):
    # the kink has no curvature; the tangents of the two sorted curves meet
    # at the crossing, where bisection alone takes about 40 calls.  Curve i
    # is the first of the crossing's pair, the one scan refines.
    pair = random_pair_with_crossing(64, (32, 32), 0.4, -0.3, seed)
    lo, hi = _cell_at(0.4)
    left, right = eig_at(pair, lo), eig_at(pair, hi)
    i = int(np.flatnonzero(np.abs(eig_at(pair, 0.4).values + 0.3) < 1e-8)[0])
    calls = []

    def counting(pair, mu):
        calls.append(mu)
        return eig_at(pair, mu)

    monkeypatch.setattr(oracle, "eig_at", counting)
    hit = refine_critical(pair, left, right, i)
    assert hit.kind is HitKind.CROSSING and hit.curves == (i, i + 1)
    assert abs(hit.triplet.mu - 0.4) <= 1e-12 and abs(hit.triplet.lam + 0.3) < 1e-10
    assert len(calls) <= 12


def test_refine_crossing_rejects_a_definite_cluster():
    # at mu = 1, A - C = diag(-1, -1, 6): the cluster of -1 is sorted curves
    # 1 and 2, on which C is diag(1, 2), so no cluster vector is isotropic
    pair = HermitianPair(np.diag([0.0, 1.0, 5.0]), np.diag([1.0, 2.0, -1.0]))
    with pytest.raises(NotIndefinite):
        refine_crossing(pair, eig_at(pair, 1.0), np.array([1, 2]), (0.9, 1.1), 0.0)


def _count_eig_at_per_hit(monkeypatch):
    """Route oracle.eig_at and oracle.refine_critical through counters.

    Returns a list that gets (hit, eig_at calls made while refining it)
    for every refine_critical call.
    """
    calls, per_hit = [], []

    def counting(pair, mu):
        calls.append(mu)
        return eig_at(pair, mu)

    def refining(*args):
        before = len(calls)
        hit = refine_critical(*args)
        per_hit.append((hit, len(calls) - before))
        return hit

    monkeypatch.setattr(oracle, "eig_at", counting)
    monkeypatch.setattr(oracle, "refine_critical", refining)
    return per_hit


def test_newton_refines_a_critical_point_in_few_decompositions(monkeypatch):
    # bisection to 1e-13 takes about 40, and Newton from one end of the cell
    # 3.1 on average; the Hermite first iterate is accurate to O(h^4).  An
    # iterate that lands on the zero to rounding must be accepted before its
    # Newton step is tested
    per_hit = _count_eig_at_per_hit(monkeypatch)
    pair = random_pair_with_crossing(64, (32, 32), 0.4, -0.3, 13)
    hits, _ = scan(pair, -3.0, 3.0, 96)
    crit = [n for h, n in per_hit if h.kind is HitKind.CRITICAL_POINT]
    assert len(crit) == len([h for h in hits if h.kind is HitKind.CRITICAL_POINT]) > 90
    assert max(crit) <= 4
    assert np.mean(crit) <= 2.6


def test_crossing_at_zero_with_a_zero_a_stops_in_few_decompositions(monkeypatch):
    # with A = 0 every curve crosses at mu = 0, where a width scaled by |A|
    # would vanish and let bisection run on to subnormal numbers
    per_hit = _count_eig_at_per_hit(monkeypatch)
    hits, _ = scan(HermitianPair(np.zeros((4, 4)), np.diag([1.0, -1.0, 2.0, -3.0])), -1.0, 1.0, 9)
    assert [h.kind for h in hits] == [HitKind.CROSSING]
    assert abs(hits[0].triplet.mu) <= 1e-13
    assert sum(n for _, n in per_hit) <= 50


def test_refine_critical_takes_no_decomposition_at_a_zero_slope(monkeypatch):
    # the slope of both curves vanishes at mu = 0, the left bracket end
    per_hit = _count_eig_at_per_hit(monkeypatch)
    pair = refpairs.simple_pair_2x2()
    hit = oracle.refine_critical(pair, eig_at(pair, 0.0), eig_at(pair, 0.25), 0)
    assert [n for _, n in per_hit] == [0]
    assert hit.triplet.mu == 0.0 and hit.refined_to == 0.0


@pytest.mark.parametrize("window", [(-1.0, 1.0, 9), (-1.0, 0.0, 8), (-1.0, 1.0, 8)])
def test_refined_to_is_the_distance_to_the_zero(window):
    # scan reads refined_to as a radius when it closes the cell past a hit
    # on a grid point, so it must not be a step or a cell width
    hits, _ = scan(refpairs.simple_pair_2x2(), *window)
    assert len(hits) == 2
    assert all(h.refined_to <= 1e-13 * (1.0 + abs(h.triplet.mu)) for h in hits)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_critical_points_match_brentq_on_the_sorted_slope(seed):
    # the reference root finder sees the pair only through numpy.linalg.eigh
    brentq = pytest.importorskip("scipy.optimize").brentq
    pair = random_pair_with_crossing(24, (12, 12), 0.4, -0.3, seed)
    hits, _ = scan(pair, -3.0, 3.0, 96)
    crit = [h for h in hits if h.kind is HitKind.CRITICAL_POINT]
    assert crit
    for h in crit:
        col = pair.n - 1 - h.curves[0]  # eigh sorts ascending

        def slope(mu):
            x = np.linalg.eigh(pair.a - mu * pair.c)[1][:, col]
            return -np.real(np.vdot(x, pair.c @ x))

        root = brentq(slope, *h.bracket, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        assert abs(h.triplet.mu - root) <= 1e-12


def test_scan_returns_on_a_zero_a_pair():
    # every eigencurve is a line through (0, 0), so the width
    # 1e-13 * (|mu| + |A|/|C|) vanishes at the zero: bisection must stop
    # when the midpoint no longer lies strictly inside the bracket
    pair = HermitianPair(np.zeros((4, 4)), np.diag([1.0, -1.0, 2.0, -3.0]))
    hits, _ = scan(pair, -1.0, 1.0, 9)
    assert [h.curves for h in hits] == [(0, 1, 2, 3)]
    assert abs(hits[0].triplet.mu) <= 1e-12


def _triple_crossing_pair():
    # Three branches 1 - mu, -1 + mu and 2 - 2 mu meet at (1, 0), which is a
    # grid point of scan(pair, 0, 2, 21)
    q = refpairs.haar_unitary(np.random.default_rng(1), 5)
    a = q.conj().T @ np.diag([1.0, -1.0, 2.0, 5.0, -5.0]) @ q
    c = q.conj().T @ np.diag([1.0, -1.0, 2.0, 1.0, -1.0]) @ q
    return HermitianPair(a, c)


def test_scan_files_triple_crossing_as_crossing():
    # Sorted curves 1 and 3 change slope sign at the triple point; both are
    # one crossing, not critical points.
    pair = _triple_crossing_pair()
    hits, _ = scan(pair, 0.0, 2.0, 21)
    assert hits
    assert all(h.kind is HitKind.CROSSING for h in hits)
    for h in hits:
        assert np.linalg.norm(residual(pair, h.triplet)) <= 1e-10 * pair.scale(h.triplet.mu, h.triplet.lam)


def test_scan_returns_a_crossing_on_a_grid_point_once():
    # the triple point ends two grid cells; both brackets are the one hit
    hits, _ = scan(_triple_crossing_pair(), 0.0, 2.0, 21)
    crossings = [h for h in hits if h.kind is HitKind.CROSSING]
    assert len(crossings) == 1
    assert abs(crossings[0].triplet.mu - 1.0) <= 1e-12


def test_scan_brackets_are_grid_cells():
    # scan refines on the plain grid; it adds no point inside a cell
    hits, _ = scan(_triple_crossing_pair(), 0.0, 2.0, 21)
    mus = np.linspace(0.0, 2.0, 21)
    cells = set(zip(mus, mus[1:]))
    assert hits and all(h.bracket in cells for h in hits)


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-10])
def test_scan_and_classify_do_not_depend_on_the_scale_of_the_pair(s):
    # (sA, sC) has the 2D-eigenvalues of (A, C), with lambda scaled by s, so
    # no absolute tolerance floor may decide a hit, a suspect or a kind
    pair = random_pair(6, (3, 3), 1)
    scaled = HermitianPair(s * pair.a, s * pair.c)
    want, _ = scan(pair, -3.0, 3.0, 40)
    got, suspects = scan(scaled, -3.0, 3.0, 40)
    assert suspects == []
    assert [(h.kind, h.curves) for h in got] == [(h.kind, h.curves) for h in want]
    assert max(abs(g.triplet.mu - w.triplet.mu) for g, w in zip(got, want)) <= 1e-12
    kinds = [classify(pair, h.triplet.mu, h.triplet.lam).kind for h in want]
    assert [classify(scaled, h.triplet.mu, h.triplet.lam).kind for h in got] == kinds
    assert len(want) == 8 and set(kinds) == {Kind.NONSINGULAR_SIMPLE}


def test_scan_rejects_an_infinite_window():
    with pytest.raises(ValueError):
        scan(refpairs.simple_pair_2x2(), -1.0, np.inf, 64)


def test_scan_requires_reasonable_grid():
    with pytest.raises(ValueError):
        scan(refpairs.simple_pair_2x2(), -1.0, 1.0, 4)


def test_scan_flags_flat_slope_as_suspect():
    # a nearly flat eigencurve has a tiny slope of constant sign: never a
    # sign change, but flagged as suspect at every grid point
    pair = HermitianPair(np.diag([0.0, 5.0, -5.0]), np.diag([1e-9, 1.0, -1.0]))
    hits, suspects = scan(pair, -1.0, 1.0, 16)
    assert not hits and all(type(i) is int for _, i in suspects)
    assert sorted(mu for mu, _ in suspects) == list(np.linspace(-1.0, 1.0, 16))


def test_scan_flags_a_flat_last_grid_point_as_suspect():
    # the slopes -+mu/sqrt(1 + mu^2) of the curves +-sqrt(1 + mu^2) keep
    # their sign on each window but are below the tolerance at mu = +-1e-9
    right = scan(refpairs.simple_pair_2x2(), 1e-9, 1.0, 8)
    left = scan(refpairs.simple_pair_2x2(), -1.0, -1e-9, 8)
    assert right[0] == [] and left[0] == []
    assert sorted(right[1]) == [(1e-9, 0), (1e-9, 1)]
    assert sorted(left[1]) == [(-1e-9, 0), (-1e-9, 1)]
