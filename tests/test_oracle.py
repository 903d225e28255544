import pickle
import threading

import numpy as np
import pytest

from twodevp import kernels, oracle, refpairs
from twodevp.classify import Kind, Target, classify, eigvec_set, fix_phase
from twodevp.curves import eig_at
from twodevp.errors import TwoDevpError
from twodevp.model import HermitianPair, Triplet, residual
from twodevp.harness import perturbed_starts, random_pair, random_pair_with_crossing
from twodevp.oracle import HitKind, refine_critical, refine_crossing, scan
from twodevp.rqi import solve

from helpers import residual_scale

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
            scale = residual_scale(pair, h.triplet.mu, h.triplet.lam)
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


@pytest.mark.parametrize("reverse, i", [(True, 0), (False, 99), (False, -1)],
                         ids=["reversed_bracket", "past_the_last_curve", "negative_curve"])
def test_refine_critical_rejects_bad_arguments(reverse, i):
    # scan's cells (1.99, 2.05) and (1.93, 1.99) of the simple desk pair
    # bracket crossings of curves 0 and 1, and of 6 and 7.  Unchecked, the
    # reversed first cell gave a hit at its end with refined_to -0.063,
    # i = 99 an IndexError, and i = -1 refined curve 7
    pair, _ = refpairs.simple_pair_desk()
    lo, hi = _cell_at(2.03) if reverse else _cell_at(1.93)
    left, right = (eig_at(pair, hi), eig_at(pair, lo)) if reverse else (eig_at(pair, lo), eig_at(pair, hi))
    with pytest.raises(ValueError, match="left.mu < right.mu"):
        refine_critical(pair, left, right, i)


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
    assert refine_crossing(pair, eig_at(pair, 1.0), np.array([1, 2]), (0.9, 1.1), 0.0) is None


def test_scan_files_a_bracket_without_an_isotropic_vector_as_suspect(monkeypatch):
    # a crossing refined to a definite cluster leaves its bracket's midpoint
    monkeypatch.setattr(oracle, "refine_crossing", lambda *args: None)
    hits, suspects = scan(refpairs.multiple_pair_2x2(), 0.0, 2.0, 64)
    assert [h for h in hits if h.kind is HitKind.CROSSING] == []
    mus = np.linspace(0.0, 2.0, 64)
    cell = np.searchsorted(mus, 1.0)
    assert suspects and all(mu == 0.5 * (mus[cell - 1] + mus[cell]) for mu, _ in suspects)


def _count_eig_at_per_hit(monkeypatch):
    """Route oracle.eig_at and oracle.refine_critical through counters.

    Returns a list that gets (hit, eig_at calls made while refining it)
    for every refine_critical call.  The calls are counted per thread, as
    scan may refine brackets on several threads at once, and each
    refinement runs on one thread.
    """
    local, per_hit = threading.local(), []

    def counting(pair, mu):
        local.calls = getattr(local, "calls", 0) + 1
        return eig_at(pair, mu)

    def refining(*args):
        before = getattr(local, "calls", 0)
        hit = refine_critical(*args)
        per_hit.append((hit, getattr(local, "calls", 0) - before))
        return hit

    monkeypatch.setattr(oracle, "eig_at", counting)
    monkeypatch.setattr(oracle, "refine_critical", refining)
    return per_hit


def test_newton_refines_a_critical_point_in_few_decompositions(monkeypatch):
    # bisection to 1e-13 takes about 40, and Newton from one end of the cell
    # 3.1 on average; the Hermite first iterate is accurate to O(h^4), and
    # Halley's steps take about 2.1 where Newton's took 2.3 to 2.5.  An
    # iterate that lands on the zero to rounding must be accepted before its
    # Newton step is tested.  On threads scan also refines brackets whose
    # hit it drops, so only the refinements of returned hits count
    per_hit = _count_eig_at_per_hit(monkeypatch)
    for seed in (0, 1, 2, 3, 13):
        per_hit.clear()
        pair = random_pair_with_crossing(64, (32, 32), 0.4, -0.3, seed)
        hits, _ = scan(pair, -3.0, 3.0, 96)
        returned = {id(h) for h in hits}
        crit = [n for h, n in per_hit if id(h) in returned and h.kind is HitKind.CRITICAL_POINT]
        assert len(crit) == len([h for h in hits if h.kind is HitKind.CRITICAL_POINT]) > 90
        assert max(crit) <= 4, seed
        assert np.mean(crit) <= 2.2, (seed, np.mean(crit))


@pytest.mark.parametrize("pair, calls", [(refpairs.simple_pair_desk()[0], 31), (refpairs.multiple_pair_desk()[0], 48)],
                         ids=["simple_desk", "multiple_desk"])
def test_halley_steps_never_preempt_a_kink_step(monkeypatch, pair, calls):
    # the desk pairs' kinks take kink steps; a Halley step taken in place of
    # the Newton step's test converges only linearly there (123 calls on the
    # simple desk pair against 31)
    per_hit = _count_eig_at_per_hit(monkeypatch)
    scan(pair, -3.0, 3.0, 96)
    assert sum(n for _, n in per_hit) <= calls


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
        assert np.linalg.norm(residual(pair, h.triplet)) <= 1e-10 * residual_scale(pair, h.triplet.mu, h.triplet.lam)


def test_scan_returns_a_crossing_on_a_grid_point_once():
    # the triple point ends two grid cells; both brackets are the one hit
    hits, _ = scan(_triple_crossing_pair(), 0.0, 2.0, 21)
    crossings = [h for h in hits if h.kind is HitKind.CROSSING]
    assert len(crossings) == 1
    assert abs(crossings[0].triplet.mu - 1.0) <= 1e-12


def test_scan_returns_a_crossing_refined_off_a_grid_point_once():
    # the crossing of sorted curves 0 and 1 is at the grid point mu = 0;
    # refining the cell right of it lands 4e-17 away at an exactly zero
    # slope, which must still close the cell on its left
    pair = HermitianPair(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                         np.diag([1.0, -1.0, 1.0]))
    hits, _ = scan(pair, -1.0, 1.0, 9)
    crossings = [h for h in hits if h.kind is HitKind.CROSSING]
    assert [h.curves for h in crossings] == [(0, 1)]
    assert abs(crossings[0].triplet.mu) <= 1e-15


def test_scan_brackets_are_grid_cells():
    # scan refines on the plain grid; it adds no point inside a cell
    hits, _ = scan(_triple_crossing_pair(), 0.0, 2.0, 21)
    mus = np.linspace(0.0, 2.0, 21)
    cells = set(zip(mus, mus[1:]))
    assert hits and all(h.bracket in cells for h in hits)


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-10, 1e-160, 1e-200, 1e-300, 1e100, 1e150, 1e200, 1e250, 1e300])
def test_scan_and_classify_do_not_depend_on_the_scale_of_the_pair(s):
    # (sA, sC) has the 2D-eigenvalues of (A, C), with lambda scaled by s, so
    # no absolute tolerance floor may decide a hit, a suspect or a kind; past
    # s ~ 1e+-154 a product of two slopes, or |d|^2 in lam'', would under- or
    # overflow
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


@pytest.mark.parametrize("pair", [refpairs.simple_pair_desk()[0], refpairs.multiple_pair_desk()[0]]
                         + [random_pair_with_crossing(12, (6, 6), 0.4, -0.3, s) for s in range(10)])
def test_a_crossing_hit_is_the_isotropic_vector_of_eigvec_set(pair):
    # refine_crossing and eigvec_set build a cluster's isotropic vector
    # through the one kernel, so the hit's x is the target's, bitwise
    crossings = [h for h in scan(pair, -3.0, 3.0, 96)[0] if h.kind is HitKind.CROSSING]
    assert crossings
    for h in crossings:
        want = fix_phase(eigvec_set(pair, h.triplet.mu, h.triplet.lam).x)
        assert np.array_equal(h.triplet.x, want)


@pytest.mark.parametrize("seed", range(6))
def test_scan_is_invariant_under_congruence_and_shifts(seed):
    # a unitary congruence keeps the eigencurves, A + 0.75 I moves them up
    # by 0.75, and A + 0.5 C is A - (mu - 0.5) C, the curves moved right by
    # 0.5; each scan must find the same 2D-eigenvalues, so a refinement
    # that leans on the basis or on the origin of mu or lambda shows here
    pair = random_pair_with_crossing(12, (6, 6), 0.4, -0.3, seed)
    q = refpairs.haar_unitary(np.random.default_rng(100 + seed), pair.n)
    cases = [
        (HermitianPair(q.conj().T @ pair.a @ q, q.conj().T @ pair.c @ q), 0.0, 0.0),
        (HermitianPair(pair.a + 0.75 * np.eye(pair.n), pair.c), 0.0, 0.75),
        (HermitianPair(pair.a + 0.5 * pair.c, pair.c), 0.5, 0.0),
    ]
    hits, _ = scan(pair, -3.0, 3.0, 96)
    assert hits
    for other, dmu, dlam in cases:
        moved, _ = scan(other, -3.0 + dmu, 3.0 + dmu, 96)
        assert [(h.kind, h.curves) for h in moved] == [(h.kind, h.curves) for h in hits]
        assert max(abs(g.triplet.mu - dmu - h.triplet.mu) for g, h in zip(moved, hits)) <= 1e-12
        assert max(abs(g.triplet.lam - dlam - h.triplet.lam) for g, h in zip(moved, hits)) <= 1e-12


def test_solve_is_invariant_under_congruence_and_shifts():
    # the twin of the scan's check: with x turned by Q^H, lambda moved by
    # 0.75 or mu by 0.5, each run from 20 starts per desk pair keeps its
    # status and step count and ends at the moved 2D-eigenvalue
    for (pair, trip), regime in ((refpairs.simple_pair_desk(), "simple"),
                                 (refpairs.multiple_pair_desk(), "multiple")):
        starts = perturbed_starts(Target.at(pair, trip, regime), 1e-2, 0, range(20))
        q = refpairs.haar_unitary(np.random.default_rng(100), pair.n)
        cases = [
            (HermitianPair(q.conj().T @ pair.a @ q, q.conj().T @ pair.c @ q), 0.0, 0.0, q.conj().T),
            (HermitianPair(pair.a + 0.75 * np.eye(pair.n), pair.c), 0.0, 0.75, np.eye(pair.n)),
            (HermitianPair(pair.a + 0.5 * pair.c, pair.c), 0.5, 0.0, np.eye(pair.n)),
        ]
        runs = [solve(pair, t) for t in starts]
        for other, dmu, dlam, turn in cases:
            for t, one in zip(starts, runs):
                got = solve(other, Triplet(t.mu + dmu, t.lam + dlam, turn @ t.x))
                assert got.status is one.status and len(got.iterates) == len(one.iterates), (regime, dmu, dlam)
                assert abs(got.final.mu - dmu - one.final.mu) <= 1e-12, (regime, dmu, dlam)
                assert abs(got.final.lam - dlam - one.final.lam) <= 1e-12, (regime, dmu, dlam)


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


def _scan_bits(pair, mu_lo, mu_hi, n_grid):
    """scan's hits and suspects, in order, as bytes: equal only if bitwise equal."""
    hits, suspects = scan(pair, mu_lo, mu_hi, n_grid)
    return pickle.dumps(([(h.kind, h.curves, h.bracket, h.refined_to, h.triplet.mu, h.triplet.lam,
                           h.triplet.x) for h in hits], suspects))


@pytest.fixture
def threads_on(monkeypatch):
    """Set kernels.THREADS_MIN_N to 0, so that scan of any pair runs on threads."""
    monkeypatch.setattr(kernels, "THREADS_MIN_N", 0)
    if kernels.thread_workers(0, 2) < 2:
        pytest.skip("one CPU is free, so map_threads never starts a thread")
    return monkeypatch


_A_ZERO = HermitianPair(np.zeros((4, 4)), np.diag([1.0, -1.0, 2.0, -3.0]))


@pytest.mark.parametrize("case", [
    lambda: (_triple_crossing_pair(), 0.0, 2.0, 21),
    lambda: (_A_ZERO, -1.0, 1.0, 9),
    lambda: (refpairs.simple_pair_2x2(), -1.0, 1.0, 9),
    lambda: (refpairs.simple_pair_2x2(), -1.0, 0.0, 8),
    lambda: (refpairs.simple_pair_2x2(), -1.0, 1.0, 8),
    lambda: (refpairs.simple_pair_desk()[0], -3.0, 3.0, 96),
    lambda: (refpairs.multiple_pair_desk()[0], -3.0, 3.0, 96),
] + [lambda s=s: (random_pair_with_crossing(12, (6, 6), 0.4, -0.3, s), -3.0, 3.0, 96) for s in range(10)],
    ids=["triple", "a_zero", "2x2_9", "2x2_left_8", "2x2_8", "simple_desk", "multiple_desk"]
    + ["n12_seed%d" % s for s in range(10)])
def test_threaded_scan_is_bitwise_the_serial_scan(threads_on, case):
    # refine_critical is a pure function of its cell, and the taken loop
    # reads the refinements in the serial order
    pair, *window = case()
    threaded = _scan_bits(pair, *window)
    threads_on.setattr(kernels, "THREADS_MIN_N", pair.n + 1)
    assert _scan_bits(pair, *window) == threaded


def test_scan_of_a_large_pair_runs_on_threads_and_is_bitwise_the_serial_scan(monkeypatch):
    if kernels.thread_workers(64, 2) < 2:
        pytest.skip("one CPU is free, or n = 64 is below THREADS_MIN_N")
    pair = random_pair_with_crossing(64, (32, 32), 0.4, -0.3, 3)
    threads = set()

    def refining(*args):
        threads.add(threading.get_ident())
        return refine_critical(*args)

    monkeypatch.setattr(oracle, "refine_critical", refining)
    threaded = _scan_bits(pair, -3.0, 3.0, 96)
    assert len(threads) > 1
    monkeypatch.setattr(kernels, "THREADS_MIN_N", 65)
    assert _scan_bits(pair, -3.0, 3.0, 96) == threaded


def test_threaded_scan_raises_a_refinement_error_and_leaves_no_thread(threads_on):
    pair = random_pair_with_crossing(12, (6, 6), 0.4, -0.3, 0)
    hits, _ = scan(pair, -3.0, 3.0, 96)
    hit = next(h for h in hits[len(hits) // 2:] if h.kind is HitKind.CRITICAL_POINT)
    error = TwoDevpError("planted")

    def refining(pair, left, right, i):
        if (left.mu, i) == (hit.bracket[0], hit.curves[0]):
            raise error
        return refine_critical(pair, left, right, i)

    threads_on.setattr(oracle, "refine_critical", refining)
    before = threading.active_count()
    with pytest.raises(TwoDevpError) as caught:
        scan(pair, -3.0, 3.0, 96)
    assert caught.value is error
    assert threading.active_count() == before
