import numpy as np
import pytest

from twodevp import oracle, refpairs
from twodevp.classify import classify
from twodevp.errors import BracketInvalid
from twodevp.model import HermitianPair, residual
from twodevp.harness import random_pair_with_crossing
from twodevp.oracle import HitKind, refine_critical, refine_crossing, scan
from twodevp.curves import trace_curves

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
            assert residual(pair, h.triplet).norm <= 1e-9 * scale


def test_hits_classify_cleanly():
    pair, _ = refpairs.simple_pair_desk()
    hits, _ = scan(pair, -0.5, 0.5, 64)
    assert hits
    for h in hits:
        c = classify(pair, h.triplet.mu, h.triplet.lam)
        assert c.multiplicity >= 1


def test_refine_critical_rejects_bad_bracket():
    pair = refpairs.simple_pair_2x2()
    grid = trace_curves(pair, 1.0, 2.0, 16)
    bracket = (grid.points[0].mu, grid.points[1].mu)
    with pytest.raises(BracketInvalid):
        refine_critical(pair, grid, 0, bracket)


def test_refine_crossing_rejects_gap_that_does_not_close():
    # Two gap sign changes in one grid cell of scan(pair, -3, 3, 96): curves
    # 30 and 31 meet at the planted crossing, while curves 30 and 32 stop
    # about 5e-5 apart, which is no 2D-eigenvalue.
    pair = random_pair_with_crossing(64, (32, 32), 0.4, -0.3, 10)
    grid = trace_curves(pair, -3.0, 3.0, 96)
    mus = grid.mus
    j = int(np.searchsorted(mus, 0.4)) - 1
    bracket = (mus[j], mus[j + 1])
    hit = refine_crossing(pair, grid, 30, 31, bracket)
    assert abs(hit.triplet.mu - 0.4) < 1e-10 and abs(hit.triplet.lam + 0.3) < 1e-10
    with pytest.raises(BracketInvalid):
        refine_crossing(pair, grid, 30, 32, bracket)
    # scan over that one cell files the open gap as a suspect
    hits, suspects = scan(pair, bracket[0], bracket[1], 8)
    assert [h.curves for h in hits if h.kind is HitKind.CROSSING] == [(30, 31)]
    assert [c for _, c in suspects if isinstance(c, tuple)] == [(30, 32)]


def test_refine_crossing_takes_one_decomposition_per_midpoint(monkeypatch):
    # one eig_at per bisection midpoint and one at the refined mu; both
    # bracket ends are grid points already in hand
    pair = random_pair_with_crossing(64, (32, 32), 0.4, -0.3, 11)
    grid = trace_curves(pair, -3.0, 3.0, 96)
    mus = grid.mus
    j = int(np.searchsorted(mus, 0.4)) - 1
    bracket = (mus[j], mus[j + 1])
    calls = []
    eig_at = oracle.eig_at

    def counting(pair, mu):
        calls.append(mu)
        return eig_at(pair, mu)

    monkeypatch.setattr(oracle, "eig_at", counting)
    hit = refine_crossing(pair, grid, 31, 32, bracket)
    assert abs(hit.triplet.mu - 0.4) < 1e-10 and abs(hit.triplet.lam + 0.3) < 1e-10
    midpoints = round(np.log2((bracket[1] - bracket[0]) / hit.refined_to))
    assert len(calls) <= midpoints + 1


def test_scan_requires_reasonable_grid():
    with pytest.raises(ValueError):
        scan(refpairs.simple_pair_2x2(), -1.0, 1.0, 4)


def test_scan_flags_flat_slope_as_suspect():
    # a nearly flat eigencurve has a tiny slope of constant sign: never a
    # sign change, but flagged as suspect at every grid point
    pair = HermitianPair(np.diag([0.0, 5.0, -5.0]), np.diag([1e-9, 1.0, -1.0]))
    hits, suspects = scan(pair, -1.0, 1.0, 16)
    assert any(isinstance(c, (int, np.integer)) for _, c in suspects)
