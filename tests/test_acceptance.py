"""End-to-end acceptance gate.

One test per headline guarantee, with tolerances pinned in the asserts.
Slope checks compare fitted log-log exponents of one-step error scaling
against fixed two-sided windows, centred on the rates derived in
README.md, "One-step rates"; statistical checks run fixed seeds so every
run is identical.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import twodevp as td
from twodevp import harness, refpairs
from twodevp.classify import Kind
from twodevp.curves import branch_derivatives, eig_at, slopes
from twodevp.harness import COMMUTING_WINDOWS, MULTIPLE_WINDOWS, RITZ_WINDOWS, SIMPLE_WINDOWS
from twodevp.kernels import orthonormalize
from twodevp.model import HermitianPair, TripletStack, save_pair
from twodevp.rqi import form_rq

SQ2 = np.sqrt(2.0)


def window_violations(slopes, windows, tag):
    out = []
    for key, (lo, hi) in windows.items():
        val = slopes[key]
        if not lo <= val <= hi:
            out.append("%s %s slope %.3f outside [%.1f, %.1f]" % (tag, key, val, lo, hi))
    return out


def test_oracle_exact_on_closed_form_pairs():
    start = time.monotonic()
    hits, _ = td.scan(refpairs.simple_pair_2x2(), -1.0, 1.0, 64)
    found = sorted((h.triplet.mu, h.triplet.lam) for h in hits)
    assert len(found) == 2
    assert abs(found[0][0]) < 1e-10 and abs(found[0][1] + 1.0) < 1e-10
    assert abs(found[1][0]) < 1e-10 and abs(found[1][1] - 1.0) < 1e-10

    hits, _ = td.scan(refpairs.multiple_pair_2x2(), 0.0, 2.0, 64)
    cross = [h for h in hits if h.kind is td.HitKind.CROSSING]
    assert len(cross) == 1
    assert abs(cross[0].triplet.mu - 1.0) < 1e-10
    assert abs(cross[0].triplet.lam) < 1e-10
    assert time.monotonic() - start < 1.0


def test_quadratic_convergence_statistics():
    start = time.monotonic()
    pair, trip = refpairs.simple_pair_desk()
    tgt = td.Target.at(pair, trip, "simple")
    good = 0
    for trial in range(100):
        t0 = harness.perturbed_start(tgt, 0.05, 99, trial=trial)
        trace = td.solve(pair, t0, tol_abs=1e-12, reference=tgt)
        if trace.status is not td.Status.CONVERGED:
            continue
        if len(trace.iterates) - 1 > 6:
            continue
        errs = [r.err_mu + r.err_lambda + r.err_x for r in trace.iterates]
        est = harness.convergence_order(errs)
        if est.orders and est.orders[-1] >= 1.7:
            good += 1
    assert good >= 95, "final-phase order >= 1.7 in only %d of 100 trials" % good
    assert time.monotonic() - start < 5.0


def _random_simple_target():
    """The first nonsingular simple hit of scan on random_pair(12, (6, 6), 100).

    Unlike the desk pair, this pair has no block structure, so x'_* is not
    in span{x_*, C x_*}.
    """
    pair = harness.random_pair(12, (6, 6), 100)
    hits, _ = td.scan(pair, -3.0, 3.0, 96)
    h = next(h for h in hits
             if td.classify(pair, h.triplet.mu, h.triplet.lam).kind is Kind.NONSINGULAR_SIMPLE)
    return td.Target.at(pair, h.triplet, "simple")


def test_one_step_error_scaling_simple():
    start = time.monotonic()
    pair, trip = refpairs.simple_pair_desk()
    targets = [("desk", td.Target.at(pair, trip, "simple")), ("random", _random_simple_target())]
    bad = []
    for tag, tgt in targets:
        study = harness.scaling_study(tgt, [1e-2, 3e-3, 1e-3, 3e-4], 50, 1234)
        bad += window_violations(study.fitted_slopes, SIMPLE_WINDOWS, "simple " + tag)
    assert time.monotonic() - start < 10.0
    assert not bad, "; ".join(bad)


def test_one_step_error_scaling_multiple():
    start = time.monotonic()
    eps_list = [1e-1, 3e-2, 1e-2]
    bad = []

    pair, trip = refpairs.multiple_pair_desk()
    tgt = td.Target.at(pair, trip, "multiple")
    study = harness.scaling_study(tgt, eps_list, 50, 0)
    bad += window_violations(study.fitted_slopes, COMMUTING_WINDOWS, "diagonal")

    pair2 = harness.random_pair_with_crossing(12, (6, 6), 0.4, -0.3, 11)
    hits, _ = td.scan(pair2, 0.0, 0.8, 64)
    cross = [h for h in hits if h.kind is td.HitKind.CROSSING]
    assert len(cross) == 1
    h = cross[0]
    tgt2 = td.eigvec_set(pair2, h.triplet.mu, h.triplet.lam)
    assert tgt2.regime == "multiple"
    study2 = harness.scaling_study(tgt2, eps_list, 50, 0)
    bad += window_violations(study2.fitted_slopes, MULTIPLE_WINDOWS, "random-crossing")
    assert time.monotonic() - start < 10.0
    assert not bad, "; ".join(bad)


def _branch_miss_slopes(tgt, eps_list, trials, seed):
    """Log-log slopes of the step subspace's misses of x(mu_k) and x'(mu_k).

    The miss |(I - V V^H) y| / |y| is formed directly, so it stays
    accurate far below the arccos floor of the sine of the largest
    canonical angle.
    """
    pair, trip = tgt.pair, tgt.triplet
    med_x, med_xp = [], []
    for i, eps in enumerate(eps_list):
        mx, mxp = [], []
        starts = harness.perturbed_starts(tgt, eps, seed, range(i * trials, (i + 1) * trials))
        vs, _, _ = td.projection_basis(pair, starts)
        for t0, v in zip(starts, vs):
            point = eig_at(pair, t0.mu)
            j = int(np.argmin(np.abs(point.values - trip.lam)))
            x = point.vectors[:, j]
            xp, _ = branch_derivatives(pair, point, float(point.values[j]), x)
            for y, out in ((x, mx), (xp, mxp)):
                out.append(np.linalg.norm(y - v @ (v.conj().T @ y)) / np.linalg.norm(y))
        med_x.append(np.median(mx))
        med_xp.append(np.median(mxp))
    return (
        np.polyfit(np.log(eps_list), np.log(med_x), 1)[0],
        np.polyfit(np.log(eps_list), np.log(med_xp), 1)[0],
    )


def test_projection_subspace_misses_eigenvector_branch():
    # The premise of the one-step rates: near a simple target the step's
    # subspace V = span{H^-1 x_k, H^-1 C x_k} misses the eigenvector x(mu_k)
    # of A - mu_k C by O(eps^2) and its mu-derivative x'(mu_k) by O(eps).
    # The desk pair is block diagonal, so x'_* already lies in
    # span{x_*, C x_*}; the random pair checks the generic case.
    pair, trip = refpairs.simple_pair_desk()
    targets = [("desk", td.Target.at(pair, trip, "simple")), ("random", _random_simple_target())]
    for tag, tgt in targets:
        slope_x, slope_xp = _branch_miss_slopes(tgt, [1e-2, 1e-3, 1e-4], 50, 7)
        assert 1.6 <= slope_x <= 2.4, "%s: x(mu_k) miss slope %.3f" % (tag, slope_x)
        assert 0.6 <= slope_xp <= 1.4, "%s: x'(mu_k) miss slope %.3f" % (tag, slope_xp)


def test_conditioning_bounds_hold_near_targets():
    for make, regime in [
        (refpairs.simple_pair_desk, "simple"),
        (refpairs.multiple_pair_desk, "multiple"),
    ]:
        pair, trip = make()
        tgt = td.Target.at(pair, trip, regime)
        rep = harness.conditioning_study(tgt, [1e-3], 100, 5)
        assert rep.sigma_violations == [0], regime
        assert rep.c_violations == [0], regime


def test_derivative_formulas_match_finite_differences():
    rng = np.random.default_rng(61)
    for pair_seed in (616, 617):
        pair = harness.random_pair(16, (8, 8), pair_seed)
        checked = 0
        for mu in rng.uniform(-2.0, 2.0, 60):
            if checked >= 20:
                break
            point = td.eig_at(pair, mu)
            gaps = np.abs(np.diff(point.values))
            best_i, best_gap = None, 0.0
            for i in range(pair.n):
                g = min(
                    gaps[i - 1] if i > 0 else np.inf,
                    gaps[i] if i < pair.n - 1 else np.inf,
                )
                if g > best_gap:
                    best_gap, best_i = g, i
            if best_gap < 5e-2:  # too close to a crossing
                continue
            i = best_i
            lam, x = float(point.values[i]), point.vectors[:, i]

            def lam_at(m, ref=x):
                q = td.eig_at(pair, m)
                j = int(np.argmax(np.abs(ref.conj() @ q.vectors)))
                return float(q.values[j])

            h = 1e-4
            fd1 = (lam_at(mu + h) - lam_at(mu - h)) / (2 * h)
            assert abs(slopes(pair, x[:, None])[0] - fd1) <= 1e-6
            h = 1e-3
            fd2 = (lam_at(mu + h) - 2 * lam + lam_at(mu - h)) / h**2
            assert abs(td.lambda_double_prime(pair, mu, lam, x) - fd2) <= 1e-4
            checked += 1
        assert checked == 20


def test_classification_taxonomy():
    c = td.classify(refpairs.simple_pair_2x2(), 0.0, 1.0)
    assert c.kind is Kind.NONSINGULAR_SIMPLE
    assert abs(c.lambda_double_prime - 1.0) <= 1e-8

    c = td.classify(refpairs.multiple_pair_2x2(), 1.0, 0.0)
    assert c.kind is Kind.NONSINGULAR_MULTIPLE
    assert np.allclose(sorted(c.cluster_c_eigs), [-1.0, 1.0], atol=1e-10)

    k3 = HermitianPair(
        np.diag([0.0, 0.0, 0.0, 2.0, -2.0]),
        np.diag([1.0, -1.0, 1.0, 1.0, -1.0]),
    )
    c = td.classify(k3, 0.0, 0.0)
    assert c.kind is Kind.SINGULAR
    assert c.multiplicity == 3


def test_subspace_perturbation_bounds():
    rng = np.random.default_rng(8)

    # sin of the largest canonical angle vs twice the basis difference
    for _ in range(500):
        n = int(rng.integers(3, 33))
        k = int(rng.integers(1, min(n, 4)))
        u = orthonormalize(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        e = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        e *= rng.uniform(0.0, 0.25) / np.linalg.norm(e, 2)
        v = orthonormalize(u + e)
        d = np.linalg.norm(u - v, 2)
        if d > 0.5:
            continue
        assert np.sin(td.canonical_angles(u, v)[-1]) <= 2.0 * d + 1e-12

    # vector formula sqrt(1 - |u^H v|^2)
    for _ in range(500):
        n = int(rng.integers(2, 33))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        got = np.sin(td.canonical_angles(u.reshape(-1, 1), v.reshape(-1, 1))[-1])
        want = np.sqrt(max(0.0, 1.0 - abs(np.vdot(u, v)) ** 2))
        assert abs(got - want) <= 1e-10

    # nullspace perturbation bound
    def nullbasis(j):
        _, _, vh = np.linalg.svd(j, full_matrices=True)
        return vh.conj().T[:, j.shape[0]:]

    for _ in range(500):
        n = int(rng.integers(4, 33))
        k = int(rng.integers(1, n - 1))
        j = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        smin = np.linalg.svd(j, compute_uv=False)[-1]
        e = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        e *= rng.uniform(0.0, 0.5) * smin / np.linalg.norm(e, 2)
        bound = 8.0 * np.linalg.norm(j, 2) * np.linalg.norm(e, 2) / smin**2
        assert np.sin(td.canonical_angles(nullbasis(j), nullbasis(j + e))[-1]) <= bound + 1e-12

    # second-order accuracy of the constrained Rayleigh quotient
    pair, trip = refpairs.simple_pair_desk()
    tgt = td.Target.at(pair, trip, "simple")
    shift_norm = np.linalg.norm(pair.a - trip.mu * pair.c - trip.lam * np.eye(pair.n), 2)
    for trial in range(500):
        eps = 10.0 ** rng.uniform(-4, -1)
        t0 = harness.perturbed_start(tgt, eps, 49, trial=trial)
        v, c, _ = td.projection_basis(pair, TripletStack.of([t0]))
        for z in td.solve_2x2(*form_rq(pair, v), c[:, 0], c[:, 1]).z[0]:
            xt = v[0] @ z
            ov = np.vdot(trip.x, xt)
            if abs(ov) > 0:
                xt = xt * (ov.conj() / abs(ov))
            lhs = abs(np.real(np.vdot(xt, pair.a @ xt)) - trip.lam)
            rhs = shift_norm * np.linalg.norm(trip.x - xt) ** 2
            assert lhs <= rhs + 1e-12


def test_ritz_extraction_error_scaling():
    pair, trip = refpairs.simple_pair_desk()
    tgt = td.Target.at(pair, trip, "simple")
    study = harness.ritz_approx_study(tgt, [1e-2, 3e-3, 1e-3], 50, 1234)
    bad = window_violations(study.fitted_slopes, RITZ_WINDOWS, "ritz")
    assert not bad, "; ".join(bad)


def test_oracle_solver_closure_on_random_pairs():
    for seed in range(5):
        pair = harness.random_pair(12, (6, 6), 100 + seed)
        hits, _ = td.scan(pair, -3.0, 3.0, 96)
        assert hits
        for h in hits:
            c = td.classify(pair, h.triplet.mu, h.triplet.lam)
            if c.kind is Kind.SINGULAR:
                continue
            tgt = td.eigvec_set(pair, h.triplet.mu, h.triplet.lam)
            t0 = harness.perturbed_start(tgt, 1e-3, seed, trial=0)
            trace = td.solve(pair, t0)
            assert trace.status is td.Status.CONVERGED
            drift = abs(trace.final.mu - h.triplet.mu) + abs(trace.final.lam - h.triplet.lam)
            assert drift <= 1e-9


def test_cli_reports_are_deterministic(tmp_path):
    pair, _ = refpairs.simple_pair_desk()
    ppath = tmp_path / "pair.json"
    save_pair(pair, ppath)
    args = [
        sys.executable, "-m", "twodevp.cli",
        "study", "conditioning",
        "--pair", str(ppath),
        "--target-mu", "0", "--target-lambda", "1",
        "--eps", "1e-3", "--trials", "50", "--seed", "77",
    ]
    # the child imports the same twodevp as this process, installed or not
    src = os.path.dirname(os.path.dirname(td.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    outs = []
    for rerun in range(2):
        out = tmp_path / ("report%d.json" % rerun)
        subprocess.run(args + ["--out", str(out)], check=True, env=env)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])  # valid JSON
