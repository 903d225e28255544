"""Reference values and output checks, computed apart from twodevp.

Nothing here calls into the package: the checks take the program's
outputs as plain numbers and arrays and compare them with numpy and
scipy computations of their own.  Each check returns a list of failure
messages, empty when the output passes, so that the self-test can show
that every check rejects a wrong output.
"""

import numpy as np
from scipy.optimize import brentq

HIT_TOL = 1e-10        # residual share of the scale, isotropy, and point match
SOLVE_POINT_TOL = 1e-9  # solve end point against its target, in mu and lam
DISTINCT_TOL = 1e-9    # two hits closer than this in mu and lam are one point
CHUNK = 256            # eigenvalue problems per batched eigvalsh call
ORDER_FLOOR = 1e-13    # errors at or below this carry no order information


def spectral_norm(m):
    return float(np.linalg.svd(m, compute_uv=False)[0])


def mu_bound(a, c):
    """|mu| <= 2 ||A|| / sigma_min(C) for every 2D-eigenvalue of a pair
    with nonsingular C: (A - lam I) x = mu C x with ||x|| = 1."""
    sigma_min = float(np.linalg.svd(c, compute_uv=False)[-1])
    return 2.0 * spectral_norm(a) / sigma_min


def extreme_point(a, c, which):
    """The maximiser of lambda_min(A - mu C) ("min") or the minimiser of
    lambda_max(A - mu C) ("max"), as (mu, lam, x).

    The extreme eigenvalue is concave ("min") or convex ("max") in mu,
    so its slope -x^H C x changes sign once; brentq finds that root.
    """
    col = 0 if which == "min" else -1

    def slope(mu):
        _, v = np.linalg.eigh(a - mu * c)
        x = v[:, col]
        return -float(np.real(np.vdot(x, c @ x)))

    m = mu_bound(a, c)
    mu = brentq(slope, -m, m, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=500)
    w, v = np.linalg.eigh(a - mu * c)
    return float(mu), float(w[col]), v[:, col]


def count_critical_points(a, c, mu_lo, mu_hi, n_points, crossings):
    """Slope sign changes of the sorted eigenvalues of A - mu C on a grid,
    less two for each planted crossing strictly inside the window.

    A crossing of two curves with opposite slopes puts a kink into each
    of the two sorted curves that meet there; both kinks change a slope
    sign without being critical points of an analytic branch.
    """
    mus = np.linspace(mu_lo, mu_hi, n_points)
    vals = np.empty((n_points, a.shape[0]))
    for i in range(0, n_points, CHUNK):
        block = mus[i:i + CHUNK, None, None]
        vals[i:i + CHUNK] = np.linalg.eigvalsh(a[None] - block * c[None])
    sign = np.sign(np.diff(vals, axis=0))
    changes = int(np.count_nonzero(sign[1:] * sign[:-1] < 0.0))
    inside = sum(1 for mu, _ in crossings if mu_lo < mu < mu_hi)
    return changes - 2 * inside


def check_hit_residuals(a, c, hits):
    """Every hit (mu, lam, x, kind) is a 2D-eigentriplet to HIT_TOL."""
    bad = []
    norm_a, norm_c = spectral_norm(a), spectral_norm(c)
    n = a.shape[0]
    for k, (mu, lam, x, _) in enumerate(hits):
        r = np.linalg.norm((a - mu * c - lam * np.eye(n)) @ x)
        s = norm_a + abs(mu) * norm_c + abs(lam) + 1.0
        iso = abs(np.vdot(x, c @ x))
        unit = abs(np.linalg.norm(x) - 1.0)
        if not (r <= HIT_TOL * s and iso <= HIT_TOL and unit <= HIT_TOL):
            bad.append("hit %d at (%.12g, %.12g): residual %.2e (scale %.2e), "
                       "|x^H C x| %.2e, | ||x|| - 1 | %.2e" % (k, mu, lam, r, s, iso, unit))
    return bad


def check_hits_distinct(hits):
    bad = []
    pts = sorted((mu, lam) for mu, lam, _, _ in hits)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[j][0] - pts[i][0] > DISTINCT_TOL:
                break
            if abs(pts[j][1] - pts[i][1]) <= DISTINCT_TOL:
                bad.append("hits %r and %r are the same point" % (pts[i], pts[j]))
    return bad


def check_crossings(hits, planted):
    """Exactly the planted crossings are CROSSING hits, each to HIT_TOL."""
    got = sorted((mu, lam) for mu, lam, _, kind in hits if kind == "crossing")
    want = sorted(planted)
    if len(got) != len(want):
        return ["%d crossing hits %r, expected %d at %r" % (len(got), got, len(want), want)]
    return ["crossing hit %r is not the planted %r" % (g, w)
            for g, w in zip(got, want)
            if abs(g[0] - w[0]) > HIT_TOL or abs(g[1] - w[1]) > HIT_TOL]


def check_point_found(hits, point, what):
    mu, lam = point
    for h_mu, h_lam, _, kind in hits:
        if kind == "critical" and abs(h_mu - mu) <= HIT_TOL and abs(h_lam - lam) <= HIT_TOL:
            return []
    return ["%s (%.15g, %.15g) is not a critical-point hit" % (what, mu, lam)]


def check_critical_count(hits, expected):
    got = sum(1 for h in hits if h[3] == "critical")
    if got != expected:
        return ["%d critical-point hits, the grid count gives %d" % (got, expected)]
    return []


def check_solve(a, c, end, target, tol_abs, tol_rel, norms):
    """A converged solve's final (mu, lam, x) against its target (mu, lam);
    norms are the spectral norms of A and C."""
    mu, lam, x = end
    n = a.shape[0]
    norm_a, norm_c = norms
    top = (a - mu * c - lam * np.eye(n)) @ x
    f = np.concatenate([top, [-0.5 * np.real(np.vdot(x, c @ x)),
                              0.5 * (1.0 - np.real(np.vdot(x, x)))]])
    res = float(np.linalg.norm(f))
    tol = tol_abs + tol_rel * (norm_a + abs(mu) * norm_c + abs(lam))
    bad = []
    if res > tol:
        bad.append("residual %.3e above the solver tolerance %.3e" % (res, tol))
    if abs(mu - target[0]) > SOLVE_POINT_TOL or abs(lam - target[1]) > SOLVE_POINT_TOL:
        bad.append("end point (%.15g, %.15g) is not the target (%.15g, %.15g)"
                   % (mu, lam, target[0], target[1]))
    return bad


def check_slopes(slopes, windows, what):
    bad = []
    for key, (lo, hi) in windows.items():
        val = slopes.get(key, float("nan"))
        if not lo <= val <= hi:
            bad.append("%s %s slope %.3f outside [%g, %g]" % (what, key, val, lo, hi))
    return bad


def final_order(errors, floor=ORDER_FLOOR):
    """Order log(e2/e1) / log(e1/e0) of the last strictly decreasing
    triple of errors above the floor, or None if there is none."""
    last = None
    for e0, e1, e2 in zip(errors, errors[1:], errors[2:]):
        if min(e0, e1, e2) > floor and e0 > e1 > e2:
            last = float(np.log(e2 / e1) / np.log(e1 / e0))
    return last


def check_final_orders(runs, target, min_good=95, max_steps=6, min_order=1.7):
    """At least min_good runs converge within max_steps and end with an
    order of at least min_order.  A run is (converged, iterates, ...) with
    iterates (mu, lam, x) and the target a simple (mu, lam, x)."""
    mu_t, lam_t, x_t = target
    good = 0
    for converged, its, *_ in runs:
        if not converged or len(its) - 1 > max_steps:
            continue
        errors = []
        for mu, lam, x in its:
            x = np.asarray(x)
            ov = np.vdot(x_t, x)
            phase = ov / abs(ov) if abs(ov) > 0 else 1.0
            errors.append(abs(mu - mu_t) + abs(lam - lam_t) + np.linalg.norm(x - phase * x_t))
        order = final_order(errors)
        if order is not None and order >= min_order:
            good += 1
    if good < min_good:
        return ["final order >= %g in only %d of %d solves" % (min_order, good, len(runs))]
    return []
