"""Brute-force 2D-eigenvalue finder based on the sorted eigencurves.

Sort the eigenvalues of A - mu*C as lam_1(mu) >= ... >= lam_n(mu).  A point
mu is a 2D-eigenvalue exactly when zero lies in the generalized derivative
of one sorted curve: at a smooth critical point, where the slope
lam'(mu) = -x^H C x changes sign, or at a kink where branches with opposite
slopes cross, so that the slope of each sorted curve through it jumps across
zero.  The scan brackets every sign change of a sorted slope between grid
points and refines it with Newton steps on the slope, safeguarded by
bisection (rtsafe, Press et al., Numerical Recipes, sec. 9.4), one eig_at
per iterate.  The first iterate is the root of the cubic Hermite
interpolant of the slope over the bracket, accurate to O(h^4), and a
Newton step that passes rtsafe's tests moves by Halley's step (Traub,
1964), as lam''' costs one product more than lam'': about 2.1 eig_at
calls per hit.  A crossing's kink has no curvature; there the step goes
to where the tangents of the two sorted curves meet, as the two branches
through the crossing are smooth.  The cluster of the eigenvalue at the
refined mu tells the two kinds apart.

From order kernels.THREADS_MIN_N up, the grid is traced and every bracket
refined on a pool of one thread per free CPU (kernels.map_threads), where a
free thread takes the next bracket, so that refinements of uneven cost
balance; the floor is the crossover measured for scan on 2 cores.
refine_critical is a pure function of its cell, and the hits are then read
in the serial order, so the hits and suspects are bitwise those of the
serial scan.  Below the floor a bracket that an earlier hit closed is not
refined at all.
"""

from enum import Enum
from typing import NamedTuple

import numpy as np

from .classify import fix_phase
from .curves import branch_derivatives, cluster, eig_at, floor_unit, slopes, trace_curves
from .errors import TwoDevpError
from .kernels import isotropic_set, map_threads, thread_workers
from .model import Triplet

SUSPECT_SLOPE_TOL = 1e-8  # in units of floor_unit(pair)


class HitKind(Enum):
    CRITICAL_POINT = "CriticalPoint"
    CROSSING = "Crossing"


class OracleHit(NamedTuple):
    triplet: Triplet
    kind: HitKind
    curves: tuple          # sorted indices at the hit: (i,), or a crossing's cluster
    bracket: tuple
    refined_to: float


def scan(pair, mu_lo, mu_hi, n_grid):
    """Bracket and refine every sign change of a sorted eigencurve's slope.

    Returns (hits, suspects): refined OracleHit records plus unrefined
    suspects (mu, i): grid points where sorted curve i's slope merely nears
    zero, and the midpoints of brackets where refine_critical gives None.
    """
    if n_grid < 8:
        raise ValueError("need n_grid >= 8")
    points = trace_curves(pair, mu_lo, mu_hi, n_grid).points
    s = np.array([slopes(pair, p.vectors) for p in points])  # (m, n)
    brackets = np.sign(s[:-1]) * np.sign(s[1:]) <= 0.0
    # a nearly flat point is suspect unless a cell it bounds has a bracket
    flat = np.abs(s) < SUSPECT_SLOPE_TOL * floor_unit(pair)
    flat[:-1] &= ~brackets
    flat[1:] &= ~brackets
    suspects = [(points[j].mu, int(i)) for i, j in zip(*np.nonzero(flat.T))]
    bracketed = [(int(i), int(j)) for i, j in zip(*np.nonzero(brackets.T))]

    def refine(cell):
        i, j = cell
        return refine_critical(pair, points[j], points[j + 1], i)

    # on threads every bracket is refined up front; serially a bracket
    # already taken is never refined
    refined = map_threads(refine, bracketed, pair.n) if thread_workers(pair.n, len(bracketed)) > 1 else None
    hits, taken = [], set()
    for b, (i, j) in enumerate(bracketed):
        if (j, i) in taken:  # a crossing changes the sign of every member
            continue
        hit = refine((i, j)) if refined is None else refined[b]
        if hit is None:
            suspects.append((0.5 * (points[j].mu + points[j + 1].mu), i))
            continue
        hits.append(hit)
        # a hit on a grid point, to refine_critical's width, also closes
        # the bracket of the cell past it
        cells = [j] + [c for c, g in ((j - 1, j), (j + 1, j + 1)) if 0 <= c < len(brackets)
                       and abs(points[g].mu - hit.triplet.mu) <= _width(pair, hit.triplet.mu)]
        taken.update((c, k) for c in cells for k in hit.curves)
    return hits, suspects


def refine_critical(pair, left, right, i):
    """Zero of sorted curve i's slope between two eig_at points.

    rtsafe on the slope f = -x^H C x, whose derivative is lam''.  The
    iteration starts at the bracket end with the smaller |f|, and its first
    iterate is the root in the bracket of the cubic Hermite interpolant of
    f, from f and lam'' at both ends.  Each later iterate takes the Newton
    step dN = f/lam'' when mu - dN stays strictly inside the bracket and
    dN is at most half the step before last; it then moves by Halley's
    step dN / (1 - dN lam'''/(2 lam'')) if that lands strictly inside the
    bracket too, and by dN if not.  When the Newton step is refused, as at
    a crossing's kink, where lam'' is not defined, the kink step goes to
    where the tangents of curve i and of its nearer neighbour meet, under
    the same two tests; when both are refused, the bracket is bisected.
    Each point's slope, lam'' and lam''' come from one branch_derivatives
    call, with lam'' and lam''' NaN on a cluster at values[i]; the bracket
    ends' slopes are taken again from column i alone, and agree with
    scan's to rounding, not bitwise.  Without lam'' at both ends, the first
    iterate is a plain step.  Each new point narrows the bracket by the
    sign of its slope.  A point is accepted once its Newton or kink step
    is within 1e-13 * (|mu| + min(1, |A|/|C|)), or 1e-13 * (|mu| + 1) when
    A = 0; bisection stops once the bracket is that narrow or its midpoint
    is no longer strictly inside it.

    refined_to is the distance estimate to the zero: the length of the
    Newton or kink step at the point accepted, the final bracket width when
    bisection ends, and 0 at an exactly zero slope.  A single eigenvalue at
    the refined mu is a critical point; a cluster is a crossing, built by
    refine_crossing, or None where its C-form is not indefinite.  Raises
    ValueError unless left.mu < right.mu and 0 <= i < pair.n, and
    TwoDevpError when the slope does not change sign between left and right.
    """
    def slope(point, k=i):
        return float(slopes(pair, point.vectors[:, [k]])[0])

    def derivatives(point):
        # lam'', lam''' and slope of curve i; NaN, NaN, slope on a cluster
        try:
            return branch_derivatives(pair, point, point.values[i], point.vectors[:, i])[1:]
        except TwoDevpError:
            return np.nan, np.nan, slope(point)

    def kink_step(point, f):
        # the tangents of curve i and of its nearer neighbour j meet at mu + step
        lam = point.values
        j = min((k for k in (i - 1, i + 1) if 0 <= k < lam.size), key=lambda k: abs(lam[k] - lam[i]))
        f_j = slope(point, j)
        return float(lam[i] - lam[j]) / (f_j - f) if f_j != f else np.nan

    lo, hi = bracket = (left.mu, right.mu)
    if not (lo < hi and 0 <= i < pair.n):
        raise ValueError("need left.mu < right.mu and 0 <= i < %d, got %r and i=%r" % (pair.n, bracket, i))
    f_lo, f_hi = slope(left), slope(right)
    if np.sign(f_lo) * np.sign(f_hi) > 0.0:
        raise TwoDevpError("slope of curve %d does not change sign over %r" % (i, bracket))
    (d_lo, t_lo, _), (d_hi, t_hi, _) = derivatives(left), derivatives(right)
    point, f, d2, d3 = (left, f_lo, d_lo, t_lo) if abs(f_lo) <= abs(f_hi) else (right, f_hi, d_hi, t_hi)
    dx_old = dx = hi - lo
    refined_to = 0.0
    hermite = _hermite_root(bracket, (f_lo, f_hi), (d_lo, d_hi), point.mu)
    while f != 0.0:
        tol = _width(pair, point.mu)
        newton = f / d2 if d2 else np.nan
        # accept before testing the step: at a zero hit to rounding, the
        # step rounds to nothing and mu - step would fall on a bracket end
        if abs(newton) <= tol:
            refined_to = abs(newton)
            break
        if hermite is not None:
            mu, hermite = hermite, None
            step = abs(mu - point.mu)
        elif lo < point.mu - newton < hi and abs(2.0 * newton) <= dx_old:
            shrink = 1.0 - 0.5 * newton * (d3 / d2)  # Halley's step is newton / shrink
            halley = newton / shrink if shrink else np.inf
            delta = halley if lo < point.mu - halley < hi else newton
            mu, step = point.mu - delta, abs(delta)
        else:
            kink = kink_step(point, f)
            if abs(kink) <= tol:
                refined_to = abs(kink)
                break
            if lo < point.mu + kink < hi and abs(2.0 * kink) <= dx_old:
                mu, step = point.mu + kink, abs(kink)
            else:
                mu, step = 0.5 * (lo + hi), 0.5 * (hi - lo)
                if hi - lo <= tol or not lo < mu < hi:
                    refined_to = hi - lo
                    break
        dx_old, dx = dx, step
        point = eig_at(pair, mu)
        d2, d3, f = derivatives(point)
        if (f > 0.0) == (f_lo > 0.0):
            lo = mu
        else:
            hi = mu
    members = np.flatnonzero(cluster(pair, point, point.values[i]))
    if members.size > 1:
        return refine_crossing(pair, point, members, bracket, refined_to)
    trip = Triplet(point.mu, float(point.values[i]), fix_phase(point.vectors[:, i]))
    return OracleHit(trip, HitKind.CRITICAL_POINT, (i,), bracket, refined_to)


def _width(pair, mu):
    """refine_critical's acceptance width at mu.

    It follows a small |A| down, and is never looser than
    1e-13 * (1 + |mu|); A = 0 gives no scale to follow, and a width that
    vanished at mu = 0 would let bisection run to subnormal numbers.
    """
    return 1e-13 * (abs(mu) + (min(1.0, pair.norm_a / pair.norm_c) or 1.0))


def _hermite_root(bracket, f, d, near):
    """Root nearest `near`, strictly inside the bracket, of the cubic Hermite
    interpolant with values f and derivatives d at the two bracket ends;
    None when a derivative is NaN or no root lies strictly inside."""
    lo, hi = bracket
    h = hi - lo
    a, b = h * d[0], h * d[1]
    if not (np.isfinite(a) and np.isfinite(b)):
        return None
    t = np.roots([2.0 * (f[0] - f[1]) + a + b, 3.0 * (f[1] - f[0]) - 2.0 * a - b, a, f[0]])
    mus = [lo + h * float(r.real) for r in t if r.imag == 0.0]
    mus = [mu for mu in mus if lo < mu < hi]
    return min(mus, key=lambda mu: abs(mu - near)) if mus else None


def refine_crossing(pair, point, members, bracket, width):
    """Isotropic cluster vector of a crossing at the eig_at point `point`.

    `members` are the sorted indices of the cluster.  x is fix_phase(v @ w)
    of kernels.isotropic_set on the cluster, the vector eigvec_set builds
    at the same point, and lam is the cluster mean.  None when the
    cluster's C-form is not indefinite, as no isotropic x exists.
    """
    v, w, _ = isotropic_set(pair.c, point.vectors[:, members])
    if v is None:
        return None
    trip = Triplet(point.mu, float(np.mean(point.values[members])), fix_phase(v @ w))
    return OracleHit(trip, HitKind.CROSSING, tuple(int(k) for k in members), bracket, width)
