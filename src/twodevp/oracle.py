"""Brute-force 2D-eigenvalue finder based on the sorted eigencurves.

Sort the eigenvalues of A - mu*C as lam_1(mu) >= ... >= lam_n(mu).  A point
mu is a 2D-eigenvalue exactly when zero lies in the generalized derivative
of one sorted curve: at a smooth critical point, where the slope
lam'(mu) = -x^H C x changes sign, or at a kink where branches with opposite
slopes cross, so that the slope of each sorted curve through it jumps across
zero.  The scan brackets every sign change of a sorted slope between grid
points and bisects it with one eig_at per midpoint; the cluster of the
eigenvalue at the refined mu tells the two kinds apart.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classify import fix_phase
from .curves import cluster, eig_at, slopes, trace_curves
from .errors import NotIndefinite, TwoDevpError
from .kernels import diagonalize_form, isotropic_weights
from .model import Triplet

SUSPECT_SLOPE_TOL = 1e-8


class HitKind(Enum):
    CRITICAL_POINT = "CriticalPoint"
    CROSSING = "Crossing"


@dataclass(frozen=True)
class OracleHit:
    triplet: Triplet
    kind: HitKind
    curves: tuple          # sorted indices at the hit: (i,), or a crossing's cluster
    bracket: tuple
    refined_to: float


def scan(pair, mu_lo, mu_hi, n_grid):
    """Bracket and refine every sign change of a sorted eigencurve's slope.

    Returns (hits, suspects): refined OracleHit records plus unrefined
    suspects (mu, i), grid points where the slope of sorted curve i merely
    comes close to zero and brackets whose crossing has no isotropic vector.
    """
    if n_grid < 8:
        raise ValueError("need n_grid >= 8")
    points = trace_curves(pair, mu_lo, mu_hi, n_grid).points
    s = np.array([slopes(pair, p.vectors) for p in points])  # (m, n)
    brackets = s[:-1] * s[1:] <= 0.0
    # a nearly flat point is suspect unless a cell it bounds has a bracket
    flat = np.abs(s) < SUSPECT_SLOPE_TOL
    flat[:-1] &= ~brackets
    flat[1:] &= ~brackets
    suspects = [(points[j].mu, int(i)) for i, j in zip(*np.nonzero(flat.T))]
    hits, taken = [], set()
    for i, j in zip(*np.nonzero(brackets.T)):
        if (j, i) in taken:  # a crossing changes the sign of every member
            continue
        try:
            hit = refine_critical(pair, points[j], points[j + 1], int(i))
        except NotIndefinite:
            suspects.append((0.5 * (points[j].mu + points[j + 1].mu), int(i)))
            continue
        hits.append(hit)
        # a hit on a grid point also closes the bracket of the cell past it
        cells = [j] + [c for c, g in ((j - 1, j), (j + 1, j + 1)) if 0 <= c < len(brackets)
                       and abs(points[g].mu - hit.triplet.mu) <= hit.refined_to]
        taken.update((c, k) for c in cells for k in hit.curves)
    return hits, suspects


def refine_critical(pair, left, right, i):
    """Bisect a sign change of sorted curve i's slope between two eig_at points.

    Bisection stops once the bracket is below 1e-13 * (1 + |lo|).  A single
    eigenvalue at the refined mu is a critical point; a cluster is a
    crossing, built by refine_crossing.  Raises TwoDevpError when the slope
    does not change sign between left and right.
    """
    def slope(point):
        return float(slopes(pair, point.vectors[:, [i]])[0])

    lo, hi = bracket = (left.mu, right.mu)
    f_lo = slope(left)
    if f_lo * slope(right) > 0.0:
        raise TwoDevpError("slope of curve %d does not change sign over %r" % (i, bracket))
    while hi - lo > 1e-13 * (1.0 + abs(lo)):
        mid = 0.5 * (lo + hi)
        f_mid = slope(eig_at(pair, mid))
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    point = eig_at(pair, 0.5 * (lo + hi))
    members = np.flatnonzero(cluster(pair, point, point.values[i]))
    if members.size > 1:
        return refine_crossing(pair, point, members, bracket, hi - lo)
    trip = Triplet(point.mu, float(point.values[i]), fix_phase(point.vectors[:, i]))
    return OracleHit(trip, HitKind.CRITICAL_POINT, (i,), bracket, hi - lo)


def refine_crossing(pair, point, members, bracket, width):
    """Isotropic cluster vector of a crossing at the eig_at point `point`.

    `members` are the sorted indices of the cluster.  The directions where
    the cluster's C-form is largest and smallest are mixed into a unit x
    with x^H C x = 0, and lam is the cluster mean.  Raises NotIndefinite
    when that form is not indefinite.
    """
    v, ce = diagonalize_form(pair.c, point.vectors[:, members])
    t, s = isotropic_weights(ce[0], ce[-1])
    x = fix_phase(t * v[:, 0] + s * v[:, -1])
    trip = Triplet(point.mu, float(np.mean(point.values[members])), x)
    return OracleHit(trip, HitKind.CROSSING, tuple(int(k) for k in members), bracket, width)
