"""Brute-force 2D-eigenvalue finder based on eigencurve scanning.

Solutions of the two-parameter problem are exactly the points where an
eigencurve slope lam'(mu) = -x^H C x changes sign (simple case) and the
crossings of two curves with opposite slopes (multiple case).  The scan
walks a matched eigencurve grid looking for both kinds of sign change and
refines each bracket by bisection, tracking curve identity from one
midpoint to the next with curves.match, the matcher the grid uses.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classify import fix_phase
from .curves import default_tol_mult, eig_at, match, slopes, trace_curves
from .errors import BracketInvalid, NotIndefinite
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
    curves: tuple          # (i,) for a critical point, (i, j) for a crossing
    bracket: tuple
    refined_to: float


def scan(pair, mu_lo, mu_hi, n_grid):
    """Bracket every slope sign change and opposite-slope curve crossing.

    Returns (hits, suspects): refined OracleHit records plus unrefined
    suspects, grid points where a slope merely comes close to zero and
    crossing brackets whose refinement failed.
    """
    if n_grid < 8:
        raise ValueError("need n_grid >= 8")
    grid = trace_curves(pair, mu_lo, mu_hi, n_grid)
    n = pair.n
    grid_slopes = np.array([slopes(pair, p.vectors) for p in grid.points])  # (m, n)
    hits = []
    suspects = []
    for i in range(n):
        for j in range(len(grid.points) - 1):
            s0, s1 = grid_slopes[j, i], grid_slopes[j + 1, i]
            if s0 == 0.0 or s0 * s1 < 0.0:
                bracket = (grid.points[j].mu, grid.points[j + 1].mu)
                hits.append(refine_critical(pair, grid, i, bracket))
            elif abs(s0) < SUSPECT_SLOPE_TOL:
                suspects.append((grid.points[j].mu, i))
    for i in range(n):
        for j2 in range(i + 1, n):
            for j in range(len(grid.points) - 1):
                g0 = grid.points[j].values[i] - grid.points[j].values[j2]
                g1 = grid.points[j + 1].values[i] - grid.points[j + 1].values[j2]
                crosses = g0 == 0.0 or g0 * g1 < 0.0
                if not crosses:
                    continue
                mid_s_i = 0.5 * (grid_slopes[j, i] + grid_slopes[j + 1, i])
                mid_s_j = 0.5 * (grid_slopes[j, j2] + grid_slopes[j + 1, j2])
                if mid_s_i * mid_s_j >= 0.0:
                    continue
                bracket = (grid.points[j].mu, grid.points[j + 1].mu)
                try:
                    hits.append(refine_crossing(pair, grid, i, j2, bracket))
                except (BracketInvalid, NotIndefinite):
                    suspects.append((0.5 * (bracket[0] + bracket[1]), (i, j2)))
    return hits, suspects


def _grid_point_at(grid, mu):
    for p in grid.points:
        if p.mu == mu:
            return p
    raise BracketInvalid("bracket endpoint %r is not a grid point" % mu)


def _bisect(pair, grid, cols, bracket):
    """Bisect the sign change of the tracked curves' scalar over a bracket.

    The scalar is the slope of one curve (one column) or the gap
    lam_i - lam_j of two.  Both bracket ends are grid points, whose
    matched columns give the scalar there; the curves are tracked from the
    left end.  Bisection stops once the bracket is below 1e-13 * (1 + |lo|).
    Returns (mu, values, vectors, final width).
    """
    what = "slope" if len(cols) == 1 else "curve gap"

    def scalar(values, vectors):
        return float(slopes(pair, vectors)[0] if len(cols) == 1 else values[0] - values[1])

    lo, hi = bracket
    left, right = _grid_point_at(grid, lo), _grid_point_at(grid, hi)
    vecs = left.vectors[:, cols]
    f_lo = scalar(left.values[cols], vecs)
    if f_lo * scalar(right.values[cols], right.vectors[:, cols]) > 0.0:
        raise BracketInvalid("%s does not change sign over %r" % (what, bracket))
    while hi - lo > 1e-13 * (1.0 + abs(lo)):
        mid = 0.5 * (lo + hi)
        vals, vecs_mid, _ = match(vecs, eig_at(pair, mid))
        f_mid = scalar(vals, vecs_mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, vecs, f_lo = mid, vecs_mid, f_mid
    mu = 0.5 * (lo + hi)
    vals, vecs, _ = match(vecs, eig_at(pair, mu))
    return mu, vals, vecs, hi - lo


def refine_critical(pair, grid, curve_index, bracket):
    """Bisect a slope sign change on one matched curve down to ~1e-13."""
    mu, vals, vecs, width = _bisect(pair, grid, [curve_index], bracket)
    return OracleHit(
        triplet=Triplet(mu, float(vals[0]), fix_phase(vecs[:, 0])),
        kind=HitKind.CRITICAL_POINT,
        curves=(curve_index,),
        bracket=bracket,
        refined_to=width,
    )


def refine_crossing(pair, grid, i, j, bracket):
    """Bisect a gap sign change and build the isotropic cluster vector.

    Raises BracketInvalid when the gap does not change sign over the
    bracket or does not close to default_tol_mult, and NotIndefinite when
    the cluster form of C is not indefinite.
    """
    mu, vals, vecs, width = _bisect(pair, grid, [i, j], bracket)
    gap = abs(vals[0] - vals[1])
    if gap > default_tol_mult(pair, mu):
        raise BracketInvalid("curve gap %.3e did not close over %r" % (gap, bracket))
    lam = 0.5 * float(vals[0] + vals[1])
    # orthonormal cluster basis (the two eigenvectors are orthogonal up to
    # the residual gap at the refined mu)
    q, _ = np.linalg.qr(vecs)
    v, ce = diagonalize_form(pair.c, q)
    t, s = isotropic_weights(ce[0], ce[1])
    x = t * v[:, 0] + s * v[:, 1]
    return OracleHit(
        triplet=Triplet(mu, lam, fix_phase(x)),
        kind=HitKind.CROSSING,
        curves=(i, j),
        bracket=bracket,
        refined_to=width,
    )
