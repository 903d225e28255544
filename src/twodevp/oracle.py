"""Brute-force 2D-eigenvalue finder based on eigencurve scanning.

Solutions of the two-parameter problem are exactly the points where an
eigencurve slope lam'(mu) = -x^H C x changes sign (simple case) and the
crossings of two curves with opposite slopes (multiple case).  The scan
walks a matched eigencurve grid looking for both kinds of sign change and
refines each bracket by bisection, tracking curve identity locally by
eigenvector overlap.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classify import fix_phase
from .curves import default_tol_mult, eig_at, trace_curves
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


def _slopes(pair, point):
    """-x^H C x for every column eigenvector of a grid point."""
    cx = pair.c @ point.vectors
    return -np.real(np.einsum("ij,ij->j", point.vectors.conj(), cx))


def _track(pair, mu, ref_vec):
    """Eigen-data at mu for the curve whose eigenvector best matches ref_vec."""
    point = eig_at(pair, mu)
    overlaps = np.abs(ref_vec.conj() @ point.vectors)
    i = int(np.argmax(overlaps))
    vec = point.vectors[:, i]
    ov = np.vdot(ref_vec, vec)
    if abs(ov) > 0:
        vec = vec * (ov.conj() / abs(ov))
    return float(point.values[i]), vec


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
    slopes = np.array([_slopes(pair, p) for p in grid.points])  # (m, n)
    hits = []
    suspects = []
    for i in range(n):
        for j in range(len(grid.points) - 1):
            s0, s1 = slopes[j, i], slopes[j + 1, i]
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
                mid_s_i = 0.5 * (slopes[j, i] + slopes[j + 1, i])
                mid_s_j = 0.5 * (slopes[j, j2] + slopes[j + 1, j2])
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


def refine_critical(pair, grid, curve_index, bracket):
    """Bisect a slope sign change on one matched curve down to ~1e-13."""
    lo, hi = bracket
    left = _grid_point_at(grid, lo)
    vec = left.vectors[:, curve_index].copy()
    s_lo = -float(np.real(np.vdot(vec, pair.c @ vec)))
    lam_hi, vec_hi = _track(pair, hi, vec)
    s_hi = -float(np.real(np.vdot(vec_hi, pair.c @ vec_hi)))
    if s_lo * s_hi > 0.0:
        raise BracketInvalid("slope does not change sign over %r" % (bracket,))
    lam = float(left.values[curve_index])
    while hi - lo > 1e-13 * (1.0 + abs(lo)):
        mid = 0.5 * (lo + hi)
        lam, vec_mid = _track(pair, mid, vec)
        s_mid = -float(np.real(np.vdot(vec_mid, pair.c @ vec_mid)))
        if s_lo * s_mid <= 0.0:
            hi = mid
        else:
            lo, vec, s_lo = mid, vec_mid, s_mid
    mu = 0.5 * (lo + hi)
    lam, vec = _track(pair, mu, vec)
    return OracleHit(
        triplet=Triplet(mu, lam, fix_phase(vec)),
        kind=HitKind.CRITICAL_POINT,
        curves=(curve_index,),
        bracket=bracket,
        refined_to=hi - lo,
    )


def refine_crossing(pair, grid, i, j, bracket):
    """Bisect a gap sign change and build the isotropic cluster vector.

    Raises BracketInvalid when the gap does not change sign over the
    bracket or does not close to default_tol_mult, and NotIndefinite when
    the cluster form of C is not indefinite.
    """
    lo, hi = bracket
    left = _grid_point_at(grid, lo)
    vec_i = left.vectors[:, i].copy()
    vec_j = left.vectors[:, j].copy()

    def gap(mu, ri, rj):
        li, vi = _track(pair, mu, ri)
        lj, vj = _track(pair, mu, rj)
        return li - lj, vi, vj

    g_lo, _, _ = gap(lo, vec_i, vec_j)
    g_hi, _, _ = gap(hi, vec_i, vec_j)
    if g_lo * g_hi > 0.0:
        raise BracketInvalid("curve gap does not change sign over %r" % (bracket,))
    scale = 1.0 + abs(lo)
    while hi - lo > 1e-13 * scale:
        mid = 0.5 * (lo + hi)
        g_mid, vi, vj = gap(mid, vec_i, vec_j)
        if g_lo * g_mid <= 0.0:
            hi = mid
        else:
            lo, g_lo, vec_i, vec_j = mid, g_mid, vi, vj
    mu = 0.5 * (lo + hi)
    li, vi = _track(pair, mu, vec_i)
    lj, vj = _track(pair, mu, vec_j)
    if abs(li - lj) > default_tol_mult(pair, mu):
        raise BracketInvalid("curve gap %.3e did not close over %r" % (abs(li - lj), bracket))
    lam = 0.5 * (li + lj)
    # orthonormal cluster basis (the two eigenvectors are orthogonal up to
    # the residual gap at the refined mu)
    q, _ = np.linalg.qr(np.stack([vi, vj], axis=1))
    v, ce = diagonalize_form(pair.c, q)
    t, s = isotropic_weights(ce[0], ce[1])
    x = t * v[:, 0] + s * v[:, 1]
    return OracleHit(
        triplet=Triplet(mu, lam, fix_phase(x)),
        kind=HitKind.CROSSING,
        curves=(i, j),
        bracket=bracket,
        refined_to=hi - lo,
    )
