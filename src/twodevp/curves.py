"""Eigencurve evaluation along the pencil H(mu) = A - mu*C.

`eig_at` gives the sorted eigenvalues at one mu.  `trace_curves` samples a
grid and matches curve indices across grid points by eigenvector overlap,
refining the grid adaptively near crossings, so that each matched curve is
a discrete sample of one analytic branch.  The derivative helpers give the
first and second derivatives of the branch through (lam, x) as sums over the
eigenpairs (w_j, v_j) of A - mu*C outside the cluster of lam, d_j = v_j^H C x:

    lam'(mu)  = -x^H C x
    x'(mu)    = sum_j v_j d_j / (w_j - lam)
    lam''(mu) = -2 sum_j |d_j|^2 / (w_j - lam)

One tolerance, default_tol_mult, decides both that the branch is simple and
which components the sums leave out.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContinuationAmbiguous, TwoDevpError
from .kernels import hermitian_eig

OVERLAP_FLOOR = 0.9
AMBIGUITY_TOL = 1e-8
STEP_FLOOR_FACTOR = 2.0 ** -20


@dataclass(frozen=True)
class CurvePoint:
    """Eigenvalues and eigenvectors of A - mu*C at one mu.

    values[i] and vectors[:, i] belong to curve i; after continuation
    matching the values are in curve order, not necessarily sorted.
    """

    mu: float
    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class EigencurveGrid:
    points: list
    min_overlap: float

    @property
    def mus(self):
        return np.array([p.mu for p in self.points])

    def curve(self, i):
        """Samples (mu_j, lambda_i(mu_j)) of curve i."""
        return self.mus, np.array([p.values[i] for p in self.points])


def eig_at(pair, mu):
    """Eigen-decompose A - mu*C; values descending."""
    mu = float(mu)
    if not np.isfinite(mu):
        raise ValueError("mu must be finite")
    w, v = hermitian_eig(pair.a - mu * pair.c)
    return CurvePoint(mu=mu, values=w, vectors=v)


def _match(prev, point):
    """Permute and phase-fix `point` so column i continues curve i of `prev`.

    Greedy assignment on the overlap-magnitude matrix; returns the matched
    point and the smallest matched overlap.  Raises if two assignment
    choices are indistinguishable (caller decides after the step floor).
    """
    n = prev.values.shape[0]
    overlap = prev.vectors.conj().T @ point.vectors
    mag = np.abs(overlap)
    perm = np.full(n, -1)
    work = mag.copy()
    min_overlap = np.inf
    for _ in range(n):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        best = work[i, j]
        row = work[i, :].copy()
        row[j] = -np.inf
        second = np.max(row)
        if second > -np.inf and best - second < AMBIGUITY_TOL and best < OVERLAP_FLOOR:
            raise ContinuationAmbiguous(
                "overlap choices %.3e and %.3e indistinguishable at mu=%r" % (best, second, point.mu)
            )
        perm[i] = j
        min_overlap = min(min_overlap, best)
        work[i, :] = -np.inf
        work[:, j] = -np.inf
    values = point.values[perm]
    vectors = point.vectors[:, perm].copy()
    for i in range(n):
        ov = overlap[i, perm[i]]
        if abs(ov) > 0:
            vectors[:, i] *= ov.conj() / abs(ov)
    return CurvePoint(point.mu, values, vectors), float(min_overlap)


def _refine(pair, left, right, step_floor, out, overlaps):
    """Append matched points on (left.mu, right.mu] to `out`."""
    matched, ov = _try_match(left, right, step_floor)
    if ov >= OVERLAP_FLOOR or right.mu - left.mu <= step_floor:
        out.append(matched)
        overlaps.append(ov)
        return
    mid = eig_at(pair, 0.5 * (left.mu + right.mu))
    _refine(pair, left, mid, step_floor, out, overlaps)
    _refine(pair, out[-1], right, step_floor, out, overlaps)


def _try_match(left, right, step_floor):
    try:
        return _match(left, right)
    except ContinuationAmbiguous:
        if right.mu - left.mu <= step_floor:
            raise
        # force refinement by reporting a failing overlap
        return right, -np.inf


def trace_curves(pair, mu_lo, mu_hi, n_grid):
    """Sample and continuation-match the eigencurves on [mu_lo, mu_hi].

    Grid points where consecutive eigenvector overlaps fall below the
    overlap floor are bisected down to a relative step floor of 2^-20.
    """
    if not mu_lo < mu_hi:
        raise ValueError("need mu_lo < mu_hi")
    if n_grid < 2:
        raise ValueError("need n_grid >= 2")
    mus = np.linspace(mu_lo, mu_hi, n_grid)
    step_floor = (mu_hi - mu_lo) * STEP_FLOOR_FACTOR
    points = [eig_at(pair, mus[0])]
    overlaps = []
    for mu in mus[1:]:
        _refine(pair, points[-1], eig_at(pair, mu), step_floor, points, overlaps)
    return EigencurveGrid(points=points, min_overlap=float(min(overlaps)) if overlaps else 1.0)


def slopes(pair, vectors):
    """Slopes -x^H C x of the eigencurves through the columns x of `vectors`."""
    return -np.real(np.einsum("ij,ij->j", vectors.conj(), pair.c @ vectors))


def lambda_prime(pair, x):
    """Slope of the eigencurve through the unit eigenvector x: -x^H C x."""
    x = np.asarray(x, dtype=complex).reshape(-1, 1)
    if abs(np.linalg.norm(x) - 1.0) > 1e-8:
        raise TwoDevpError("eigenvector norm %.6f is not 1" % np.linalg.norm(x))
    return float(slopes(pair, x)[0])


def default_tol_mult(pair, mu):
    """Distance within which two eigenvalues of A - mu*C count as one."""
    return max(1e-8, 1e-12 * (pair.norm_a + abs(mu) * pair.norm_c))


def cluster(pair, point, lam):
    """Mask of the eigenvalues of `point` within default_tol_mult of lam."""
    return np.abs(point.values - lam) <= default_tol_mult(pair, point.mu)


def branch_derivatives(pair, point, lam, x):
    """x'(mu) and lam''(mu) of the simple branch through (lam, x) at point.mu.

    `point` is eig_at(pair, mu).  Raises TwoDevpError unless the cluster
    of lam has exactly one member.
    """
    inside = cluster(pair, point, lam)
    k = int(np.count_nonzero(inside))
    if k != 1:
        raise TwoDevpError("eigenvalue %r has multiplicity %d at mu=%r" % (lam, k, point.mu))
    v = point.vectors[:, ~inside]
    gaps = point.values[~inside] - lam
    d = v.conj().T @ (pair.c @ np.asarray(x, dtype=complex).reshape(-1))
    return v @ (d / gaps), -2.0 * float(np.sum(np.abs(d) ** 2 / gaps))


def eigvec_derivative(pair, mu, lam, x):
    """Derivative of the analytic eigenvector branch at a simple eigenpair."""
    return branch_derivatives(pair, eig_at(pair, mu), lam, x)[0]


def lambda_double_prime(pair, mu, lam, x):
    """Curvature of the eigencurve at a simple eigenpair."""
    return branch_derivatives(pair, eig_at(pair, mu), lam, x)[1]
