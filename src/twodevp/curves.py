"""Eigencurve evaluation along the pencil H(mu) = A - mu*C.

`eig_at` gives the sorted eigenvalues at one mu.  `match` is the one
matcher that carries curve identity from reference eigenvectors to a new
point by eigenvector overlap; `trace_curves` uses it across grid points,
refining the grid adaptively near crossings, so that each matched curve is
a discrete sample of one analytic branch.  The oracle keeps only the grid's
points and puts each back into sorted order.  The derivative helpers give the
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

from .errors import TwoDevpError
from .kernels import hermitian_eig

OVERLAP_FLOOR = 0.9
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


def match(refs, point):
    """Continue the curves whose eigenvectors are the columns of refs to `point`.

    Assigns each column of refs to a distinct column of point.vectors by
    the greedy rule on |refs^H V|: the largest overlap first, then retire
    its row and column.  Returns the matched values, the matched vectors
    with the phase of each overlap removed, and the overlap magnitudes.
    """
    ov = refs.conj().T @ point.vectors
    work = np.abs(ov)
    cols = np.empty(work.shape[0], dtype=int)
    for _ in range(cols.size):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        cols[i] = j
        work[i, :] = -1.0
        work[:, j] = -1.0
    ov = ov[np.arange(cols.size), cols]
    mag = np.abs(ov)
    unit = np.where(mag > 0.0, ov, 1.0)  # a zero overlap keeps its vector's phase
    return point.values[cols], point.vectors[:, cols] * (unit.conj() / np.abs(unit)), mag


def _refine(pair, left, right, step_floor, out, overlaps):
    """Append matched points on (left.mu, right.mu] to `out`."""
    values, vectors, ov = match(left.vectors, right)
    if ov.min() >= OVERLAP_FLOOR or right.mu - left.mu <= step_floor:
        out.append(CurvePoint(right.mu, values, vectors))
        overlaps.append(ov.min())
        return
    mid = eig_at(pair, 0.5 * (left.mu + right.mu))
    _refine(pair, left, mid, step_floor, out, overlaps)
    _refine(pair, out[-1], right, step_floor, out, overlaps)


def trace_curves(pair, mu_lo, mu_hi, n_grid):
    """Sample and continuation-match the eigencurves on [mu_lo, mu_hi].

    Cells where a matched eigenvector overlap falls below the overlap
    floor are bisected down to a relative step floor of 2^-20; a cell at
    the step floor is accepted as matched, and min_overlap reports it.
    """
    if not (np.isfinite(mu_lo) and np.isfinite(mu_hi) and mu_lo < mu_hi):
        raise ValueError("need finite mu_lo < mu_hi")
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
