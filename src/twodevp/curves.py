"""Eigencurve evaluation along the pencil H(mu) = A - mu*C.

`eig_at` gives the eigenpairs of H(mu) at one mu, values descending, and
`trace_curves` samples them on a uniform grid, so that curve i of the grid
is the sorted eigencurve the oracle scans: curve 0 is the largest
eigenvalue at every mu.  From order kernels.THREADS_MIN_N up, the grid's
eig_at calls run on a pool of one thread per free CPU (kernels.map_threads),
where a free thread takes the next mu; each gives bitwise the point that a
serial call gives.  The derivative helpers give the derivatives of the
branch through (lam, x) as sums over the eigenpairs (w_j, v_j) of
A - mu*C outside the cluster of lam, d_j = v_j^H C x; as A - mu*C is
linear in mu, lam''' needs only x':

    lam'(mu)   = -x^H C x
    x'(mu)     = sum_j v_j d_j / (w_j - lam)
    lam''(mu)  = -2 sum_j |d_j|^2 / (w_j - lam)
    lam'''(mu) = -6 (x'^H C x' + lam' |x'|^2)

One tolerance, default_tol_mult, decides both that the branch is simple and
which components the sums leave out.  Its absolute floor is in units of
floor_unit(pair), as are the floors of the oracle's flat-slope test and of
classify's singularity test, so that (sA, sC), which has the
2D-eigenvalues of (A, C) with lambda scaled by s, is scanned and
classified as (A, C) is.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import TwoDevpError
from .kernels import hermitian_eig, map_threads


class CurvePoint(NamedTuple):
    """Eigenvalues and eigenvectors of A - mu*C at one mu.

    values are descending; values[i] and vectors[:, i] belong to sorted
    curve i.
    """

    mu: float
    values: np.ndarray
    vectors: np.ndarray


class EigencurveGrid(NamedTuple):
    points: list


def eig_at(pair, mu):
    """Eigen-decompose A - mu*C; values descending."""
    mu = float(mu)
    if not np.isfinite(mu):
        raise ValueError("mu must be finite")
    w, v = hermitian_eig(pair.a - mu * pair.c)
    return CurvePoint(mu=mu, values=w, vectors=v)


def trace_curves(pair, mu_lo, mu_hi, n_grid):
    """Sample the sorted eigencurves at n_grid uniform points of [mu_lo, mu_hi]."""
    # the width in Python floats, which overflow to inf without a warning
    if not (math.isfinite(float(mu_hi) - float(mu_lo)) and mu_lo < mu_hi):
        raise ValueError("need finite mu_lo < mu_hi with a finite width")
    if n_grid < 2:
        raise ValueError("need n_grid >= 2")
    mus = np.linspace(mu_lo, mu_hi, n_grid)
    return EigencurveGrid(map_threads(lambda mu: eig_at(pair, mu), mus, pair.n))


def slopes(pair, vectors):
    """Slopes -x^H C x of the eigencurves through the columns x of `vectors`."""
    return -np.real(np.einsum("ij,ij->j", vectors.conj(), pair.c @ vectors))


def floor_unit(pair):
    """min(1, |A| + |C|): 1 for a pair of norm 1 or more, else its norm."""
    return min(1.0, pair.norm_a + pair.norm_c)


def default_tol_mult(pair, mu):
    """Distance within which two eigenvalues of A - mu*C count as one."""
    return max(1e-8 * floor_unit(pair), 1e-12 * (pair.norm_a + abs(mu) * pair.norm_c))


def cluster(pair, point, lam):
    """Mask of the eigenvalues of `point` within default_tol_mult of lam."""
    return np.abs(point.values - lam) <= default_tol_mult(pair, point.mu)


def branch_derivatives(pair, point, lam, x):
    """x'(mu), lam''(mu), lam'''(mu) and lam'(mu) of the simple branch through (lam, x).

    `point` is eig_at(pair, mu), and the derivatives are at point.mu.
    Raises TwoDevpError unless the cluster of lam has exactly one member.
    """
    inside = cluster(pair, point, lam)
    k = int(np.count_nonzero(inside))
    if k != 1:
        raise TwoDevpError("eigenvalue %r has multiplicity %d at mu=%r" % (lam, k, point.mu))
    x = np.asarray(x, dtype=complex).reshape(-1)
    cx = pair.c @ x
    # eigh's ascending order, in which the columns are contiguous for BLAS
    v, gaps = point.vectors[:, ::-1], point.values[::-1] - lam
    gaps[inside[::-1]] = np.inf  # the cluster's terms vanish
    d = (cx.conj() @ v).conj()
    r = np.abs(d)  # r * (r / gaps), as r**2 under- or overflows past |C| ~ 1e+-154
    xp = v @ (d / gaps)
    lam1 = -np.vdot(x, cx).real
    lam3 = -6.0 * (np.vdot(xp, pair.c @ xp).real + lam1 * np.vdot(xp, xp).real)
    return xp, -2.0 * float(np.sum(r * (r / gaps))), float(lam3), float(lam1)


def eigvec_derivative(pair, mu, lam, x):
    """Derivative of the analytic eigenvector branch at a simple eigenpair."""
    return branch_derivatives(pair, eig_at(pair, mu), lam, x)[0]


def lambda_double_prime(pair, mu, lam, x):
    """Curvature of the eigencurve at a simple eigenpair."""
    return branch_derivatives(pair, eig_at(pair, mu), lam, x)[1]
