"""Eigencurve evaluation along the pencil H(mu) = A - mu*C.

`eig_at` gives the eigenpairs of H(mu) at one mu, values descending, and
`trace_curves` samples them on a uniform grid, so that curve i of the grid
is the sorted eigencurve the oracle scans: curve 0 is the largest
eigenvalue at every mu.  The derivative helpers give the first and second
derivatives of the branch through (lam, x) as sums over the eigenpairs
(w_j, v_j) of A - mu*C outside the cluster of lam, d_j = v_j^H C x:

    lam'(mu)  = -x^H C x
    x'(mu)    = sum_j v_j d_j / (w_j - lam)
    lam''(mu) = -2 sum_j |d_j|^2 / (w_j - lam)

One tolerance, default_tol_mult, decides both that the branch is simple and
which components the sums leave out.  Its absolute floor is in units of
floor_unit(pair), as are the floors of the oracle's flat-slope test and of
classify's singularity test, so that (sA, sC), which has the
2D-eigenvalues of (A, C) with lambda scaled by s, is scanned and
classified as (A, C) is.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import TwoDevpError
from .kernels import hermitian_eig


@dataclass(frozen=True)
class CurvePoint:
    """Eigenvalues and eigenvectors of A - mu*C at one mu.

    values are descending; values[i] and vectors[:, i] belong to sorted
    curve i.
    """

    mu: float
    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class EigencurveGrid:
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
    return EigencurveGrid([eig_at(pair, mu) for mu in np.linspace(mu_lo, mu_hi, n_grid)])


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
