"""Canonical angles between subspaces and distances to eigenvector sets."""

import numpy as np

from .classify import Kind
from .errors import TwoDevpError


def _check_orthonormal(m, name):
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    dev = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[1]), 2)
    if dev > 1e-10:
        raise TwoDevpError("%s deviates from orthonormality by %.3e" % (name, dev))
    return m


def canonical_angles(x, y):
    """Principal angles (ascending, in [0, pi/2]) between two spans.

    An angle with sin^2 < 1/2 is the arcsin of a singular value of
    (I - YY^H)X, and any other the arccos of one of Y^H X, so that small
    angles keep their relative accuracy (Knyazev & Argentati, SIAM J. Sci.
    Comput. 23, 2002).  The span with more columns plays Y.
    """
    x = _check_orthonormal(x, "X")
    y = _check_orthonormal(y, "Y")
    if x.shape[1] > y.shape[1]:
        x, y = y, x
    yx = y.conj().T @ x
    cos = np.clip(np.linalg.svd(yx, compute_uv=False), 0.0, 1.0)
    sin = np.clip(np.sort(np.linalg.svd(x - y @ yx, compute_uv=False)), 0.0, 1.0)
    return np.sort(np.where(sin**2 < 0.5, np.arcsin(sin), np.arccos(cos)))


def sin_theta_norm(x, y):
    """Spectral-norm subspace distance: sin of the largest canonical angle."""
    return float(np.sin(canonical_angles(x, y)[-1]))


def dist_to_set(x, s):
    """Distance from a vector x to a structured 2D-eigenvector set.

    Simple set {g*x_* : |g|=1}: the minimum, sqrt(2 - 2|x_*^H x|) for a
    unit x, is attained at the aligning phase g = sign(x_*^H x).  Multiple set
    {g1*t*v1 + g2*s*v2}: the two phases optimize independently,
    g_i = sign(v_i^H x).  The difference vector is formed explicitly
    instead of using the 2 - 2|overlap| form, which loses half the digits
    to cancellation near the set.
    """
    x = np.asarray(x, dtype=complex).reshape(-1)
    if s.kind is Kind.NONSINGULAR_SIMPLE:
        return float(np.linalg.norm(x - _phase(np.vdot(s.x, x)) * s.x))
    y = s.t * _phase(np.vdot(s.v[:, 0], x)) * s.v[:, 0] \
        + s.s * _phase(np.vdot(s.v[:, 1], x)) * s.v[:, 1]
    return float(np.linalg.norm(x - y))


def _phase(z):
    return z / abs(z) if abs(z) > 0 else 1.0
