"""Canonical angles between subspaces and distances to eigenvector sets."""

import numpy as np

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


def dist_to_set(x, s):
    """Distance from a vector x to the 2D-eigenvector set of s (a classify.Target).

    The set is {sum_i g_i w_i v_i : |g_i| = 1} over the columns v_i of s.v
    and the weights w_i of s.w.  The phases optimize independently, so the
    nearest member takes g_i = phase(v_i^H x), and 1 where v_i^H x = 0.
    The difference vector is formed explicitly instead of using a
    2 - 2|overlap| form, which loses half the digits to cancellation near
    the set.  For a (k, n) stack of vectors x it returns the k distances.
    """
    x = np.asarray(x, dtype=complex)
    p = x @ s.v.conj()  # v_i^H x in column i
    r = np.abs(p)
    zero = r == 0
    g = (p + zero) / (r + zero)  # phase(v_i^H x), and 1 where it is 0
    diff = x - (g * s.w) @ s.v.T
    d = np.sqrt(np.add.reduce((diff.conj() * diff).real, axis=-1))  # np.linalg.norm(diff, axis=-1), bitwise
    return d if d.ndim else float(d)
