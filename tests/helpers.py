"""Helpers shared by several test modules."""

import numpy as np

from twodevp.kernels import diagonalize_form
from twodevp.model import jacobian, power_of_two_near
from twodevp.rqi import Status


def residual_scale(pair, mu, lam):
    """Natural scale of the residual F at (mu, lam): |A| + |mu| |C| + |lam| + 1."""
    return pair.norm_a + abs(mu) * pair.norm_c + abs(lam) + 1.0


def svd_projection_basis(pair, starts):
    """The projection bases of `rqi.projection_basis` by two SVDs and an eigh, as a reference.

    The same balanced solve J N = [0; I_2], J divided by the power of two
    nearest |A| + |C| where that lies outside [2^-400, 2^400]; then the
    left singular vectors of N, those of their leading n rows, rotated by
    `diagonalize_form` so that V^H C V = diag(c1, c2), c1 >= c2.  A
    member fails where the
    leading rows of N's orthonormal basis have a singular value <= 1e-10.
    Returns (v, c, failures) as `projection_basis` does.
    """
    n = pair.n
    sigma = pair.norm_a + pair.norm_c
    j = jacobian(pair, starts, sigma)
    if not 2.0 ** -400 <= sigma <= 2.0 ** 400:
        j /= power_of_two_near(sigma)
    e = np.zeros((n + 2, 2))
    e[n, 0] = e[n + 1, 1] = 1.0
    null = np.empty(j.shape[:1] + e.shape, dtype=complex)
    for i, ji in enumerate(j):
        try:
            null[i] = np.linalg.svd(np.linalg.solve(ji, e), full_matrices=False)[0]
        except np.linalg.LinAlgError:
            null[i] = e
    u, sv, _ = np.linalg.svd(null[:, :n, :], full_matrices=False)
    failures = [Status.JACOBIAN_NEAR_SINGULAR if low else None for low in (sv[:, -1] <= 1e-10).tolist()]
    v, c = diagonalize_form(pair.c, u)
    return v, c, failures
