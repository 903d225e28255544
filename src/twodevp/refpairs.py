"""Reference problem instances with closed-form solutions.

The two 2 x 2 pairs have fully closed-form eigencurves and are the
ground truth for the oracle and classification tests.  The larger
"desk scale" variants embed the same targets in bigger matrices; any
2 x 2 instance is solved exactly in a single iteration (the projection
subspace is the whole space), so convergence-rate measurements need
n > 2.
"""

import numpy as np

from .model import HermitianPair, Triplet

SQ2 = np.sqrt(2.0)


def simple_pair_2x2():
    """A = [[0,1],[1,0]], C = diag(1,-1): curves +-sqrt(1+mu^2).

    Nonsingular simple targets (0, 1, (e1+e2)/sqrt 2) and
    (0, -1, (e1-e2)/sqrt 2).
    """
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    c = np.diag([1.0, -1.0])
    return HermitianPair(a, c)


def simple_target_2x2(top=True):
    if top:
        return Triplet(0.0, 1.0, np.array([1.0, 1.0]) / SQ2)
    return Triplet(0.0, -1.0, np.array([1.0, -1.0]) / SQ2)


def multiple_pair_2x2():
    """A = C = diag(1,-1): lines 1-mu and -1+mu crossing at (1, 0)."""
    m = np.diag([1.0, -1.0])
    return HermitianPair(m, m.copy())


def multiple_target_2x2():
    return Triplet(1.0, 0.0, np.array([1.0, 1.0]) / SQ2)


def haar_unitary(rng, n):
    """Haar-distributed n x n unitary drawn from the generator rng."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def simple_pair_desk(n=8, seed=20260826):
    """Dense n x n pair with the simple target of the 2 x 2 pair embedded.

    Built by padding the 2 x 2 pair with well-separated diagonal curves
    and conjugating by a fixed unitary; the target is (0, 1, Q^H e12).
    """
    assert n >= 4 and n % 2 == 0
    a = np.zeros((n, n))
    a[0, 1] = a[1, 0] = 1.0
    pad = []
    c_diag = [1.0, -1.0]
    for i in range((n - 2) // 2):
        pad += [2.5 + 0.9 * i, -(2.5 + 0.8 * i)]
        c_diag += [1.0, -1.0]
    a[2:, 2:] = np.diag(pad)
    c = np.diag(c_diag)
    q = haar_unitary(np.random.default_rng(seed), n)
    x = np.zeros(n, dtype=complex)
    x[0] = x[1] = 1.0 / SQ2
    return HermitianPair(q.conj().T @ a @ q, q.conj().T @ c @ q), Triplet(0.0, 1.0, q.conj().T @ x)


def multiple_pair_desk(n=6):
    """Diagonal pair with a nonsingular multiple target at (1, 0).

    Curves are the lines a_i - mu*c_i; the first two cross at mu = 1 with
    slopes -1 and +1, the rest stay away from lambda = 0 near mu = 1.
    """
    assert n >= 2 and n % 2 == 0
    a_diag = [1.0, -1.0]
    c_diag = [1.0, -1.0]
    for i in range((n - 2) // 2):
        a_diag += [3.0 + 1.1 * i, -(3.0 + 0.9 * i)]
        c_diag += [1.0, -1.0]
    pair = HermitianPair(np.diag(a_diag), np.diag(c_diag))
    x = np.zeros(n, dtype=complex)
    x[0] = x[1] = 1.0 / SQ2
    return pair, Triplet(1.0, 0.0, x)
