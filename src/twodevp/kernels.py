"""Dense complex linear-algebra kernels used by every other module.

All matrices are numpy arrays of dtype complex128.  The functions here add
input validation and the convention the rest of the package relies on
(descending eigenvalue order) on top of LAPACK via numpy.linalg;
`isotropic_set` builds every cluster's isotropic vector, and `map_threads`
runs independent decompositions on a thread pool (numpy releases the GIL).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import TwoDevpError


# Matrix order from which map_threads runs on threads: below it a
# decomposition is too short to pay for the pool (measured crossover of
# scan, in CHANGES.md).
THREADS_MIN_N = 32


def thread_workers(n, k):
    """Threads map_threads runs k items of order-n work on: 1 below THREADS_MIN_N."""
    if n < THREADS_MIN_N:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, k))


def map_threads(fn, items, n):
    """[fn(x) for x in items], on a pool of thread_workers(n, len(items)) threads.

    A free thread takes the next item, and every item runs.  Once all have
    ended, the first failure in item order is raised, or the results returned.
    """
    items = list(items)
    workers = thread_workers(n, len(items))
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(fn, x) for x in items]
        return [f.result() for f in futures]


def check_hermitian(m):
    """Validate a finite Hermitian matrix and return it symmetrized.

    The symmetry tolerance scales with the largest entry.  Symmetrizing
    as M/2 + M^H/2, which halves exactly and cannot overflow, removes
    representation noise once the tolerance check has passed.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array, got ndim=%d" % m.ndim)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise TwoDevpError("matrix is %dx%d, not square and nonempty" % m.shape)
    dev = np.max(np.abs(m - m.conj().T), initial=0.0)
    tol = 1e-12 * (1.0 + np.max(np.abs(m), initial=0.0))
    if dev > tol:
        raise TwoDevpError("asymmetry %.3e exceeds tolerance %.3e" % (dev, tol))
    return 0.5 * m + 0.5 * m.conj().T


def hermitian_eig(m):
    """Eigendecomposition of an exactly Hermitian matrix, or of a stack of them.

    Returns (values, vectors) with values in descending order and vectors
    as the matching columns.  The input is not validated: callers pass
    pencils of a `HermitianPair`, whose A and C are exactly Hermitian, or
    forms symmetrized by `diagonalize_form`.
    """
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise TwoDevpError(str(exc))
    return w[..., ::-1], v[..., ::-1]


def conj_t(m):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.swapaxes(-1, -2).conj()


def diagonalize_form(c, basis):
    """Rotate an orthonormal basis so basis^H C basis is diagonal.

    Returns (rotated basis, diagonal entries in descending order); on a
    (k, n, m) stack of bases, a stack of each.  The projected form is
    symmetrized before its eigendecomposition.
    """
    m = conj_t(basis) @ c @ basis
    m += conj_t(m)
    m *= 0.5
    e, s = hermitian_eig(m)
    return basis @ s, e


def _sqrt(x):
    """The correctly rounded square root of a Python number or of an array."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def isotropic_weights(c1, c2):
    """Weights (t, s) with t^2 + s^2 = 1 and c1 t^2 + c2 s^2 = 0.

    t v1 + s v2 is then an isotropic unit vector for orthonormal v1, v2
    with v1^H C v1 = c1, v2^H C v2 = c2 and v1^H C v2 = 0.  Works
    elementwise on arrays, and on Python floats bitwise alike, as `_sqrt`
    is correctly rounded on both.  Precondition, not checked here:
    c1 > 0 > c2 throughout; callers that can meet a definite form test it
    first.
    """
    d = c1 - c2
    return _sqrt(-c2 / d), _sqrt(c1 / d)


def isotropic_set(c, basis):
    """(v, w, e): isotropic unit vector v @ w in the span of an orthonormal n x k basis, k >= 2.

    e holds the eigenvalues of basis^H C basis, descending, v its extreme
    directions and w their isotropic weights; v = w = None unless e[0] > 0 > e[-1].
    """
    v, e = diagonalize_form(c, basis)
    if not e[0] > 0.0 > e[-1]:
        return None, None, e
    # a view of columns 0 and k - 1: at k = 2, v in its own layout, which sets the bits of v @ w
    return v[:, :: e.size - 1], np.array(isotropic_weights(e[0], e[-1])), e


def orthonormalize(m):
    """Orthonormal basis for the column span of a full-column-rank matrix.

    On a stack of matrices, the basis of each; TwoDevpError when any of
    them has lower rank.
    """
    u, s, _ = np.linalg.svd(np.asarray(m, dtype=complex), full_matrices=False)
    if s.shape[-1] == 0:
        raise TwoDevpError("an empty matrix has no basis")
    if np.any(s[..., -1] <= 1e-10 * s[..., 0]):
        raise TwoDevpError("smallest singular value %.3e below rank tolerance" % np.min(s[..., -1]))
    return u


def pinv_apply(m, b, rank_tol=None):
    """Apply the Moore-Penrose pseudoinverse of a Hermitian matrix to b.

    Works spectrally: eigencomponents whose eigenvalue magnitude is below
    rank_tol * max|eigenvalue| are treated as null and zeroed.  Default
    rank_tol is n * machine epsilon.
    """
    m = check_hermitian(m)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if b.shape[0] != m.shape[0]:
        raise ValueError("vector length %d does not match matrix size %d" % (b.shape[0], m.shape[0]))
    if rank_tol is None:
        rank_tol = m.shape[0] * np.finfo(float).eps
    if rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    w, v = hermitian_eig(m)
    keep = np.abs(w) > rank_tol * np.max(np.abs(w), initial=0.0)
    return v[:, keep] @ ((v[:, keep].conj().T @ b) / w[keep])
