"""Dense complex linear-algebra kernels used by every other module.

All matrices are numpy arrays of dtype complex128.  The functions here add
input validation and the convention the rest of the package relies on
(descending eigenvalue order) on top of LAPACK via numpy.linalg.
"""

import numpy as np

from .errors import NotIndefinite, RankCollapse, TwoDevpError


def as_matrix(m):
    """Coerce input to a finite complex 2-d array."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array, got ndim=%d" % m.ndim)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def herm_tol(m):
    """Symmetry tolerance scaled to the largest entry."""
    return 1e-12 * (1.0 + np.max(np.abs(m), initial=0.0))


def check_hermitian(m):
    """Validate Hermitian symmetry and return the symmetrized matrix.

    Symmetrizing as (M + M^H)/2 removes representation noise once the
    tolerance check has passed.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise TwoDevpError("matrix is %dx%d, not square" % m.shape)
    dev = np.max(np.abs(m - m.conj().T), initial=0.0)
    if dev > herm_tol(m):
        raise TwoDevpError("asymmetry %.3e exceeds tolerance %.3e" % (dev, herm_tol(m)))
    return 0.5 * (m + m.conj().T)


def hermitian_eig(m):
    """Eigendecomposition of an exactly Hermitian matrix.

    Returns (values, vectors) with values in descending order and vectors
    as the matching columns.  The input is not validated: callers pass
    pencils of a `HermitianPair`, whose A and C are exactly Hermitian, or
    forms symmetrized by `diagonalize_form`.
    """
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise TwoDevpError(str(exc))
    return w[::-1], v[:, ::-1]


def diagonalize_form(c, basis):
    """Rotate an orthonormal basis so basis^H C basis is diagonal.

    Returns (rotated basis, diagonal entries in descending order).  The
    projected form is symmetrized before its eigendecomposition.
    """
    m = basis.conj().T @ c @ basis
    e, s = hermitian_eig(0.5 * (m + m.conj().T))
    return basis @ s, e


def isotropic_weights(c1, c2):
    """Weights (t, s) with t^2 + s^2 = 1 and c1 t^2 + c2 s^2 = 0.

    t v1 + s v2 is then an isotropic unit vector for orthonormal v1, v2
    with v1^H C v1 = c1, v2^H C v2 = c2 and v1^H C v2 = 0.
    Requires c1 > 0 > c2.
    """
    if not (c1 > 0 > c2):
        raise NotIndefinite("projected C has entries (%r, %r), not indefinite" % (c1, c2))
    return np.sqrt(-c2 / (c1 - c2)), np.sqrt(c1 / (c1 - c2))


def orthonormalize(m):
    """Orthonormal basis for the column span of a full-column-rank matrix."""
    m = as_matrix(m)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    scale = s[0] if s.size else 0.0
    if s.size == 0 or s[-1] <= 1e-10 * scale:
        raise RankCollapse("smallest singular value %.3e below rank tolerance" % (s[-1] if s.size else 0.0))
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
