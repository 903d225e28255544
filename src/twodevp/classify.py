"""Multiplicity detection and the singular/nonsingular taxonomy.

A candidate (mu, lam) is classified by the multiplicity k of lam as an
eigenvalue of A - mu*C:

  k = 1: nonsingular iff the eigencurve curvature lam'' is nonzero,
  k = 2: nonsingular iff V^H C V on the cluster eigenbasis is indefinite,
  k >= 3: always singular.

The borderline cases (curvature or cluster eigenvalues within tolerance of
zero) are conservatively classified singular.
"""

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import curves
from .errors import NotIndefinite, TwoDevpError
from .kernels import diagonalize_form, isotropic_weights
from .model import Triplet, jacobian


class Kind(Enum):
    NONSINGULAR_SIMPLE = "NonsingularSimple"
    NONSINGULAR_MULTIPLE = "NonsingularMultiple"
    SINGULAR = "Singular"


@dataclass(frozen=True)
class Classification:
    kind: Kind
    multiplicity: int
    lambda_double_prime: float  # simple branch evidence, else nan
    cluster_c_eigs: np.ndarray  # multiple branch evidence, else empty
    sigma_min_j: float


@dataclass(frozen=True)
class EigvecSet:
    """The set of unit 2D-eigenvectors at a nonsingular (mu, lam).

    Simple: all unit-phase multiples of x.  Multiple: all vectors
    g1*t*v1 + g2*s*v2 with |g1| = |g2| = 1, where (v1, v2) are the columns
    of v and (t, s) are fixed mixing weights from the cluster form of C.
    """

    kind: Kind
    x: np.ndarray = None       # simple representative
    v: np.ndarray = None       # n x 2 orthonormal, multiple case
    t: float = None
    s: float = None

    def representative(self):
        """One concrete unit 2D-eigenvector from the set."""
        if self.kind is Kind.NONSINGULAR_SIMPLE:
            return self.x
        return self.t * self.v[:, 0] + self.s * self.v[:, 1]


def default_tol_sing(pair):
    return 1e-8 * (1.0 + pair.norm_c)


def fix_phase(x):
    """Rotate so the largest-magnitude entry is real positive."""
    i = int(np.argmax(np.abs(x)))
    z = x[i]
    if abs(z) == 0:
        return x
    return x * (z.conj() / abs(z))


def multiplicity(pair, mu, lam):
    """Count eigenvalues of A - mu*C within default_tol_mult of lam.

    Returns (k, eigbasis) where eigbasis is an n x k orthonormal basis of
    the cluster eigenspace (k may be 0).
    """
    point = curves.eig_at(pair, mu)
    basis = point.vectors[:, curves.cluster(pair, point, lam)]
    return basis.shape[1], basis


def _classify(pair, mu, lam):
    """Classify (mu, lam) from one eigendecomposition of A - mu*C.

    Returns (classification without sigma_min_j, an isotropic unit vector
    or None, the EigvecSet or None when the point is singular).
    """
    tol_sing = default_tol_sing(pair)
    point = curves.eig_at(pair, mu)
    basis = point.vectors[:, curves.cluster(pair, point, lam)]
    k = basis.shape[1]
    if k == 0:
        raise TwoDevpError("no eigenvalue of A - mu*C near lambda=%r at mu=%r" % (lam, mu))
    if k == 1:
        x = fix_phase(basis[:, 0])
        iso = -curves.slopes(pair, x[:, None])[0]
        if abs(iso) > tol_sing:
            raise TwoDevpError(
                "x^H C x = %.3e: the simple eigenvector is not isotropic" % iso
            )
        ldp = curves.branch_derivatives(pair, point, lam, x)[1]
        simple = abs(ldp) > tol_sing
        kind = Kind.NONSINGULAR_SIMPLE if simple else Kind.SINGULAR
        cls = Classification(kind, k, ldp, np.array([]), float("nan"))
        return cls, x, EigvecSet(kind=kind, x=x) if simple else None

    v, c_eigs = diagonalize_form(pair.c, basis)
    c1, c2 = float(c_eigs[0]), float(c_eigs[-1])
    cls = Classification(Kind.SINGULAR, k, float("nan"), c_eigs, float("nan"))
    try:
        t, s = isotropic_weights(c1, c2)
    except NotIndefinite:
        return cls, None, None
    rep = t * v[:, 0] + s * v[:, -1]
    if k > 2 or not (c1 > tol_sing and c2 < -tol_sing):
        return cls, rep, None
    vec_set = EigvecSet(kind=Kind.NONSINGULAR_MULTIPLE, v=v, t=float(t), s=float(s))
    return replace(cls, kind=vec_set.kind), rep, vec_set


def classify(pair, mu, lam):
    """Classify the candidate 2D-eigenvalue (mu, lam)."""
    cls, rep, _ = _classify(pair, mu, lam)
    if rep is None:
        return cls
    j = jacobian(pair, Triplet(mu, lam, rep))
    return replace(cls, sigma_min_j=float(np.linalg.svd(j, compute_uv=False)[-1]))


def eigvec_set(pair, mu, lam):
    """The structured set of 2D-eigenvectors at a nonsingular (mu, lam)."""
    vec_set = _classify(pair, mu, lam)[2]
    if vec_set is None:
        raise TwoDevpError("eigvec_set is defined only for nonsingular classifications")
    return vec_set
