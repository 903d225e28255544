"""Multiplicity detection and the singular/nonsingular taxonomy.

A candidate (mu, lam) is classified by the multiplicity k of lam as an
eigenvalue of A - mu*C:

  k = 1: nonsingular iff the eigencurve curvature lam'' is nonzero,
  k = 2: nonsingular iff V^H C V on the cluster eigenbasis is indefinite,
  k >= 3: always singular.

The borderline cases (curvature or cluster eigenvalues within tolerance of
zero) are conservatively classified singular.

A Classification is a value, an immutable NamedTuple.  A Target is an
object that compares by identity, as its HermitianPair does.
"""

from enum import Enum
from typing import NamedTuple

import numpy as np

from . import curves
from .angles import dist_to_set
from .errors import TwoDevpError
from .kernels import isotropic_set
from .model import Triplet, jacobian


class Kind(Enum):
    NONSINGULAR_SIMPLE = "NonsingularSimple"
    NONSINGULAR_MULTIPLE = "NonsingularMultiple"
    SINGULAR = "Singular"


class Classification(NamedTuple):
    kind: Kind
    multiplicity: int
    lambda_double_prime: float  # simple branch evidence, else nan
    cluster_c_eigs: np.ndarray  # multiple branch evidence, else empty
    sigma_min_j: float


class Target:
    """A nonsingular 2D-eigenvalue (mu, lam) of `pair` with its set of unit 2D-eigenvectors.

    The set's members are v @ diag(g) @ w with |g_i| = 1: v is n x k with
    orthonormal columns and w holds k fixed weights.  At a simple
    2D-eigenvalue k = 1 and w = [1], so the set is the phase circle of one
    eigenvector; at a multiple one k = 2 and w = (t, s), the isotropic
    weights of the cluster form of C, so the set is a torus.  It is also
    the triplet (mu, lam, x) with x = v @ w.  v, w and x are read-only
    private arrays, as one target may serve many solves (see rqi.solve).
    """

    __slots__ = ("pair", "mu", "lam", "v", "w", "x")

    def __init__(self, pair, mu, lam, v, w):
        self.pair, self.mu, self.lam = pair, mu, lam
        self.v, self.w = np.array(v), np.array(w)
        self.x = self.v @ self.w
        for arr in (self.v, self.w, self.x):
            arr.setflags(write=False)

    @property
    def triplet(self):
        """The target itself, for callers that read (mu, lam, x) off `triplet`, as perfbench does."""
        return self

    @property
    def regime(self):
        """"simple" at a simple 2D-eigenvalue (v has one column), "multiple" at a multiple one."""
        return "simple" if self.v.shape[1] == 1 else "multiple"

    def errors(self, mu, lam, x):
        """(|mu - mu_*|, |lam - lam_*|, distance from x to the set)."""
        return abs(mu - self.mu), abs(lam - self.lam), dist_to_set(x, self)

    @staticmethod
    def at(pair, triplet, regime):
        """eigvec_set at (triplet.mu, triplet.lam); ValueError unless its regime is `regime`."""
        target = eigvec_set(pair, triplet.mu, triplet.lam)
        if target.regime != regime:
            raise ValueError("(%r, %r) is %s, not %s" % (triplet.mu, triplet.lam, target.regime, regime))
        return target


def default_tol_sing(pair):
    return 1e-8 * (curves.floor_unit(pair) + pair.norm_c)


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

    Returns (classification without sigma_min_j, v, w) where v @ w is an
    isotropic unit vector as in Target, or v = w = None when there is
    none; on a cluster, v, w and the form's eigenvalues are isotropic_set's.
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
        kind = Kind.NONSINGULAR_SIMPLE if abs(ldp) > tol_sing else Kind.SINGULAR
        return Classification(kind, k, ldp, np.array([]), float("nan")), x[:, None], np.ones(1)

    v, w, c_eigs = isotropic_set(pair.c, basis)
    kind = Kind.NONSINGULAR_MULTIPLE if k == 2 and min(c_eigs[0], -c_eigs[-1]) > tol_sing else Kind.SINGULAR
    return Classification(kind, k, float("nan"), c_eigs, float("nan")), v, w


def classify(pair, mu, lam):
    """Classify the candidate 2D-eigenvalue (mu, lam)."""
    cls, v, w = _classify(pair, mu, lam)
    if v is None:
        return cls
    j = jacobian(pair, Triplet(mu, lam, v @ w))
    return cls._replace(sigma_min_j=float(np.linalg.svd(j, compute_uv=False)[-1]))


def eigvec_set(pair, mu, lam):
    """The Target at a nonsingular 2D-eigenvalue (mu, lam) of pair.

    Each call classifies (mu, lam) anew and keeps nothing, so a caller
    that measures many runs against one point classifies it once and
    passes the Target on.  Raises TwoDevpError where (mu, lam) is not a
    nonsingular 2D-eigenvalue.
    """
    cls, v, w = _classify(pair, mu, lam)
    if cls.kind is Kind.SINGULAR:
        raise TwoDevpError("eigvec_set is defined only for nonsingular classifications")
    return Target(pair, float(mu), float(lam), v, w)
