"""The two-dimensional Rayleigh quotient iteration.

One step from the iterate (mu_k, lam_k, x_k):

  1. take the nullspace of the n x (n+2) leading block Jhat = J[:n] of the
     bordered Jacobian J as the last two columns of J^-1, from one LU
     solve J N = [0; I_2].  J is nonsingular at a nonsingular
     2D-eigentriplet, so the solve stays defined where H = A - mu C - lam I
     is singular: for z = (y, a, b) with J z = 0, a simple triplet forces
     a lam'' = 0 and a crossing (cluster form of C diag(c1, c2), isotropic
     weights (t, s)) forces a t s (c1 - c2) = 0, and a = 0 then gives z = 0;
  2. orthonormalize N, orthonormalize its first n rows into V and rotate
     V so V^H C V is diagonal with c1 >= c2;
  3. solve the projected 2 x 2 problem (V^H A V, V^H C V) in closed form,
     which yields two candidate triplets; they coincide when the
     off-diagonal entry a12 of V^H A V is zero;
  4. pick the candidate closest to (mu_k, lam_k) in |d mu| + |d lam| and
     lift its 2-vector through V.

`step` takes this step from each of a stack of k iterates at once:
every stage is one numpy call on the stack, or a few, and a member whose
step fails gets the Status that stopped it.  `solve` steps stacks of one.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .classify import eigvec_set
from .kernels import conj_t, diagonalize_form, isotropic_weights
from .model import Triplet, TripletStack, jacobian, jacobian_hat, residual

DEFAULT_OPTS = {"tol_abs": 1e-12, "tol_rel": 1e-14, "max_iter": 50}
_SIGNS = np.array([1.0, -1.0])  # of the two candidates of a projected problem


class Status(Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    INDEFINITENESS_LOST = "IndefinitenessLost"
    JACOBIAN_NEAR_SINGULAR = "JacobianNearSingular"
    NON_FINITE = "NonFinite"


class ProjectionBasis(NamedTuple):
    """Projection bases of a stack of k iterates."""

    v: np.ndarray          # k x n x 2, orthonormal, V^H C V = diag(c1, c2)
    c1: np.ndarray         # k
    c2: np.ndarray         # k


class RitzCandidates(NamedTuple):
    """The two candidates of each of k projected 2 x 2 problems.

    Candidate c of member i is (nu[i, c], theta[i, c]) with 2-vector
    z[i, c].  Where indefinite[i] is False, the member's projected C is
    not indefinite and its candidates are placeholders.
    """

    nu: np.ndarray         # k x 2
    theta: np.ndarray      # k x 2
    z: np.ndarray          # k x 2 x 2
    indefinite: np.ndarray  # k


class StepStack(NamedTuple):
    """One 2DRQI step from each of k iterates.

    failures[i] is None, or the Status that stopped member i
    (JACOBIAN_NEAR_SINGULAR or INDEFINITENESS_LOST); the next triplet,
    c1, c2 and abs_a12 of such a member are placeholders.
    """

    triplets: TripletStack
    c1: np.ndarray
    c2: np.ndarray
    abs_a12: np.ndarray
    failures: tuple


@dataclass
class IterateRecord:
    """Iterate k; c1, c2 and abs_a12 are those of the step from it to iterate k + 1, None on the last."""

    k: int
    triplet: Triplet
    res_norm: float
    c1: float = None
    c2: float = None
    abs_a12: float = None
    err_mu: float = None
    err_lambda: float = None
    err_x: float = None


@dataclass
class RqiTrace:
    iterates: list = field(default_factory=list)
    status: Status = Status.MAX_ITERATIONS

    @property
    def final(self):
        return self.iterates[-1].triplet


def projection_basis(pair, j):
    """Projection bases from the nullspaces of the leading Jacobian blocks.

    j is a (k, n+2, n+2) stack of bordered Jacobians, and each nullspace
    is spanned by the last two columns of J^-1.  Returns the bases and a
    list that holds, per member, None or JACOBIAN_NEAR_SINGULAR where the
    leading rows of its basis have rank < 2: as at an x that is an
    eigenvector of C, where the two border rows of J are parallel, and for
    an exactly singular J, as at a zero x.
    """
    n = pair.n
    e = np.zeros((n + 2, 2))
    e[n, 0] = e[n + 1, 1] = 1.0
    try:
        # e as a stack of one matrix, which numpy < 2 would otherwise read
        # as a stack of vectors
        null = np.linalg.solve(j, e[None])
    except np.linalg.LinAlgError:
        # one singular J fails the whole stack, so redo it member by
        # member; a singular member keeps [0; I_2], whose leading rows
        # have rank 0
        null = np.empty(j.shape[:1] + e.shape, dtype=complex)
        for i, ji in enumerate(j):
            try:
                null[i] = np.linalg.solve(ji, e)
            except np.linalg.LinAlgError:
                null[i] = e
    # An orthonormal basis of each nullspace: the left singular vectors,
    # which cost less than numpy's QR at this size.  Its rows have singular
    # values <= 1, so an absolute floor is the rank test; u is an
    # orthonormal basis of the leading rows.
    null = np.linalg.svd(null, full_matrices=False)[0]
    u, sv, _ = np.linalg.svd(null[:, :n, :], full_matrices=False)
    failures = [Status.JACOBIAN_NEAR_SINGULAR if low else None for low in (sv[:, -1] <= 1e-10).tolist()]
    v, ce = diagonalize_form(pair.c, u)
    return ProjectionBasis(v, ce[:, 0], ce[:, 1]), failures


def sigma_n_jhat(pair, t):
    """Smallest singular value of the leading Jacobian block at t.

    A float for a Triplet; for a TripletStack, the array of each member's.
    """
    s = np.linalg.svd(jacobian_hat(pair, t), compute_uv=False)[..., -1]
    return s if s.ndim else float(s)


def form_rq(pair, basis):
    """Entries (a11, a12, a22, c1, c2) of the projected pairs (V^H A V, V^H C V)."""
    ak = conj_t(basis.v) @ pair.a @ basis.v
    return ak[:, 0, 0].real, ak[:, 0, 1], ak[:, 1, 1].real, basis.c1, basis.c2


def solve_2x2(a11, a12, a22, c1, c2):
    """Closed-form solutions of projected 2 x 2 problems, elementwise.

    Each problem has the two candidates z = [t, +-alpha s], where (t, s)
    are the isotropic weights of (c1, c2) and alpha = conj(a12)/|a12|; at
    a12 == 0, alpha = 1 and the two coincide.  With d = c1 - c2 and
    g = sqrt(-c1 c2) = t s d, their Rayleigh quotients are
    theta = (c1 a22 - c2 a11 +- 2 g |a12|) / d and
    nu = (a11 - a22 +- (c1 + c2) |a12| / g) / d.  A problem needs
    c1 > 0 > c2; where it fails, `indefinite` is False.
    """
    indefinite = (c1 > 0) & (c2 < 0)
    c1 = np.where(indefinite, c1, 1.0)
    c2 = np.where(indefinite, c2, -1.0)
    t, s = isotropic_weights(c1, c2)  # c1 > 0 > c2 once masked
    r = np.abs(a12)
    zero = r == 0
    alpha = (np.conj(a12) + zero) / (r + zero)  # 1 where a12 == 0
    d = c1 - c2
    g = t * s * d
    pm = (r / d)[..., None] * _SIGNS  # +-|a12| / d for the two candidates
    theta = ((c1 * a22 - c2 * a11) / d)[..., None] + (2.0 * g)[..., None] * pm
    nu = ((a11 - a22) / d)[..., None] + ((c1 + c2) / g)[..., None] * pm
    z = np.empty(pm.shape + (2,), dtype=complex)
    z[..., 0] = t[..., None]
    z[..., 1] = (alpha * s)[..., None] * _SIGNS
    return RitzCandidates(nu, theta, z, indefinite)


def select_ritz(t_prev, candidates, basis):
    """Per member, lift the candidate closest to the previous (mu, lam)."""
    nu, theta, z = candidates.nu, candidates.theta, candidates.z
    gap = np.abs(t_prev.mu[:, None] - nu) + np.abs(t_prev.lam[:, None] - theta)
    second = gap[:, 1] < gap[:, 0]  # the first on a tie
    x = basis.v @ np.where(second[:, None], z[:, 1], z[:, 0])[..., None]
    return TripletStack(np.where(second, nu[:, 1], nu[:, 0]),
                        np.where(second, theta[:, 1], theta[:, 0]), x[..., 0])


def step(pair, starts):
    """One iteration of the 2DRQI from each triplet of the TripletStack `starts`.

    Each stage runs once on the whole stack.  A member whose step fails
    gets its Status in `failures`; nothing raises.
    """
    basis, failures = projection_basis(pair, jacobian(pair, starts))
    a11, a12, a22, c1, c2 = form_rq(pair, basis)
    cands = solve_2x2(a11, a12, a22, c1, c2)
    for i, ok in enumerate(cands.indefinite.tolist()):
        if not ok and failures[i] is None:
            failures[i] = Status.INDEFINITENESS_LOST
    return StepStack(select_ritz(starts, cands, basis), c1, c2, np.abs(a12), tuple(failures))


def solve(pair, t0, tol_abs=None, max_iter=None, reference=None):
    """Run the 2DRQI from t0 until the residual is small or max_iter hits.

    The run converges once the residual norm is at most tol_abs +
    DEFAULT_OPTS["tol_rel"] * (|A| + |mu| |C| + |lam|).  Given a reference
    triplet, each iterate records its distances to the reference's
    (mu, lam) and, as err_x, to the 2D-eigenvector set there; that set
    comes from `eigvec_set`, which the pair keeps, so repeated solves
    against one reference classify it once per pair.  Failures
    that the local theory anticipates (projected C losing indefiniteness,
    nullspace rank collapse) end the run with the Status that `step`
    gives the member.  A non-finite start is recorded as iterate 0 and
    ends the run with NON_FINITE.  Raises ValueError when max_iter < 0 or tol_abs
    is negative or not finite, and TwoDevpError when the reference's
    (mu, lam) is not a nonsingular 2D-eigenvalue, on every call.
    """
    tol_abs = DEFAULT_OPTS["tol_abs"] if tol_abs is None else tol_abs
    max_iter = DEFAULT_OPTS["max_iter"] if max_iter is None else max_iter
    if max_iter < 0:
        raise ValueError("need max_iter >= 0")
    if not 0.0 <= tol_abs < np.inf:
        raise ValueError("need a finite tol_abs >= 0, got %r" % tol_abs)
    vec_set = None if reference is None else eigvec_set(pair, reference.mu, reference.lam)
    if not (math.isfinite(t0.mu) and math.isfinite(t0.lam) and np.isfinite(t0.x).all()):
        return RqiTrace([IterateRecord(k=0, triplet=t0, res_norm=float("nan"))], Status.NON_FINITE)

    trace = RqiTrace()
    t = t0
    for k in range(max_iter + 1):
        res_norm = float(np.linalg.norm(residual(pair, t)))
        rec = IterateRecord(k=k, triplet=t, res_norm=res_norm)
        if vec_set is not None:
            rec.err_mu, rec.err_lambda, rec.err_x = vec_set.errors(t.mu, t.lam, t.x)
        trace.iterates.append(rec)
        tol = tol_abs + DEFAULT_OPTS["tol_rel"] * (pair.norm_a + abs(t.mu) * pair.norm_c + abs(t.lam))
        if res_norm <= tol:
            trace.status = Status.CONVERGED
            return trace
        if k == max_iter:
            trace.status = Status.MAX_ITERATIONS
            return trace
        out = step(pair, TripletStack(np.array([t.mu]), np.array([t.lam]), t.x[None]))
        if out.failures[0] is not None:
            trace.status = out.failures[0]
            return trace
        t = out.triplets[0]
        rec.c1, rec.c2, rec.abs_a12 = float(out.c1[0]), float(out.c2[0]), float(out.abs_a12[0])
