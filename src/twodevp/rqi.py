"""The two-dimensional Rayleigh quotient iteration.

One step from the iterate (mu_k, lam_k, x_k):

  1. build the n x (n+2) leading Jacobian block and take the two right
     singular vectors of its smallest singular values as a nullspace basis;
  2. orthonormalize the first n rows into V and rotate V so V^H C V is
     diagonal with c1 >= c2;
  3. solve the projected 2 x 2 problem (V^H A V, V^H C V) in closed form,
     which yields two candidate triplets; they coincide when the
     off-diagonal entry a12 of V^H A V is zero;
  4. pick the candidate closest to (mu_k, lam_k) in |d mu| + |d lam| and
     lift its 2-vector through V.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .angles import dist_to_set
from .classify import eigvec_set
from .errors import NotIndefinite, RankCollapse
from .kernels import diagonalize_form, isotropic_weights
from .model import Triplet, jacobian_hat, residual

DEFAULT_OPTS = {"tol_abs": 1e-12, "tol_rel": 1e-14, "max_iter": 50}


class Status(Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    INDEFINITENESS_LOST = "IndefinitenessLost"
    JACOBIAN_NEAR_SINGULAR = "JacobianNearSingular"
    NON_FINITE = "NonFinite"


@dataclass(frozen=True)
class ProjectionBasis:
    v: np.ndarray          # n x 2, orthonormal, V^H C V = diag(c1, c2)
    c1: float
    c2: float
    sigma_n: float         # smallest singular value of the leading block


@dataclass(frozen=True)
class RitzCandidate:
    nu: float
    theta: float
    z: np.ndarray


@dataclass(frozen=True)
class StepDiagnostics:
    sigma_n_jhat: float
    c1: float
    c2: float
    abs_a12: float


@dataclass
class IterateRecord:
    k: int
    triplet: Triplet
    res_norm: float
    diagnostics: StepDiagnostics = None
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


def projection_basis(pair, t):
    """Projection basis from the nullspace of the leading Jacobian block."""
    jhat = jacobian_hat(pair, t)
    _, s, vh = np.linalg.svd(jhat, full_matrices=True)
    null = vh.conj().T[:, pair.n:]          # exact nullspace, dimension 2
    # The rows of an orthonormal basis have singular values <= 1, so an
    # absolute floor is the rank test; u is an orthonormal basis of them.
    u, sv, _ = np.linalg.svd(null[: pair.n, :], full_matrices=False)
    if sv[-1] <= 1e-10:
        raise RankCollapse("leading rows of the nullspace basis have rank < 2")
    v, ce = diagonalize_form(pair.c, u)
    return ProjectionBasis(v=v, c1=float(ce[0]), c2=float(ce[1]), sigma_n=float(s[pair.n - 1]))


def form_rq(pair, basis):
    """Entries of the projected pair (V^H A V, V^H C V)."""
    ak = basis.v.conj().T @ pair.a @ basis.v
    a11 = float(np.real(ak[0, 0]))
    a22 = float(np.real(ak[1, 1]))
    a12 = complex(ak[0, 1])
    return a11, a12, a22, basis.c1, basis.c2


def solve_2x2(a11, a12, a22, c1, c2):
    """Closed-form solution of the projected 2 x 2 problem.

    Returns the two candidates z = [t, +-alpha s], where (t, s) are the
    isotropic weights of (c1, c2) and alpha = conj(a12)/|a12|; at a12 == 0,
    alpha = 1 and the two coincide.  Requires c1 > 0 > c2.
    """
    t, s = isotropic_weights(c1, c2)
    r = abs(a12)
    alpha = a12.conjugate() / r if a12 != 0 else 1.0 + 0j
    den = c1 * c1 * t * t + c2 * c2 * s * s
    out = []
    for sign in (+1.0, -1.0):
        theta = t * t * a11 + s * s * a22 + sign * 2.0 * t * s * r
        num = c1 * t * t * a11 + c2 * s * s * a22 + sign * (c1 + c2) * t * s * r
        out.append(RitzCandidate(nu=num / den, theta=theta, z=np.array([t, sign * alpha * s])))
    return out


def select_ritz(t_prev, candidates, basis):
    """Lift the candidate closest to the previous (mu, lam)."""
    best = min(candidates, key=lambda c: abs(t_prev.mu - c.nu) + abs(t_prev.lam - c.theta))
    return Triplet(best.nu, best.theta, basis.v @ best.z)


def step(pair, t):
    """One iteration of the 2DRQI.  Returns (next triplet, diagnostics)."""
    basis = projection_basis(pair, t)
    a11, a12, a22, c1, c2 = form_rq(pair, basis)
    t_next = select_ritz(t, solve_2x2(a11, a12, a22, c1, c2), basis)
    return t_next, StepDiagnostics(basis.sigma_n, c1, c2, abs(a12))


def solve(pair, t0, tol_abs=None, max_iter=None, reference=None):
    """Run the 2DRQI from t0 until the residual is small or max_iter hits.

    The run converges once the residual norm is at most tol_abs +
    DEFAULT_OPTS["tol_rel"] * (|A| + |mu| |C| + |lam|).  Given a reference
    triplet, each iterate records its distances to the reference's
    (mu, lam) and, as err_x, to the 2D-eigenvector set there.  Failures
    that the local theory anticipates (projected C losing indefiniteness,
    nullspace rank collapse) end the run with the matching status instead
    of raising.  A non-finite start is recorded as iterate 0 and ends the
    run with NON_FINITE.  Raises ValueError when max_iter < 0, and
    TwoDevpError when the reference's (mu, lam) is not a nonsingular
    2D-eigenvalue.
    """
    tol_abs = DEFAULT_OPTS["tol_abs"] if tol_abs is None else tol_abs
    max_iter = DEFAULT_OPTS["max_iter"] if max_iter is None else max_iter
    if max_iter < 0:
        raise ValueError("need max_iter >= 0")
    vec_set = None if reference is None else eigvec_set(pair, reference.mu, reference.lam)
    if not np.all(np.isfinite(np.r_[t0.mu, t0.lam, t0.x])):
        return RqiTrace([IterateRecord(k=0, triplet=t0, res_norm=float("nan"))], Status.NON_FINITE)

    trace = RqiTrace()
    t = t0
    for k in range(max_iter + 1):
        res = residual(pair, t)
        rec = IterateRecord(k=k, triplet=t, res_norm=res.norm)
        if vec_set is not None:
            rec.err_mu, rec.err_lambda = abs(t.mu - reference.mu), abs(t.lam - reference.lam)
            rec.err_x = dist_to_set(t.x, vec_set)
        trace.iterates.append(rec)
        tol = tol_abs + DEFAULT_OPTS["tol_rel"] * (pair.norm_a + abs(t.mu) * pair.norm_c + abs(t.lam))
        if res.norm <= tol:
            trace.status = Status.CONVERGED
            return trace
        if k == max_iter:
            trace.status = Status.MAX_ITERATIONS
            return trace
        try:
            t, diag = step(pair, t)
        except NotIndefinite:
            trace.status = Status.INDEFINITENESS_LOST
            return trace
        except RankCollapse:
            trace.status = Status.JACOBIAN_NEAR_SINGULAR
            return trace
        trace.iterates[-1].diagnostics = diag
    return trace
