"""The two-dimensional Rayleigh quotient iteration.

One step from the iterate (mu_k, lam_k, x_k):

  1. build the n x (n+2) leading Jacobian block and take the two right
     singular vectors of its smallest singular values as a nullspace basis;
  2. orthonormalize the first n rows into V and rotate V so V^H C V is
     diagonal with c1 >= c2;
  3. solve the projected 2 x 2 problem (V^H A V, V^H C V) in closed form,
     which yields two candidate triplets when the off-diagonal entry a12
     of V^H A V exceeds TAU_MULT * (|a11| + |a22| + |a12| + 1) in modulus
     and one otherwise;
  4. pick the candidate closest to (mu_k, lam_k) in |d mu| + |d lam| and
     lift its 2-vector through V.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NotIndefinite, RankCollapse
from .kernels import diagonalize_form, isotropic_weights
from .model import Triplet, jacobian_hat, residual

TAU_MULT = 1e-10
DEFAULT_OPTS = {"tol_abs": 1e-12, "tol_rel": 1e-14, "max_iter": 50}


class Branch(Enum):
    SIMPLE = "simple"      # a12 != 0, two candidates indexed by a unit phase
    MULTIPLE = "multiple"  # a12 == 0, one candidate


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
    branch: Branch


@dataclass(frozen=True)
class StepDiagnostics:
    sigma_n_jhat: float
    c1: float
    c2: float
    abs_a12: float
    branch: Branch


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

    Returns two candidates when |a12| is above the branch threshold, one
    otherwise.  Requires c1 > 0 > c2.
    """
    t, s = isotropic_weights(c1, c2)
    if abs(a12) > TAU_MULT * (abs(a11) + abs(a22) + abs(a12) + 1.0):
        out = []
        for sign in (+1.0, -1.0):
            alpha = sign * a12.conjugate() / abs(a12)
            z = np.array([t, alpha * s])
            theta = t * t * a11 + s * s * a22 + sign * 2.0 * t * s * abs(a12)
            num = c1 * t * t * a11 + c2 * s * s * a22 + sign * (c1 + c2) * t * s * abs(a12)
            den = c1 * c1 * t * t + c2 * c2 * s * s
            out.append(RitzCandidate(nu=num / den, theta=theta, z=z, branch=Branch.SIMPLE))
        return out
    nu = (a11 - a22) / (c1 - c2)
    theta = (a22 * c1 - a11 * c2) / (c1 - c2)
    z = np.array([t, s + 0j])
    return [RitzCandidate(nu=nu, theta=theta, z=z, branch=Branch.MULTIPLE)]


def select_ritz(t_prev, candidates, basis):
    """Lift the candidate closest to the previous (mu, lam)."""
    best = min(candidates, key=lambda c: abs(t_prev.mu - c.nu) + abs(t_prev.lam - c.theta))
    x = basis.v @ best.z
    return Triplet(best.nu, best.theta, x), best


def step(pair, t):
    """One iteration of the 2DRQI.  Returns (next triplet, diagnostics)."""
    basis = projection_basis(pair, t)
    a11, a12, a22, c1, c2 = form_rq(pair, basis)
    candidates = solve_2x2(a11, a12, a22, c1, c2)
    t_next, chosen = select_ritz(t, candidates, basis)
    diag = StepDiagnostics(
        sigma_n_jhat=basis.sigma_n,
        c1=c1,
        c2=c2,
        abs_a12=abs(a12),
        branch=chosen.branch,
    )
    return t_next, diag


def _errors_vs_reference(t, reference):
    if reference is None:
        return None, None, None
    rx = reference.x / np.linalg.norm(reference.x)
    tx = t.x / np.linalg.norm(t.x)
    ov = np.vdot(rx, tx)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    err_x = float(np.linalg.norm(tx - phase * rx))
    return abs(t.mu - reference.mu), abs(t.lam - reference.lam), err_x


def solve(pair, t0, tol_abs=None, tol_rel=None, max_iter=None, reference=None):
    """Run the 2DRQI from t0 until the residual is small or max_iter hits.

    Failures that the local theory anticipates (projected C losing
    indefiniteness, nullspace rank collapse) terminate the run with the
    matching status instead of raising.  A start whose mu, lam or x is not
    finite is recorded as iterate 0 and ends the run with NON_FINITE.
    """
    tol_abs = DEFAULT_OPTS["tol_abs"] if tol_abs is None else tol_abs
    tol_rel = DEFAULT_OPTS["tol_rel"] if tol_rel is None else tol_rel
    max_iter = DEFAULT_OPTS["max_iter"] if max_iter is None else max_iter
    if not np.all(np.isfinite(np.r_[t0.mu, t0.lam, t0.x])):
        return RqiTrace([IterateRecord(k=0, triplet=t0, res_norm=float("nan"))], Status.NON_FINITE)

    trace = RqiTrace()
    t = t0
    for k in range(max_iter + 1):
        res = residual(pair, t)
        em, el, ex = _errors_vs_reference(t, reference)
        trace.iterates.append(
            IterateRecord(k=k, triplet=t, res_norm=res.norm, err_mu=em, err_lambda=el, err_x=ex)
        )
        tol = tol_abs + tol_rel * (pair.norm_a + abs(t.mu) * pair.norm_c + abs(t.lam))
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
