"""The two-dimensional Rayleigh quotient iteration.

One step from the iterate (mu_k, lam_k, x_k):

  1. take the nullspace of the n x (n+2) leading block Jhat = J[:n] of the
     bordered Jacobian J as the last two columns of J^-1, from one LU
     solve J N = [0; I_2], J balanced as `projection_basis` says.  J is
     nonsingular at a nonsingular
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

A step's results, RitzCandidates and StepStack, are values, immutable
NamedTuples.  The records of a run, RqiTrace and its IterateRecords, are
objects that `solve` fills in as it goes.
"""

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .kernels import conj_t, diagonalize_form, isotropic_weights
from .model import TripletStack, jacobian, jacobian_hat, power_of_two_near, residual_norm

DEFAULT_OPTS = {"tol_abs": 1e-12, "tol_rel": 1e-14, "max_iter": 50}
_SIGNS = np.array([1.0, -1.0])  # of the two candidates of a projected problem


class Status(Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    INDEFINITENESS_LOST = "IndefinitenessLost"
    JACOBIAN_NEAR_SINGULAR = "JacobianNearSingular"
    NON_FINITE = "NonFinite"


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


class IterateRecord:
    """Iterate k; c1, c2 and abs_a12 are those of the step from it to iterate k + 1, None on the last."""

    __slots__ = ("k", "triplet", "res_norm", "c1", "c2", "abs_a12", "err_mu", "err_lambda", "err_x")

    def __init__(self, k, triplet, res_norm):
        self.k, self.triplet, self.res_norm = k, triplet, res_norm
        self.c1 = self.c2 = self.abs_a12 = self.err_mu = self.err_lambda = self.err_x = None


class RqiTrace:
    """The iterates of a run of `solve` and the Status it ended with."""

    __slots__ = ("iterates", "status")

    def __init__(self):
        self.iterates, self.status = [], Status.MAX_ITERATIONS

    @property
    def final(self):
        return self.iterates[-1].triplet


def projection_basis(pair, starts):
    """Projection bases from the nullspaces of the leading Jacobian blocks.

    Each member of the TripletStack `starts` has its bordered Jacobian J
    from `model.jacobian`, and the nullspace of its leading block is
    spanned by the leading rows of the last two columns of J^-1.  J is
    balanced first: its -x border row and column are scaled by
    |A| + |C|, which scales the second column by 1/(|A| + |C|) and keeps
    the span, so that the rank test reads the same basis for (sA, sC) as
    for (A, C).  Returns (v, c, failures):
    the (k, n, 2) orthonormal bases v with V^H C V = diag(c1, c2), the
    (k, 2) entries (c1, c2), c1 >= c2, as `diagonalize_form` gives them,
    and a list that holds, per member, None or JACOBIAN_NEAR_SINGULAR
    where the leading rows of its basis have rank < 2: as at an x that is
    an eigenvector of C, where the two border rows of J are parallel, and
    for an exactly singular J, as at a zero x, or one whose entries
    overflow, so that its basis is not finite.
    """
    n = pair.n
    j = jacobian(pair, starts)
    sigma = pair.norm_a + pair.norm_c
    j[:, :n, n + 1] *= sigma
    j[:, n + 1, :n] *= sigma
    e = np.zeros((n + 2, 2))
    e[n, 0] = e[n + 1, 1] = 1.0
    # An orthonormal basis of each nullspace: the left singular vectors,
    # which cost less than numpy's QR at this size.  Its rows have singular
    # values <= 1, so an absolute floor is the rank test; u is an
    # orthonormal basis of the leading rows.
    try:
        # e as a stack of one matrix, which numpy < 2 would otherwise read
        # as a stack of vectors
        null = np.linalg.svd(np.linalg.solve(j, e[None]), full_matrices=False)[0]
    except np.linalg.LinAlgError:
        # one singular J fails the whole stack's solve, and one whose
        # entries overflow its SVD, so redo it member by member; a failed
        # member keeps [0; I_2], whose leading rows have rank 0
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


def sigma_n_jhat(pair, t):
    """Smallest singular value of the leading Jacobian block at t.

    A float for a Triplet; for a TripletStack, the array of each member's.
    """
    s = np.linalg.svd(jacobian_hat(pair, t), compute_uv=False)[..., -1]
    return s if s.ndim else float(s)


def form_rq(pair, v):
    """Entries (a11, a12, a22) of the projected matrices V^H A V of a (k, n, 2) stack of bases."""
    ak = conj_t(v) @ pair.a @ v
    return ak[:, 0, 0].real, ak[:, 0, 1], ak[:, 1, 1].real


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


def select_ritz(t_prev, candidates, v):
    """Per member, lift the candidate closest to the previous (mu, lam) through its basis in v."""
    nu, theta, z = candidates.nu, candidates.theta, candidates.z
    gap = np.abs(t_prev.mu[:, None] - nu) + np.abs(t_prev.lam[:, None] - theta)
    second = gap[:, 1] < gap[:, 0]  # the first on a tie
    x = v @ np.where(second[:, None], z[:, 1], z[:, 0])[..., None]
    return TripletStack(np.where(second, nu[:, 1], nu[:, 0]),
                        np.where(second, theta[:, 1], theta[:, 0]), x[..., 0])


def step(pair, starts):
    """One iteration of the 2DRQI from each triplet of the TripletStack `starts`.

    Each stage runs once on the whole stack.  A member whose step fails
    gets its Status in `failures`; nothing raises, and a start past
    overflow warns nothing: its basis fails the rank test.  Where
    |A| + |C| lies outside [2^-400, 2^400], the projected pairs are divided
    by the power of two nearest it before their closed form, whose
    products would over- or underflow, and theta is multiplied back.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v, c, failures = projection_basis(pair, starts)
        a11, a12, a22 = form_rq(pair, v)
        c1, c2 = c.T
        sigma = pair.norm_a + pair.norm_c
        if 2.0 ** -400 <= sigma <= 2.0 ** 400:
            cands = solve_2x2(a11, a12, a22, c1, c2)
        else:
            unit = power_of_two_near(sigma)
            cands = solve_2x2(a11 / unit, a12 / unit, a22 / unit, c1 / unit, c2 / unit)
            cands = cands._replace(theta=cands.theta * unit)
        for i, ok in enumerate(cands.indefinite.tolist()):
            if not ok and failures[i] is None:
                failures[i] = Status.INDEFINITENESS_LOST
        return StepStack(select_ritz(starts, cands, v), c1, c2, np.abs(a12), tuple(failures))


def solve(pair, t0, tol_abs=None, max_iter=None, reference=None):
    """Run the 2DRQI from t0 until the residual is small or max_iter hits.

    The run converges once the residual norm is at most tol_abs +
    DEFAULT_OPTS["tol_rel"] * (|A| + |mu| |C| + |lam|).  Given a reference,
    a `classify.Target` of this pair as `eigvec_set` returns it, each
    iterate records its distances to the target's (mu, lam) and, as err_x,
    to its 2D-eigenvector set: the target's `errors`.  Failures that the
    local theory anticipates (projected C losing indefiniteness, nullspace
    rank collapse) end the run with the Status that `step` gives the
    member.  An iterate whose residual norm (`model.residual_norm`) or
    tolerance is not finite, as at a start that is not finite or one so
    large that the tolerance overflows, ends the run with NON_FINITE.
    Raises ValueError when max_iter < 0, when tol_abs is negative or not
    finite, or when the reference is no Target of pair.
    """
    tol_abs = DEFAULT_OPTS["tol_abs"] if tol_abs is None else tol_abs
    max_iter = DEFAULT_OPTS["max_iter"] if max_iter is None else max_iter
    if max_iter < 0:
        raise ValueError("need max_iter >= 0")
    if not 0.0 <= tol_abs < np.inf:
        raise ValueError("need a finite tol_abs >= 0, got %r" % tol_abs)
    if reference is not None and getattr(reference, "pair", None) is not pair:
        raise ValueError("the reference must be a Target of this pair, as eigvec_set returns")
    res_norm = residual_norm(pair, t0)
    trace = RqiTrace()
    t = t0
    for k in range(max_iter + 1):
        rec = IterateRecord(k=k, triplet=t, res_norm=res_norm)
        trace.iterates.append(rec)
        # Python floats overflow to inf without a warning
        tol = tol_abs + DEFAULT_OPTS["tol_rel"] * (pair.norm_a + abs(t.mu) * pair.norm_c + abs(t.lam))
        if not (math.isfinite(res_norm) and math.isfinite(tol)):
            trace.status = Status.NON_FINITE
            return trace
        if reference is not None:
            rec.err_mu, rec.err_lambda, rec.err_x = reference.errors(t.mu, t.lam, t.x)
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
        res_norm = residual_norm(pair, t)
