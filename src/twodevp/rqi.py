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
  4. pick the candidate closest to (mu_k, lam_k) in |d mu| + |d lam| / u,
     u = curves.floor_unit(pair), as lam scales with the pair and mu does
     not, and lift its 2-vector through V.

`step` takes this step from each of a stack of k iterates at once:
every stage is one numpy call on the stack, or a few, and a member whose
step fails gets the Status that stopped it.  `solve` steps stacks of one,
whose stages 3 and 4 run on Python numbers: the closed form and the
choice are written with operators and builtins only, so the same lines
serve a stack and one start.

A step's results, RitzCandidates and StepStack, are values, immutable
NamedTuples.  The records of a run, RqiTrace and its IterateRecords, are
objects that `solve` fills in as it goes.
"""

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .curves import floor_unit
from .kernels import conj_t, diagonalize_form, isotropic_weights
from .model import TripletStack, jacobian, jacobian_hat, power_of_two_near, residual_norm

DEFAULT_OPTS = {"tol_abs": 1e-12, "tol_rel": 1e-14, "max_iter": 50}


class Status(Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    INDEFINITENESS_LOST = "IndefinitenessLost"
    JACOBIAN_NEAR_SINGULAR = "JacobianNearSingular"
    NON_FINITE = "NonFinite"


class RitzCandidates(NamedTuple):
    """The two candidates of each of k projected 2 x 2 problems, or of one.

    Candidate 0 of a problem is (nu0 + dnu, theta0 + dtheta) with 2-vector
    [t, w], and candidate 1 is (nu0 - dnu, theta0 - dtheta) with [t, -w].
    The fields are arrays of shape (k,) for k problems, Python numbers for
    one problem given as Python numbers; the properties nu, theta and z
    give the candidates as (k, 2), (k, 2) and (k, 2, 2) arrays, or (2,),
    (2,) and (2, 2) for one problem.  Where indefinite is False, the
    problem's projected C is not indefinite and its candidates are
    placeholders.
    """

    nu0: np.ndarray
    dnu: np.ndarray
    theta0: np.ndarray
    dtheta: np.ndarray
    t: np.ndarray
    w: np.ndarray
    indefinite: np.ndarray

    @property
    def nu(self):
        return np.stack((self.nu0 + self.dnu, self.nu0 - self.dnu), axis=-1)

    @property
    def theta(self):
        return np.stack((self.theta0 + self.dtheta, self.theta0 - self.dtheta), axis=-1)

    @property
    def z(self):
        return np.stack((np.stack((self.t, self.w), axis=-1), np.stack((self.t, -self.w), axis=-1)), axis=-2)


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

    Operators and builtins only: the same lines take arrays of k problems
    and, at the speed of Python arithmetic, one problem given as Python
    numbers.  Python numbers raise where numpy gives inf or nan, as a
    ZeroDivisionError where t or s underflows.
    """
    indefinite = (c1 > 0) & (c2 < 0)
    # (1, -1) where not indefinite: placeholders, nan only where c1 or c2 is
    c1 = indefinite * c1 + (1.0 - indefinite)
    c2 = indefinite * c2 - (1.0 - indefinite)
    t, s = isotropic_weights(c1, c2)
    r = abs(a12)
    zero = r == 0
    # 1 where a12 == 0; times the reciprocal, as numpy divides a complex by a real, so
    # that Python numbers round here as arrays do
    alpha = (a12.conjugate() + zero) * (1.0 / (r + zero))
    d = c1 - c2
    g = t * s * d
    rd = r / d
    return RitzCandidates((a11 - a22) / d, (c1 + c2) / g * rd, (c1 * a22 - c2 * a11) / d, 2.0 * g * rd,
                          t, alpha * s, indefinite)


def select_ritz(t_prev, candidates, v, lam_unit):
    """Per member, lift the candidate nearest the previous (mu, lam) through its basis in v.

    Nearest in |d mu| + |d lam| / lam_unit, the first candidate on a tie:
    lam scales with the pair and mu does not, so `step` passes
    curves.floor_unit(pair).  t_prev is the TripletStack of the previous
    iterates, or their one Triplet where the candidates are Python
    numbers.  Returns the chosen triplets as a TripletStack.
    """
    mu, lam = t_prev.mu, t_prev.lam
    nu0, dnu, theta0, dtheta = candidates.nu0, candidates.dnu, candidates.theta0, candidates.dtheta
    gap0 = abs(mu - (nu0 + dnu)) + abs(lam - (theta0 + dtheta)) / lam_unit
    gap1 = abs(mu - (nu0 - dnu)) + abs(lam - (theta0 - dtheta)) / lam_unit
    sign = 1.0 - 2.0 * (gap1 < gap0)  # -1 picks candidate 1
    z = np.empty(v.shape[:-2] + (2, 1), dtype=complex)
    z[..., 0, 0] = candidates.t
    z[..., 1, 0] = sign * candidates.w
    return TripletStack(np.array(nu0 + sign * dnu, ndmin=1), np.array(theta0 + sign * dtheta, ndmin=1),
                        (v @ z)[..., 0])


def _tail(pair, t_prev, v, a11, a12, a22, c1, c2):
    """Stages 3 and 4 of a step: the indefinite flags and the chosen triplets.

    Where |A| + |C| lies outside [2^-400, 2^400], the projected pairs are
    divided by the power of two nearest it before their closed form, whose
    products would over- or underflow, and theta is multiplied back.
    """
    sigma = pair.norm_a + pair.norm_c
    if 2.0 ** -400 <= sigma <= 2.0 ** 400:
        cands = solve_2x2(a11, a12, a22, c1, c2)
    else:
        unit = power_of_two_near(sigma)
        cands = solve_2x2(a11 / unit, a12 / unit, a22 / unit, c1 / unit, c2 / unit)
        cands = cands._replace(theta0=cands.theta0 * unit, dtheta=cands.dtheta * unit)
    return cands.indefinite, select_ritz(t_prev, cands, v, floor_unit(pair))


def step(pair, starts):
    """One iteration of the 2DRQI from each triplet of the TripletStack `starts`.

    Each stage runs once on the whole stack.  A stack of one takes the
    projected 2 x 2 tail (`solve_2x2`, `select_ritz`) on Python numbers,
    where a numpy call on arrays of length one would cost more than its
    arithmetic, and on arrays only where Python arithmetic raises.  A
    member whose step fails gets its Status in `failures`; nothing
    raises, and a start past overflow warns nothing: its basis fails the
    rank test.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v, c, failures = projection_basis(pair, starts)
        a11, a12, a22 = form_rq(pair, v)
        c1, c2 = c.T
        tail = None
        if len(starts) == 1:
            try:
                tail = _tail(pair, starts[0], v, a11.item(), a12.item(), a22.item(), c1.item(), c2.item())
            except (ArithmeticError, ValueError):
                pass  # where numpy gives inf or nan: the arrays below do
        indefinite, triplets = tail or _tail(pair, starts, v, a11, a12, a22, c1, c2)
        for i, ok in enumerate(np.array(indefinite, ndmin=1).tolist()):
            if not ok and failures[i] is None:
                failures[i] = Status.INDEFINITENESS_LOST
        return StepStack(triplets, c1, c2, np.abs(a12), tuple(failures))


def solve(pair, t0, tol_abs=None, max_iter=None, reference=None):
    """Run the 2DRQI from t0 until the residual is small or max_iter hits.

    The run converges once the residual norm is at most tol_abs +
    DEFAULT_OPTS["tol_rel"] * (|A| + |mu| |C| + |lam|).  A tol_abs given
    is absolute; the default is DEFAULT_OPTS["tol_abs"] in units of
    curves.floor_unit(pair), so that a pair of norm below 1 is not
    converged at once.  Each step is a `step` on a stack of one, which
    takes its 2 x 2 tail on Python numbers.  Given a reference,
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
    tol_abs = DEFAULT_OPTS["tol_abs"] * floor_unit(pair) if tol_abs is None else tol_abs
    max_iter = DEFAULT_OPTS["max_iter"] if max_iter is None else max_iter
    if max_iter < 0:
        raise ValueError("need max_iter >= 0")
    if not 0.0 <= tol_abs < np.inf:
        raise ValueError("need a finite tol_abs >= 0, got %r" % tol_abs)
    if reference is not None and getattr(reference, "pair", None) is not pair:
        raise ValueError("the reference must be a Target of this pair, as eigvec_set returns")
    res_norm = residual_norm(pair, t0)
    trace = RqiTrace()
    t, stack = t0, TripletStack.of([t0])
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
        out = step(pair, stack)
        if out.failures[0] is not None:
            trace.status = out.failures[0]
            return trace
        stack = out.triplets
        t = stack[0]
        rec.c1, rec.c2, rec.abs_a12 = float(out.c1[0]), float(out.c2[0]), float(out.abs_a12[0])
        res_norm = residual_norm(pair, t)
