"""The two-dimensional Rayleigh quotient iteration.

One step from the iterate (mu_k, lam_k, x_k):

  1. take the nullspace of the n x (n+2) leading block Jhat = J[:n] of the
     bordered Jacobian J as the last two columns of J^-1, from one LU
     solve J N = [0; diag(q, p)], J balanced and q and p the powers of two
     nearest |C| and |A| + |C|, as `projection_basis` says, so that N is
     of order 1 at every scale.  J is nonsingular at a nonsingular 2D-eigentriplet, so
     the solve stays defined where H = A - mu C - lam I is singular: for
     z = (y, a, b) with J z = 0, a simple triplet forces a lam'' = 0 and a
     crossing (cluster form of C diag(c1, c2), isotropic weights (t, s))
     forces a t s (c1 - c2) = 0, and a = 0 then gives z = 0;
  2. with P = N[:n], form the 2 x 2 Grams P^H P and P^H C P in one matrix
     product, and from them, in closed form, the 2 x 2 X that makes
     V = P X orthonormal with V^H C V = diag(c1, c2), c1 >= c2: X is the
     inverse of the Cholesky factor R of P^H P times the rotation that
     diagonalizes the form it turns P^H C P into, and the rank test reads
     Z R^-1, Z = N[n:].  Where P's columns lie within 45 degrees of each
     other, whose angle the Grams resolve only to their rounding, this
     is taken once more from N R^-1;
  3. solve the projected 2 x 2 problem (V^H A V / p, V^H C V / q) in
     closed form, which yields two candidate triplets; they coincide when
     the off-diagonal entry a12 of V^H A V is zero;
  4. pick the candidate closest to (mu_k q / p, lam_k / p) in
     |d mu| + |d lam|, lift its 2-vector through V, and multiply its
     (mu, lam) back by (p / q, p).

So each matrix has one unit for the whole step, p for A and q for C.
(sA, sC) has the triplets of (A, C) with lam times s, and moves A / p and
C / q by at most a factor of 2: stages 3 and 4 are of order 1 at every
scale, and a power of two scales exactly.

`step` takes this step from each of a stack of k iterates at once:
every stage is one numpy call on the stack, or a few, and a member whose
step fails gets the Status that stopped it.  `solve` steps stacks of one,
whose 2 x 2 closed forms of stages 2 to 4 run on Python numbers: they
and the choice are written with operators and builtins only, so the
same lines serve a stack and one start.  A run pays once for its
np.errstate, the check of x's length and the weight of its residual,
and carries its iterate from step to step as two floats and a row x.

A step's results, RitzCandidates and StepStack, are values, immutable
NamedTuples.  The records of a run, RqiTrace and its IterateRecords, are
objects that `solve` fills in as it goes, and their reference errors
when it ends.
"""

import contextlib
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .curves import floor_unit
from .kernels import _sqrt, conj_t, isotropic_weights
from .model import (Triplet, TripletStack, _check_length, _residual_norm, jacobian, jacobian_hat,
                    power_of_two_near)

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
    c1, c2 and abs_a12 of such a member are placeholders.  A member whose
    failures[i] is None has taken its step: its basis passed the rank
    test and its projected C is indefinite.
    """

    triplets: TripletStack
    c1: np.ndarray
    c2: np.ndarray
    abs_a12: np.ndarray
    failures: tuple


class IterateRecord:
    """Iterate k; c1, c2 and abs_a12 are those of the step from it to iterate k + 1, None on the last.

    res_norm is the norm that `solve` tests: |F| with F's last entry, (1 - x^H x)/2, times
    curves.floor_unit(pair), which is model.residual_norm on a pair with |A| + |C| >= 1.
    """

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


def gram_rotation(gk, z):
    """The 2 x 2 X that makes a basis P orthonormal and C-diagonal, in closed form from Grams.

    For an (n+2) x 2 nullspace basis N = [P; Z], gk holds the rows
    (g11, g12, k11, k12) and (g21, g22, k21, k22) of G = P^H P and
    K = P^H C P, and z the rows (z11, z12) and (z21, z22) of Z.  With
    R = [[r11, r12], [0, r22]] the Cholesky factor of G, P R^-1 is
    orthonormal, and X = R^-1 Q, where Q diagonalizes R^-H K R^-1, makes
    V = P X orthonormal with V^H C V = diag(c1, c2), c1 >= c2.  Returns
    (xs, c1, c2, ok, again), xs the real and imaginary parts of x11, x12,
    x21 and x22 in that order.

    ok is the rank test of `projection_basis`: False where an orthonormal
    basis of N has leading rows with a singular value sigma <= 1e-10.
    With T = Z R^-1, sigma^2 = 1 / (1 + |T|_2^2), so the test is
    1 + |T|_2^2 >= 1e20; NaN fails it, and so does a diagonal of G
    outside [2^-400, 2^400], whose rounding near over- or underflow is not
    to be trusted; `projection_basis` forms Grams of order 1, which leave
    that range only where J^-1 is past 2^200 in units of the pair, or its
    solve overflows.  G resolves the angle of P's columns only to its
    rounding, so where their squared sine r22^2 / g22 is below 1/2, ok is
    False, X is R^-1 alone, and `again` is True: the columns of N X are
    then orthogonal to rounding, and their Grams decide.

    Operators and builtins on .real and .imag, with no complex
    arithmetic, and `_sqrt` correctly rounded: the same lines take (k,)
    arrays (gk and z as (2, 4, k) and (2, 2, k) arrays) and, bitwise
    alike, Python numbers (as nested lists).  A pivot that is not
    positive is replaced by 1 and every square root's argument is at
    least 0 or NaN, so no division is by zero and Python numbers raise
    nothing.
    """
    (g11, g12, k11, k12), (_, g22, _, k22) = gk
    (z11, z12), (z21, z22) = z
    g11, g22, k11, k22 = g11.real, g22.real, k11.real, k22.real
    lo, hi = 2.0 ** -400, 2.0 ** 400
    ok = (lo <= g11) & (g11 <= hi) & (lo <= g22) & (g22 <= hi)
    # the Cholesky factor; 1 for a pivot that is not positive, NaN stays NaN
    pos = g11 > 0.0
    r11 = _sqrt(pos * g11 + (1.0 - pos))
    r12r, r12i = g12.real / r11, g12.imag / r11
    d = g22 - (r12r * r12r + r12i * r12i)
    pos = d > 0.0
    r22 = _sqrt(pos * d + (1.0 - pos))
    again = d < 0.5 * g22
    ok = ok & (d >= 0.5 * g22)
    # T = Z R^-1 by back substitution, and |T|_2^2 = h + sqrt(h^2 - |det T|^2), h = |T|_F^2 / 2
    t11r, t11i, t21r, t21i = z11.real / r11, z11.imag / r11, z21.real / r11, z21.imag / r11
    t12r = (z12.real - (t11r * r12r - t11i * r12i)) / r22
    t12i = (z12.imag - (t11r * r12i + t11i * r12r)) / r22
    t22r = (z22.real - (t21r * r12r - t21i * r12i)) / r22
    t22i = (z22.imag - (t21r * r12i + t21i * r12r)) / r22
    h = 0.5 * (t11r * t11r + t11i * t11i + t12r * t12r + t12i * t12i
               + t21r * t21r + t21i * t21i + t22r * t22r + t22i * t22i)
    detr = (t11r * t22r - t11i * t22i) - (t12r * t21r - t12i * t21i)
    deti = (t11r * t22i + t11i * t22r) - (t12r * t21i + t12i * t21r)
    det = _sqrt(detr * detr + deti * deti)
    gap = h - det
    gap = gap * (gap > 0.0)  # h >= |det T|, but for rounding
    ok = ok & (1.0 + (h + _sqrt(gap * (h + det))) < 1e20)
    # M = R^-H K R^-1, with R^-1 = [[a, b], [0, e]]
    a, e = 1.0 / r11, 1.0 / r22
    br, bi = -(r12r * a) * e, -(r12i * a) * e
    m11 = k11 * a * a
    m12r = a * (k11 * br + k12.real * e)
    m12i = a * (k11 * bi + k12.imag * e)
    m22 = k11 * (br * br + bi * bi) + 2.0 * e * (br * k12.real + bi * k12.imag) + k22 * e * e
    # its eigenvalues, and the unit eigenvector of c1: (1, conj(w)) / |.|
    # where m11 >= m22, else (w, 1) / |.|, for w = m12 / (rad + |m11 - m22| / 2);
    # w = 0 where M = c I, and Q = I where again
    half, mean = 0.5 * (m11 - m22), 0.5 * (m11 + m22)
    rad = _sqrt(half * half + (m12r * m12r + m12i * m12i))
    big = rad + abs(half)
    big = big + (big == 0.0)
    keep = 1.0 - again
    wr, wi = keep * (m12r / big), keep * (m12i / big)
    nrm = _sqrt(1.0 + (wr * wr + wi * wi))
    first = 1.0 * ((half >= 0.0) | again)
    other = 1.0 - first
    q11r, q11i = (first + other * wr) / nrm, other * wi / nrm
    q21r, q21i = (first * wr + other) / nrm, -(first * wi) / nrm
    # Q = [[q11, -conj(q21)], [q21, conj(q11)]], and X = R^-1 Q
    x11r = a * q11r + (br * q21r - bi * q21i)
    x11i = a * q11i + (br * q21i + bi * q21r)
    x12r = -(a * q21r) + (br * q11r + bi * q11i)
    x12i = a * q21i + (bi * q11r - br * q11i)
    xs = (x11r, x11i, x12r, x12i, e * q21r, e * q21i, e * q11r, -(e * q11i))
    return xs, mean + rad, mean - rad, ok, again


def _rotate(c, null, n, one):
    """`gram_rotation` of the bases null, with its X as a (k, 2, 2) stack: on Python numbers where one."""
    p = null[:, :n]
    gk = conj_t(p) @ np.concatenate((p, c @ p), axis=-1)
    if one:
        xs, *out = gram_rotation(gk[0].tolist(), null[0, n:].tolist())
    else:
        xs, *out = gram_rotation(np.moveaxis(gk, 0, -1), np.moveaxis(null[:, n:], 0, -1))
    # (8,) or (8, k) real and imaginary parts as a (k, 2, 2) complex stack
    return [np.ascontiguousarray(np.array(xs).T).reshape(-1, 2, 4).view(complex)] + out


def projection_basis(pair, starts):
    """Projection bases from the nullspaces of the leading Jacobian blocks.

    Each member of the TripletStack `starts` has its bordered Jacobian J
    from `model.jacobian`, and the nullspace of its leading block is
    spanned by P, the leading n rows of N = J^-1 [0; diag(q, p)], the
    last two columns of J^-1 times q and p.  J is built balanced:
    `model.jacobian` scales its -x border row and column by |A| + |C|,
    which scales the second column of N by 1/(|A| + |C|) and keeps the
    span, so that the rank test reads the same basis for (sA, sC) as for
    (A, C).  One matrix product then forms the Grams P^H [P, CP], and
    `gram_rotation` the 2 x 2 X that makes V = P X orthonormal with V^H C V diagonal.  Returns (v, c, failures):
    the (k, n, 2) bases v, the (k, 2) entries (c1, c2), c1 >= c2, of
    their V^H C V, and a list that holds, per member, None or
    JACOBIAN_NEAR_SINGULAR where the leading rows of an orthonormal basis
    of N have a singular value <= 1e-10, which the Cholesky factor R of
    P^H P and the last rows Z of N decide through Z R^-1 (see
    `gram_rotation`): as at an x that is an eigenvector of C, where the
    two border rows of J are parallel, and for an exactly singular J, as
    at a zero x, or one whose entries overflow, so that its solve is not
    finite.  The values of a failed member are placeholders.

    A stack of one runs `gram_rotation` on Python numbers, a stack on
    arrays.  The right-hand side carries the scale of the pair: column 1
    of N solves -x^H C y = q and column 2 -(|A| + |C|) x^H y = p, so with
    q and p the powers of two nearest |C| and |A| + |C| both columns are
    of order 1 at every scale and at any ratio |A| / |C|, and the closed
    form is taken once per stack, and once more for the members that ask
    `again`.  A power of two in a column of the right-hand side scales
    that column of N, and so the Grams and X, exactly, and cancels in
    V = P X and in (c1, c2).  Where |A| + |C| lies outside
    [2^-400, 2^400], J and the right-hand side are divided by p, which
    keeps N finite where J's entries are near over- or underflow, and
    where |C| does, C by q, which keeps P^H C P's squares finite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v, c1, c2, failures, _, q = _basis(pair, starts, len(starts) == 1)
    return v, np.array((c1, c2)).T.reshape(-1, 2) * q, failures


def _basis(pair, starts, one):
    """`projection_basis` under the caller's errstate, as (v, c1, c2, failures, p, q).

    p and q, the powers of two nearest |A| + |C| and |C|, are the step's
    units of A and C; c1 and c2 are in units of q, floats where one.
    """
    n = pair.n
    sigma = pair.norm_a + pair.norm_c
    p, q = power_of_two_near(sigma), power_of_two_near(pair.norm_c)
    j = jacobian(pair, starts, sigma)
    e = np.zeros((n + 2, 2), dtype=complex)
    e[n, 0], e[n + 1, 1] = q, p
    if not 2.0 ** -400 <= sigma <= 2.0 ** 400:
        j /= p
        e /= p
    scaled_c = not 2.0 ** -400 <= pair.norm_c <= 2.0 ** 400
    c = pair.c / q if scaled_c else pair.c
    try:
        # e as a stack of one matrix, which numpy < 2 would otherwise read
        # as a stack of vectors
        null = np.linalg.solve(j, e[None])
    except np.linalg.LinAlgError:
        # one singular J fails the whole stack's solve, and so does one
        # whose entries overflow, so redo it member by member; a failed
        # member keeps e, whose leading rows have rank 0
        null = np.empty(j.shape[:1] + e.shape, dtype=complex)
        for i, ji in enumerate(j):
            try:
                null[i] = np.linalg.solve(ji, e)
            except np.linalg.LinAlgError:
                null[i] = e
    x, c1, c2, ok, again = _rotate(c, null, n, one)
    if again if one else again.any():
        null = np.where(np.reshape(again, (-1, 1, 1)), null @ x, null)
        x, c1, c2, ok, _ = _rotate(c, null, n, one)
    failures = [None if good else Status.JACOBIAN_NEAR_SINGULAR for good in np.array(ok, ndmin=1).tolist()]
    if not scaled_c:
        c1, c2 = c1 / q, c2 / q
    return null[:, :n] @ x, c1, c2, failures, p, q


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
    c1 > 0 > c2; where it fails, `indefinite` is False.  g is the one
    divisor that can be 0, and only where t or s underflows: such a
    problem is not indefinite either, and 1 stands in for g.

    Operators and builtins only: the same lines take arrays of k problems
    and, at the speed of Python arithmetic, one problem given as Python
    numbers, which then raise nothing but the OverflowError of abs(a12)
    where |a12| overflows from finite parts.
    """
    indefinite = (c1 > 0) & (c2 < 0)
    # (1, -1) where not indefinite: placeholders, nan only where c1 or c2 is
    c1 = indefinite * c1 + (1.0 - indefinite)
    c2 = indefinite * c2 - (1.0 - indefinite)
    t, s = isotropic_weights(c1, c2)
    d = c1 - c2
    g = t * s * d
    # g = 0 only where t or s underflows: such a problem is not indefinite
    # either, and 1 stands in for g
    indefinite = indefinite & (g != 0.0)
    g = g + (g == 0.0)
    r = abs(a12)
    zero = r == 0
    # 1 where a12 == 0; times the reciprocal, as numpy divides a complex by a real, so
    # that Python numbers round here as arrays do
    alpha = (a12.conjugate() + zero) * (1.0 / (r + zero))
    rd = r / d
    return RitzCandidates((a11 - a22) / d, (c1 + c2) / g * rd, (c1 * a22 - c2 * a11) / d, 2.0 * g * rd,
                          t, alpha * s, indefinite)


def select_ritz(mu, lam, candidates, v, units):
    """Per member, lift the candidate nearest the previous (mu, lam) through its basis in v.

    The candidates are those of projected pairs (V^H A V / p, V^H C V / q),
    units = (p, q), whose (nu, theta) are (mu q / p, lam / p): nearest in
    |d mu| + |d lam| in those units, the first candidate on a tie.  mu and
    lam are the (k,) arrays of the previous iterates, or Python floats
    where the candidates are Python numbers.  Returns the chosen triplets,
    their (mu, lam) multiplied back by (p / q, p), as a TripletStack.
    """
    p, q = units
    mu, lam = mu * q / p, lam / p
    nu0, dnu, theta0, dtheta = candidates.nu0, candidates.dnu, candidates.theta0, candidates.dtheta
    gap0 = abs(mu - (nu0 + dnu)) + abs(lam - (theta0 + dtheta))
    gap1 = abs(mu - (nu0 - dnu)) + abs(lam - (theta0 - dtheta))
    sign = 1.0 - 2.0 * (gap1 < gap0)  # -1 picks candidate 1
    z = np.empty(v.shape[:-2] + (2, 1), dtype=complex)
    z[..., 0, 0] = candidates.t
    z[..., 1, 0] = sign * candidates.w
    return TripletStack(np.array((nu0 + sign * dnu) * p / q, ndmin=1),
                        np.array((theta0 + sign * dtheta) * p, ndmin=1), (v @ z)[..., 0])


def step(pair, starts, quiet=False):
    """One iteration of the 2DRQI from each triplet of the TripletStack `starts`.

    Each stage runs once on the whole stack.  The projected 2 x 2 tail
    (`solve_2x2`, `select_ritz`) takes A in units of p and C in units of
    q, the powers of two of `_basis`.  A stack of one takes the closed
    form of its basis (`gram_rotation`) and the tail on Python numbers,
    where a numpy call on arrays of length one would cost more than its
    arithmetic.  A member whose step fails gets its Status in `failures`;
    nothing raises, and a start past overflow warns nothing: its basis
    fails the rank test.  A caller that holds an np.errstate ignoring
    over, invalid and divide, as `solve` does for its whole run, passes
    quiet=True, and the step enters none.
    """
    with contextlib.nullcontext() if quiet else np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        one = len(starts) == 1
        v, c1, c2, failures, p, q = _basis(pair, starts, one)
        a11, a12, a22 = form_rq(pair, v)
        abs_a12, mu, lam = np.abs(a12), starts.mu, starts.lam
        if one:
            mu, lam, a11, a12, a22 = mu.item(), lam.item(), a11.item(), a12.item(), a22.item()
        cands = solve_2x2(a11 / p, a12 / p, a22 / p, c1, c2)
        triplets = select_ritz(mu, lam, cands, v, (p, q))
        for i, ok in enumerate(np.array(cands.indefinite, ndmin=1).tolist()):
            if not ok and failures[i] is None:
                failures[i] = Status.INDEFINITENESS_LOST
        return StepStack(triplets, np.array(c1 * q, ndmin=1), np.array(c2 * q, ndmin=1), abs_a12, tuple(failures))


def solve(pair, t0, tol_abs=None, max_iter=None, reference=None):
    """Run the 2DRQI from t0 until the residual is small or max_iter hits.

    The run converges once the residual norm, of F with its last entry
    weighted by curves.floor_unit(pair) (see IterateRecord), is at most
    tol_abs + DEFAULT_OPTS["tol_rel"] * (|A| + |mu| |C| + |lam|).  A
    tol_abs given is absolute; the default is DEFAULT_OPTS["tol_abs"] in
    units of curves.floor_unit(pair), so that a pair of norm below 1 is
    not converged at once.  Each step is a `step` on a stack of one, which
    takes its 2 x 2 tail on Python numbers.  Given a reference,
    a `classify.Target` of this pair as `eigvec_set` returns it, each
    iterate records its distances to the target's (mu, lam) and, as err_x,
    to its 2D-eigenvector set: the target's `errors`, taken when the run
    ends, in one call on the stack of its iterates, and left None on a
    last iterate that ends the run NON_FINITE.  Failures that the
    local theory anticipates (projected C losing indefiniteness, nullspace
    rank collapse) end the run with the Status that `step` gives the
    member.  An iterate whose residual norm or tolerance is not finite,
    as at a start that is not finite or one so large that the tolerance
    overflows, ends the run with NON_FINITE.  Raises ValueError when
    max_iter < 0, when tol_abs is negative or not finite, or when the
    reference is no Target of pair.
    """
    tol_abs = DEFAULT_OPTS["tol_abs"] * floor_unit(pair) if tol_abs is None else tol_abs
    max_iter = DEFAULT_OPTS["max_iter"] if max_iter is None else max_iter
    if max_iter < 0:
        raise ValueError("need max_iter >= 0")
    if not 0.0 <= tol_abs < np.inf:
        raise ValueError("need a finite tol_abs >= 0, got %r" % tol_abs)
    if reference is not None and getattr(reference, "pair", None) is not pair:
        raise ValueError("the reference must be a Target of this pair, as eigvec_set returns")
    _check_length(pair, t0.x)
    weight, trace, t = floor_unit(pair), RqiTrace(), t0
    stack = TripletStack(np.array((t.mu,)), np.array((t.lam,)), t.x[None])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        res_norm = _residual_norm(pair, t.mu, t.lam, t.x, weight)
        for k in range(max_iter + 1):
            rec = IterateRecord(k, t, res_norm)
            trace.iterates.append(rec)
            # Python floats overflow to inf without a warning
            tol = tol_abs + DEFAULT_OPTS["tol_rel"] * (pair.norm_a + abs(t.mu) * pair.norm_c + abs(t.lam))
            if not (math.isfinite(res_norm) and math.isfinite(tol)):
                trace.status = Status.NON_FINITE
                break
            if res_norm <= tol:
                trace.status = Status.CONVERGED
                break
            if k == max_iter:
                break  # the trace's status is MAX_ITERATIONS until set
            out = step(pair, stack, quiet=True)
            if out.failures[0] is not None:
                trace.status = out.failures[0]
                break
            stack = out.triplets
            x = stack.x[0]  # a new row of the step's, read-only as a Triplet's x
            x.setflags(write=False)
            t = Triplet._make((stack.mu.item(), stack.lam.item(), x))
            rec.c1, rec.c2, rec.abs_a12 = out.c1.item(), out.c2.item(), out.abs_a12.item()
            res_norm = _residual_norm(pair, t.mu, t.lam, x, weight)
    # the reference errors of each iterate, but a last NON_FINITE one, from one call on their stack
    recs = trace.iterates[:-1] if trace.status is Status.NON_FINITE else trace.iterates
    if reference is not None and recs:
        errs = reference.errors(*map(np.array, zip(*(rec.triplet for rec in recs))))
        for rec, err_mu, err_lambda, err_x in zip(recs, *(e.tolist() for e in errs)):
            rec.err_mu, rec.err_lambda, rec.err_x = err_mu, err_lambda, err_x
    return trace
