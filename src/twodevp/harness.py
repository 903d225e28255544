"""Experiment driver: perturbation studies around known solutions.

Every study is a pure function of (problem, flags, seed): per-trial RNGs
are derived from (seed, trial index), so reports are reproducible
byte-for-byte and trials could run in any order.
"""

from dataclasses import dataclass

import numpy as np

from . import rqi
from .angles import dist_to_set
from .classify import EigvecSet, Kind, eigvec_set
from .curves import eig_at, eigvec_derivative
from .errors import NotIndefinite, RankCollapse, TwoDevpError
from .kernels import diagonalize_form, orthonormalize
from .model import HermitianPair, Triplet
from .refpairs import haar_unitary

NOISE_FLOOR = 1e-13
ROUNDING_UNITS = 10.0

# Two-sided acceptance windows for the fitted log-log slopes, each centred
# on the rate the 2DRQI attains; README.md, "One-step rates", derives them.
SIMPLE_WINDOWS = {"lambda": (3.3, 4.7), "mu": (2.6, 3.4), "x": (1.6, 2.4)}
MULTIPLE_WINDOWS = {"lambda": (3.3, 4.7), "mu": (3.3, 4.7), "x": (1.6, 2.4)}
RITZ_WINDOWS = {"theta": (1.6, 2.4), "nu": (1.7, 2.3)}


@dataclass(frozen=True)
class Target:
    """A known 2D-eigentriplet to perturb around, with its 2D-eigenvector set."""

    pair: HermitianPair
    triplet: Triplet
    vec_set: EigvecSet

    @property
    def regime(self):
        """"simple" at a simple 2D-eigenvalue, "multiple" at a multiple one."""
        return "simple" if self.vec_set.kind is Kind.NONSINGULAR_SIMPLE else "multiple"

    @classmethod
    def at(cls, pair, triplet, regime):
        """Target at the triplet's (mu, lam); ValueError unless its regime is `regime`."""
        target = cls(pair=pair, triplet=triplet, vec_set=eigvec_set(pair, triplet.mu, triplet.lam))
        if target.regime != regime:
            raise ValueError("(%r, %r) is %s, not %s" % (triplet.mu, triplet.lam, target.regime, regime))
        return target

    def dist_x(self, x):
        return dist_to_set(x, self.vec_set)


@dataclass
class OrderEstimate:
    orders: list


@dataclass
class ScalingStudy:
    epsilons: list
    errors_mu: list
    errors_lambda: list
    errors_x: list
    fitted_slopes: dict
    fit_epsilons: dict  # eps values each slope was fitted on
    failed: int
    total: int


@dataclass
class ConditioningReport:
    epsilons: list
    trials: int
    sigma_violations: list
    c_violations: list
    sigma_star: float
    c_star: tuple


def convergence_order(errors):
    """Per-step empirical orders p_k = log(e_{k+1}/e_k) / log(e_k/e_{k-1}).

    Steps touching values at or below NOISE_FLOOR, or where the
    sequence is not strictly decreasing, are excluded.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size < 3:
        raise TwoDevpError("need at least 3 error values, got %d" % errors.size)
    orders = []
    for k in range(1, errors.size - 1):
        e0, e1, e2 = errors[k - 1], errors[k], errors[k + 1]
        if min(e0, e1, e2) <= NOISE_FLOOR or not (e0 > e1 > e2):
            continue
        orders.append(float(np.log(e2 / e1) / np.log(e1 / e0)))
    return OrderEstimate(orders=orders)


def _trial_rng(seed, trial):
    return np.random.default_rng([seed, trial])


def _unit_perp(rng, x):
    n = x.shape[0]
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w -= np.vdot(x, w) / np.vdot(x, x) * x
    return w / np.linalg.norm(w)


def perturbed_start(target, eps, seed, trial=0):
    """Seeded start at controlled distance eps from the target.

    Simple regime: all three components perturbed at O(eps).  Multiple
    regime: scalars perturbed at O(eps^2), the vector at O(eps) from the
    set's representative, matching the hypothesis under which the
    multiple-case one-step bounds hold.
    """
    if not 0.0 <= eps <= 0.3:
        raise ValueError("eps must be in [0, 0.3]")
    rng = _trial_rng(seed, trial)
    u1, u2 = rng.uniform(-1.0, 1.0, size=2)
    base = target.vec_set.representative() if target.regime == "multiple" else target.triplet.x
    w = _unit_perp(rng, base)
    scal = eps * eps if target.regime == "multiple" else eps
    return Triplet.normalized(
        target.triplet.mu + scal * u1,
        target.triplet.lam + scal * u2,
        base + eps * w,
    )


def fit_slope(eps, med, scale=1.0):
    """Log-log slope of median errors against eps, fitted above roundoff.

    Medians at or below ROUNDING_UNITS units of roundoff of the target
    quantity, max(1, |scale|) * eps_mach, carry no signal and are left
    out.  Returns (slope, eps values used); the slope is NaN, which fails
    every window, when fewer than two points a decade apart remain.
    """
    eps = np.asarray(eps, dtype=float)
    med = np.asarray(med, dtype=float)
    keep = med > ROUNDING_UNITS * np.finfo(float).eps * max(1.0, abs(scale))
    used = eps[keep]
    if used.size < 2 or np.log10(used.max() / used.min()) < 1.0 - 1e-12:
        return float("nan"), used.tolist()
    return float(np.polyfit(np.log(used), np.log(med[keep]), 1)[0]), used.tolist()


def _study(eps_list, trials, one_trial, names, targets):
    """Median per-eps errors of `trials` trials and their fit_slope slopes.

    one_trial(eps, trial index) returns the three errors of one trial, or
    None for a trial excluded by a failed step.  names label the three
    error series and targets are the values they are errors of.
    """
    meds = ([], [], [])
    failed = total = 0
    for i, eps in enumerate(eps_list):
        errs = []
        for trial in range(trials):
            total += 1
            e = one_trial(eps, i * trials + trial)
            if e is None:
                failed += 1
            else:
                errs.append(e)
        for med, col in zip(meds, np.array(errs, dtype=float).reshape(-1, 3).T):
            med.append(float(np.median(col)))
    if failed > 0.2 * total:
        raise RuntimeError("more than 20%% of trials failed (%d of %d)" % (failed, total))
    fits = {k: fit_slope(eps_list, med, scale) for k, med, scale in zip(names, meds, targets)}
    slopes = {k: f[0] for k, f in fits.items()}
    used = {k: f[1] for k, f in fits.items()}
    return ScalingStudy(eps_list, *meds, slopes, used, failed, total)


def scaling_study(target, eps_list, trials, seed):
    """One-step error scaling: median per-eps errors and their fit_slope slopes."""
    eps_list = list(eps_list)
    if len(eps_list) < 2 or np.log10(eps_list[0] / eps_list[-1]) < 1.0 - 1e-12:
        raise ValueError("eps_list must span at least a decade")
    tgt = target.triplet

    def one_trial(eps, trial):
        t0 = perturbed_start(target, eps, seed, trial=trial)
        try:
            t1, _ = rqi.step(target.pair, t0)
        except (NotIndefinite, RankCollapse):
            return None
        return abs(t1.mu - tgt.mu), abs(t1.lam - tgt.lam), target.dist_x(t1.x)

    return _study(eps_list, trials, one_trial, ("mu", "lambda", "x"), (tgt.mu, tgt.lam, 1.0))


def ritz_approx_study(target, eps_list, trials, seed):
    """One-shot Ritz extraction from an eps-perturbed ideal 2-dim subspace.

    The ideal subspace is span{x_*, x'_*}; each trial perturbs it, rotates
    the basis so V^H C V is diagonal, solves the projected 2 x 2 problem
    and records the best of the two Ritz triplets.
    """
    if target.regime != "simple":
        raise ValueError("ritz study requires a simple nonsingular target")
    eps_list = list(eps_list)
    pair, tgt = target.pair, target.triplet
    xp = eigvec_derivative(pair, tgt.mu, tgt.lam, tgt.x)
    ideal = np.stack([tgt.x, xp / np.linalg.norm(xp)], axis=1)

    def one_trial(eps, trial):
        rng = _trial_rng(seed, trial)
        g = rng.standard_normal((pair.n, 2)) + 1j * rng.standard_normal((pair.n, 2))
        g /= np.linalg.norm(g, 2)
        v, ce = diagonalize_form(pair.c, orthonormalize(ideal + eps * g))
        # no Jacobian here, so no singular value to record
        basis = rqi.ProjectionBasis(v, float(ce[0]), float(ce[1]), np.nan)
        try:
            cands = rqi.solve_2x2(*rqi.form_rq(pair, basis))
        except NotIndefinite:
            return None
        errs = [(abs(c.nu - tgt.mu), abs(c.theta - tgt.lam), target.dist_x(v @ c.z)) for c in cands]
        return min(errs, key=sum)

    return _study(eps_list, trials, one_trial, ("nu", "theta", "x"), (tgt.mu, tgt.lam, 1.0))


def conditioning_study(target, eps_list, trials, seed):
    """Check the half-factor conditioning bounds near the target.

    At the target itself, record sigma_n of the leading Jacobian block and
    the diagonal entries (c1, c2) of the projected C.  For each perturbed
    start, count violations of sigma_n >= sigma_*/2 and of the c-bracket
    inequalities (two-sided in the simple regime, one-sided in the
    multiple regime).
    """
    eps_list = list(eps_list)
    basis_star = rqi.projection_basis(target.pair, target.triplet)
    sigma_star = basis_star.sigma_n
    c1s, c2s = basis_star.c1, basis_star.c2
    sigma_viol, c_viol = [], []
    for i, eps in enumerate(eps_list):
        sv = cv = 0
        for trial in range(trials):
            t0 = perturbed_start(target, eps, seed, trial=i * trials + trial)
            try:
                b = rqi.projection_basis(target.pair, t0)
            except RankCollapse:
                sv += 1
                cv += 1
                continue
            if b.sigma_n < 0.5 * sigma_star:
                sv += 1
            if target.regime == "simple":
                ok = (0.5 * c1s <= b.c1 <= 1.5 * c1s) and (1.5 * c2s <= b.c2 <= 0.5 * c2s)
            else:
                ok = (b.c1 >= 0.5 * c1s > 0.0) and (b.c2 <= 0.5 * c2s < 0.0)
            if not ok:
                cv += 1
        sigma_viol.append(sv)
        c_viol.append(cv)
    return ConditioningReport(eps_list, trials, sigma_viol, c_viol, sigma_star, (c1s, c2s))


def random_pair(n, signature, seed):
    """Seeded dense Hermitian pair with C = Q^H diag(+1...,-1...) Q."""
    pos, neg = signature
    if pos < 1 or neg < 1 or pos + neg != n:
        raise ValueError("signature must have >=1 of each sign and sum to n")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = 0.5 * (g + g.conj().T)
    q = haar_unitary(rng, n)
    d = np.diag([1.0] * pos + [-1.0] * neg)
    c = q.conj().T @ d @ q
    return HermitianPair(a, c)


def random_pair_with_crossing(n, signature, mu_star, lam_star, seed):
    """Random pair modified to carry a nonsingular multiple 2D-eigenvalue.

    Two eigenvalues of A - mu_star*C are collapsed onto lam_star; the
    eigenvector pair is chosen so the cluster form of C is indefinite
    (opposite curve slopes at the crossing).
    """
    base = random_pair(n, signature, seed)
    point = eig_at(base, mu_star)
    w, v = point.values, point.vectors
    for i in range(n):
        for j in range(i + 1, n):
            vv = v[:, [i, j]]
            ce = np.linalg.eigvalsh(vv.conj().T @ base.c @ vv)
            if ce[0] < -1e-3 and ce[-1] > 1e-3:
                w2 = w.copy()
                w2[[i, j]] = lam_star
                a = v @ np.diag(w2) @ v.conj().T + mu_star * base.c
                return HermitianPair(a, base.c)
    raise RuntimeError("no eigenvector pair with indefinite cluster form found")
