"""Experiment driver: perturbation studies around known solutions.

Every study is a pure function of (problem, flags, seed): per-trial RNGs
are derived from (seed, trial index), so reports are reproducible
byte-for-byte and trials could run in any order.  The two are the
entropy words of the trial's SeedSequence, as default_rng([seed, trial])
reads them; where both are ints in [0, 2^32) they are passed as a
uint32 array, which gives the same words and draws at less cost.
"""

from typing import NamedTuple

import numpy as np

from . import rqi
from .curves import branch_derivatives, eig_at
from .errors import TwoDevpError
from .kernels import diagonalize_form, orthonormalize
from .model import HermitianPair, Triplet, TripletStack
from .refpairs import haar_unitary

NOISE_FLOOR = 1e-13
ROUNDING_UNITS = 10.0

# Two-sided acceptance windows for the fitted log-log slopes, each centred
# on the rate the 2DRQI attains; README.md, "One-step rates", derives them.
SIMPLE_WINDOWS = {"lambda": (3.3, 4.7), "mu": (2.6, 3.4), "x": (1.6, 2.4)}
MULTIPLE_WINDOWS = {"lambda": (3.3, 4.7), "mu": (3.3, 4.7), "x": (1.6, 2.4)}
COMMUTING_WINDOWS = {"lambda": (5.3, 6.7), "mu": (5.3, 6.7), "x": (2.6, 3.4)}
RITZ_WINDOWS = {"theta": (1.6, 2.4), "nu": (1.7, 2.3)}


def verdicts(kind, target, report):
    """Pass/fail rows of a "scaling", "ritz" or "conditioning" report on target.

    Slopes are judged by the windows of their case: Ritz extraction, a
    simple target, or a multiple one on a commuting pair (|AC - CA| <=
    1e-12 |A| |C|) or at a generic crossing.  The conditioning bounds are
    claimed near the target only, so a count must be 0 at eps <= 1e-3.
    """
    if kind == "conditioning":
        rows = zip(report.epsilons, report.sigma_violations, report.c_violations)
        return [{"check": "conditioning_eps_%g" % eps, "sigma_violations": sv, "c_violations": cv,
                 "pass": eps > 1e-3 or sv == cv == 0} for eps, sv, cv in rows]
    if kind == "ritz":
        windows = RITZ_WINDOWS
    elif target.regime == "simple":
        windows = SIMPLE_WINDOWS
    else:
        pair = target.pair
        ac = pair.a @ pair.c  # CA = (AC)^H, as A and C are Hermitian
        commuting = np.linalg.norm(ac - ac.conj().T, 2) <= 1e-12 * pair.norm_a * pair.norm_c
        windows = COMMUTING_WINDOWS if commuting else MULTIPLE_WINDOWS
    # a NaN slope, from too few points above roundoff, fails its window
    return [{"check": "slope_%s" % key, "value": report.fitted_slopes[key], "window": [lo, hi],
             "pass": lo <= report.fitted_slopes[key] <= hi} for key, (lo, hi) in windows.items()]


class OrderEstimate(NamedTuple):
    orders: list


class ScalingStudy(NamedTuple):
    epsilons: list
    errors_mu: list
    errors_lambda: list
    errors_x: list
    fitted_slopes: dict
    fit_epsilons: dict  # eps values each slope was fitted on
    failed: int
    total: int


class ConditioningReport(NamedTuple):
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
    if errors.ndim != 1:
        raise TwoDevpError("need a 1-d sequence of errors, got ndim=%d" % errors.ndim)
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
    """The RNG of a trial, seeded by the entropy words (seed, trial).

    Where both are Python ints in [0, 2^32), they are passed as a uint32
    array, from which SeedSequence reads the same words as from the list
    [seed, trial], at less cost; elsewhere as that list.
    """
    if type(seed) is int and type(trial) is int and 0 <= seed < 2 ** 32 and 0 <= trial < 2 ** 32:
        return np.random.default_rng(np.array((seed, trial), dtype=np.uint32))
    return np.random.default_rng([seed, trial])


def perturbed_starts(target, eps, seed, trials):
    """Seeded starts at controlled distance eps from a classify.Target, one per trial index.

    The vector is the target's x perturbed at O(eps) in both regimes.
    The scalars are perturbed at O(eps) in the simple regime and at
    O(eps^2) in the multiple regime, matching the hypothesis under which
    the multiple-case one-step bounds hold.  Each trial draws from
    its own RNG, seeded by (seed, trial index), so a start does not depend
    on which other trials share its stack.  Returns a TripletStack.
    """
    n = target.pair.n
    u = np.empty((len(trials), 2))
    g = np.empty((len(trials), 2, n))
    for row, trial in enumerate(trials):
        rng = _trial_rng(seed, trial)
        u[row] = rng.uniform(-1.0, 1.0, size=2)
        rng.standard_normal(out=g[row])  # the real parts, then the imaginary ones
    return TripletStack(*_perturb(target, eps, u, g[:, 0] + 1j * g[:, 1]))


def perturbed_start(target, eps, seed, trial=0):
    """The start of perturbed_starts for one trial index, as a Triplet, drawn and perturbed without a stack."""
    rng = _trial_rng(seed, trial)
    u, g = rng.uniform(-1.0, 1.0, size=2), rng.standard_normal((2, target.pair.n))
    return Triplet(*_perturb(target, eps, u, g[0] + 1j * g[1]))


def _perturb(target, eps, u, w):
    """(mu, lam, x) of the starts from the draws u and w of a trial, or of a stack whose rows round alike."""
    if not 0.0 <= eps <= 0.3:
        raise ValueError("eps must be in [0, 0.3]")
    tx = target.x
    # a unit direction orthogonal to the target's x
    w -= (w @ tx.conj() / np.vdot(tx, tx))[..., None] * tx
    w /= np.sqrt(np.add.reduce((w.conj() * w).real, axis=-1, keepdims=True))  # np.linalg.norm's sum
    x = tx + eps * w
    x /= np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1, keepdims=True))
    scal = eps * eps if target.regime == "multiple" else eps
    return target.mu + scal * u[..., 0], target.lam + scal * u[..., 1], x


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


def _trial_blocks(eps_list, trials):
    """The eps of eps_list largest first, each with its trial indices.

    The i-th largest eps gets range(i * trials, (i + 1) * trials), so an
    eps draws the same trials whatever order the caller lists it in.
    """
    if trials < 1:
        raise ValueError("need trials >= 1, got %r" % trials)
    if len(eps_list) == 0:
        raise ValueError("need at least one eps")
    return [(eps, range(i * trials, (i + 1) * trials))
            for i, eps in enumerate(sorted(eps_list, reverse=True))]


def _study(eps_list, trials, errors_at, names, targets):
    """Median per-eps errors of `trials` trials and their fit_slope slopes.

    errors_at(eps, trial indices) returns the (m, 3) errors of the trials
    whose step succeeded and the number of the others, which are excluded;
    an eps whose trials all fail has NaN medians, which fit_slope drops.
    names label the three error series and targets are the values they
    are errors of.  eps_list must be finite, positive and span at least a
    decade; it is read, and reported, largest first, with the trials of
    _trial_blocks.
    """
    blocks = _trial_blocks(eps_list, trials)
    eps_list = [eps for eps, _ in blocks]
    if not all(0.0 < eps < np.inf for eps in eps_list):
        raise ValueError("every eps must be finite and > 0, got %r" % eps_list)
    if len(eps_list) < 2 or np.log10(eps_list[0] / eps_list[-1]) < 1.0 - 1e-12:
        raise ValueError("eps_list must span at least a decade")
    meds = ([], [], [])
    failed, total = 0, len(eps_list) * trials
    for eps, block in blocks:
        errs, bad = errors_at(eps, block)
        failed += bad
        for med, col in zip(meds, errs.T):
            med.append(float(np.median(col)) if col.size else float("nan"))
    if failed > 0.2 * total:
        raise TwoDevpError("more than 20%% of trials failed (%d of %d)" % (failed, total))
    fits = {k: fit_slope(eps_list, med, scale) for k, med, scale in zip(names, meds, targets)}
    slopes = {k: f[0] for k, f in fits.items()}
    used = {k: f[1] for k, f in fits.items()}
    return ScalingStudy(eps_list, *meds, slopes, used, failed, total)


def scaling_study(target, eps_list, trials, seed):
    """One-step error scaling: median per-eps errors and their fit_slope slopes.

    All trials of one eps take their step as one stack.
    """
    def errors_at(eps, trials):
        out = rqi.step(target.pair, perturbed_starts(target, eps, seed, trials))
        ok = np.array([f is None for f in out.failures])
        t1 = out.triplets
        return np.column_stack(target.errors(t1.mu[ok], t1.lam[ok], t1.x[ok])), int(np.count_nonzero(~ok))

    return _study(eps_list, trials, errors_at, ("mu", "lambda", "x"), (target.mu, target.lam, 1.0))


def ritz_approx_study(target, eps_list, trials, seed):
    """One-shot Ritz extraction from an eps-perturbed ideal 2-dim subspace.

    The ideal subspace is span{x_*, x'_*}; each trial perturbs it, rotates
    the basis so V^H C V is diagonal, solves the projected 2 x 2 problem
    and records the best of the two Ritz triplets.  All trials of one eps
    are extracted as one stack.
    """
    if target.regime != "simple":
        raise ValueError("ritz study requires a simple nonsingular target")
    pair = target.pair
    xp = branch_derivatives(pair, eig_at(pair, target.mu), target.lam, target.x)[0]
    ideal = np.stack([target.x, xp / np.linalg.norm(xp)], axis=1)

    def errors_at(eps, trials):
        h = np.empty((len(trials), 2, pair.n, 2))
        for row, trial in enumerate(trials):
            _trial_rng(seed, trial).standard_normal(out=h[row])  # the real parts, then the imaginary ones
        g = h[:, 0] + 1j * h[:, 1]
        g /= np.linalg.norm(g, 2, axis=(1, 2))[:, None, None]
        v, ce = diagonalize_form(pair.c, orthonormalize(ideal + eps * g))
        cands = rqi.solve_2x2(*rqi.form_rq(pair, v), *ce.T)
        nu, theta, z = cands.nu, cands.theta, cands.z
        first, second = (np.column_stack(target.errors(
            nu[:, c], theta[:, c], (v @ z[:, c, :, None])[..., 0])) for c in (0, 1))
        best = np.where((first.sum(axis=1) <= second.sum(axis=1))[:, None], first, second)
        return best[cands.indefinite], int(np.count_nonzero(~cands.indefinite))

    return _study(eps_list, trials, errors_at, ("nu", "theta", "x"), (target.mu, target.lam, 1.0))


def conditioning_study(target, eps_list, trials, seed):
    """Check the half-factor conditioning bounds near the target.

    At the target itself, record sigma_n of the leading Jacobian block and
    the diagonal entries (c1, c2) of the projected C.  For each perturbed
    start, count violations of sigma_n >= sigma_*/2 and of the c-bracket
    inequalities (two-sided in the simple regime, one-sided in the
    multiple regime); a start whose basis collapses violates both.  The
    eps are read, and reported, largest first, with the trials of
    _trial_blocks.  The starts of one eps form one stack.
    """
    pair = target.pair
    blocks = _trial_blocks(eps_list, trials)
    _, c, _ = rqi.projection_basis(pair, TripletStack.of([target]))
    sigma_star = rqi.sigma_n_jhat(pair, target)
    c1s, c2s = float(c[0, 0]), float(c[0, 1])
    sigma_viol, c_viol = [], []
    for eps, block in blocks:
        starts = perturbed_starts(target, eps, seed, block)
        _, c, failures = rqi.projection_basis(pair, starts)
        c1, c2 = c.T
        collapsed = np.array([f is not None for f in failures])
        sigma = rqi.sigma_n_jhat(pair, starts)
        if target.regime == "simple":
            ok = (0.5 * c1s <= c1) & (c1 <= 1.5 * c1s) & (1.5 * c2s <= c2) & (c2 <= 0.5 * c2s)
        else:
            ok = (c1 >= 0.5 * c1s) & (0.5 * c1s > 0.0) & (c2 <= 0.5 * c2s) & (0.5 * c2s < 0.0)
        sigma_viol.append(int(np.count_nonzero(collapsed | (sigma < 0.5 * sigma_star))))
        c_viol.append(int(np.count_nonzero(collapsed | ~ok)))
    return ConditioningReport([eps for eps, _ in blocks], trials, sigma_viol, c_viol,
                              sigma_star, (c1s, c2s))


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
    raise TwoDevpError("no eigenvector pair with indefinite cluster form found")
