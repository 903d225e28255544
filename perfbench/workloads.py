"""The three workloads: inputs from the seed, set-up, timed rounds, checks.

A workload object is made from the seed alone.  `prepare` makes its
inputs and computes the reference values, those with numpy and scipy
alone.  `setup(td)` is the program's set-up that `setup_s` times.
`round(td, state)` runs one round of the same operations and returns
one `Op` per public call.  `check(ops, state)` compares the outputs of
the first round with the references and returns failure messages;
later rounds must repeat them exactly (`repeat_failures`).
"""

import hashlib
import pickle
import statistics
import time
from dataclasses import dataclass

import numpy as np

import reference as ref

PLANTED = (0.4, -0.3)
PAIR_SEED = 11
# Rates on a commuting pair, README.md "One-step rates": lambda and mu 6, x 3.
COMMUTING_WINDOWS = {"lambda": (5.3, 6.7), "mu": (5.3, 6.7), "x": (2.6, 3.4)}


@dataclass
class Op:
    seconds: float
    units: int        # results the call produced: hits of a scan, else 1
    failed: bool
    out: object       # plain-data output for the checks; kept for round 0
    digest: str = ""  # of `out`, to compare later rounds with round 0

    def __post_init__(self):
        self.digest = hashlib.sha256(pickle.dumps(self.out)).hexdigest()


def timed(fn, *args, **kwargs):
    """(seconds, result or the exception raised)."""
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        out = exc
    return time.perf_counter() - start, out


class Probe:
    """A fixed numpy computation timed before and after every round.

    It does the kind of work of the workload's inner loop, on inputs
    that depend on no seed, and calls nothing in twodevp, so its time
    follows only the speed of the machine.  `result_vs_probe` divides
    the time per result by it, which takes out the drift of machine
    speed between runs.  `ref_s` is the probe's usual time on the
    machine the benchmark was written on (2 cores, one BLAS thread),
    the rounded median over two ten-seed sets; `setup_s` is scaled to it.
    """

    def __init__(self, kind, n, reps, ref_s):
        rng = np.random.default_rng(20261017)
        g = rng.standard_normal((n, n + 2)) + 1j * rng.standard_normal((n, n + 2))
        if kind == "eigh":
            g = g[:, :n] + g[:, :n].conj().T
        self.fn = getattr(np.linalg, kind)
        self.m, self.reps, self.ref_s = g, reps, ref_s

    def __call__(self):
        start = time.perf_counter()
        for _ in range(self.reps):
            self.fn(self.m)
        return time.perf_counter() - start


def haar_unitary(n, seed):
    rng = np.random.default_rng([seed, n])
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def repeat_failures(rounds):
    """Every round repeats round 0's calls; their outputs must match."""
    first = [op.digest for op in rounds[0]]
    return ["round %d, call %d: output differs from round 0" % (r, k)
            for r, ops in enumerate(rounds[1:], 1)
            for k, op in enumerate(ops) if op.digest != first[k]]


def turned_pair(td, n, q):
    """random_pair_with_crossing(n, (n/2, n/2), 0.4, -0.3, PAIR_SEED) as
    (Q^H A Q, Q^H C Q).  A unitary Q keeps the eigencurves and every
    2D-eigenvalue; it changes the matrices and the eigenvectors."""
    base = td.random_pair_with_crossing(n, (n // 2, n // 2), PLANTED[0], PLANTED[1], PAIR_SEED)
    return td.HermitianPair(q.conj().T @ base.a @ q, q.conj().T @ base.c @ q)


class ScanCrossing:
    """scan(pair, -3, 3, 96) on a 64 x 64 pair with a planted crossing.

    The pair is the n=64 turned_pair with Q drawn from the seed.  Every
    seed asks for the same 119 critical points and one crossing, from
    other matrices.
    """

    name = "scan-crossing-n64"
    n, window, n_grid = 64, (-3.0, 3.0), 96
    count_points = 6001

    def __init__(self, seed):
        self.seed = seed
        self.probe = Probe("eigh", 64, 300, ref_s=0.2)

    def prepare(self, td):
        self.q = haar_unitary(self.n, self.seed)
        pair = turned_pair(td, self.n, self.q)
        self.a, self.c = np.array(pair.a), np.array(pair.c)

    def setup(self, td):
        return {"pair": turned_pair(td, self.n, self.q)}

    def warm_up(self, td, state):
        td.scan(state["pair"], self.window[0], self.window[0] + 0.5, 8)

    def round(self, td, state):
        seconds, out = timed(td.scan, state["pair"], self.window[0], self.window[1], self.n_grid)
        if isinstance(out, Exception):
            return [Op(seconds, 1, True, repr(out))]
        hits = [(h.triplet.mu, h.triplet.lam, np.array(h.triplet.x),
                 "crossing" if h.kind is td.HitKind.CROSSING else "critical")
                for h in out[0]]
        return [Op(seconds, max(len(hits), 1), False, hits)]

    def check(self, ops, state):
        if ops[0].failed:
            return []
        hits = ops[0].out
        lo, hi = self.window
        bad = ref.check_hit_residuals(self.a, self.c, hits)
        bad += ref.check_hits_distinct(hits)
        bad += ref.check_crossings(hits, [PLANTED])
        for which, what in (("min", "maximiser of lambda_min"), ("max", "minimiser of lambda_max")):
            mu, lam, _ = ref.extreme_point(self.a, self.c, which)
            if lo < mu < hi:
                bad += ref.check_point_found(hits, (mu, lam), what)
        expected = ref.count_critical_points(self.a, self.c, lo, hi, self.count_points, [PLANTED])
        return bad + ref.check_critical_count(hits, expected)

    def figures(self, rounds):
        times = [op.seconds for ops in rounds for op in ops if not op.failed]
        return {"scan_s": float(np.median(times)) if times else None,
                "hits": 0 if rounds[0][0].failed else rounds[0][0].units}


class SolveN256:
    """solve from seeded perturbed starts around three targets at n=256.

    The pair is the n=256 turned_pair with Q drawn from the seed.  The
    targets are the maximiser of lambda_min(A - mu C), the minimiser of
    lambda_max(A - mu C) (both simple) and the planted crossing
    (multiple).  A round is `trials` starts at each of eps 1e-3 and 1e-2
    around each target, drawn from the seed, solved with the default
    tolerances.
    """

    name = "solve-n256"
    n, eps_list, trials = 256, (1e-3, 1e-2), 8

    def __init__(self, seed):
        self.seed = seed
        self.probe = Probe("svd", 256, 4, ref_s=0.12)

    def prepare(self, td):
        self.q = haar_unitary(self.n, self.seed)
        pair = turned_pair(td, self.n, self.q)
        self.a, self.c = np.array(pair.a), np.array(pair.c)
        self.norm_a, self.norm_c = ref.spectral_norm(self.a), ref.spectral_norm(self.c)
        self.points = []
        for which in ("min", "max"):
            mu, lam, x = ref.extreme_point(self.a, self.c, which)
            self.points.append((mu, lam, x, "simple"))
        self.points.append((PLANTED[0], PLANTED[1], None, "multiple"))

    def setup(self, td):
        pair = turned_pair(td, self.n, self.q)
        targets = []
        for mu, lam, x, regime in self.points:
            if x is None:  # any vector: the multiple regime starts from the set
                x = np.eye(self.n)[0]
            targets.append(td.Target.at(pair, td.Triplet(mu, lam, x), regime))
        starts = [td.perturbed_start(t, eps, self.seed, trial=k)
                  for t in targets for eps in self.eps_list for k in range(self.trials)]
        return {"pair": pair, "starts": starts}

    def warm_up(self, td, state):
        td.solve(state["pair"], state["starts"][0])

    def round(self, td, state):
        ops = []
        for t0 in state["starts"]:
            seconds, trace = timed(td.solve, state["pair"], t0)
            if isinstance(trace, Exception):
                ops.append(Op(seconds, 1, True, repr(trace)))
                continue
            end = trace.final
            ops.append(Op(seconds, 1, trace.status is not td.Status.CONVERGED,
                          (trace.status.value, end.mu, end.lam, tuple(end.x),
                           len(trace.iterates) - 1)))
        return ops

    def check(self, ops, state):
        from twodevp.rqi import DEFAULT_OPTS
        per_target = len(self.eps_list) * self.trials
        bad = []
        for k, op in enumerate(ops):
            if op.failed:
                continue
            _, mu, lam, x, _ = op.out
            mu_t, lam_t = self.points[k // per_target][:2]
            bad += ["start %d: %s" % (k, msg) for msg in ref.check_solve(
                self.a, self.c, (mu, lam, np.array(x)), (mu_t, lam_t),
                DEFAULT_OPTS["tol_abs"], DEFAULT_OPTS["tol_rel"], (self.norm_a, self.norm_c))]
        return bad

    def figures(self, rounds):
        times = [op.seconds for ops in rounds for op in ops if not op.failed]
        steps = [op.out[4] for op in rounds[0] if not op.failed]
        return {"solve_s": float(np.median(times)) if times else None,
                "solve_tail_s": float(np.percentile(times, 90)) if times else None,
                "solve_iterations": float(np.mean(steps)) if steps else None}


class StudiesDesk:
    """One pass of the acceptance studies on the desk pairs.

    scaling_study on simple_pair_desk() (n=8) and multiple_pair_desk()
    (n=6), ritz_approx_study on the simple pair, conditioning_study on
    both, and 100 solves from eps 0.05 scored by convergence_order.
    Every study takes the workload seed.
    """

    name = "studies-desk"
    solves, solve_eps = 100, 0.05

    def __init__(self, seed):
        self.seed = seed
        self.probe = Probe("svd", 8, 2000, ref_s=0.06)

    def prepare(self, td):
        pass

    def setup(self, td):
        from twodevp import refpairs
        simple_pair, simple_trip = refpairs.simple_pair_desk()
        multiple_pair, multiple_trip = refpairs.multiple_pair_desk()
        return {
            "simple": td.Target.at(simple_pair, simple_trip, "simple"),
            "multiple": td.Target.at(multiple_pair, multiple_trip, "multiple"),
        }

    def warm_up(self, td, state):
        td.scaling_study(state["simple"], [1e-2, 1e-3], 2, self.seed)

    def _pass(self, td, state):
        s, m, seed = state["simple"], state["multiple"], self.seed
        out = {
            "simple": td.scaling_study(s, [1e-2, 3e-3, 1e-3, 3e-4], 50, seed),
            "commuting": td.scaling_study(m, [1e-1, 3e-2, 1e-2], 50, seed),
            "ritz": td.ritz_approx_study(s, [1e-2, 3e-3, 1e-3], 50, seed),
            "cond_simple": td.conditioning_study(s, [1e-3], 100, seed),
            "cond_multiple": td.conditioning_study(m, [1e-3], 100, seed),
        }
        runs = []
        for trial in range(self.solves):
            t0 = td.perturbed_start(s, self.solve_eps, seed, trial=trial)
            trace = td.solve(s.pair, t0, tol_abs=1e-12, reference=s.triplet)
            errs = [r.err_mu + r.err_lambda + r.err_x for r in trace.iterates]
            runs.append((trace, td.convergence_order(errs) if len(errs) >= 3 else None))
        out["solves"] = runs
        return out

    def round(self, td, state):
        seconds, out = timed(self._pass, td, state)
        if isinstance(out, Exception):
            return [Op(seconds, 1, True, repr(out))]
        plain = {key: out[key].fitted_slopes for key in ("simple", "commuting", "ritz")}
        for key in ("cond_simple", "cond_multiple"):
            plain[key] = (out[key].sigma_violations[0], out[key].c_violations[0])
        plain["solves"] = [
            (trace.status is td.Status.CONVERGED,
             tuple((r.triplet.mu, r.triplet.lam, tuple(r.triplet.x)) for r in trace.iterates),
             tuple(est.orders) if est is not None else ())
            for trace, est in out["solves"]]
        return [Op(seconds, 1, False, plain)]

    def check(self, ops, state):
        from twodevp.harness import RITZ_WINDOWS, SIMPLE_WINDOWS
        if ops[0].failed:
            return []
        out = ops[0].out
        bad = ref.check_slopes(out["simple"], SIMPLE_WINDOWS, "simple scaling")
        bad += ref.check_slopes(out["commuting"], COMMUTING_WINDOWS, "diagonal scaling")
        bad += ref.check_slopes(out["ritz"], RITZ_WINDOWS, "ritz")
        for key in ("cond_simple", "cond_multiple"):
            if out[key] != (0, 0):
                bad.append("%s: %d sigma and %d c violations at eps 1e-3" % ((key,) + out[key]))
        trip = state["simple"].triplet
        return bad + ref.check_final_orders(out["solves"], (trip.mu, trip.lam, np.array(trip.x)))

    def figures(self, rounds):
        times = [op.seconds for ops in rounds for op in ops if not op.failed]
        return {"study_s": float(np.median(times)) if times else None}


def result_times(rounds, probes):
    """Wall time per result: a hit of a scan, a solve, or a pass.

    `result_ms` is the mean over rounds of a round's time per result,
    and `tail_ms` the p90 over single calls of a call's time per result.
    The `_vs_probe` forms divide each time by the round's probe time, the
    mean of the probes just before and just after the round.  A mean
    over rounds, not a median: on the 6 rounds of a scan run it spread
    least over ten seeds.
    """
    rows = []  # (time per result, probe time) for each round
    calls = []  # the same for each call
    for k, ops in enumerate(rounds):
        good = [op for op in ops if not op.failed]
        if good:
            probe = 0.5 * (probes[k] + probes[k + 1])
            rows.append((sum(op.seconds for op in good) / sum(op.units for op in good), probe))
            calls += [(op.seconds / op.units, probe) for op in good]
    if not rows:
        return dict.fromkeys(("result_ms", "tail_ms", "result_vs_probe", "tail_vs_probe"))
    return {
        "result_ms": 1e3 * statistics.fmean(t for t, _ in rows),
        "tail_ms": 1e3 * float(np.percentile([t for t, _ in calls], 90)),
        "result_vs_probe": statistics.fmean(t / p for t, p in rows),
        "tail_vs_probe": float(np.percentile([t / p for t, p in calls], 90)),
    }


WORKLOADS = {w.name: w for w in (ScanCrossing, SolveN256, StudiesDesk)}
