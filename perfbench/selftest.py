"""Show that each workload check accepts the program's output and rejects
a wrong one.

    python3 perfbench/selftest.py [--seed N]

Runs one round of each workload, checks the real outputs (they must
pass), then checks copies with one fault put in: a hit moved by 1e-6 in
mu, a missing hit, a solve stopped one step early, and a slope just
outside its window.  Each faulty copy must be rejected.  Exits 0 when
every case behaves so.
"""

import argparse
import copy
import sys

import run  # sets the BLAS thread count before numpy loads
from workloads import ScanCrossing, SolveN256, StudiesDesk


def scan_cases(td, seed):
    wl = ScanCrossing(seed)
    wl.prepare(td)
    state = wl.setup(td)
    ops = wl.round(td, state)
    yield "scan: program output", ops, wl, state, True

    moved = copy.deepcopy(ops)
    mu, lam, x, kind = moved[0].out[0]
    moved[0].out[0] = (mu + 1e-6, lam, x, kind)
    yield "scan: hit moved by 1e-6 in mu", moved, wl, state, False

    missing = copy.deepcopy(ops)
    by_lam = sorted((h[1], i) for i, h in enumerate(missing[0].out) if h[3] == "critical")
    del missing[0].out[by_lam[len(by_lam) // 2][1]]  # not an extreme point
    yield "scan: critical-point hit missing", missing, wl, state, False


def solve_cases(td, seed):
    wl = SolveN256(seed)
    wl.prepare(td)
    state = wl.setup(td)
    ops = wl.round(td, state)
    yield "solve: program output", ops, wl, state, True

    early = copy.deepcopy(ops)
    trace = td.solve(state["pair"], state["starts"][0])
    stop = trace.iterates[-2].triplet
    status, _, _, _, steps = early[0].out
    early[0].out = (status, stop.mu, stop.lam, tuple(stop.x), steps - 1)
    yield "solve: stopped one step early", early, wl, state, False


def studies_cases(td, seed):
    from twodevp.harness import RITZ_WINDOWS, SIMPLE_WINDOWS
    wl = StudiesDesk(seed)
    wl.prepare(td)
    state = wl.setup(td)
    ops = wl.round(td, state)
    yield "studies: program output", ops, wl, state, True

    for group, key, windows in (("simple", "mu", SIMPLE_WINDOWS), ("ritz", "nu", RITZ_WINDOWS)):
        for side, value in (("above", windows[key][1] + 1e-3), ("below", windows[key][0] - 1e-3)):
            bad = copy.deepcopy(ops)
            bad[0].out[group][key] = value
            yield "studies: %s %s slope just %s its window" % (group, key, side), bad, wl, state, False


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = p.parse_args(argv)
    sys.path.insert(0, run.SRC)
    td = run.import_package()
    wrong = 0
    for cases in (scan_cases, solve_cases, studies_cases):
        for label, ops, wl, state, should_pass in cases(td, args.seed):
            failures = wl.check(ops, state)
            ok = (not failures) == should_pass
            wrong += not ok
            verdict = "accepted" if not failures else "rejected: " + failures[0]
            print("%-4s %-52s %s" % ("ok" if ok else "FAIL", label, verdict[:150]), flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
