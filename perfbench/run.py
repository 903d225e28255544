"""Benchmark of twodevp: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its
`src/`.  With --trace 0 the last line of standard output holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics from
spans recorded around the package's layer boundaries.  Earlier lines
give the workload's figures by name.  The result, and with --trace 1
the span summary, are also written under perfbench/out/.  README.md
in this directory describes the workloads and metrics.
"""

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import importlib
import json
import resource
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 11
SETUP_REPS = 5
SETUP_SECONDS = 2.0


def import_package():
    """Import twodevp afresh from the checkout's src/, and no other."""
    for name in [k for k in sys.modules if k == "twodevp" or k.startswith("twodevp.")]:
        del sys.modules[name]
    td = importlib.import_module("twodevp")
    if os.path.dirname(os.path.dirname(os.path.abspath(td.__file__))) != SRC:
        raise ImportError("twodevp imported from %s, not %s" % (td.__file__, SRC))
    return td


def time_setup(wl):
    """Median wall time of import + set-up over at least SETUP_REPS
    set-ups and SETUP_SECONDS, and the last state."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        gc.collect()
        start = time.perf_counter()
        td = import_package()
        state = wl.setup(td)
        times.append(time.perf_counter() - start)
    return statistics.median(times), td, state


def run_rounds(wl, td, state, seconds, tracer=None):
    """Whole rounds until `seconds` have passed, with the probe timed
    before the first round and after each; (rounds of ops, probe times)."""
    rounds, probes = [], [wl.probe()]
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.keep_spans, tracer.enabled = not rounds, True
        rounds.append(wl.round(td, state))
        if tracer is not None:
            tracer.enabled = False
        probes.append(wl.probe())
        if len(rounds) > 1:
            for op in rounds[-1]:
                op.out = None  # the digest is kept for the repeat check
        if time.perf_counter() - start >= seconds:
            return rounds, probes


def end_to_end(setup_s, times, probes, probe_ref_s):
    """The end-to-end metrics.  `setup_s` is the median set-up time
    scaled by probe_ref_s over the run's median probe time, so that it
    reads as seconds at the machine speed where the probe takes
    probe_ref_s, like the two probe ratios."""
    return {
        "setup_s": {"value": setup_s * probe_ref_s / statistics.median(probes), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "result_vs_probe": {"value": times["result_vs_probe"], "unit": "ratio"},
        "tail_vs_probe": {"value": times["tail_vs_probe"], "unit": "ratio"},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if BLAS_THREADS > (os.cpu_count() or 1):
        print("BLAS_THREADS=%d exceeds the %d cores" % (BLAS_THREADS, os.cpu_count()), file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "twodevp")):
        print("no twodevp package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, repeat_failures, result_times
    if args.workload not in WORKLOADS:
        print("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)

    wl.prepare(import_package())
    if args.trace:
        import tracer as tracing
        td = import_package()
        tracer = tracing.Tracer()
        tracer.install()
        tracer.phase, tracer.keep_spans, tracer.enabled = "setup", True, True
        state = wl.setup(td)
        tracer.enabled, tracer.phase = False, "op"
        wl.warm_up(td, state)
        rounds, probes = run_rounds(wl, td, state, args.seconds, tracer)
        tracer.uninstall()
    else:
        setup_s, td, state = time_setup(wl)
        wl.warm_up(td, state)
        rounds, probes = run_rounds(wl, td, state, args.seconds)
        metrics = end_to_end(setup_s, result_times(rounds, probes), probes, wl.probe.ref_s)

    ops = [op for r in rounds for op in r]
    failures = wl.check(rounds[0], state) + repeat_failures(rounds)
    for msg in failures:
        print("CHECK FAILED: %s" % msg, file=sys.stderr)
    if args.trace:
        from layers import per_layer
        metrics = per_layer(tracer, rounds, probes)
    figures = {"workload": wl.name, "seed": args.seed, "rounds": len(rounds), "ops": len(ops)}
    if not args.trace:
        figures["setup_raw_s"] = setup_s
    figures.update(wl.figures(rounds))
    figures.update(result_times(rounds, probes))
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (wl.name, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"figures": figures, "result": result,
                   "round_ms": [1e3 * sum(op.seconds for op in r) for r in rounds],
                   "probe_ms": [1e3 * p for p in probes]}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"summary": tracer.summary(), "spans_setup_and_first_round": tracer.spans}, fh)
    print(json.dumps(figures))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
