"""Command-line interface.

Subcommands: solve, classify, curves, oracle, study {scaling|ritz|conditioning},
gen-pair.  Exit codes: 0 pass, 1 study verdict failure or solve not
converged, 2 input error.  All JSON output is deterministic for fixed
inputs and seeds, and strict: a non-finite number is written as null.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from . import curves as curves_mod
from . import harness, oracle, rqi
from .classify import classify as run_classify, eigvec_set
from .errors import TwoDevpError
from .model import Triplet, complex_to_json, load_pair, load_triplet, residual, save_pair


def _finite(doc):
    """doc with every non-finite float replaced by None."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: _finite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(v) for v in doc]
    return doc


def _emit(doc, path):
    text = json.dumps(_finite(doc), indent=2, allow_nan=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _auto_x0(pair, mu0, lam0):
    point = curves_mod.eig_at(pair, mu0)
    return point.vectors[:, int(np.argmin(np.abs(point.values - lam0)))]


def cmd_solve(args):
    pair = load_pair(args.pair)
    if args.x0:
        x0 = load_triplet(args.x0).x
    else:
        x0 = _auto_x0(pair, args.mu0, args.lambda0)
    t0 = Triplet.normalized(args.mu0, args.lambda0, x0)
    reference = load_triplet(args.reference) if args.reference else None
    trace = rqi.solve(
        pair, t0, tol_abs=args.tol_abs, max_iter=args.max_iter, reference=reference
    )
    records = []
    for rec in trace.iterates:
        row = {
            "k": rec.k,
            "mu": rec.triplet.mu,
            "lambda": rec.triplet.lam,
            "res_norm": rec.res_norm,
        }
        d = rec.diagnostics
        row.update(asdict(d) if d else dict.fromkeys(f.name for f in fields(rqi.StepDiagnostics)))
        if reference is not None:
            row.update({"err_mu": rec.err_mu, "err_lambda": rec.err_lambda, "err_x": rec.err_x})
        records.append(row)
    doc = {"status": trace.status.value, "iterates": records}
    if args.format == "csv":
        _emit_csv(records, args.out)
    else:
        _emit(doc, args.out)
    return 0 if trace.status is rqi.Status.CONVERGED else 1


def _emit_csv(records, path):
    buf = io.StringIO()
    if records:
        writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()))
        writer.writeheader()
        writer.writerows(records)
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args):
    pair = load_pair(args.pair)
    c = run_classify(pair, args.mu, getattr(args, "lambda"))
    doc = {
        "kind": c.kind.value,
        "multiplicity": c.multiplicity,
        "lambda_double_prime": c.lambda_double_prime,
        "cluster_c_eigs": [float(e) for e in c.cluster_c_eigs],
        "sigma_min_j": c.sigma_min_j,
    }
    _emit(doc, args.out)
    return 0


def cmd_curves(args):
    if args.vectors and args.format != "csv":
        raise ValueError("--vectors needs --format csv")
    pair = load_pair(args.pair)
    grid = curves_mod.trace_curves(pair, args.mu_lo, args.mu_hi, args.grid)
    if args.format == "csv":
        rows = []
        for p in grid.points:
            for i, value in enumerate(p.values):
                row = {"mu": p.mu, "curve_index": i, "lambda": float(value)}
                if args.vectors:
                    x = p.vectors[:, i]
                    row.update(("x%d_re" % k, float(z.real)) for k, z in enumerate(x))
                    row.update(("x%d_im" % k, float(z.imag)) for k, z in enumerate(x))
                rows.append(row)
        _emit_csv(rows, args.out)
    else:
        doc = {
            "points": [
                {"mu": p.mu, "values": [float(v) for v in p.values]} for p in grid.points
            ],
        }
        _emit(doc, args.out)
    return 0


def cmd_oracle(args):
    pair = load_pair(args.pair)
    hits, suspects = oracle.scan(pair, args.mu_lo, args.mu_hi, args.grid)
    doc = {
        "hits": [
            {
                "kind": h.kind.value,
                "curves": list(h.curves),
                "mu": h.triplet.mu,
                "lambda": h.triplet.lam,
                "x": complex_to_json(h.triplet.x),
                "bracket": list(h.bracket),
                "refined_to": h.refined_to,
                "residual": residual(pair, h.triplet).norm,
            }
            for h in hits
        ],
        "suspects": [{"mu": mu, "curves": i} for mu, i in suspects],
    }
    _emit(doc, args.out)
    return 0


def _target_from_args(args, pair):
    s = eigvec_set(pair, args.target_mu, args.target_lambda)
    t = Triplet(args.target_mu, args.target_lambda, s.representative())
    return harness.Target(pair=pair, triplet=t, vec_set=s)


def _window_verdicts(slopes, windows):
    verdicts = []
    for key, (lo, hi) in windows.items():
        val = slopes[key]  # NaN when too few points lie above roundoff
        ok = lo <= val <= hi
        verdicts.append({"check": "slope_%s" % key, "value": val, "window": [lo, hi], "pass": ok})
    return verdicts


def cmd_study(args):
    pair = load_pair(args.pair)
    target = _target_from_args(args, pair)
    eps_list = [float(e) for e in args.eps]
    if args.kind == "scaling":
        study = harness.scaling_study(target, eps_list, args.trials, args.seed)
        windows = harness.SIMPLE_WINDOWS if target.regime == "simple" else harness.MULTIPLE_WINDOWS
        doc = asdict(study)
        verdicts = _window_verdicts(doc["fitted_slopes"], windows)
    elif args.kind == "ritz":
        study = harness.ritz_approx_study(target, eps_list, args.trials, args.seed)
        doc = asdict(study)
        verdicts = _window_verdicts(doc["fitted_slopes"], harness.RITZ_WINDOWS)
    else:
        report = harness.conditioning_study(target, eps_list, args.trials, args.seed)
        verdicts = []
        for eps, sv, cv in zip(report.epsilons, report.sigma_violations, report.c_violations):
            expected_clean = eps <= 1e-3
            verdicts.append(
                {
                    "check": "conditioning_eps_%g" % eps,
                    "sigma_violations": sv,
                    "c_violations": cv,
                    "pass": (sv == 0 and cv == 0) if expected_clean else True,
                }
            )
        doc = asdict(report)
    doc["seed"] = args.seed
    doc["regime"] = target.regime
    doc["verdicts"] = verdicts
    _emit(doc, args.out)
    return 0 if all(v["pass"] for v in verdicts) else 1


def cmd_gen_pair(args):
    if args.crossing:
        mu_star, lam_star = args.crossing
        pair = harness.random_pair_with_crossing(
            args.n, (args.sig_pos, args.sig_neg), mu_star, lam_star, args.seed
        )
    else:
        pair = harness.random_pair(args.n, (args.sig_pos, args.sig_neg), args.seed)
    save_pair(pair, args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="twodevp")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the 2D Rayleigh quotient iteration")
    ps.add_argument("--pair", required=True)
    ps.add_argument("--mu0", type=float, required=True)
    ps.add_argument("--lambda0", type=float, required=True)
    ps.add_argument("--x0", help="triplet file providing the starting vector (default: the nearest eigenvector)")
    ps.add_argument("--tol-abs", type=float, default=None)
    ps.add_argument("--max-iter", type=int, default=None)
    ps.add_argument("--reference", help="triplet file whose (mu, lambda) is a known nonsingular 2D-eigenvalue")
    ps.add_argument("--out")
    ps.add_argument("--format", choices=["json", "csv"], default="json")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("classify", help="classify a candidate 2D-eigenvalue")
    pc.add_argument("--pair", required=True)
    pc.add_argument("--mu", type=float, required=True)
    pc.add_argument("--lambda", type=float, required=True)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_classify)

    pv = sub.add_parser("curves", help="sample the sorted eigencurves")
    pv.add_argument("--pair", required=True)
    pv.add_argument("--mu-lo", type=float, required=True)
    pv.add_argument("--mu-hi", type=float, required=True)
    pv.add_argument("--grid", type=int, default=64)
    pv.add_argument("--vectors", action="store_true", help="add eigenvector columns (CSV only)")
    pv.add_argument("--out")
    pv.add_argument("--format", choices=["json", "csv"], default="json")
    pv.set_defaults(func=cmd_curves)

    po = sub.add_parser("oracle", help="scan for 2D-eigenvalues by brute force")
    po.add_argument("--pair", required=True)
    po.add_argument("--mu-lo", type=float, required=True)
    po.add_argument("--mu-hi", type=float, required=True)
    po.add_argument("--grid", type=int, default=64)
    po.add_argument("--out")
    po.set_defaults(func=cmd_oracle)

    pt = sub.add_parser("study", help="perturbation studies around a known solution")
    pt.add_argument("kind", choices=["scaling", "ritz", "conditioning"])
    pt.add_argument("--pair", required=True)
    pt.add_argument("--target-mu", type=float, required=True)
    pt.add_argument("--target-lambda", type=float, required=True)
    pt.add_argument("--eps", nargs="+", required=True)
    pt.add_argument("--trials", type=int, default=50)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out")
    pt.set_defaults(func=cmd_study)

    pg = sub.add_parser("gen-pair", help="generate a seeded random pair")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--sig-pos", type=int, required=True)
    pg.add_argument("--sig-neg", type=int, required=True)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--crossing", nargs=2, type=float, metavar=("MU", "LAMBDA"))
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_gen_pair)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TwoDevpError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
