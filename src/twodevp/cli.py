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
from dataclasses import asdict
from enum import Enum

import numpy as np

from . import curves as curves_mod
from . import harness, oracle, rqi
from .classify import classify as run_classify, eigvec_set
from .errors import TwoDevpError
from .kernels import isotropic_weights
from .model import Triplet, complex_to_json, load_pair, load_triplet, residual, save_pair

STUDIES = {
    "scaling": harness.scaling_study,
    "ritz": harness.ritz_approx_study,
    "conditioning": harness.conditioning_study,
}


def _finite(doc):
    """doc as plain JSON values: enums by value, arrays as lists, non-finite floats as None."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, Enum):
        return doc.value
    if isinstance(doc, np.ndarray):
        return _finite(doc.tolist())
    if isinstance(doc, dict):
        return {k: _finite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(v) for v in doc]
    return doc


def _emit(doc, path):
    """Write doc to path, or to stdout without one: a dict as JSON, a list of rows as CSV."""
    if isinstance(doc, list):
        buf = io.StringIO()
        if doc:
            writer = csv.DictWriter(buf, fieldnames=list(doc[0].keys()))
            writer.writeheader()
            writer.writerows(doc)
        text = buf.getvalue()
    else:
        text = json.dumps(_finite(doc), indent=2, allow_nan=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _auto_x0(pair, mu0, lam0):
    """Start vector for solve without --x0.

    x_p is the eigenvector of A - mu0*C nearest lam0 and x_n the nearest
    one whose x^H C x has the other sign.  The start is t x_p + s x_n,
    with (t, s) the isotropic weights of the two values of x^H C x, which
    is isotropic when x_p^H C x_n = 0.  When every x^H C x has one sign
    it is x_p.
    """
    point = curves_mod.eig_at(pair, mu0)
    order = np.argsort(np.abs(point.values - lam0), kind="stable")
    forms = -curves_mod.slopes(pair, point.vectors)  # x^H C x of each column
    p = order[0]
    n = next((i for i in order if forms[i] * forms[p] < 0), None)
    if n is None:
        return point.vectors[:, p]
    pos, neg = (p, n) if forms[p] > 0 else (n, p)
    t, s = isotropic_weights(forms[pos], forms[neg])
    return t * point.vectors[:, pos] + s * point.vectors[:, neg]


def cmd_solve(args):
    pair = load_pair(args.pair)
    x0 = load_triplet(args.x0).x if args.x0 else _auto_x0(pair, args.mu0, args.lambda0)
    t0 = Triplet.normalized(args.mu0, args.lambda0, x0)
    ref = load_triplet(args.reference) if args.reference else None
    reference = None if ref is None else eigvec_set(pair, ref.mu, ref.lam)
    trace = rqi.solve(pair, t0, tol_abs=args.tol_abs, max_iter=args.max_iter, reference=reference)
    records = []
    for rec in trace.iterates:
        row = {
            "k": rec.k,
            "mu": rec.triplet.mu,
            "lambda": rec.triplet.lam,
            "res_norm": rec.res_norm,
            "sigma_n_jhat": None if rec.c1 is None else rqi.sigma_n_jhat(pair, rec.triplet),
            "c1": rec.c1,
            "c2": rec.c2,
            "abs_a12": rec.abs_a12,
        }
        if reference is not None:
            row.update({"err_mu": rec.err_mu, "err_lambda": rec.err_lambda, "err_x": rec.err_x})
        records.append(row)
    _emit(records if args.format == "csv" else {"status": trace.status, "iterates": records}, args.out)
    return 0 if trace.status is rqi.Status.CONVERGED else 1


def cmd_classify(args):
    _emit(asdict(run_classify(load_pair(args.pair), args.mu, getattr(args, "lambda"))), args.out)
    return 0


def cmd_curves(args):
    if args.vectors and args.format != "csv":
        raise ValueError("--vectors needs --format csv")
    grid = curves_mod.trace_curves(load_pair(args.pair), args.mu_lo, args.mu_hi, args.grid)
    if args.format == "json":
        _emit({"points": [{"mu": p.mu, "values": p.values} for p in grid.points]}, args.out)
        return 0
    rows = []
    for p in grid.points:
        for i, value in enumerate(p.values):
            row = {"mu": p.mu, "curve_index": i, "lambda": float(value)}
            if args.vectors:
                x = p.vectors[:, i]
                row.update(("x%d_re" % k, float(z.real)) for k, z in enumerate(x))
                row.update(("x%d_im" % k, float(z.imag)) for k, z in enumerate(x))
            rows.append(row)
    _emit(rows, args.out)
    return 0


def cmd_oracle(args):
    pair = load_pair(args.pair)
    hits, suspects = oracle.scan(pair, args.mu_lo, args.mu_hi, args.grid)
    doc = {
        "hits": [
            {
                "kind": h.kind,
                "curves": h.curves,
                "mu": h.triplet.mu,
                "lambda": h.triplet.lam,
                "x": complex_to_json(h.triplet.x),
                "bracket": h.bracket,
                "refined_to": h.refined_to,
                "residual": float(np.linalg.norm(residual(pair, h.triplet))),
            }
            for h in hits
        ],
        "suspects": [{"mu": mu, "curves": i} for mu, i in suspects],
    }
    _emit(doc, args.out)
    return 0


def cmd_study(args):
    pair = load_pair(args.pair)
    target = eigvec_set(pair, args.target_mu, args.target_lambda)
    report = STUDIES[args.kind](target, [float(e) for e in args.eps], args.trials, args.seed)
    verdicts = harness.verdicts(args.kind, target, report)
    _emit(dict(asdict(report), seed=args.seed, regime=target.regime, verdicts=verdicts), args.out)
    return 0 if all(v["pass"] for v in verdicts) else 1


def cmd_gen_pair(args):
    signature = (args.sig_pos, args.sig_neg)
    if args.crossing:
        pair = harness.random_pair_with_crossing(args.n, signature, *args.crossing, args.seed)
    else:
        pair = harness.random_pair(args.n, signature, args.seed)
    save_pair(pair, args.out)
    return 0


def build_parser():
    # argument groups shared by several subcommands
    pair_out = argparse.ArgumentParser(add_help=False)
    pair_out.add_argument("--pair", required=True)
    pair_out.add_argument("--out")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["json", "csv"], default="json")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--mu-lo", type=float, required=True)
    window.add_argument("--mu-hi", type=float, required=True)
    window.add_argument("--grid", type=int, default=64)

    p = argparse.ArgumentParser(prog="twodevp")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[pair_out, fmt], help="run the 2D Rayleigh quotient iteration")
    ps.add_argument("--mu0", type=float, required=True)
    ps.add_argument("--lambda0", type=float, required=True)
    ps.add_argument("--x0", help="triplet file providing the starting vector (default: the isotropic "
                    "mix of two eigenvectors of A - mu0 C near lambda0)")
    ps.add_argument("--tol-abs", type=float, default=None)
    ps.add_argument("--max-iter", type=int, default=None)
    ps.add_argument("--reference", help="triplet file whose (mu, lambda) is a known nonsingular 2D-eigenvalue")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("classify", parents=[pair_out], help="classify a candidate 2D-eigenvalue")
    pc.add_argument("--mu", type=float, required=True)
    pc.add_argument("--lambda", type=float, required=True)
    pc.set_defaults(func=cmd_classify)

    pv = sub.add_parser("curves", parents=[pair_out, fmt, window], help="sample the sorted eigencurves")
    pv.add_argument("--vectors", action="store_true", help="add eigenvector columns (CSV only)")
    pv.set_defaults(func=cmd_curves)

    po = sub.add_parser("oracle", parents=[pair_out, window], help="scan for 2D-eigenvalues by brute force")
    po.set_defaults(func=cmd_oracle)

    pt = sub.add_parser("study", parents=[pair_out], help="perturbation studies around a known solution")
    pt.add_argument("kind", choices=list(STUDIES))
    pt.add_argument("--target-mu", type=float, required=True)
    pt.add_argument("--target-lambda", type=float, required=True)
    pt.add_argument("--eps", nargs="+", required=True)
    pt.add_argument("--trials", type=int, default=50)
    pt.add_argument("--seed", type=int, default=0)
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
    except (TwoDevpError, OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
