"""What a 2DRQI step costs, stage by stage, on a small pair and on a large one.

    python3 tools/step_costs.py

Run from the root of a checkout.  With the package imported from src/
and BLAS pinned to one thread, it prints the `timeit` minimum of a
one-start step (`step` on a Triplet, with its own np.errstate and
units, as a caller other than `solve` takes it) and of the public calls
that make up its stages: the balanced J, its LU solve, the whole basis
(`projection_basis`: J, its solve, the Grams with their closed form and
V = P X), `form_rq`, `solve_2x2` with `select_ritz`, and the residual
norm.  It then times a stacked step of 50 starts and a loop of solves:
the 100 solves of `studies-desk`'s pass on the simple desk pair
(n = 8), and 48 solves on a pair of n = 256 with a planted crossing,
from starts around that crossing at eps 1e-3 and 1e-2, all at seed 11.
It writes nothing: no results, and no bytecode caches.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import timeit

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import twodevp as td
from twodevp import model, refpairs, rqi

SEED = 11


def best(fn, repeat=7, budget=0.02):
    """The timeit minimum of fn in seconds, with as many calls per repeat as fill about budget seconds."""
    number = max(1, int(budget / max(timeit.timeit(fn, number=1), 1e-7)))
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def stages(pair, t):
    """(name, function) of a one-start step from t and of the public calls of each of its stages."""
    n, sigma = pair.n, pair.norm_a + pair.norm_c
    p, q = model.power_of_two_near(sigma), model.power_of_two_near(pair.norm_c)
    j = model.jacobian(pair, t, sigma)
    e = np.zeros((n + 2, 2), dtype=complex)
    e[n, 0], e[n + 1, 1] = q, p
    v, c, _ = rqi.projection_basis(pair, t)
    c1, c2 = (c / q).tolist()
    a11, a12, a22 = (entry.item() / p for entry in rqi.form_rq(pair, v))

    def tail():
        cands = rqi.solve_2x2(a11, a12, a22, c1, c2)
        return rqi.select_ritz(t.mu, t.lam, cands, v, (p, q))

    return [("one-start step", lambda: rqi.step(pair, t)),
            ("  J", lambda: model.jacobian(pair, t, sigma)),
            ("  LU solve", lambda: np.linalg.solve(j, e)),
            ("  basis (J, LU, Grams, V = P X)", lambda: rqi.projection_basis(pair, t)),
            ("  form_rq", lambda: rqi.form_rq(pair, v)),
            ("  solve_2x2 and select_ritz", tail),
            ("  residual norm", lambda: model.residual_norm(pair, t))]


def report(label, target, eps, loop):
    """Print the step costs on target's pair from starts at eps, and the time of loop's solves."""
    pair = target.pair
    t = td.perturbed_start(target, eps, SEED)
    stack = td.perturbed_starts(target, eps, SEED, range(50))
    print("%s, n = %d" % (label, pair.n))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for name, fn in stages(pair, t):
            print("  %-32s %10.1f us" % (name, best(fn) * 1e6))
    print("  %-32s %10.1f us" % ("stacked step of 50", best(lambda: td.step(pair, stack), repeat=5) * 1e6))
    name, fn = loop
    print("  %-32s %10.2f ms" % (name, best(fn, repeat=5, budget=0.0) * 1e3))


def main():
    desk = td.Target.at(*refpairs.simple_pair_desk(), "simple")
    starts = [td.perturbed_start(desk, 0.05, SEED, trial=k) for k in range(100)]

    def desk_solves():
        for t0 in starts:
            td.solve(desk.pair, t0, tol_abs=1e-12, reference=desk.triplet)

    report("simple desk pair", desk, 0.05, ("100 studies-desk solves", desk_solves))
    pair = td.random_pair_with_crossing(256, (128, 128), 0.4, -0.3, SEED)
    crossing = td.eigvec_set(pair, 0.4, -0.3)
    big = [td.perturbed_start(crossing, eps, SEED, trial=k) for eps in (1e-3, 1e-2) for k in range(24)]

    def big_solves():
        for t0 in big:
            td.solve(pair, t0)

    report("pair with a planted crossing", crossing, 1e-3, ("48 solves at the crossing", big_solves))
    return 0


if __name__ == "__main__":
    sys.exit(main())
