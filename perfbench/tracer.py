"""Spans around the layer boundaries of twodevp, recorded from outside.

`Tracer.install` wraps each named public function and replaces the name
in every loaded `twodevp` module that holds it, so calls between modules
go through the wrap too.  It also wraps `numpy.linalg` entry points,
which the package looks up at call time.  `uninstall` puts every
original back.

Per span name the tracer keeps, in memory, the number of calls, the
inclusive time and the self time (inclusive time less the time of the
child spans), split by phase ("setup" or "op").  It also counts calls
of one span made inside another (for instance `curves.eig_at` inside
`oracle.refine_critical`), and, while `keep_spans` is set, the spans
themselves as (id, parent id, name, start, end) for the trace file.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every wrapped function, inner layers last.
LAYERS = [
    ("twodevp.oracle", "scan"),
    ("twodevp.oracle", "refine_critical"),
    ("twodevp.oracle", "refine_crossing"),
    ("twodevp.curves", "trace_curves"),
    ("twodevp.curves", "eig_at"),
    ("twodevp.curves", "eigvec_derivative"),
    ("twodevp.curves", "lambda_double_prime"),
    ("twodevp.harness", "scaling_study"),
    ("twodevp.harness", "ritz_approx_study"),
    ("twodevp.harness", "conditioning_study"),
    ("twodevp.harness", "perturbed_start"),
    ("twodevp.harness", "convergence_order"),
    ("twodevp.rqi", "solve"),
    ("twodevp.rqi", "step"),
    ("twodevp.rqi", "projection_basis"),
    ("twodevp.rqi", "form_rq"),
    ("twodevp.rqi", "solve_2x2"),
    ("twodevp.rqi", "select_ritz"),
    ("twodevp.classify", "eigvec_set"),
    ("twodevp.classify", "classify"),
    ("twodevp.classify", "multiplicity"),
    ("twodevp.angles", "dist_to_set"),
    ("twodevp.angles", "canonical_angles"),
    ("twodevp.model", "residual"),
    ("twodevp.model", "jacobian_hat"),
    ("twodevp.model", "jacobian"),
    ("twodevp.kernels", "hermitian_eig"),
    ("twodevp.kernels", "check_hermitian"),
    ("twodevp.kernels", "orthonormalize"),
    ("twodevp.kernels", "pinv_apply"),
]
# Methods wrapped on their class, which every module shares.
METHODS = [("twodevp.model", "HermitianPair", "__post_init__", "model.pair_init")]
LINALG = ["eigh", "svd"]
# (inner, outer): calls of inner made while outer is open.
NESTED = [
    ("curves.eig_at", "oracle.refine_critical"),
    ("curves.eig_at", "oracle.refine_crossing"),
    ("linalg.svd", "rqi.step"),
]


def span_name(module, attr):
    return "%s.%s" % (module.rsplit(".", 1)[-1], attr)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.phase = "op"
        self.keep_spans = False
        self.spans = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.nested = defaultdict(int)
        self.returns = defaultdict(int)  # counts read from return values
        self._stack = []                 # [name, start, child time, id]
        self._open = defaultdict(int)
        self._next_id = 0
        self._saved = []                 # (owner, attribute, original)

    # -- recording ---------------------------------------------------------
    def _enter(self, name):
        self._open[name] += 1
        for inner, outer in NESTED:
            if inner == name and self._open[outer]:
                self.nested[(self.phase, inner, outer)] += 1
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def _exit(self):
        end = time.perf_counter()
        name, start, child, sid = self._stack.pop()
        self._open[name] -= 1
        dur = end - start
        key = (self.phase, name)
        self.calls[key] += 1
        self.total[key] += dur
        self.self_time[key] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if self.keep_spans:
            parent = self._stack[-1][3] if self._stack else 0
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_return is not None:
                on_return(self, out)
            return out
        return traced

    # -- installing --------------------------------------------------------
    def install(self):
        """Wrap every layer function in all loaded twodevp modules."""
        mods = [m for k, m in sys.modules.items() if k == "twodevp" or k.startswith("twodevp.")]
        for module, attr in LAYERS:
            orig = getattr(sys.modules[module], attr)
            hook = RETURN_HOOKS.get(attr)
            wrapped = self._wrap(span_name(module, attr), orig, hook)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapped)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))
        for attr in LINALG:
            orig = getattr(np.linalg, attr)
            self._saved.append((np.linalg, attr, orig))
            setattr(np.linalg, attr, self._wrap("linalg." + attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []
        self.enabled = False

    # -- reading -----------------------------------------------------------
    def summary(self):
        names = sorted({name for _, name in self.calls})
        out = {}
        for phase in ("setup", "op"):
            out[phase] = {
                name: {
                    "calls": self.calls[(phase, name)],
                    "total_s": self.total[(phase, name)],
                    "self_s": self.self_time[(phase, name)],
                }
                for name in names if self.calls[(phase, name)]
            }
        return out


def _count_grid_points(tracer, grid):
    tracer.returns[(tracer.phase, "curves.grid_points")] += len(grid.points)


def _count_hits(tracer, result):
    tracer.returns[(tracer.phase, "oracle.hits")] += len(result[0])


RETURN_HOOKS = {"trace_curves": _count_grid_points, "scan": _count_hits}
