"""Per-layer metrics from a traced run.

Times are inclusive span times.  Metrics of the timed phase are per
operation (one scan, one solve or one study pass); those named with
unit "s/setup" or "calls/setup" come from the one traced set-up.  A
layer that a workload does not reach reads 0.
"""

from workloads import result_times

# name -> (unit, phase, span, kind); kind "s" sums inclusive time,
# "calls" counts calls.
SPAN_METRICS = {
    "oracle.trace_curves_s": ("s/op", "op", "curves.trace_curves", "s"),
    "oracle.refine_critical_s": ("s/op", "op", "oracle.refine_critical", "s"),
    "oracle.refine_crossing_s": ("s/op", "op", "oracle.refine_crossing", "s"),
    "curves.eig_at_calls": ("calls/op", "op", "curves.eig_at", "calls"),
    "rqi.projection_basis_s": ("s/op", "op", "rqi.projection_basis", "s"),
    "rqi.form_rq_s": ("s/op", "op", "rqi.form_rq", "s"),
    "rqi.solve_2x2_s": ("s/op", "op", "rqi.solve_2x2", "s"),
    "rqi.select_ritz_s": ("s/op", "op", "rqi.select_ritz", "s"),
    "rqi.step_calls": ("calls/op", "op", "rqi.step", "calls"),
    "model.residual_s": ("s/op", "op", "model.residual", "s"),
    "model.jacobian_hat_s": ("s/op", "op", "model.jacobian_hat", "s"),
    "model.pair_init_s": ("s/setup", "setup", "model.pair_init", "s"),
    "classify.classify_s": ("s/setup", "setup", "classify.classify", "s"),
    "classify.eigvec_set_s": ("s/setup", "setup", "classify.eigvec_set", "s"),
    "classify.eigvec_set_calls": ("calls/setup", "setup", "classify.eigvec_set", "calls"),
    "setup.linalg_eigh_calls": ("calls/setup", "setup", "linalg.eigh", "calls"),
    "harness.scaling_study_s": ("s/op", "op", "harness.scaling_study", "s"),
    "harness.ritz_approx_study_s": ("s/op", "op", "harness.ritz_approx_study", "s"),
    "harness.conditioning_study_s": ("s/op", "op", "harness.conditioning_study", "s"),
    "harness.perturbed_start_s": ("s/op", "op", "harness.perturbed_start", "s"),
    "angles.dist_to_set_s": ("s/op", "op", "angles.dist_to_set", "s"),
    "kernels.check_hermitian_s": ("s/op", "op", "kernels.check_hermitian", "s"),
    "kernels.hermitian_eig_calls": ("calls/op", "op", "kernels.hermitian_eig", "calls"),
    "linalg.eigh_calls": ("calls/op", "op", "linalg.eigh", "calls"),
    "linalg.eigh_s": ("s/op", "op", "linalg.eigh", "s"),
    "linalg.svd_calls": ("calls/op", "op", "linalg.svd", "calls"),
    "linalg.svd_s": ("s/op", "op", "linalg.svd", "s"),
}
# Metrics built from results and nested counts: name -> unit.
DERIVED = {
    "traced.result_ms": "ms",
    "traced.result_vs_probe": "ratio",
    "oracle.hits": "hits/op",
    "oracle.eig_at_per_hit": "calls/hit",
    "curves.grid_points": "points/op",
    "linalg.svd_per_step": "calls/step",
}


def per_layer(tracer, rounds, probes):
    n_ops = max(sum(len(r) for r in rounds), 1)
    out = {}
    for name, (unit, phase, span, kind) in SPAN_METRICS.items():
        table = tracer.total if kind == "s" else tracer.calls
        value = table[(phase, span)]
        out[name] = {"value": value / n_ops if phase == "op" else value, "unit": unit}

    hits = tracer.returns[("op", "oracle.hits")]
    in_refine = sum(tracer.nested[("op", "curves.eig_at", outer)]
                    for outer in ("oracle.refine_critical", "oracle.refine_crossing"))
    steps = tracer.calls[("op", "rqi.step")]
    times = result_times(rounds, probes)
    derived = {
        "traced.result_ms": times["result_ms"] or 0.0,
        "traced.result_vs_probe": times["result_vs_probe"] or 0.0,
        "oracle.hits": hits / n_ops,
        "oracle.eig_at_per_hit": in_refine / hits if hits else 0.0,
        "curves.grid_points": tracer.returns[("op", "curves.grid_points")] / n_ops,
        "linalg.svd_per_step": tracer.nested[("op", "linalg.svd", "rqi.step")] / steps if steps else 0.0,
    }
    for name, unit in DERIVED.items():
        out[name] = {"value": derived[name], "unit": unit}
    return out

