"""Which loccdist functions the traced run wraps, and the per-layer metrics.

Counts and times are divided by the work units the traced calls completed
(sweep points or spectra), so they do not grow with a faster run fitting more
calls into its window.  `.s` is inclusive time, `.self_s` excludes child
spans, `.ms_p50` is the median span duration.
"""

from __future__ import annotations

import statistics


def _optimization(args, kwargs, result):
    return result.iterations, result.converged


def _cert_terms(args, kwargs, result):
    return len(result.T_form.terms) + len(result.complement_form.terms)


def _samples(args, kwargs, result):
    return kwargs["n"] if "n" in kwargs else args[2]


TARGETS = {
    "cli.main": None,
    "families.sweep": None,
    "bounds.pure_state_report": None,
    "optimize.beta_two_way_upper": _optimization,
    "separable.build_optimal_separable_povm": _cert_terms,
    "separable.SeparableForm.assemble": None,
    "separable.SeparableForm.min_term_eigenvalue": None,
    "separable.verify_appendix_identity": None,
    "two_way.build_two_way_T": None,
    "two_way.simulate_protocol": _samples,
    "two_way.trace_T_closed_form": None,
    "two_way.build_mub_basis": None,
    "two_way.sigma_A": None,
    "operators.eig_hermitian": None,
    "operators.tensor": None,
    "operators.support_projection": None,
    "operators.psd_sqrt": None,
    "one_way.build_one_way_test": None,
    "states.state_from_spectrum": None,
}

# (target, statistic, metric suffix) for the span statistics reported.
SPAN_METRICS = [
    ("optimize.beta_two_way_upper", "calls", "calls"),
    ("optimize.beta_two_way_upper", "self_s", "self_s"),
    ("optimize.beta_two_way_upper", "ms_p50", "ms_p50"),
    ("separable.build_optimal_separable_povm", "total_s", "s"),
    ("separable.SeparableForm.assemble", "total_s", "s"),
    ("separable.SeparableForm.min_term_eigenvalue", "total_s", "s"),
    ("separable.verify_appendix_identity", "total_s", "s"),
    ("two_way.build_two_way_T", "calls", "calls"),
    ("two_way.build_two_way_T", "self_s", "self_s"),
    ("two_way.simulate_protocol", "total_s", "s"),
    ("two_way.trace_T_closed_form", "calls", "calls"),
    ("two_way.build_mub_basis", "calls", "calls"),
    ("two_way.sigma_A", "calls", "calls"),
    ("operators.eig_hermitian", "calls", "calls"),
    ("operators.eig_hermitian", "self_s", "self_s"),
    ("operators.tensor", "calls", "calls"),
    ("operators.tensor", "self_s", "self_s"),
    ("operators.support_projection", "calls", "calls"),
    ("operators.psd_sqrt", "calls", "calls"),
    ("one_way.build_one_way_test", "total_s", "s"),
    ("states.state_from_spectrum", "total_s", "s"),
    ("bounds.pure_state_report", "self_s", "self_s"),
    ("families.sweep", "total_s", "s"),
    ("cli.main", "self_s", "self_s"),
]
UNITS = {"calls": "count/unit", "self_s": "s/unit", "total_s": "s/unit", "ms_p50": "ms"}


def layer_metrics(tracer, units: int) -> dict:
    """name -> (value, unit) for every per-layer metric except the overhead."""
    spans = tracer.summary()
    out = {}
    for target, stat, suffix in SPAN_METRICS:
        rec = spans[target]
        if stat == "ms_p50":
            value = 1e3 * statistics.median(rec["durations"]) if rec["durations"] else 0.0
        else:
            value = rec[stat] / units
        out[f"{target}.{suffix}"] = (value, UNITS[stat])

    opt = tracer.observed["optimize.beta_two_way_upper"]
    iterations = [it for it, _ in opt]
    out["optimize.iterations_total"] = (sum(iterations) / units, "count/unit")
    out["optimize.iterations_max"] = (max(iterations, default=0), "count")
    out["optimize.converged_ratio"] = (
        sum(ok for _, ok in opt) / len(opt) if opt else 1.0, "ratio")

    out["separable.cert_terms"] = (
        sum(tracer.observed["separable.build_optimal_separable_povm"]) / units,
        "count/unit")

    sim_s = spans["two_way.simulate_protocol"]["total_s"]
    samples = sum(tracer.observed["two_way.simulate_protocol"])
    out["two_way.simulate_protocol.samples_per_s"] = (
        samples / sim_s if sim_s > 0 else 0.0, "1/s")
    return out
