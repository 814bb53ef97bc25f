"""Per-layer metrics computed from the spans of a traced run.

A layer's self time is its spans' durations minus the time covered by their
direct child spans.  Counts were read at the same boundaries by the tracer.
A metric whose functions the workload never calls has no value on the
workload's spans (its value function returns None); it is then read from the
spans of the layer tour (workloads.layer_tour).  Units and the order of the
metrics are those of BENCHMARK.json.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Agg:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def aggregate(spans: list[list]) -> dict[str, Agg]:
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, Agg] = defaultdict(Agg)
    for (name, start, end, _, counts), child in zip(spans, covered):
        a = out[name]
        a.calls += 1
        a.total_s += (end - start) * 1e-9
        a.self_s += (end - start - child) * 1e-9
        for key, value in (counts or {}).items():
            a.counts[key] += value
    return out


def _self(fn):
    return lambda A, X: A[fn].self_s if A[fn].calls else None


def _calls(fn):
    return lambda A, X: A[fn].calls or None


def _count(fn, key):
    return lambda A, X: A[fn].counts[key] if A[fn].calls else None


def _ratio(num, den):
    def f(A, X):
        return A[num].self_s / A[den].self_s if A[num].calls and A[den].self_s > 0 else None
    return f


def _heat_nodes(A, X):
    solves = A["pricing.solve_heat_convolution"].calls + A["pricing.solve_heat_fd"].calls
    nodes = (A["pricing.solve_heat_convolution"].counts["nodes"]
             + A["pricing.solve_heat_fd"].counts["nodes"])
    return nodes / solves if solves else None


def _us_per_call(fn):
    return lambda A, X: A[fn].total_s / A[fn].calls * 1e6 if A[fn].calls else None


_ROTATION = ("rotation.equidistribution_test", "rotation.birkhoff_average",
             "rotation.kac_return_time")


def _orbit_points(A, X):
    points = sum(A[fn].counts["orbit_points"] for fn in _ROTATION)
    return points or None


def _ns_per_orbit_point(A, X):
    points = _orbit_points(A, X)
    return sum(A[fn].self_s for fn in _ROTATION) / points * 1e9 if points else None


def _criteria_passed(A, X):
    names = [f"validation.criterion_{k}" for k in range(1, 13)]
    if not any(A[n].calls for n in names):
        return None
    return sum(A[n].counts["passed"] for n in names)


def _criterion_total(k):
    fn = f"validation.criterion_{k}"
    return lambda A, X: A[fn].total_s if A[fn].calls else None


def _extra(key):
    return lambda A, X: X.get(key)


# metric name -> value function of (aggregates, extra values), None if not reached
PER_LAYER = {
    "trading.detect_recurrences.self_s": _self("trading.detect_recurrences"),
    "trading.build_excursions.self_s": _self("trading.build_excursions"),
    "trading.excursions_over_detect":
        _ratio("trading.build_excursions", "trading.detect_recurrences"),
    "trading.recurrences": _count("trading.detect_recurrences", "recurrences"),
    "trading.excursions": _count("trading.build_excursions", "excursions"),
    "trading.build_ledger.self_s": _self("trading.build_ledger"),
    "trading.oet_bound_report.self_s": _self("trading.oet_bound_report"),
    "trading.generate_signals.self_s": _self("trading.generate_signals"),
    "trading.subgrid_crossing_probability.self_s":
        _self("trading.subgrid_crossing_probability"),
    **{f"trading.{fn}.scaling_exp": _extra(f"scaling.{fn}")
       for fn in ("detect_recurrences", "build_excursions", "subgrid_crossing_probability")},
    **{f"cli.{c}.self_s": _self(f"cli.{c}")
       for c in ("simulate", "trade", "rotate", "price", "validate")},
    "cli.bytes_written": _extra("bytes_written"),
    "cli.files_written": _extra("files_written"),
    "stochastic.write_path_csv.self_s": _self("stochastic.write_path_csv"),
    "stochastic.write_path_csv.rows": _count("stochastic.write_path_csv", "rows"),
    "stochastic.read_path_csv.self_s": _self("stochastic.read_path_csv"),
    "stochastic.read_path_csv.rows": _count("stochastic.read_path_csv", "rows"),
    "stochastic.simulate_wiener.calls": _calls("stochastic.simulate_wiener"),
    "stochastic.simulate_wiener.self_s": _self("stochastic.simulate_wiener"),
    "stochastic.steps_simulated": _count("stochastic.simulate_wiener", "steps"),
    "pricing.price_via_pde.calls": _calls("pricing.price_via_pde"),
    "pricing.price_via_pde.self_s": _self("pricing.price_via_pde"),
    "pricing.solve_heat_convolution.calls": _calls("pricing.solve_heat_convolution"),
    "pricing.solve_heat_convolution.self_s": _self("pricing.solve_heat_convolution"),
    "pricing.heat_kernel.self_s": _self("pricing.heat_kernel"),
    "pricing.solve_heat_fd.self_s": _self("pricing.solve_heat_fd"),
    "pricing.heat_nodes": _heat_nodes,
    "pricing.kernel_evals": _count("pricing.solve_heat_convolution", "nodes_sq"),
    "pricing.price_ergodic_bs.us_per_call": _us_per_call("pricing.price_ergodic_bs"),
    "pricing.max_rel_gap": _extra("max_rel_gap"),
    **{f"{fn}.self_s": _self(fn) for fn in _ROTATION},
    "rotation.orbit_points": _orbit_points,
    "rotation.ns_per_orbit_point": _ns_per_orbit_point,
    "ergodic.construct_z_gbm.calls": _calls("ergodic.construct_z_gbm"),
    "ergodic.construct_z_gbm.self_s": _self("ergodic.construct_z_gbm"),
    "ergodic.ergodicity_diagnostic.self_s": _self("ergodic.ergodicity_diagnostic"),
    **{f"validation.criterion_{k}.total_s": _criterion_total(k) for k in range(1, 13)},
    "validation.criteria_passed": _criteria_passed,
    **{f"import.{mod}_s": _extra(f"import.{mod}")
       for mod in ("logergodic.cli", "logergodic.pricing", "scipy.linalg", "numpy", "click")},
    "trace_overhead_frac": _extra("trace_overhead_frac"),
}


def per_layer_values(spans: list[list], extra: dict, tour_spans: list[list],
                     tour_extra: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric's value, from the workload where it reaches the
    metric and from the layer tour elsewhere; and the names read from the tour.
    A value is None only if neither reaches the metric."""
    A, T = aggregate(spans), aggregate(tour_spans)
    values, from_tour = {}, []
    for name, fn in PER_LAYER.items():
        values[name] = fn(A, extra)
        if values[name] is None:
            values[name] = fn(T, tour_extra)
            from_tour.append(name)
    return values, from_tour


def span_summary(spans: list[list]) -> dict:
    """Calls, total and self seconds and counts per span name, for the result file."""
    return {name: {"calls": a.calls, "total_s": a.total_s, "self_s": a.self_s,
                   **dict(a.counts)}
            for name, a in sorted(aggregate(spans).items())}
