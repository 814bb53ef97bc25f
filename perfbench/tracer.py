"""Traced in-process run of the logergodic CLI.

Wraps every public function of the package modules, and the callback of
every CLI subcommand, in a recorder of spans (name, start, end, parent span
and the counts read at that boundary).  The wrapper is rebound under every
module-level name, and in every module-level list, that refers to the
function, so calls made through `from ... import` bindings and module
globals are both seen.  The CLI is then invoked through click in this
process, followed by a scaling probe of the trading stages on unwrapped
functions and by the layer tour: the CLI invocations listed in the --tour
JSON file, each a list of arguments, whose spans are kept apart from the
workload's.  Spans stay in memory and are written out as JSON at the end.

    PYTHONPATH=src python3 tracer.py --spans OUT.json --probe-seed N --tour TOUR.json \
        -- CLI-ARGS...

No source file is modified; wrapping happens on the imported objects.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import importlib
import inspect
import json
import math
import statistics
import sys
import time
import traceback
import types

MODULES = ("stochastic", "ergodic", "trading", "rotation", "pricing", "validation")
PROBE_SIZES = (10**4, 10**5, 10**6)
PROBE_FUNCTIONS = ("detect_recurrences", "build_excursions", "subgrid_crossing_probability")


def _heat_nodes(arg, result):
    n = len(arg("hp").grid_y)
    return {"nodes": n, "nodes_sq": n * n}


# counts read at a span's boundary: (argument getter, return value) -> counts
COUNTERS = {
    "stochastic.simulate_wiener": lambda arg, r: {"steps": r.grid.n},
    "stochastic.write_path_csv": lambda arg, r: {"rows": len(arg("path").values)},
    "stochastic.read_path_csv": lambda arg, r: {"rows": len(r.values)},
    "trading.detect_recurrences": lambda arg, r: {"recurrences": len(r.taus)},
    "trading.build_excursions": lambda arg, r: {"excursions": len(r)},
    "pricing.solve_heat_convolution": _heat_nodes,
    "pricing.solve_heat_fd": _heat_nodes,
    "rotation.equidistribution_test": lambda arg, r: {"orbit_points": arg("n")},
    "rotation.birkhoff_average": lambda arg, r: {"orbit_points": arg("n")},
    # the scan overshoots in chunks; count the steps the returns actually span
    "rotation.kac_return_time": lambda arg, r: {"orbit_points": round(arg("n_returns") * r)},
}


class Tracer:
    """Span recorder; spans are [name, start_ns, end_ns, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        if counter is None and name.startswith("validation.criterion_"):
            counter = lambda arg, r: {"passed": int(r.passed)}  # noqa: E731
        sig = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, None])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1:3] = start, end
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx][4] = counter(bound.arguments.__getitem__, result)
            return result

        return traced


def install(tracer: Tracer) -> dict:
    """Wrap the package's public functions and CLI callbacks; return the originals."""
    pkg = importlib.import_module("logergodic")
    cli = importlib.import_module("logergodic.cli")
    wrappers = {}
    originals = {}
    for short in MODULES:
        mod = importlib.import_module(f"logergodic.{short}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrappers[obj] = tracer.wrap(f"{short}.{name}", obj)
                originals[f"{short}.{name}"] = obj
    for modname, mod in list(sys.modules.items()):
        if modname != pkg.__name__ and not modname.startswith(pkg.__name__ + "."):
            continue
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
            elif isinstance(obj, list):
                obj[:] = [wrappers.get(x, x) if isinstance(x, types.FunctionType) else x
                          for x in obj]
    for cmd_name, cmd in cli.main.commands.items():
        cmd.callback = tracer.wrap(f"cli.{cmd_name}", cmd.callback)
    return originals


def invoke_cli(cli_args: list[str]) -> tuple[int, float]:
    """Run the CLI in this process; return (exit code, wall seconds)."""
    from logergodic.cli import main

    start = time.perf_counter()
    try:
        main.main(args=cli_args, prog_name="logergodic", standalone_mode=True)
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - start


def _median_time(fn, reps: int):
    times = []
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def scaling_probe(seed: int, originals: dict) -> dict:
    """Time the trading stages on seed-generated Z paths of growing n and fit
    the log-log slope of time against n."""
    from logergodic.stochastic import GbmParams, TimeGrid, path_seed

    simulate = originals["stochastic.simulate_wiener"]
    make_z = originals["ergodic.construct_z_gbm"]
    detect = originals["trading.detect_recurrences"]
    build = originals["trading.build_excursions"]
    subgrid = originals["trading.subgrid_crossing_probability"]
    params = GbmParams(mu=0.1, sigma=0.2, s0=100.0)
    rows = []
    for n in PROBE_SIZES:
        z = make_z(params, simulate(TimeGrid(T=1.0, dt=1.0 / n), path_seed(seed, n)), beta=2.0)
        reps = max(1, 10**5 // n)
        t_detect, rec = _median_time(lambda: detect(z), reps)
        t_build, exc = _median_time(lambda: build(z, rec), reps)
        t_sub, _ = _median_time(lambda: subgrid(z), reps)
        rows.append({"n": n, "recurrences": len(rec.taus), "excursions": len(exc),
                     "detect_recurrences": t_detect, "build_excursions": t_build,
                     "subgrid_crossing_probability": t_sub})
    out = {"sizes": rows}
    logn = [math.log(r["n"]) for r in rows]
    mean_x = statistics.fmean(logn)
    sxx = sum((x - mean_x) ** 2 for x in logn)
    for fn in PROBE_FUNCTIONS:
        logt = [math.log(r[fn]) for r in rows]
        mean_y = statistics.fmean(logt)
        out[fn] = sum((x - mean_x) * (y - mean_y) for x, y in zip(logn, logt)) / sxx
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True)
    ap.add_argument("--probe-seed", type=int, required=True)
    ap.add_argument("--tour", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    importlib.import_module("logergodic.validation")  # imported lazily by `validate`
    tracer = Tracer()
    originals = install(tracer)
    code, wall = invoke_cli(cli_args)
    sys.stdout.flush()
    probe = scaling_probe(opts.probe_seed, originals)

    first = len(tracer.spans)
    tour = []
    for args in json.loads(open(opts.tour).read()):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            step_code, _ = invoke_cli(args)
        tour.append({"exit_code": step_code, "stdout": out.getvalue()})
    # the tour starts with an empty span stack: rebase its parents to its own list
    tour_spans = [[n, s, e, p - first if p >= 0 else -1, c] for n, s, e, p, c in
                  tracer.spans[first:]]
    with open(opts.spans, "w") as fh:
        json.dump({"exit_code": code, "wall_s": wall, "spans": tracer.spans[:first],
                   "probe": probe, "tour": tour, "tour_spans": tour_spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
