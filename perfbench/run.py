"""Benchmark of the logergodic command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload is one closed-loop client: one `logergodic` process at a time,
started afresh for every invocation, on inputs generated from --seed before
timing starts.  Every invocation writes into a fresh output directory that
is checked, hashed and removed.

--trace 0 reports the end-to-end metrics, medians over the invocations made
in --seconds (at least three):
    wall_s       wall time of one invocation, interpreter start included
    cpu_s        user + sys CPU time of the child (os.wait4)
    setup_s      wall time of `<subcommand> --help`, which imports everything
    work_per_s   workload units per second of wall time
    peak_rss_mb  peak resident memory of the child

--trace 1 reports the per-layer metrics of layers.py: the untraced
measurement at its minimum size, then one traced in-process run (tracer.py)
with a scaling probe of the trading stages and the layer tour, and an
import-time probe.  The traced run's artefact digest must equal the untraced
one.  A per-layer metric that the workload never reaches is read from the
layer tour; those metrics are listed in the table and the results file.

Metric names, units and their order are read from BENCHMARK.json.

Every CLI invocation counts as attempted; one that exits nonzero, times out
or fails its output check counts as failed.  The last line of stdout is the
JSON result; a fuller record with the environment block, every sample and
the artefact digests is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

from layers import per_layer_values, span_summary
from workloads import WORKLOADS, CheckResult, Workload, artefact_digest, layer_tour

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
ENTRY = "import sys; from logergodic.cli import main; sys.exit(main(prog_name='logergodic'))"
CHILD_TIMEOUT_S = 60.0
MIN_SAMPLES = 3
SETUP_RUNS = 7
IMPORT_RUNS = 3
IMPORT_NAMES = ("logergodic.cli", "logergodic.pricing", "scipy.linalg", "numpy", "click")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: str
    stderr: str


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    detail: str
    digest: str
    extra: dict = field(default_factory=dict)


def declared_metrics(kind: str, values: dict) -> dict:
    """The metrics of BENCHMARK.json[kind] as {"value", "unit"}, in its order."""
    out = {}
    for m in DECLARED[kind]:
        value = values[m["name"]]
        if value is None:
            raise RuntimeError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], workdir: Path, env: dict) -> Child:
    """Run one process to completion, timing it and reading its rusage."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode,
                 timed_out=timed_out.is_set(),
                 stdout=out_path.read_text(errors="replace"),
                 stderr=err_path.read_text(errors="replace"))


def check_outputs(check, out: Path, stdout: str, exit_code: int) -> CheckResult:
    try:
        return check(out, stdout, exit_code)
    except Exception as e:  # a malformed artefact is a failed run, not a crash
        return CheckResult(False, f"output check raised {type(e).__name__}: {e}", {})


def run_sample(wl: Workload, args: list[str], workdir: Path, env: dict) -> Sample:
    out = Path(tempfile.mkdtemp(dir=workdir, prefix="out-"))
    try:
        child = run_child([sys.executable, "-c", ENTRY, "--out", str(out), *args], workdir, env)
        if child.timed_out:
            return Sample(child.wall_s, child.cpu_s, child.rss_mb, False,
                          f"timed out after {CHILD_TIMEOUT_S} s", "")
        res = check_outputs(wl.check, out, child.stdout, child.exit_code)
        detail = res.detail if res.ok else f"{res.detail}; stderr: {child.stderr[-500:]}"
        return Sample(child.wall_s, child.cpu_s, child.rss_mb, res.ok, detail,
                      artefact_digest(out), res.extra)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure_setup(wl: Workload, workdir: Path, env: dict, runs: int) -> list[Child]:
    argv = [sys.executable, "-c", ENTRY, wl.subcommand, "--help"]
    run_child(argv, workdir, env)  # warm-up: bytecode cache and file cache
    return [run_child(argv, workdir, env) for _ in range(runs)]


def import_probe(workdir: Path, env: dict) -> dict:
    """Median cumulative import time of selected modules, from -X importtime."""
    times: dict[str, list[float]] = {name: [] for name in IMPORT_NAMES}
    for _ in range(IMPORT_RUNS):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import logergodic.cli"],
                          workdir, env)
        seen = set()
        for line in child.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name in times and name not in seen and parts[1].strip().isdigit():
                seen.add(name)
                times[name].append(int(parts[1]) * 1e-6)
    return {f"import.{k}": statistics.median(v) for k, v in times.items() if v}


def environment(workdir: Path, env: dict) -> dict:
    child = run_child([sys.executable, str(HERE / "envinfo.py")], workdir, env)
    if child.exit_code:
        return {"error": child.stderr[-500:]}
    return json.loads(child.stdout)


def _fail_digest_mismatches(samples: list[Sample]) -> None:
    """Fail the runs whose artefacts differ from the seed's most common digest."""
    digests = Counter(s.digest for s in samples if s.ok)
    if len(digests) <= 1:
        return
    common, _ = digests.most_common(1)[0]
    for s in samples:
        if s.ok and s.digest != common:
            s.ok = False
            s.detail = f"artefact digest {s.digest[:12]} differs from {common[:12]}"


def run_untraced(wl: Workload, inputs, seconds: float, workdir: Path, env: dict) -> dict:
    setup = measure_setup(wl, workdir, env, SETUP_RUNS)
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        samples.append(run_sample(wl, inputs.args, workdir, env))
        elapsed = time.perf_counter() - start
        if len(samples) >= MIN_SAMPLES and elapsed * (1 + 1 / len(samples)) > seconds:
            break
    _fail_digest_mismatches(samples)
    good = [s for s in samples if s.ok] or samples
    wall = statistics.median(s.wall_s for s in good)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(s.cpu_s for s in good),
        "setup_s": statistics.median(c.wall_s for c in setup),
        "work_per_s": inputs.work / wall,
        "peak_rss_mb": statistics.median(s.rss_mb for s in good),
    }
    failed = sum(not s.ok for s in samples) + sum(c.exit_code != 0 for c in setup)
    return {
        "metrics": declared_metrics("end_to_end", metrics),
        "samples_used": len(good),
        "setup_runs": len(setup),
        "attempted": len(samples) + len(setup),
        "failed": failed,
        "samples": [asdict(s) for s in samples],
        "digests": sorted({s.digest for s in samples if s.digest}),
    }


def run_traced(wl: Workload, inputs, seed: int, workdir: Path, env: dict) -> dict:
    base = run_untraced(wl, inputs, 0.0, workdir, env)
    base_digest = base["digests"][0] if len(base["digests"]) == 1 else ""

    tour = layer_tour(seed, workdir, wl.subcommand)
    outs = [Path(tempfile.mkdtemp(dir=workdir, prefix=p)) for p in
            ["traced-", *(f"tour-{step.subcommand}-" for step in tour)]]
    tour_path, spans_path = workdir / "tour.json", workdir / "spans.json"
    tour_path.write_text(json.dumps([["--out", str(o), *step.args]
                                     for o, step in zip(outs[1:], tour)]))
    try:
        child = run_child([sys.executable, str(HERE / "tracer.py"), "--spans", str(spans_path),
                           "--probe-seed", str(seed), "--tour", str(tour_path),
                           "--", "--out", str(outs[0]), *inputs.args], workdir, env)
        if child.exit_code:
            raise RuntimeError(f"tracer failed: {child.stderr[-2000:]}")
        trace = json.loads(spans_path.read_text())
        res = check_outputs(wl.check, outs[0], child.stdout, trace["exit_code"])
        tour_res = [check_outputs(step.check, o, r["stdout"], r["exit_code"])
                    for step, o, r in zip(tour, outs[1:], trace["tour"])]
        digest = artefact_digest(outs[0])
        sizes = [[p.stat().st_size for p in o.rglob("*") if p.is_file()] for o in outs]
    finally:
        for o in outs:
            shutil.rmtree(o, ignore_errors=True)

    ok, detail = res.ok, res.detail
    digest_match = bool(base_digest) and digest == base_digest
    if ok and not digest_match:
        ok, detail = False, "traced artefact digest differs from the untraced runs"
    untraced = {k: m["value"] for k, m in base["metrics"].items()}
    # traced over untraced work time: 1 would mean tracing costs nothing
    work_s = untraced["wall_s"] - untraced["setup_s"]
    extra = {
        "max_rel_gap": res.extra.get("max_rel_gap"),
        "files_written": len(sizes[0]) or None,
        "bytes_written": sum(sizes[0]) or None,
        "trace_overhead_frac": trace["wall_s"] / work_s,
        **{f"scaling.{fn}": trace["probe"][fn]
           for fn in ("detect_recurrences", "build_excursions", "subgrid_crossing_probability")},
        **import_probe(workdir, env),
    }
    tour_sizes = [n for s in sizes[1:] for n in s]
    tour_extra = {
        "max_rel_gap": next((r.extra["max_rel_gap"] for r in tour_res
                             if "max_rel_gap" in r.extra), None),
        "files_written": len(tour_sizes) or None,
        "bytes_written": sum(tour_sizes) or None,
    }
    values, from_tour = per_layer_values(trace["spans"], extra, trace["tour_spans"], tour_extra)
    return {
        "metrics": declared_metrics("per_layer", values),
        "from_tour": from_tour,
        "attempted": base["attempted"] + 1 + len(tour),
        "failed": base["failed"] + (not ok) + sum(not r.ok for r in tour_res),
        "untraced": {k: v for k, v in base.items() if k != "digests"},
        "traced": {"ok": ok, "detail": detail, "digest": digest,
                   "digest_matches_untraced": digest_match, "wall_s": trace["wall_s"]},
        "tour": [{"args": step.args, "ok": r.ok, "detail": r.detail}
                 for step, r in zip(tour, tour_res)],
        "digests": sorted({d for d in (*base["digests"], digest) if d}),
        "spans": span_summary(trace["spans"]),
        "tour_spans": span_summary(trace["tour_spans"]),
        "probe": trace["probe"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{name}-"))
    try:
        env = child_env()
        inputs = wl.make_inputs(seed, workdir)
        info = environment(workdir, env)
        if trace:
            body = run_traced(wl, inputs, seed, workdir, env)
        else:
            body = run_untraced(wl, inputs, seconds, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    # a child's ru_maxrss never reads below this: see workloads._gbm_price_csv
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "work_unit": wl.work_unit, "work_per_invocation": inputs.work,
              "inputs": inputs.meta, "environment": info, "runner_peak_rss_mb": own_rss_mb,
              **body}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def print_report(result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"failed_frac {failed}/{attempted} = {failed / attempted:.3f}")
    n = result.get("samples_used")
    from_tour = set(result.get("from_tour", ()))
    for name, m in result["metrics"].items():
        note = "  (layer tour)" if name in from_tour else ""
        count = f"  median of {result['setup_runs'] if name == 'setup_s' else n}" if n else ""
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']:<8}{count}{note}")
    gaps = [s["extra"]["max_rel_gap"] for s in result.get("samples", [])
            if "max_rel_gap" in s["extra"]]
    if gaps:
        print(f"  {'max_rel_gap':<48} {max(gaps):>16.6g} ratio     (output check)")
    if result["trace"]:
        t = result["traced"]
        print(f"  traced run: {t['detail']}; digest matches untraced: "
              f"{t['digest_matches_untraced']}")
        for step in result["tour"]:
            print(f"  layer tour {' '.join(step['args'][:1])}: {step['detail']}")
    print(f"  artefact sha256: {', '.join(result['digests']) or 'none'}")
    print(f"  benchmark's own peak RSS, a floor under peak_rss_mb: "
          f"{result['runner_peak_rss_mb']:.1f} MB")
    print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")
    if not result["environment"].get("blas_threads_within_nproc", False):
        print("warning: BLAS thread count exceeds nproc or is unknown", file=sys.stderr)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="logergodic CLI benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if not (SRC / "logergodic" / "cli.py").is_file():
        print(f"error: no logergodic sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, opts.seed, opts.seconds, bool(opts.trace))
        print_report(results[name])
    summary = {
        name: {"correct": r["failed"] == 0, "attempted": r["attempted"], "failed": r["failed"],
               "metrics": r["metrics"]}
        for name, r in results.items()
    }
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
