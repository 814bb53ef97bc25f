"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
  * every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+, and every
    declared per-layer metric has a value function in layers.py;
  * the last line of every run is a JSON object with exactly the keys
    correct, attempted, failed and metrics, and each metric is exactly
    {"value", "unit"}, a positive finite number in its declared unit;
  * an untraced run of each workload reports every end-to-end metric with
    failed = 0, and its peak_rss_mb lies above the benchmark's own peak RSS
    (which floors a child's ru_maxrss);
  * a traced run of each workload reports every per-layer metric, and reads
    from the layer tour exactly those the workload does not reach: the layers
    the workload is meant to bypass are among them, the probes are not; its
    artefact digest equals the untraced run's for the same seed;
  * in a directory that holds only BENCHMARK.json and the benchmark, the
    benchmark exits nonzero without printing a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import PER_LAYER
from run import DECLARED, RESULTS, WORK
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 7

# layers each workload must not reach, so their metrics come from the layer
# tour; the probes and trace_overhead_frac are always the workload's own
BYPASSED = {
    "trade-fine": ("pricing.", "rotation.", "validation.", "cli.price.", "cli.simulate."),
    "price-sweep": ("trading.", "rotation.", "stochastic.", "validation.", "cli.trade."),
    "simulate-ensemble": ("trading.", "pricing.", "rotation.", "validation.", "cli.trade."),
    "validate": ("stochastic.read_path_csv.", "cli.price."),
}
ALWAYS_MEASURED = ("scaling_exp", "import.", "trace_overhead_frac")


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-800:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    kind = "per_layer" if trace else "end_to_end"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload} trace={trace}: result keys {sorted(res)}")
    if list(res["metrics"]) != [m["name"] for m in DECLARED[kind]]:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json {kind}")
    for m, (name, got) in zip(DECLARED[kind], res["metrics"].items()):
        v = got.get("value")
        if sorted(got) != ["unit", "value"] or got["unit"] != m["unit"]:
            fail(f"{workload}: {name} is {got}, expected value and unit {m['unit']!r}")
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            fail(f"{workload}: {name} = {v!r} is not a positive finite number")
    return res


def check_declaration() -> None:
    names = [x["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for x in DECLARED[kind]]
    for name in names:
        if not NAME_RE.fullmatch(name):
            fail(f"metric or workload name {name!r} does not match {NAME_RE.pattern}")
    if [w["name"] for w in DECLARED["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"] for m in DECLARED["per_layer"]} != set(PER_LAYER):
        fail("BENCHMARK.json per_layer names differ from layers.PER_LAYER")
    print(f"ok: BENCHMARK.json declares {len(names)} well-formed names")


def check_untraced(workload: str) -> None:
    res = run_bench(workload, 0)
    if not res["correct"] or res["failed"]:
        fail(f"{workload}: untraced run not correct ({res['failed']}/{res['attempted']} failed)")
    record = json.loads((RESULTS / f"{workload}-seed{SEED}-trace0.json").read_text())
    if record["runner_peak_rss_mb"] >= res["metrics"]["peak_rss_mb"]["value"]:
        fail(f"{workload}: peak_rss_mb is floored by the benchmark's own peak RSS")
    print(f"ok: {workload} untraced, {res['attempted']} runs, failed_frac 0")


def check_traced(workload: str) -> None:
    res = run_bench(workload, 1)
    record = json.loads((RESULTS / f"{workload}-seed{SEED}-trace1.json").read_text())
    if not res["correct"] or res["failed"]:
        fail(f"{workload}: traced run not correct: {record['traced']['detail']}")
    if not record["traced"]["digest_matches_untraced"]:
        fail(f"{workload}: traced artefact digest differs from the untraced run")
    from_tour = set(record["from_tour"])
    for name in res["metrics"]:
        if any(a in name for a in ALWAYS_MEASURED):
            if name in from_tour:
                fail(f"{workload}: {name} must be measured on the workload itself")
        elif name.startswith(BYPASSED[workload]) and name not in from_tour:
            fail(f"{workload}: {name} was reached, but the workload should bypass it")
    print(f"ok: {workload} traced, {len(res['metrics']) - len(from_tour)} metrics from the "
          f"workload, {len(from_tour)} from the layer tour, digests match")


def check_bare_directory() -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=WORK, prefix="bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(HERE.name) / "run.py"), "--workload", "validate",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"ok: bare directory exits {proc.returncode} without a result")


def main() -> int:
    check_declaration()
    check_bare_directory()
    for workload in WORKLOADS:
        check_untraced(workload)
        check_traced(workload)
    print("all benchmark self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
