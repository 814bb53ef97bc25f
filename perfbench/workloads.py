"""The four benchmark workloads: seeded inputs, CLI arguments and output checks.

Each workload turns a benchmark seed into the inputs of one `logergodic`
invocation, states how much work that invocation does, and checks the
artefacts it wrote.  Inputs are generated here, so the program under test
receives nothing but the generated files and flags.

The layer tour is a set of small seeded invocations that a traced run makes
after its workload, so that every layer is measured on every workload: a
per-layer metric the workload never reaches is read from the tour instead.

This module is imported by the benchmark process and must not import NumPy
there: a child's peak RSS (os.wait4) never reads below the peak RSS of the
process that started it, so the benchmark keeps its own peak small.  The
trade input is generated with NumPy in a child process:

    python3 workloads.py SEED PATH [STEPS]
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# CLI defaults the generated trade input follows
_MU, _SIGMA, _S0 = 0.1, 0.2, 100.0
TRADE_STEPS = 10**6
_CHUNK_ROWS = 50_000
SIM_PATHS = 100
SIM_DT = 1e-4
SIM_STEPS = round(1.0 / SIM_DT)
PRICE_POINTS = 27
# criterion 10's tolerance, reused for the price sweep
PRICE_REL_GAP_TOL = 1e-2
TOUR_TRADE_STEPS = 10**4


@dataclass(frozen=True)
class Inputs:
    args: list[str]  # CLI arguments after the global --out option
    work: float  # units of work one invocation does
    meta: dict  # what was generated, for the result file


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    detail: str
    extra: dict  # measured values a check reads off the outputs


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    work_unit: str
    make_inputs: Callable[[int, Path], Inputs]
    check: Callable[[Path, str, int], CheckResult]


def _gbm_price_csv(seed: int, path: Path, n: int = TRADE_STEPS) -> None:
    """GBM path S = s0 exp(q t + sigma W) on T = 1, dt = 1/n, as a t,value CSV."""
    import numpy as np

    step = 1.0 / n
    q = _MU - 0.5 * _SIGMA**2
    rng = np.random.default_rng(seed)
    w_last = 0.0
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for k0 in range(0, n + 1, _CHUNK_ROWS):
            k1 = min(k0 + _CHUNK_ROWS, n + 1)
            t = np.arange(k0, k1) * step  # as np.linspace(0, 1, n + 1)
            if k1 == n + 1:
                t[-1] = 1.0
            dw = rng.normal(0.0, math.sqrt(step), k1 - k0 - (k0 == 0))
            w = np.cumsum(np.concatenate(([w_last], dw)))
            w = w if k0 == 0 else w[1:]
            w_last = float(w[-1])
            s = _S0 * np.exp(q * t + _SIGMA * w)
            fh.write("".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), s.tolist())))


def _write_gbm_price_csv(seed: int, path: Path, n: int) -> None:
    subprocess.run([sys.executable, __file__, str(seed), str(path), str(n)], check=True,
                   timeout=120)


def _trade_inputs(seed: int, workdir: Path) -> Inputs:
    path = workdir / "price_path.csv"
    _write_gbm_price_csv(seed, path, TRADE_STEPS)
    meta = {"input": path.name, "n": TRADE_STEPS, "dt": 1.0 / TRADE_STEPS, "mu": _MU,
            "sigma": _SIGMA, "s0": _S0}
    return Inputs(args=["trade", "--input", str(path)], work=float(TRADE_STEPS), meta=meta)


def _strata(rng: random.Random, lo: float, hi: float, k: int, digits: int) -> list[float]:
    """One uniform draw in each of k equal strata of [lo, hi], rounded."""
    width = (hi - lo) / k
    return [round(rng.uniform(lo + i * width, lo + (i + 1) * width), digits) for i in range(k)]


def _price_inputs(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    # tau stops at 0.9: from 0.95 the amplitude overflows and aborts the run
    taus = _strata(rng, 0.1, 0.9, 3, 4)
    zs = _strata(rng, 0.02, 0.1, 3, 4)
    xs = _strata(rng, 40.0, 160.0, 3, 2)
    args = ["price", "--taus", ",".join(map(repr, taus)), "--zs", ",".join(map(repr, zs)),
            "--xs", ",".join(map(repr, xs))]
    return Inputs(args=args, work=float(PRICE_POINTS), meta={"taus": taus, "zs": zs, "xs": xs})


def _simulate_inputs(seed: int, workdir: Path) -> Inputs:
    args = ["--seed", str(seed), "simulate", "--n-paths", str(SIM_PATHS), "--dt", repr(SIM_DT)]
    return Inputs(args=args, work=float(SIM_PATHS * SIM_STEPS),
                  meta={"master_seed": seed, "n_paths": SIM_PATHS, "dt": SIM_DT})


def _validate_inputs(seed: int, workdir: Path) -> Inputs:
    # the criteria fix their own seeds; the workload seed is unused
    return Inputs(args=["validate"], work=12.0, meta={"seed_used": False})


def _read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_trade(out: Path, stdout: str, exit_code: int) -> CheckResult:
    if exit_code:
        return CheckResult(False, f"exit code {exit_code}", {})
    summary = json.loads((out / "summary.json").read_text())
    signals = _read_table(out / "signals.csv")
    bounds = _read_table(out / "bound_report.csv")
    problems = []
    if summary["n_excursions"] != len(signals):
        problems.append(f"n_excursions {summary['n_excursions']} != {len(signals)} signal rows")
    if any(r["contained"] != "1" for r in bounds):
        problems.append("a bound-report row is not contained")
    return CheckResult(not problems, "; ".join(problems) or
                       f"{len(signals)} excursions, all contained",
                       {"excursions": len(signals)})


def _check_price(out: Path, stdout: str, exit_code: int,
                 points: int = PRICE_POINTS) -> CheckResult:
    if exit_code:
        return CheckResult(False, f"exit code {exit_code}", {})
    rows = _read_table(out / "pricing_sweep.csv")
    problems = []
    if len(rows) != points:
        problems.append(f"{len(rows)} rows, expected {points}")
    errors = [r["error"] for r in rows if r["error"]]
    if errors:
        problems.append(f"{len(errors)} row error(s), first: {errors[0]}")
    gaps = [float(r["rel_gap"]) for r in rows if r["rel_gap"] != ""]
    if len(gaps) != len(rows) or not all(g <= PRICE_REL_GAP_TOL for g in gaps):
        problems.append(f"rel_gap missing or above {PRICE_REL_GAP_TOL}")
    worst = max(gaps) if gaps else math.nan
    return CheckResult(not problems, "; ".join(problems) or f"max rel_gap {worst:.3e}",
                       {"max_rel_gap": worst})


def _check_simulate(out: Path, stdout: str, exit_code: int) -> CheckResult:
    if exit_code:
        return CheckResult(False, f"exit code {exit_code}", {})
    files = sorted(p for p in out.iterdir() if p.is_file())
    problems = []
    if len(files) != SIM_PATHS + 2:
        problems.append(f"{len(files)} files, expected {SIM_PATHS + 2}")
    for p in files:
        if not p.name.startswith("path_"):
            continue
        lines = p.read_text().splitlines()
        if len(lines) != SIM_STEPS + 2:
            problems.append(f"{p.name}: {len(lines)} lines, expected {SIM_STEPS + 2}")
            break
        if min(float(ln.rsplit(",", 1)[1]) for ln in lines[1:]) <= 0:
            problems.append(f"{p.name}: non-positive price")
            break
    return CheckResult(not problems, "; ".join(problems) or f"{len(files)} files well-formed", {})


def _check_validate(out: Path, stdout: str, exit_code: int) -> CheckResult:
    ok = exit_code == 0 and "12/12 criteria passed" in stdout
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    return CheckResult(ok, f"exit code {exit_code}, {last!r}", {})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trade-fine", "trade", "grid steps", _trade_inputs, _check_trade),
        Workload("price-sweep", "price", "priced points", _price_inputs, _check_price),
        Workload("simulate-ensemble", "simulate", "path-steps", _simulate_inputs,
                 _check_simulate),
        Workload("validate", "validate", "criteria", _validate_inputs, _check_validate),
    )
}


@dataclass(frozen=True)
class TourStep:
    subcommand: str
    args: list[str]  # CLI arguments after the global --out option
    check: Callable[[Path, str, int], CheckResult]


def layer_tour(seed: int, workdir: Path, skip: str) -> list[TourStep]:
    """Small seeded invocations of `trade --input`, `price` and `validate`,
    less the workload's own subcommand `skip`.  With the workload they reach
    every per-layer metric: `validate` calls simulate, trade and rotate too."""
    steps = []
    if skip != "trade":
        path = workdir / "tour_price_path.csv"
        _write_gbm_price_csv(seed, path, TOUR_TRADE_STEPS)
        steps.append(TourStep("trade", ["trade", "--input", str(path)], _check_trade))
    if skip != "price":
        rng = random.Random(seed)
        point = [repr(_strata(rng, lo, hi, 1, digits)[0])
                 for lo, hi, digits in ((0.1, 0.9, 4), (0.02, 0.1, 4), (40.0, 160.0, 2))]
        steps.append(TourStep("price", ["price", "--taus", point[0], "--zs", point[1],
                                        "--xs", point[2]],
                              lambda out, stdout, code: _check_price(out, stdout, code, 1)))
    if skip != "validate":
        steps.append(TourStep("validate", ["validate"], _check_validate))
    return steps


def artefact_digest(out: Path) -> str:
    """SHA-256 over every output file except manifest.json, which names paths."""
    h = hashlib.sha256()
    if not out.is_dir():
        return h.hexdigest()
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            h.update(str(p.relative_to(out)).encode() + b"\0")
            with open(p, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


if __name__ == "__main__":
    _gbm_price_csv(int(sys.argv[1]), Path(sys.argv[2]), *map(int, sys.argv[3:4]))
