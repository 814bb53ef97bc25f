"""Acceptance checks for the toolkit, runnable from the CLI or the test suite.

Each criterion is a zero-argument callable returning a CriterionResult; the
registry preserves the criterion numbering used in reports.  Everything runs
at desk scale (well under a minute per criterion) with fixed seeds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ergodic, pricing, rotation, stochastic, trading
from .ergodic import EmoConfig, apply_emo, apply_iemo, construct_z_gbm
from .stochastic import GbmParams, PathKind, SamplePath, TimeGrid, path_seed, simulate_wiener

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

# frozen oracle value for the rotation price fixture
# (40-digit evaluation of exp(-0.05) * (ln 0.5 - 50))
_ROTATION_PRICE_FIXTURE = -48.22081321869403


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    description: str
    passed: bool
    detail: str


def _result(cid: int, description: str, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(cid=cid, description=description, passed=bool(passed), detail=detail)


def _random_decomposition(rng: np.random.Generator, grid: TimeGrid) -> ergodic.DecomposedPath:
    d = np.concatenate(([0.0], np.cumsum(rng.normal(0, 0.1, grid.n))))
    r = np.concatenate(([0.0], np.cumsum(rng.normal(0, 0.1, grid.n))))
    return ergodic.DecomposedPath(grid=grid, y0=float(rng.normal(0, 2)), drift_part=d, mart_part=r)


def criterion_1() -> CriterionResult:
    """Transform/inverse round trip on 200 random decomposed paths."""
    rng = np.random.default_rng(101)
    grid = TimeGrid(T=1.0, dt=0.01)
    worst = 0.0
    for _ in range(200):
        dec = _random_decomposition(rng, grid)
        wt = float(rng.normal(0, 1))
        if abs(wt) < 1e-3:
            wt = 0.5
        cfg = EmoConfig(beta=float(rng.uniform(1.6, 3.0)), T=grid.T, wT=wt)
        back = apply_iemo(apply_emo(dec, cfg), dec.y0, cfg)
        worst = max(worst, float(np.max(np.abs(back.reconstruct() - dec.reconstruct()))))
    return _result(1, "transform/inverse round trip (200 paths)", worst <= 1e-10,
                   f"max abs reconstruction error {worst:.3e} (tol 1e-10)")


def criterion_2() -> CriterionResult:
    """Shifting the initial value leaves Z bit-identical."""
    rng = np.random.default_rng(102)
    grid = TimeGrid(T=1.0, dt=0.01)
    dec = _random_decomposition(rng, grid)
    cfg = EmoConfig(beta=2.0, T=1.0, wT=0.7)
    z1 = apply_emo(dec, cfg).reconstruct()
    shifted = dataclasses.replace(dec, y0=dec.y0 + 123.456)
    z2 = apply_emo(shifted, cfg).reconstruct()
    same = np.array_equal(z1, z2)
    return _result(2, "initial-value annihilation (bitwise)", same,
                   "Z arrays bit-identical under y0 shift" if same else "Z changed under y0 shift")


def criterion_3() -> CriterionResult:
    """>= 99% of 1000 GBM-derived Z paths revert to 0 inside (0, T).

    A path counts when the sampled values show an interior return directly,
    or when the pinned-bridge law says the continuous path behind the samples
    more likely than not touched 0 inside a same-sign step (grid sampling
    misses returns that happen and reverse within one step).
    """
    params = GbmParams(mu=0.1, sigma=0.2, s0=100.0)
    beta = 2.0
    grid = TimeGrid(T=1.0, dt=1e-4)
    n_paths = 1000
    hits = 0
    hits_grid = 0
    for i in range(n_paths):
        w = simulate_wiener(grid, path_seed(3003, i))
        z = construct_z_gbm(params, w, beta=beta)
        taus = trading.detect_recurrences(z).taus
        on_grid = bool(np.any((taus > 0) & (taus < grid.T)))
        if on_grid:
            hits_grid += 1
        if on_grid or trading.subgrid_crossing_probability(z) >= 0.5:
            hits += 1
    frac = hits / n_paths
    return _result(3, "mean reversion inside (0, T) for >= 99% of paths", frac >= 0.99,
                   f"fraction with interior recurrence {frac:.4f} (need >= 0.99; "
                   f"on-grid fraction {hits_grid / n_paths:.4f})")


def criterion_4() -> CriterionResult:
    """Windowed ensemble variance (``ergodicity_diagnostic``) of Z at horizon 100 small
    and below that of Y = ln S; Z's factor 1 / T^beta = 1e-4 scales it by 1e-8."""
    params = GbmParams(mu=0.1, sigma=0.2, s0=100.0)
    grid = TimeGrid(T=100.0, dt=0.1)
    n_paths = 1000
    zs, ys = [], []
    for i in range(n_paths):
        w = simulate_wiener(grid, path_seed(4004, i))
        zs.append(construct_z_gbm(params, w, beta=2.0))
        ys.append(stochastic.log_path(stochastic.simulate_gbm(params, w)))
    dz = ergodic.ergodicity_diagnostic(zs, [100.0])[0]
    dy = ergodic.ergodicity_diagnostic(ys, [100.0])[0]
    ok = abs(dz) <= 1e-3 and abs(dz) < abs(dy)
    return _result(4, "ergodicity diagnostic: |<Z>(100)| <= 1e-3 and < raw-Y diagnostic", ok,
                   f"|<Z>(100)| = {abs(dz):.3e}, raw-Y diagnostic = {abs(dy):.3e}")


def criterion_5() -> CriterionResult:
    """Sine-path fixture: recurrences, sojourns, exit times, and exact profit."""
    dt = 1e-3
    grid = TimeGrid(T=1.0, dt=dt)
    t = grid.times()
    z = SamplePath(grid=grid, values=np.sin(2 * np.pi * t), kind=PathKind.ZPROCESS)
    rec = trading.detect_recurrences(z, eps=0.0)
    exc = trading.build_excursions(z, rec)
    checks = []
    taus = rec.taus
    checks.append(len(taus) == 3 and all(
        abs(a - b) <= dt + 1e-12 for a, b in zip(taus, (0.0, 0.5, 1.0))))
    stats = trading.sojourn_stats(exc)
    mean_above, mean_below = stats["mean_sojourn_above"], stats["mean_sojourn_below"]
    checks.append(abs(mean_above - 0.5) <= dt and abs(mean_below - 0.5) <= dt)
    oets = np.sort(exc.tM)
    checks.append(len(oets) == 2 and abs(oets[0] - 0.25) <= dt and abs(oets[1] - 0.75) <= dt)

    price = SamplePath(grid=grid, values=100.0 * np.exp(z.values), kind=PathKind.PRICE)
    entry_prices, exit_prices = trading.build_ledger(z, price, exc)
    profit = trading.trade_profit(exc, entry_prices, exit_prices, l=2.0, s=1.5)
    brute = 0.0
    for above, en, ex in zip(exc.above, entry_prices, exit_prices):
        brute += (1.5 if above else 2.0) * abs(en - ex)
    checks.append(profit == brute)
    return _result(5, "sine-path trading fixture", all(checks),
                   f"taus={np.round(taus, 4).tolist()}, sojourns=({mean_above:.3f}, "
                   f"{mean_below:.3f}), OETs={np.round(oets, 4).tolist()}, "
                   f"profit={profit:.6f} vs brute {brute:.6f}")


def criterion_6() -> CriterionResult:
    """Equidistribution of the sqrt(2) rotation on [0.2, 0.5)."""
    freq = rotation.equidistribution_test(rotation.SQRT2, 0.2, 0.5, x0=0.0, n=1_000_000)
    err = abs(freq - 0.3)
    return _result(6, "equidistribution: |freq - 0.3| <= 0.005 at n=1e6", err <= 0.005,
                   f"frequency {freq:.6f}, error {err:.2e}")


def criterion_7() -> CriterionResult:
    """Mean return times within 2% of 1/p for arc lengths 0.1, 0.25, 0.5."""
    details = []
    ok = True
    for p in (0.1, 0.25, 0.5):
        mean = rotation.kac_return_time(
            rotation.GOLDEN_CONJUGATE, (0.0, p), x0=0.0, n_returns=100_000)
        rel = abs(mean - 1.0 / p) * p
        ok = ok and rel <= 0.02
        details.append(f"p={p}: mean {mean:.4f} (target {1 / p:g}, rel err {rel:.2%})")
    return _result(7, "mean return time within 2% of 1/p", ok, "; ".join(details))


def criterion_8() -> CriterionResult:
    """Orbit averages of trig polynomials converge to their constant term."""
    phi = rotation.TrigPolynomial(c0=0.37, cos_coeffs=(0.9, -0.4), sin_coeffs=(0.3, 0.0, 1.1))
    avg = rotation.birkhoff_average(phi, x=0.1, theta=rotation.SQRT2, n=1_000_000)
    phi_sin = rotation.TrigPolynomial(c0=0.0, sin_coeffs=(1.0,))
    avg_sin = rotation.birkhoff_average(phi_sin, x=0.0, theta=rotation.SQRT2, n=1_000_000)
    ok = abs(avg - 0.37) <= 1e-3 and abs(avg_sin) <= 1e-3
    return _result(8, "orbit averages: trig polynomial -> 0.37, sine -> 0 (tol 1e-3)", ok,
                   f"avg {avg:.6f} (err {abs(avg - 0.37):.2e}), sine avg {avg_sin:.2e}")


def criterion_9() -> CriterionResult:
    """Heat solvers: Gaussian semigroup to 1e-4 and FD/convolution agreement to 1e-3."""
    eta, tau = 0.8, 0.4
    s2 = 0.5**2
    y = np.linspace(-12.0, 12.0, 1601)
    f = np.exp(-(y**2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)
    hp = pricing.HeatProblem(eta=eta, grid_y=y, initial=f, tau_end=tau)
    u_conv = pricing.solve_heat_convolution(hp)
    var_out = s2 + eta * tau
    exact = np.exp(-(y**2) / (2 * var_out)) / math.sqrt(2 * math.pi * var_out)
    semigroup_err = float(np.max(np.abs(u_conv - exact)))

    u_fd = pricing.solve_heat_fd(hp, dt=tau / 400)
    interior = slice(40, -40)
    agree = float(np.max(np.abs(u_fd[interior] - u_conv[interior])) / np.max(np.abs(u_conv)))
    ok = semigroup_err <= 1e-4 and agree <= 1e-3
    return _result(9, "heat solvers: semigroup 1e-4, cross-solver 1e-3", ok,
                   f"semigroup max abs err {semigroup_err:.2e}, FD-vs-conv rel {agree:.2e}")


def criterion_10() -> CriterionResult:
    """Closed form vs numerical PDE route on a 3x3x3 grid, plus coefficient identities."""
    worst_rel = 0.0
    worst_id = 0.0
    K = math.e**math.e
    for tau in (0.25, 0.5, 0.75):
        for z in (0.03, 0.05, 0.08):
            for X in (50.0, 100.0, 150.0):
                inputs = pricing.PricingInputs(
                    r=0.05, K=K, T=1.0, beta=2.0, mu=0.1, sigma=0.2, tau=tau, z=z, wT=0.3, X=X)
                c = pricing.derive_coefficients(inputs)
                tb = inputs.T**inputs.beta
                id1 = abs(c.lam * inputs.r * abs(z) - tb * c.B**2)
                id2 = abs(c.p * c.lam - c.B**2 * inputs.T ** (2 * inputs.beta) * tau)
                worst_id = max(worst_id, id1, id2)
                closed = pricing.price_ergodic_bs(inputs).price
                pde = pricing.price_via_pde(inputs).price
                worst_rel = max(worst_rel, abs(pde - closed) / abs(closed))
    ok = worst_rel <= 1e-2 and worst_id <= 1e-12
    return _result(10, "closed form vs PDE within 1e-2; coefficient identities to 1e-12", ok,
                   f"worst relative gap {worst_rel:.3e}, worst identity residual {worst_id:.3e}")


def criterion_11() -> CriterionResult:
    """Rotation price fixture and the wT = 0 reduction."""
    cfg = EmoConfig(beta=2.0, T=1.0, wT=1.0)
    got = pricing.price_rotation_call(cfg, 0.05, 50.0, 100.0, 1.0).price
    err = abs(got - _ROTATION_PRICE_FIXTURE)
    zero_wt = dataclasses.replace(cfg, wT=0.0)
    got0 = pricing.price_rotation_call(zero_wt, 0.05, 50.0, 100.0, 1.0).price
    expect0 = -math.exp(-0.05 * 1.0) * 50.0
    ok = err <= 1e-3 and got0 == expect0
    return _result(11, "rotation price fixture -48.221 +- 1e-3; wT=0 reduction exact", ok,
                   f"price {got:.6f} (err {err:.2e}); wT=0 price {got0!r} vs {expect0!r}")


def criterion_12() -> CriterionResult:
    """CLI emits structurally valid figure data (runs the commands in a temp dir)."""
    import csv
    import tempfile
    from pathlib import Path

    from click.testing import CliRunner

    from .cli import main

    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        r1 = runner.invoke(main, ["--seed", "7", "--out", str(out / "sim"), "simulate",
                                  "--n-paths", "3"])
        r2 = runner.invoke(main, ["--seed", "7", "--out", str(out / "trade"), "trade"])
        r3 = runner.invoke(main, ["--seed", "7", "--out", str(out / "rot"), "rotate",
                                  "--n", "10000"])
        if r1.exit_code or r2.exit_code or r3.exit_code:
            return _result(12, "CLI figure data structurally valid", False,
                           f"exit codes: simulate={r1.exit_code} trade={r2.exit_code} "
                           f"rotate={r3.exit_code}")
        problems = []

        fig2_rows = None
        for fig, cols in ((out / "trade" / "fig2_zprocess.csv", {"t", "z", "recurrence"}),
                          (out / "rot" / "fig3_circle.csv",
                           {"t", "price", "theta", "circle_x", "circle_y"}),
                          (out / "trade" / "fig1_price.csv", {"t", "price"})):
            with open(fig) as fh:
                rows = list(csv.DictReader(fh))
            if not rows or not cols <= set(rows[0]):
                problems.append(f"{fig.name}: missing columns")
            elif fig.name == "fig2_zprocess.csv":
                fig2_rows = rows

        if fig2_rows:
            zvals = np.array([float(r["z"]) for r in fig2_rows])
            marks = np.array([r["recurrence"] == "1" for r in fig2_rows])
            if not marks.any():
                problems.append("fig2_zprocess.csv: no recurrence markers")
            elif np.max(np.abs(zvals[marks])) > 1e-6 * max(1.0, np.max(np.abs(zvals))):
                problems.append("fig2_zprocess.csv: marked rows not near the reference level")
            if not (zvals.max() > 0 > zvals.min()):
                problems.append("fig2_zprocess.csv: Z does not oscillate about 0")

        ok = not problems
        return _result(12, "CLI figure data structurally valid", ok,
                       "; ".join(problems) if problems else "fig1/fig2/fig3 data well-formed")


CRITERIA: list[Callable[[], CriterionResult]] = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6,
    criterion_7, criterion_8, criterion_9, criterion_10, criterion_11, criterion_12,
]


def run_all() -> list[CriterionResult]:
    return [c() for c in CRITERIA]
