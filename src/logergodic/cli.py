"""Command-line front end: simulation campaigns, trade analysis, rotation
diagnostics, pricing sweeps, and the acceptance suite.

One binary with subcommands (simulate | trade | rotate | price | validate).
Parameters resolve with precedence flags > config file > defaults; every run
writes a manifest echoing the fully resolved configuration, so a run is
reproducible from its manifest alone.  Each subcommand computes everything
before it hands its files to `_emit`, which creates the output directory and
writes them and the manifest, so a run that fails writes nothing.  Exit
codes: 0 success, 1 validation failure, 2 usage/config error.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import pricing, rotation, stochastic, trading
from .ergodic import EmoConfig, construct_z_gbm
from .stochastic import GbmParams, PathKind, TimeGrid, path_seed, simulate_wiener

_THETA_FIXTURES = {"sqrt2": rotation.SQRT2, "golden": rotation.GOLDEN_CONJUGATE}

_GBM_DEFAULTS = {"mu": 0.1, "sigma": 0.2, "s0": 100.0, "T": 1.0, "dt": 1e-3}

# Every subcommand setting, by its config-file key; click options carry the same names.
DEFAULTS = {
    "simulate": {**_GBM_DEFAULTS, "n_paths": 1, "wide": False},
    "trade": {**_GBM_DEFAULTS, "beta": 2.0, "eps": 0.0, "l": 1.0, "s": 1.0},
    "rotate": {"theta": "sqrt2", "n": 1_000_000, "x0": 0.0,
               "intervals": "0.0:0.25,0.2:0.5,0.5:1.0", "arcs": "0.1,0.25,0.5"},
    "price": {"taus": "0.25,0.5,0.75", "zs": "0.03,0.05,0.08", "xs": "50,100,150",
              "r": 0.05, "K": math.e**math.e, "T": 1.0, "beta": 2.0, "mu": 0.1,
              "sigma": 0.2, "wT": 0.3, "s_t0": 100.0, "t": 1.0},
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise click.UsageError(f"cannot read config file {path}: {e}")
    if not isinstance(cfg, dict):
        raise click.UsageError(f"config file {path} must contain a JSON object")
    return cfg


def _fits(value, default) -> bool:
    """Whether a config-file value can stand in for `default`: a JSON int may
    stand for a float or a 0/1 switch, and a number for a list or theta text."""
    if isinstance(default, bool):
        return isinstance(value, int)
    if isinstance(value, bool):
        return False
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, (str, int, float))


def _settings(ctx, command: str, flags: dict) -> dict:
    """Resolve every setting of `command`: explicit flag > config-file section > default."""
    section = ctx.obj["config"].get(command, {})
    if not isinstance(section, dict):
        raise click.UsageError(f"config {command} must be a JSON object, got {section!r}")
    for key, default in DEFAULTS[command].items():
        if key in section and not _fits(section[key], default):
            raise click.UsageError(
                f"config {command}.{key} must be {type(default).__name__}, "
                f"got {section[key]!r}")
    return {key: flags[key] if flags.get(key) is not None else section.get(key, default)
            for key, default in DEFAULTS[command].items()}


def _finite(obj):
    """obj with each non-finite float as None: JSON null, not the non-standard NaN."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def _json(obj, sort_keys: bool = False):
    """A writer of obj as strict JSON, each non-finite float as null."""
    def write(fh):
        json.dump(_finite(obj), fh, indent=2, sort_keys=sort_keys, allow_nan=False)
        fh.write("\n")
    return write


def _columns(header: list[str], *columns):
    """A CSV writer; an array column becomes a list only when the file is written."""
    return lambda fh: stochastic._write_csv(fh, header, zip(
        *(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


def _table(stem: str, rows: list[dict], fmt: str) -> dict:
    if fmt == "json":
        return {f"{stem}.json": _json(rows)}
    header = list(rows[0]) if rows else []
    return {f"{stem}.csv": _columns(header, *([row[k] for row in rows] for k in header))}


def _emit(ctx, command: str, resolved: dict, files: dict) -> Path:
    """Create --out, write each file, then the manifest that lists them.

    `files` maps a file name to a function that writes it to an open text file.
    """
    out = Path(ctx.obj["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise click.UsageError(f"cannot create output directory {ctx.obj['out']}: {e}")
    manifest = {"command": command, "config": resolved,
                "outputs": sorted([*files, "manifest.json"])}
    for name, write in {**files, "manifest.json": _json(manifest, sort_keys=True)}.items():
        with open(out / name, "w", newline="") as fh:
            write(fh)
    return out


class _Command(click.Command):
    """A subcommand whose settings the library rejects with a ValueError, such
    as an out-of-domain value, or that need more memory than there is, ends
    with a usage error (exit 2), not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as e:
            raise click.UsageError(str(e), ctx) from None
        except MemoryError as e:
            raise click.UsageError(f"not enough memory for these settings: {e}", ctx) from None


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON config file; flags override its entries.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Master seed, a non-negative integer (default 0).")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output directory (default ./out).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None,
              help="Table output format (default csv).")
@click.pass_context
def main(ctx, config_path, seed, out_dir, fmt):
    """Log-ergodic process toolkit: simulation, trade timing, and pricing."""
    config = _load_config(config_path)
    config_seed = config.get("seed", 0)
    for key, ok in (("seed", _fits(config_seed, 0) and config_seed >= 0),
                    ("out", isinstance(config.get("out", "out"), str)),
                    ("format", config.get("format", "csv") in ("csv", "json"))):
        if not ok:
            raise click.UsageError(f"config {key} cannot be {config[key]!r}")
    ctx.obj = {
        "config": config,
        "seed": seed if seed is not None else config.get("seed", 0),
        "out": out_dir if out_dir is not None else config.get("out", "out"),
        "format": fmt if fmt is not None else config.get("format", "csv"),
    }


def _gbm_from(cfg: dict):
    return (GbmParams(mu=cfg["mu"], sigma=cfg["sigma"], s0=cfg["s0"]),
            TimeGrid(T=cfg["T"], dt=cfg["dt"]))


@main.command(cls=_Command)
@click.option("--mu", type=float, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--s0", type=float, default=None)
@click.option("--t-horizon", "T", type=float, default=None)
@click.option("--dt", type=float, default=None)
@click.option("--n-paths", type=int, default=None)
@click.option("--wide/--per-path", "wide", default=None,
              help="One wide CSV instead of one file per path.")
@click.pass_context
def simulate(ctx, **flags):
    """Simulate a seeded GBM ensemble and write price paths."""
    cfg = _settings(ctx, "simulate", flags)
    params, grid = _gbm_from(cfg)
    n_paths = cfg["n_paths"]
    if n_paths < 1:
        raise click.UsageError(f"n_paths must be >= 1, got {n_paths}")
    seed = ctx.obj["seed"]

    paths = [stochastic.simulate_gbm(params, simulate_wiener(grid, path_seed(seed, i)))
             for i in range(n_paths)]
    if cfg["wide"]:
        files = {"paths_wide.csv": _columns(["t"] + [f"path_{i}" for i in range(n_paths)],
                                            grid.times(), *(p.values for p in paths))}
    else:
        files = {f"path_{i:04d}.csv": functools.partial(stochastic.write_path_csv, p)
                 for i, p in enumerate(paths)}
    header_params = {"mu": params.mu, "sigma": params.sigma, "s0": params.s0}
    files["paths_header.json"] = _json(
        [stochastic.path_header(p, seed=seed, params=header_params) for p in paths])
    resolved = {**cfg, "wide": bool(cfg["wide"]), "seed": seed}
    out = _emit(ctx, "simulate", resolved, files)
    click.echo(f"wrote {len(files)} file(s) to {out}")


@main.command(cls=_Command)
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Price path CSV (t,value); omitted = simulate one internally.")
@click.option("--mu", type=float, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--s0", type=float, default=None)
@click.option("--t-horizon", "T", type=float, default=None)
@click.option("--dt", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--eps", type=float, default=None)
@click.option("--long-leverage", "l", type=float, default=None)
@click.option("--short-leverage", "s", type=float, default=None)
@click.option("--literal-indicator", is_flag=True, default=False,
              help="Weight profit sums by class nonemptiness instead of membership.")
@click.pass_context
def trade(ctx, input_path, literal_indicator, **flags):
    """Run the Z-process trade-timing pipeline on a price path."""
    cfg = _settings(ctx, "trade", flags)
    params, grid = _gbm_from(cfg)
    seed = ctx.obj["seed"]
    fmt = ctx.obj["format"]

    if input_path:
        try:
            with open(input_path) as fh:
                price = stochastic.read_path_csv(fh, PathKind.PRICE)
        except ValueError as e:
            raise click.UsageError(f"bad --input {input_path}: {e}")
        grid = price.grid
        logp = stochastic.log_path(price)
        # recover the driving Wiener values from the log path
        w_vals = (logp.values - logp.values[0] - params.q * grid.times()) / params.sigma
        wiener = stochastic.WienerPath(grid=grid, w=w_vals)
    else:
        wiener = simulate_wiener(grid, path_seed(seed, 0))
        price = stochastic.simulate_gbm(params, wiener)
    z = construct_z_gbm(params, wiener, beta=cfg["beta"])

    rec = trading.detect_recurrences(z, eps=cfg["eps"])
    exc = trading.build_excursions(z, rec)
    stats = trading.sojourn_stats(exc)
    ledger = trading.build_ledger(z, price, exc, l=cfg["l"], s=cfg["s"])
    profit = trading.trade_profit(ledger, literal_indicator=literal_indicator)
    ito_params = stochastic.ItoParams(mu=lambda t, x: params.q,
                                      sigma=lambda t, x: params.sigma)
    bounds = trading.oet_bound_report(exc, ito_params)
    summary = {
        "n_excursions": len(exc),
        "mean_sojourn_above": stats.mean_above,
        "mean_sojourn_below": stats.mean_below,
        "count_above": stats.count_above,
        "count_below": stats.count_below,
        "profit": profit,
        "all_contained": bounds.all_contained,
        "fraction_flagged": bounds.fraction_flagged,
    }

    # figure data: price path, and Z with recurrence markers at the level
    t = grid.times()
    # t and taus are sorted: merge, with each marker after a grid row at its time
    at = np.searchsorted(t, rec.taus, "right")
    fig_t = np.insert(t, at, rec.taus)
    fig_z = np.insert(z.values, at, 0.0)
    mark = np.insert(np.zeros(len(t), dtype=int), at, 1)

    resolved = {**cfg, "T": grid.T, "dt": grid.dt, "literal_indicator": literal_indicator,
                "seed": seed, "input": input_path}
    out = _emit(ctx, "trade", resolved, {
        **_table("signals", trading.generate_signals(exc), fmt),
        **_table("bound_report", bounds.rows, fmt),
        "summary.json": _json(summary),
        "fig1_price.csv": _columns(["t", "price"], t, price.values),
        "fig2_zprocess.csv": _columns(["t", "z", "recurrence"], fig_t, fig_z, mark),
    })
    click.echo(f"{len(exc)} excursion(s), profit {profit:.6f}; wrote {out}")


@main.command(cls=_Command)
@click.option("--theta", type=str, default=None,
              help="Rotation angle: 'sqrt2', 'golden', or a number.")
@click.option("--n", type=int, default=None, help="Orbit length for the diagnostics.")
@click.option("--x0", type=float, default=None)
@click.option("--intervals", type=str, default=None,
              help="Comma-separated a:b pairs for the frequency table.")
@click.option("--arcs", type=str, default=None,
              help="Comma-separated arc lengths for the return-time table.")
@click.pass_context
def rotate(ctx, **flags):
    """Rotation diagnostics: frequencies, return times, orbit averages."""
    cfg = _settings(ctx, "rotate", flags)
    theta_spec, n, x0 = cfg["theta"], cfg["n"], cfg["x0"]
    fmt = ctx.obj["format"]
    seed = ctx.obj["seed"]

    if isinstance(theta_spec, str) and theta_spec in _THETA_FIXTURES:
        theta_val = _THETA_FIXTURES[theta_spec]
    else:
        try:
            theta_val = float(theta_spec)
        except (TypeError, ValueError):
            raise click.UsageError(f"unknown theta {theta_spec!r}")
    try:
        ivals = [(float(a), float(b))
                 for a, b in (pair.split(":") for pair in str(cfg["intervals"]).split(","))]
        arc_lengths = [float(v) for v in str(cfg["arcs"]).split(",")]
    except ValueError as e:
        raise click.UsageError(f"bad interval/arc spec: {e}")

    freq_rows = []
    for a, b in ivals:
        freq = rotation.equidistribution_test(theta_val, a, b, x0=x0, n=n)
        freq_rows.append({"a": a, "b": b, "frequency": freq, "target": b - a,
                         "abs_error": abs(freq - (b - a))})

    kac_rows = []
    n_ret = min(100_000, max(1000, n // 10))
    for p in arc_lengths:
        mean = rotation.kac_return_time(theta_val, (0.0, p), x0=0.0, n_returns=n_ret)
        kac_rows.append({"arc_length": p, "mean_return": mean, "target": 1.0 / p,
                        "rel_error": abs(mean * p - 1.0)})

    birkhoff_rows = []
    for label, phi, target in [
        ("constant_0.37", rotation.TrigPolynomial(c0=0.37), 0.37),
        ("sin", rotation.TrigPolynomial(c0=0.0, sin_coeffs=(1.0,)), 0.0),
        ("mixed", rotation.TrigPolynomial(c0=0.37, cos_coeffs=(0.9,), sin_coeffs=(0.3,)), 0.37),
    ]:
        avg = rotation.birkhoff_average(phi, x=x0, theta=theta_val, n=n)
        birkhoff_rows.append({"function": label, "average": avg, "target": target,
                             "abs_error": abs(avg - target)})

    # figure data: circle position of the angle process along a price path
    params, grid = _gbm_from(_GBM_DEFAULTS)
    beta = DEFAULTS["trade"]["beta"]
    w = simulate_wiener(grid, path_seed(seed, 0))
    price = stochastic.simulate_gbm(params, w)
    z = construct_z_gbm(params, w, beta=beta)
    emo_cfg = EmoConfig(beta=beta, T=grid.T, wT=w.terminal)
    strike = 0.5 * float(np.min(price.values))
    theta_path = rotation.theta_process(z, price, K=strike, cfg=emo_cfg)
    # math.cos/sin per point, not np.cos/np.sin, whose last bits can differ by platform
    angle = (2 * math.pi * np.mod(theta_path.values, 1.0)).tolist()
    out = _emit(ctx, "rotate", {**cfg, "seed": seed}, {
        **_table("equidistribution", freq_rows, fmt),
        **_table("kac_returns", kac_rows, fmt),
        **_table("birkhoff", birkhoff_rows, fmt),
        "fig3_circle.csv": _columns(["t", "price", "theta", "circle_x", "circle_y"],
                                    grid.times(), price.values, theta_path.values,
                                    map(math.cos, angle), map(math.sin, angle)),
    })
    click.echo(f"wrote rotation diagnostics to {out}")


@main.command(cls=_Command)
@click.option("--taus", type=str, default=None, help="Comma-separated times to maturity.")
@click.option("--zs", type=str, default=None, help="Comma-separated Z levels.")
@click.option("--xs", type=str, default=None, help="Comma-separated underlying prices.")
@click.option("--r", type=float, default=None)
@click.option("--k", "K", type=float, default=None)
@click.option("--t-horizon", "T", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--mu", type=float, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--w-terminal", "wT", type=float, default=None)
@click.option("--s-t0", type=float, default=None)
@click.option("--t-valuation", "t", type=float, default=None)
@click.pass_context
def price(ctx, **flags):
    """Sweep the pricing engines side by side over a (tau, z, X) grid."""
    cfg = _settings(ctx, "price", flags)
    fmt = ctx.obj["format"]

    try:
        tau_list = [float(v) for v in str(cfg["taus"]).split(",")]
        z_list = [float(v) for v in str(cfg["zs"]).split(",")]
        x_list = [float(v) for v in str(cfg["xs"]).split(",")]
    except ValueError as e:
        raise click.UsageError(f"bad sweep grid: {e}")

    fixed = {key: cfg[key] for key in ("r", "K", "T", "beta", "mu", "sigma", "wT", "s_t0", "t")}
    rows = []
    for tau in tau_list:
        for z in z_list:
            for x in x_list:
                row = {"tau": tau, "z": z, "X": x, "K": cfg["K"],
                       "closed_form": "", "pde": "", "rotation": "",
                       "rel_gap": "", "flags": "", "error": ""}
                try:
                    inputs = pricing.PricingInputs(tau=tau, z=z, X=x, **fixed)
                    closed = pricing.price_ergodic_bs(inputs)
                    pde = pricing.price_via_pde(inputs)
                    row["flags"] = "|".join(closed.flags)
                    errors = [f"{name} price overflows the float range"
                              for name, res in (("closed-form", closed), ("pde", pde))
                              if "overflow" in res.flags]
                    if not errors:
                        row["closed_form"] = closed.price
                        row["pde"] = pde.price
                        row["rel_gap"] = (abs(pde.price - closed.price)
                                          / max(abs(closed.price), 1e-300))
                    try:
                        rot = pricing.price_rotation_call(inputs)
                        row["rotation"] = rot.price
                    except ValueError as e:
                        errors.append(f"rotation: {e}")
                    row["error"] = "; ".join(errors)
                except ValueError as e:
                    row["error"] = str(e)
                rows.append(row)
    out = _emit(ctx, "price", cfg, _table("pricing_sweep", rows, fmt))
    n_err = sum(1 for r in rows if r["error"])
    click.echo(f"priced {len(rows)} point(s), {n_err} domain error(s); wrote {out}")


@main.command()
@click.pass_context
def validate(ctx):
    """Run every acceptance criterion and exit nonzero on any failure."""
    from .validation import run_all

    results = run_all()
    width = max(len(r.description) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.cid:2d} {r.description:<{width}}  {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    click.echo(f"{len(results) - n_fail}/{len(results)} criteria passed")
    if n_fail:
        sys.exit(1)


if __name__ == "__main__":
    main()
