"""Command-line front end: simulation campaigns, trade analysis, rotation
diagnostics, pricing sweeps, and the acceptance suite.

One binary with subcommands (simulate | trade | rotate | price | validate).
Parameters resolve with precedence flags > config file > defaults: the whole
config file, checked key by key and each value converted by its option's type
as a flag is, is click's default_map.  Every run writes a manifest echoing the
fully resolved configuration, so a run is reproducible from its manifest
alone.  Each subcommand computes everything before it hands its files to
`_emit`, which creates the output directory and writes them and the manifest,
so a run that fails before its first write writes nothing.  Exit codes: 0
success, 1 validation failure, 2 usage/config error.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import pricing, rotation, stochastic, trading
from .ergodic import EmoConfig, construct_z_gbm
from .stochastic import GbmParams, TimeGrid, path_seed, simulate_wiener

_THETA_FIXTURES = {"sqrt2": rotation.SQRT2, "golden": rotation.GOLDEN_CONJUGATE}

_GBM_DEFAULTS = {"mu": 0.1, "sigma": 0.2, "s0": 100.0, "T": 1.0, "dt": 1e-3}
_BETA = 2.0
_FLAGS_ONLY = {"input_path", "literal_indicator"}  # options no config file sets


def _fits(value, param) -> bool:
    """Whether a config-file value can stand in for param's default: a JSON int
    within the float range may stand for a float, true/false/0/1 for a switch,
    and a number for free text such as a list or theta."""
    default = param.default
    if isinstance(default, bool):
        return isinstance(value, int) and value in (0, 1)
    if isinstance(value, bool):
        return False
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):  # float() of a larger int raises OverflowError
        return isinstance(value, float) or (isinstance(value, int)
                                            and abs(value) <= sys.float_info.max)
    return isinstance(value, str) or param.type is click.STRING and isinstance(value, (int, float))


def _default_map(ctx, command, config: dict, name: str = "") -> dict:
    """config checked against command's options and subcommands, each value
    cast by its option's type: a key that names no setting is refused."""
    params = {param.name: param for param in command.params if param.expose_value}
    commands = getattr(command, "commands", {})
    settings = {}
    for key, value in config.items():
        param, where = params.get(key), f"config {name}{key}"
        if key in commands:
            if not isinstance(value, dict):
                raise click.UsageError(f"{where} must be a JSON object, got {value!r}")
            settings[key] = _default_map(ctx, commands[key], value, f"{name}{key}.")
        elif param is None:
            raise click.UsageError(f"{where} names no setting")
        elif key in _FLAGS_ONLY:
            raise click.UsageError(f"{where} is flag only")
        elif not _fits(value, param):
            raise click.UsageError(f"{where} must be {type(param.default).__name__}, got {value!r}")
        else:
            try:  # click's BOOL takes text or a bool, so a 0/1 switch is made a bool
                settings[key] = param.type_cast_value(
                    ctx, bool(value) if isinstance(param.default, bool) else value)
            except click.BadParameter as e:
                raise click.UsageError(f"{where}: {e.message}")
    return settings


def _read_config(ctx, param, path: str | None) -> None:
    """--config, read first: its checked settings are the default_map of every option."""
    if path:
        try:
            with open(path) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as e:  # ValueError: bad JSON or an int of over 4300 digits
            raise click.UsageError(f"cannot read config file {path}: {e}")
        if not isinstance(config, dict):
            raise click.UsageError(f"config file {path} must contain a JSON object")
        ctx.default_map = _default_map(ctx, ctx.command, config)


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


def _table(stem: str, columns: dict, fmt: str) -> dict:
    """A table file from named columns: a CSV, whose header stays when there
    are no rows and whose rows are built only when it is written, or a JSON
    list of rows."""
    if fmt == "json":
        rows = [dict(zip(columns, row)) for row in stochastic._rows(columns.values())]
        return {f"{stem}.json": _json(rows)}
    header = list(columns)
    return {f"{stem}.csv": lambda fh: stochastic._write_csv(fh, header, columns.values())}


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
        try:
            with open(out / name, "w", newline="") as fh:
                write(fh)
        except OSError as e:  # the files written before stay
            raise click.UsageError(f"cannot write {out / name}: {e.strerror}") from None
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
@click.option("--config", type=click.Path(), is_eager=True, expose_value=False,
              callback=_read_config, help="JSON config file; flags override its entries.")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              help="Master seed, a non-negative integer (default 0).")
@click.option("--out", type=click.Path(), default="out",
              help="Output directory (default ./out).")
@click.option("--format", type=click.Choice(["csv", "json"]), default="csv",
              help="Table output format (default csv).")
@click.pass_context
def main(ctx, **settings):
    """Log-ergodic process toolkit: simulation, trade timing, and pricing."""
    ctx.obj = settings


def _rational_neighbour(theta: float, n: int) -> tuple[int, int] | None:
    """The convergent p/q of finite theta mod 1, walked in exact arithmetic, with
    q <= n and |q theta - p| <= 4 eps, whose orbit repeats within n steps; or None."""
    from fractions import Fraction  # here, so that only rotate pays for importing decimal
    x = rest = Fraction(theta % 1.0)
    p0, q0, p, q = 0, 1, 1, 0
    while True:
        a = math.floor(rest)
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
        if q > n or abs(q * x - p) <= 4 * Fraction(sys.float_info.epsilon):
            return (p, q) if q <= n else None
        rest = 1 / (rest - a)  # nonzero: p/q = x would have returned


def _gbm_from(cfg: dict):
    return (GbmParams(mu=cfg["mu"], sigma=cfg["sigma"], s0=cfg["s0"]),
            TimeGrid(T=cfg["T"], dt=cfg["dt"]))


def _gbm_options(command):
    """The GBM options that simulate and trade share, from _GBM_DEFAULTS."""
    for name, default in reversed(_GBM_DEFAULTS.items()):
        flag = "--t-horizon" if name == "T" else f"--{name}"
        command = click.option(flag, name, type=float, default=default)(command)
    return command


@main.command(cls=_Command)
@_gbm_options
@click.option("--n-paths", type=int, default=1)
@click.option("--wide/--per-path", "wide", default=False,
              help="One wide CSV instead of one file per path.")
@click.pass_context
def simulate(ctx, **cfg):
    """Simulate a seeded GBM ensemble and write price paths."""
    params, grid = _gbm_from(cfg)
    n_paths = cfg["n_paths"]
    if n_paths < 1:
        raise click.UsageError(f"n_paths must be >= 1, got {n_paths}")
    seed = ctx.obj["seed"]

    paths = [stochastic.simulate_gbm(params, simulate_wiener(grid, path_seed(seed, i)))
             for i in range(n_paths)]
    if cfg["wide"]:
        columns = {"t": grid.times(), **{f"path_{i}": p.values for i, p in enumerate(paths)}}
        files = _table("paths_wide", columns, "csv")
    else:
        files = {f"path_{i:04d}.csv": functools.partial(stochastic.write_path_csv, p)
                 for i, p in enumerate(paths)}
    header_params = {"mu": params.mu, "sigma": params.sigma, "s0": params.s0}
    files["paths_header.json"] = _json(
        [stochastic.path_header(p, seed=seed, params=header_params) for p in paths])
    resolved = {**cfg, "seed": seed}
    out = _emit(ctx, "simulate", resolved, files)
    click.echo(f"wrote {len(files)} file(s) to {out}")


@main.command(cls=_Command)
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Price path CSV (t,value); omitted = simulate one internally.")
@_gbm_options
@click.option("--beta", type=float, default=_BETA)
@click.option("--eps", type=float, default=0.0)
@click.option("--long-leverage", "l", type=float, default=1.0)
@click.option("--short-leverage", "s", type=float, default=1.0)
@click.option("--literal-indicator", is_flag=True, default=False,
              help="Weight profit sums by class nonemptiness instead of membership.")
@click.pass_context
def trade(ctx, input_path, literal_indicator, **cfg):
    """Run the Z-process trade-timing pipeline on a price path."""
    params, grid = _gbm_from(cfg)
    seed = ctx.obj["seed"]
    fmt = ctx.obj["format"]

    if input_path:
        try:
            with open(input_path, encoding="utf-8-sig") as fh:  # drops a leading BOM
                price = stochastic.read_path_csv(fh)
        except ValueError as e:
            raise click.UsageError(f"bad --input {input_path}: {e}")
        grid = price.grid
        logp = stochastic.log_path(price)
        # recover the driving Wiener values from the log path
        with np.errstate(over="ignore"):  # an inf value fails WienerPath's checks
            w_vals = (logp.values - logp.values[0] - params.q * grid.times()) / params.sigma
        try:
            wiener = stochastic.WienerPath(grid=grid, w=w_vals)
        except ValueError as e:
            raise ValueError(f"mu = {params.mu} and sigma = {params.sigma} take the Wiener path "
                             f"backed out of --input beyond the float range: {e}") from None
    else:
        wiener = simulate_wiener(grid, path_seed(seed, 0))
        price = stochastic.simulate_gbm(params, wiener)
    z = construct_z_gbm(params, wiener, beta=cfg["beta"])

    rec = trading.detect_recurrences(z, eps=cfg["eps"])
    exc = trading.build_excursions(z, rec)
    entry_prices, exit_prices = trading.build_ledger(z, price, exc)
    profit = trading.trade_profit(exc, entry_prices, exit_prices, cfg["l"], cfg["s"],
                                  literal_indicator=literal_indicator)
    bounds = trading.oet_bound_report(exc, params.q, params.sigma)
    summary = {
        "n_excursions": len(exc),
        **trading.sojourn_stats(exc),
        "profit": profit,
        "all_contained": bool(bounds["contained"].all()),
        "fraction_flagged": float(bounds["flagged"].mean()) if len(exc) else 0.0,
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
        **_table("bound_report", bounds, fmt),
        "summary.json": _json(summary),
        **_table("fig1_price", {"t": t, "price": price.values}, "csv"),
        **_table("fig2_zprocess", {"t": fig_t, "z": fig_z, "recurrence": mark}, "csv"),
    })
    click.echo(f"{len(exc)} excursion(s), profit {profit:.6f}; wrote {out}")


@main.command(cls=_Command)
@click.option("--theta", type=str, default="sqrt2",
              help="Rotation angle: 'sqrt2', 'golden', or a number.")
@click.option("--n", type=int, default=1_000_000, help="Orbit length for the diagnostics.")
@click.option("--x0", type=float, default=0.0)
@click.option("--intervals", type=str, default="0.0:0.25,0.2:0.5,0.5:1.0",
              help="Comma-separated a:b pairs for the frequency table.")
@click.option("--arcs", type=str, default="0.1,0.25,0.5",
              help="Comma-separated arc lengths for the return-time table.")
@click.pass_context
def rotate(ctx, **cfg):
    """Rotation diagnostics: frequencies, return times, orbit averages."""
    theta_spec, n, x0 = cfg["theta"], cfg["n"], cfg["x0"]
    fmt = ctx.obj["format"]
    seed = ctx.obj["seed"]

    if theta_spec in _THETA_FIXTURES:
        theta_val = _THETA_FIXTURES[theta_spec]
    else:
        try:
            theta_val = float(theta_spec)
        except ValueError:
            raise click.UsageError(f"unknown theta {theta_spec!r}")
    try:
        specs = cfg["intervals"].split(",")
        for spec in specs:
            if spec.count(":") != 1:
                raise ValueError(f"interval {spec!r} is not a:b")
        ivals = [tuple(map(float, spec.split(":"))) for spec in specs]
        arc_lengths = [float(v) for v in cfg["arcs"].split(",")]
    except ValueError as e:
        raise click.UsageError(f"bad interval/arc spec: {e}")
    if near := math.isfinite(theta_val) and _rational_neighbour(theta_val, n):
        raise click.UsageError(f"theta {theta_val} is within 4 eps of {near[0]}/{near[1]}: "
                               f"its orbit repeats after {near[1]} <= n = {n} steps")

    a, b = np.array(ivals).T
    freq = np.array([rotation.equidistribution_test(theta_val, *ab, x0=x0, n=n) for ab in ivals])
    n_ret = min(100_000, max(1000, n // 10))
    arcs = np.array(arc_lengths)
    mean = np.array([rotation.kac_return_time(theta_val, (0.0, p), x0=0.0, n_returns=n_ret)
                     for p in arc_lengths])
    phis = {"constant_0.37": rotation.TrigPolynomial(c0=0.37),
            "sin": rotation.TrigPolynomial(c0=0.0, sin_coeffs=(1.0,)),
            "mixed": rotation.TrigPolynomial(c0=0.37, cos_coeffs=(0.9,), sin_coeffs=(0.3,))}
    avg = np.array([rotation.birkhoff_average(phi, x=x0, theta=theta_val, n=n)
                    for phi in phis.values()])
    integral = np.array([phi.integral for phi in phis.values()])

    # figure data: circle position of the angle process along a price path
    params, grid = _gbm_from(_GBM_DEFAULTS)
    w = simulate_wiener(grid, path_seed(seed, 0))
    price = stochastic.simulate_gbm(params, w)
    z = construct_z_gbm(params, w, beta=_BETA)
    emo_cfg = EmoConfig(beta=_BETA, T=grid.T, wT=w.terminal)
    strike = 0.5 * float(np.min(price.values))
    theta = rotation.theta_process(z, price, K=strike, cfg=emo_cfg)
    # math.cos/sin per point, not np.cos/np.sin, whose last bits can differ by platform
    angle = (2 * math.pi * np.mod(theta, 1.0)).tolist()
    out = _emit(ctx, "rotate", {**cfg, "seed": seed}, {
        **_table("equidistribution", {"a": a, "b": b, "frequency": freq, "target": b - a,
                                      "abs_error": np.abs(freq - (b - a))}, fmt),
        **_table("kac_returns", {"arc_length": arcs, "mean_return": mean, "target": 1.0 / arcs,
                                 "rel_error": np.abs(mean * arcs - 1.0)}, fmt),
        **_table("birkhoff", {"function": list(phis), "average": avg, "target": integral,
                              "abs_error": np.abs(avg - integral)}, fmt),
        **_table("fig3_circle", {"t": grid.times(), "price": price.values, "theta": theta,
                                 "circle_x": map(math.cos, angle),
                                 "circle_y": map(math.sin, angle)}, "csv"),
    })
    click.echo(f"wrote rotation diagnostics to {out}")


@main.command(cls=_Command)
@click.option("--taus", type=str, default="0.25,0.5,0.75",
              help="Comma-separated times to maturity.")
@click.option("--zs", type=str, default="0.03,0.05,0.08", help="Comma-separated Z levels.")
@click.option("--xs", type=str, default="50,100,150", help="Comma-separated underlying prices.")
@click.option("--r", type=float, default=0.05)
@click.option("--k", "K", type=float, default=math.e**math.e)
@click.option("--t-horizon", "T", type=float, default=1.0)
@click.option("--beta", type=float, default=_BETA)
@click.option("--mu", type=float, default=0.1)
@click.option("--sigma", type=float, default=0.2)
@click.option("--w-terminal", "wT", type=float, default=0.3)
@click.option("--s-t0", type=float, default=100.0)
@click.option("--t-valuation", "t", type=float, default=1.0)
@click.pass_context
def price(ctx, **cfg):
    """Sweep the pricing engines side by side over a (tau, z, X) grid."""
    fmt = ctx.obj["format"]

    try:
        tau_list = [float(v) for v in cfg["taus"].split(",")]
        z_list = [float(v) for v in cfg["zs"].split(",")]
        x_list = [float(v) for v in cfg["xs"].split(",")]
    except ValueError as e:
        raise click.UsageError(f"bad sweep grid: {e}")

    # the rotation pricer reads no swept value: one price, or one error, serves every row
    rotation_price = rotation_error = ""
    try:
        emo = EmoConfig(beta=cfg["beta"], T=cfg["T"], wT=cfg["wT"])
        rotation_price = pricing.price_rotation_call(
            emo, cfg["r"], cfg["K"], cfg["s_t0"], cfg["t"]).price
    except ValueError as e:
        rotation_error = f"rotation: {e}"
    ergodic = {key: cfg[key] for key in ("r", "K", "T", "beta", "mu", "sigma", "wT")}
    rows = []
    for tau, z, x in itertools.product(tau_list, z_list, x_list):
        closed_form = pde_price = rel_gap = flags = ""
        try:
            inputs = pricing.PricingInputs(tau=tau, z=z, X=x, **ergodic)
            closed = pricing.price_ergodic_bs(inputs)
            pde = pricing.price_via_pde(inputs)
            flags = "|".join(closed.flags)
            errors = [f"{name} price overflows the float range"
                      for name, res in (("closed-form", closed), ("pde", pde))
                      if "overflow" in res.flags]
            if not errors:
                closed_form, pde_price = closed.price, pde.price
                rel_gap = abs(pde.price - closed.price) / max(abs(closed.price), 1e-300)
        except ValueError as e:
            errors = [str(e)]
        if rotation_error:
            errors.append(rotation_error)
        rows.append((tau, z, x, cfg["K"], closed_form, pde_price, rotation_price, rel_gap, flags,
                     "; ".join(errors)))
    names = ("tau", "z", "X", "K", "closed_form", "pde", "rotation", "rel_gap", "flags", "error")
    out = _emit(ctx, "price", cfg, _table("pricing_sweep", dict(zip(names, zip(*rows))), fmt))
    n_err = sum(1 for row in rows if row[-1])
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
