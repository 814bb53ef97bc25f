import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import logergodic
from logergodic import (
    EmoConfig,
    GbmParams,
    TimeGrid,
    WienerPath,
    construct_z_gbm,
    detect_recurrences,
    log_path,
    path_seed,
    read_path_csv,
    rotation,
    simulate_gbm,
    simulate_wiener,
    theta_process,
    validation,
    write_path_csv,
)
from logergodic.cli import _rational_neighbour, main
from logergodic.validation import CriterionResult


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def expected_csv(header: list[str], *columns) -> bytes:
    """CSV bytes built by hand: repr of each Python value, CRLF line ends."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in zip(*columns)]
    return "".join(line + "\r\n" for line in lines).encode()


def floats(values) -> list[float]:
    return [float(v) for v in values]


def fig2_bytes(t, z, taus) -> bytes:
    """fig2 by hand: grid rows and level markers sorted by (t, mark), so a
    marker follows the grid row at its own time."""
    rows = [(tk, zk, 0) for tk, zk in zip(floats(t), floats(z))]
    rows = sorted(rows + [(tau, 0.0, 1) for tau in floats(taus)], key=lambda r: (r[0], r[2]))
    return expected_csv(["t", "z", "recurrence"], *zip(*rows))


@pytest.mark.parametrize(
    "command, section, flag, key, flag_value",
    [
        ("simulate", {"n_paths": 2, "dt": 0.01}, ["--n-paths", "1"], "n_paths", 1),
        ("trade", {"l": 2.0, "dt": 0.01}, ["--long-leverage", "0.5"], "l", 0.5),
        ("rotate", {"theta": "golden", "n": 2000}, ["--theta", "sqrt2"], "theta", "sqrt2"),
        ("price", {"K": 20.0, "taus": "0.5", "zs": "0.05", "xs": "100"}, ["--k", "30"], "K",
         30.0),
    ],
    ids=["simulate", "trade", "rotate", "price"],
)
def test_config_file_with_flag_override(runner, tmp_path, command, section, flag, key,
                                        flag_value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command: section}))
    for name, extra, value in [("from_config", [], section[key]),
                               ("flag_wins", flag, flag_value)]:
        out = tmp_path / name
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), command] + extra)
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"][key] == value
        # the flag overrides one key; the config file still supplies the others
        assert {k: manifest["config"][k] for k in section if k != key} == {
            k: v for k, v in section.items() if k != key}
        assert manifest["outputs"] == sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("price", {"price": {"K": "abc"}}, "price.K"),
        ("simulate", {"simulate": {"dt": "0.01"}}, "simulate.dt"),
        ("simulate", {"simulate": {"n_paths": 2.5}}, "simulate.n_paths"),
        ("trade", {"trade": {"beta": True}}, "trade.beta"),
        ("rotate", {"rotate": {"arcs": None}}, "rotate.arcs"),
        ("price", {"price": "0.5"}, "config price"),
        ("simulate", {"seed": "abc"}, "config seed"),
        ("simulate", {"seed": -1}, "config seed"),
        ("price", {"format": "xml"}, "config format"),
        # float() of an int beyond the float range raises OverflowError
        ("price", {"price": {"K": 10**400}}, "config price.K must be float, got 1000"),
        ("simulate", {"simulate": {"dt": -10**400}}, "config simulate.dt must be float"),
        ("simulate", {"simulate": {"wide": 5}}, "config simulate.wide must be bool, got 5"),
        # a key that names no setting, in any section, and a flags-only key
        ("price", {"price": {"k": 20}}, "config price.k names no setting"),
        ("price", {"simulat": {}}, "config simulat names no setting"),
        ("price", {"sed": 5}, "config sed names no setting"),
        ("trade", {"trade": {"input_path": "x.csv"}}, "config trade.input_path is flag only"),
        ("trade", {"trade": {"literal_indicator": True}},
         "config trade.literal_indicator is flag only"),
        ("validate", {"validate": {"x": 1}}, "config validate.x names no setting"),
        # the whole file is checked, not only the section of the subcommand run
        ("price", {"trade": {"beta": "2.5"}}, "config trade.beta must be float"),
        ("price", {"price": {}, "rotate": {"n": 1.5}}, "config rotate.n must be int"),
    ],
    ids=["str_for_float", "str_dt", "float_for_int", "bool_for_float", "null_for_str",
         "section_not_object", "top_level_seed", "negative_seed", "top_level_format",
         "int_beyond_float_range", "negative_int_beyond_float_range", "switch_not_0_or_1",
         "unknown_key", "unknown_section", "unknown_top_level_key", "flag_only_input",
         "flag_only_switch", "key_in_section_without_settings", "other_section_wrong_type",
         "other_section_float_for_int"],
)
def test_config_value_of_wrong_type_is_usage_error(runner, tmp_path, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"), command])
    assert result.exit_code == 2, result.output
    assert key in result.output
    assert not (tmp_path / "o").exists()


def test_config_global_settings_resolve_as_flags(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "format": "json", "out": str(tmp_path / "D"),
                               "trade": {"dt": 0.01}}))
    flags = ["--seed", "4", "--format", "csv", "--out", str(tmp_path / "D2")]
    for name, extra, seed, fmt in [("D", [], 3, "json"), ("D2", flags, 4, "csv")]:
        result = runner.invoke(main, ["--config", str(cfg), *extra, "trade"])
        assert result.exit_code == 0, result.output
        out = tmp_path / name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == seed
        assert {f"signals.{fmt}", f"bound_report.{fmt}"} <= set(manifest["outputs"])
        assert manifest["outputs"] == sorted(p.name for p in out.iterdir())
    # the flags' run wrote only its own directory
    assert sorted(p.name for p in tmp_path.iterdir()) == ["D", "D2", "cfg.json"]


@pytest.mark.parametrize(
    "args, name",
    [
        (["rotate", "--x0", "1.5"], "x0"),
        (["rotate", "--n", "0"], "n must be >= 1"),
        (["rotate", "--intervals", "0.5:0.2"], "interval"),
        (["rotate", "--arcs", "0"], "arc"),
        # as a float, the return-time budget 4000 / 5e-324 overflows
        (["rotate", "--n", "1000", "--arcs", "5e-324"], "orbit steps is more than 1000000000"),
        (["rotate", "--theta", "0", "--n", "1000"], "theta 0.0 is within 4 eps of 0/1"),
        (["rotate", "--theta", "1", "--n", "1000"], "theta 1.0 is within 4 eps of 0/1"),
        (["rotate", "--theta", "0.5", "--n", "1000"], "theta 0.5 is within 4 eps of 1/2"),
        (["trade", "--beta", "1.0"], "beta"),
        (["--seed", "2", "trade", "--dt", "0.001", "--long-leverage", "-1"], "leverage l"),
        (["--seed", "2", "trade", "--dt", "0.001", "--eps", "nan"], "eps"),
        (["--seed", "2", "trade", "--dt", "0.001", "--long-leverage", "nan"], "leverage l"),
        (["trade", "--beta", "inf"], "beta must be finite"),
        (["--seed", "-1", "simulate"], "--seed"),
        (["--seed", "-1", "rotate", "--n", "1000"], "--seed"),
        (["price", "--taus", "x"], "bad sweep grid"),
        (["simulate", "--mu", "1000", "--t-horizon", "10", "--dt", "0.01"],
         "mu = 1000.0, sigma = 0.2 and s0 = 100.0 over T = 10.0 take the price out of the "
         "float range: path values must be finite"),
        (["simulate", "--mu", "-1000", "--t-horizon", "10", "--dt", "0.01"],
         "mu = -1000.0, sigma = 0.2 and s0 = 100.0 over T = 10.0 take the price out of the "
         "float range: price paths must be strictly positive"),
        # 8e15 bytes exceed any process's address space: the allocation fails at once
        (["simulate", "--dt", "1e-15"], "not enough memory for these settings"),
        (["trade", "--dt", "1e-15"], "not enough memory for these settings"),
        (["trade", "--sigma", "1e300"], "mu = 0.1 and sigma = 1e+300 put the log drift"),
        (["simulate", "--sigma", "1e300"], "mu = 0.1 and sigma = 1e+300 put the log drift"),
        (["trade", "--t-horizon", "1e-300", "--dt", "1e-301"],
         "T = 1e-300 and beta = 2.0 put T^beta outside the float range"),
        (["trade", "--dt", "0.01", "--mu", "-1", "--s0", "1e300", "--short-leverage", "1e300"],
         "l = 1.0 and s = 1e+300 on price gaps up to"),
    ],
    ids=["x0", "n", "intervals", "arcs", "subnormal_arc", "rational_theta_0", "rational_theta_1",
         "rational_theta_half", "beta", "negative_leverage", "nan_eps",
         "nan_leverage", "inf_beta", "negative_seed_simulate", "negative_seed_rotate",
         "bad_taus", "overflowing_path", "underflowing_path", "huge_grid_simulate",
         "huge_grid_trade", "overflowing_drift_trade", "overflowing_drift_simulate",
         "underflowing_horizon_power_trade", "overflowing_profit_trade"],
)
def test_out_of_domain_setting_is_usage_error(runner, tmp_path, args, name):
    result = runner.invoke(main, ["--out", str(tmp_path / "o")] + args)
    assert result.exit_code == 2, result.output
    assert name in result.output
    assert not (tmp_path / "o").exists()


def _child_env() -> dict:
    """This environment, with the package under test first on PYTHONPATH."""
    src = str(Path(logergodic.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_non_finite_theta_is_usage_error(tmp_path, theta):
    # in a child process with a timeout, so that an unchecked angle fails
    # instead of stalling
    result = subprocess.run(
        [sys.executable, "-m", "logergodic.cli", "--out", str(tmp_path / "o"), "rotate",
         "--theta", theta],
        capture_output=True, text=True, timeout=30, env=_child_env())
    assert result.returncode == 2, result.stderr
    assert f"theta must be finite, got {theta}" in result.stderr
    assert not (tmp_path / "o").exists()


def test_console_script_runs_the_cli(tmp_path):
    """The `logergodic` command, run as the wrapper that pip writes for the
    [project.scripts] entry of pyproject.toml."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    # a regex, not tomllib, which Python 3.10 lacks
    module, func = re.search(r'^logergodic\s*=\s*"([\w.]+):(\w+)"\s*$',
                             pyproject.read_text(), re.MULTILINE).groups()
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"

    def run(*args):
        return subprocess.run([sys.executable, "-c", wrapper, "--out", "o", *args],
                              cwd=tmp_path, capture_output=True, text=True, timeout=60,
                              env=_child_env())

    result = run("rotate", "--theta", "1", "--n", "1000")
    assert result.returncode == 2, result.stderr
    assert not (tmp_path / "o").exists()
    result = run("price", "--taus", "0.5", "--zs", "0.05", "--xs", "100")
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "o" / "pricing_sweep.csv").is_file()


def test_config_numbers_stand_in_for_floats_and_text(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"price": {"K": 20, "taus": 0.5, "zs": 0.05, "xs": 100}}))
    out = tmp_path / "o"
    result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "price"])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "pricing_sweep.csv")
    assert [(row["tau"], row["K"], row["error"]) for row in rows] == [("0.5", "20.0", "")]


@pytest.mark.parametrize(
    "command, section, flags",
    [
        ("simulate", {"T": 1, "s0": 100, "dt": 0.01, "n_paths": 2, "wide": 1},
         ["--t-horizon", "1", "--s0", "100", "--dt", "0.01", "--n-paths", "2", "--wide"]),
        ("trade", {"l": 2, "beta": 3, "dt": 0.01},
         ["--long-leverage", "2", "--beta", "3", "--dt", "0.01"]),
        ("rotate", {"x0": 0, "n": 1000, "theta": "golden", "arcs": 0.25},
         ["--x0", "0", "--n", "1000", "--theta", "golden", "--arcs", "0.25"]),
        ("price", {"K": 20, "taus": 0.5, "zs": 0.05, "xs": 100, "T": 1},
         ["--k", "20", "--taus", "0.5", "--zs", "0.05", "--xs", "100", "--t-horizon", "1"]),
    ],
    ids=["simulate", "trade", "rotate", "price"],
)
def test_config_run_writes_the_bytes_of_its_flags(runner, tmp_path, command, section, flags):
    """JSON ints for floats and numbers for text convert as the flags' text does."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command: section}))
    runs = {"config": ["--config", str(cfg), command], "flags": [command, *flags]}
    for name, args in runs.items():
        result = runner.invoke(main, ["--out", str(tmp_path / name), *args])
        assert result.exit_code == 0, result.output
    from_config, from_flags = (sorted((tmp_path / name).iterdir()) for name in runs)
    assert [p.name for p in from_config] == [p.name for p in from_flags]
    for a, b in zip(from_config, from_flags):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_failed_write_is_usage_error(runner, tmp_path):
    out = tmp_path / "o"
    (out / "manifest.json").mkdir(parents=True)
    result = runner.invoke(main, ["--out", str(out), "price", "--taus", "0.5", "--zs", "0.05",
                                  "--xs", "100"])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1] == (
        f"Error: cannot write {out / 'manifest.json'}: Is a directory")
    # the files written before the failed write stay
    assert (out / "pricing_sweep.csv").is_file()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


# every float flag of each subcommand but the horizon and step of simulate
# and trade, whose range EmoConfig and TimeGrid tests cover
_FUZZED_FLAGS = {
    "simulate": ["--mu", "--sigma", "--s0"],
    "trade": ["--mu", "--sigma", "--s0", "--beta", "--eps", "--long-leverage",
              "--short-leverage"],
    "rotate": ["--theta", "--x0"],
    "price": ["--taus", "--zs", "--xs", "--r", "--k", "--t-horizon", "--beta", "--mu",
              "--sigma", "--w-terminal", "--s-t0", "--t-valuation"],
}
# small runs: a later flag overrides these
_FUZZ_BASE = {"simulate": ["--dt", "0.01"], "trade": ["--dt", "0.01"], "rotate": ["--n", "1000"],
              "price": ["--taus", "0.5", "--zs", "0.05", "--xs", "100"]}
_EDGE_VALUES = ["0", "-1", "1e-300", "-1e-300", "1e300", "-1e300", "inf", "-inf", "nan"]


@st.composite
def _edge_invocations(draw):
    command = draw(st.sampled_from(sorted(_FUZZED_FLAGS)))
    args = ["--format", draw(st.sampled_from(["csv", "json"])), command, *_FUZZ_BASE[command]]
    for flag in _FUZZED_FLAGS[command]:
        # the default half the time, so that a few edges at once are common
        value = draw(st.none() | st.sampled_from(_EDGE_VALUES))
        if value is not None:
            args += [flag, value]
    return args


@given(args=_edge_invocations())
@settings(max_examples=300, deadline=None)
def test_edge_settings_exit_cleanly(args):
    """Every subcommand at extreme settings either writes strict JSON (exit 0)
    or stops with a one-line usage error and writes nothing (exit 2)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        result = CliRunner().invoke(main, ["--out", str(out)] + args)
        assert result.exit_code in (0, 2), (result.output, result.exception)
        if result.exit_code == 2:
            assert result.output.split("Error: ", 1)[1].count("\n") == 1, result.output
            assert not out.exists()
        else:
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize(
    "args",
    [
        ["trade"],  # no excursions: both mean sojourns are undefined
        ["--seed", "2", "--format", "json", "trade", "--mu", "0.125", "--sigma", "0.5",
         "--dt", "0.001"],  # q = 0: every vol/drift ratio is undefined
        ["price", "--r", "nan"],
        ["--format", "json", "price", "--k", "inf"],
    ],
    ids=["trade_no_excursions", "trade_zero_drift", "price_nan_r", "price_inf_k"],
)
def test_json_artefacts_are_strict_json(runner, tmp_path, args):
    out = tmp_path / "o"
    result = runner.invoke(main, ["--out", str(out)] + args)
    assert result.exit_code == 0, result.output
    names = sorted(path.name for path in out.glob("*.json"))
    assert "manifest.json" in names
    for name in names:
        json.loads((out / name).read_text(), parse_constant=_reject_constant)


class TestArtefactFormat:
    """The figure and path CSVs, rebuilt from the library arrays."""

    params = GbmParams(mu=0.1, sigma=0.2, s0=100.0)

    def test_simulate_paths(self, runner, tmp_path):
        grid = TimeGrid(T=1.0, dt=0.01)
        t = floats(grid.times())
        prices = [floats(simulate_gbm(self.params, simulate_wiener(grid, path_seed(5, i))).values)
                  for i in range(2)]
        args = ["--seed", "5", "simulate", "--dt", "0.01", "--n-paths", "2"]
        for out, extra in (("a", []), ("b", ["--wide"])):
            result = runner.invoke(main, ["--out", str(tmp_path / out)] + args + extra)
            assert result.exit_code == 0, result.output
        assert (tmp_path / "a" / "path_0000.csv").read_bytes() == expected_csv(
            ["t", "value"], t, prices[0])
        assert (tmp_path / "b" / "paths_wide.csv").read_bytes() == expected_csv(
            ["t", "path_0", "path_1"], t, *prices)

    def test_trade_figures(self, runner, tmp_path):
        grid = TimeGrid(T=1.0, dt=0.001)
        w = simulate_wiener(grid, path_seed(2, 0))
        price = simulate_gbm(self.params, w)
        z = construct_z_gbm(self.params, w, beta=2.0)
        result = runner.invoke(main, ["--seed", "2", "--out", str(tmp_path), "trade",
                                      "--dt", "0.001"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "fig1_price.csv").read_bytes() == expected_csv(
            ["t", "price"], floats(grid.times()), floats(price.values))
        assert (tmp_path / "fig2_zprocess.csv").read_bytes() == fig2_bytes(
            grid.times(), z.values, detect_recurrences(z).taus)

    def test_trade_figure_marks_follow_grid_rows_at_equal_times(self, runner, tmp_path):
        # W = 0.5 sin(6 pi t), set to exactly 0 at t = 0, 0.5 and 1: Z is at
        # the level on those grid points, so recurrences tie with grid times
        grid = TimeGrid(T=1.0, dt=0.005)
        t = grid.times()
        w = 0.5 * np.sin(6 * math.pi * t)
        w[[0, 100, 200]] = 0.0
        s = 100.0 * np.exp(self.params.q * t + 0.2 * w)
        src = tmp_path / "tie.csv"
        src.write_text("t,value\n" + "".join(f"{a!r},{b!r}\n"
                                             for a, b in zip(t.tolist(), s.tolist())))
        with open(src) as fh:
            logp = log_path(read_path_csv(fh)).values
        wiener = WienerPath(grid=grid, w=(logp - logp[0] - self.params.q * t) / 0.2)
        z = construct_z_gbm(self.params, wiener, beta=2.0)
        taus = detect_recurrences(z).taus
        assert {0.0, 0.5, 1.0} <= set(floats(taus))
        result = runner.invoke(main, ["--out", str(tmp_path / "o"), "trade", "--input", str(src)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "o" / "fig2_zprocess.csv").read_bytes() == fig2_bytes(
            t, z.values, taus)

    def test_table_with_no_rows_keeps_its_header(self, runner, tmp_path):
        result = runner.invoke(main, ["--out", str(tmp_path), "trade"])  # seed 0: no excursion
        assert result.exit_code == 0, result.output
        assert result.output.startswith("0 excursion(s)")
        for name, header in (
                ("signals.csv", "entry_time,direction,exit_time"),
                ("bound_report.csv", "i,contained,vol_drift_ratio,dt_M,d_tau,flagged")):
            assert (tmp_path / name).read_text().splitlines() == [header]

    def test_rotate_circle(self, runner, tmp_path):
        grid = TimeGrid(T=1.0, dt=1e-3)
        w = simulate_wiener(grid, path_seed(3, 0))
        price = simulate_gbm(self.params, w)
        z = construct_z_gbm(self.params, w, beta=2.0)
        theta = floats(theta_process(z, price, K=0.5 * float(np.min(price.values)),
                                     cfg=EmoConfig(beta=2.0, T=1.0, wT=w.terminal)))
        angle = [2 * math.pi * (th % 1.0) for th in theta]
        result = runner.invoke(main, ["--seed", "3", "--out", str(tmp_path), "rotate", "--n",
                                      "1000", "--intervals", "0.0:0.5", "--arcs", "0.5"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "fig3_circle.csv").read_bytes() == expected_csv(
            ["t", "price", "theta", "circle_x", "circle_y"], floats(grid.times()),
            floats(price.values), theta, [math.cos(a) for a in angle],
            [math.sin(a) for a in angle])


class TestSimulate:
    def test_minimal_run_writes_path_and_header(self, runner, tmp_path):
        out = tmp_path / "run"
        result = runner.invoke(main, ["--out", str(out), "simulate", "--dt", "0.01"])
        assert result.exit_code == 0, result.output
        assert (out / "path_0000.csv").exists()
        assert (out / "paths_header.json").exists()
        assert (out / "manifest.json").exists()
        rows = read_csv(out / "path_0000.csv")
        assert list(rows[0]) == ["t", "value"]
        assert len(rows) == 101

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        args = ["--seed", "5", "simulate", "--dt", "0.01", "--n-paths", "2"]
        for d in ("a", "b"):
            result = runner.invoke(main, ["--out", str(tmp_path / d)] + args)
            assert result.exit_code == 0, result.output
        for name in ("path_0000.csv", "path_0001.csv", "paths_header.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_wide_format(self, runner, tmp_path):
        out = tmp_path / "wide"
        result = runner.invoke(
            main, ["--out", str(out), "simulate", "--dt", "0.01", "--n-paths", "3", "--wide"]
        )
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "paths_wide.csv")
        assert list(rows[0]) == ["t", "path_0", "path_1", "path_2"]

    def test_manifest_echoes_resolved_config(self, runner, tmp_path):
        out = tmp_path / "m"
        result = runner.invoke(
            main, ["--seed", "9", "--out", str(out), "simulate", "--dt", "0.01"]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["dt"] == 0.01
        assert "path_0000.csv" in manifest["outputs"]

    def test_bad_param_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path / "x"), "simulate", "--sigma", "-1"]
        )
        assert result.exit_code == 2

    def test_bad_config_file_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["--config", str(cfg), "simulate"])
        assert result.exit_code == 2

    def test_config_int_too_long_to_read_is_usage_error(self, runner, tmp_path):
        # json.load refuses an int of more than 4300 digits with a ValueError
        cfg = tmp_path / "long.json"
        cfg.write_text('{"simulate": {"dt": 1' + "0" * 5000 + "}}")
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                      "simulate"])
        assert result.exit_code == 2, result.output
        assert "cannot read config file" in result.output


class TestTrade:
    def test_internal_simulation_outputs(self, runner, tmp_path):
        out = tmp_path / "trade"
        result = runner.invoke(main, ["--seed", "2", "--out", str(out), "trade", "--dt", "0.001"])
        assert result.exit_code == 0, result.output
        for name in (
            "signals.csv",
            "bound_report.csv",
            "summary.json",
            "fig1_price.csv",
            "fig2_zprocess.csv",
            "manifest.json",
        ):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary) == ["n_excursions", "mean_sojourn_above", "mean_sojourn_below",
                                 "count_above", "count_below", "profit", "all_contained",
                                 "fraction_flagged"]
        assert summary["n_excursions"] == 18
        assert summary["count_above"] + summary["count_below"] == summary["n_excursions"]
        assert summary["profit"] >= 0.0
        assert summary["all_contained"] is True

    def test_fig2_marks_recurrences_at_the_level(self, runner, tmp_path):
        out = tmp_path / "fig2"
        result = runner.invoke(main, ["--seed", "2", "--out", str(out), "trade", "--dt", "0.001"])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "fig2_zprocess.csv")
        assert list(rows[0]) == ["t", "z", "recurrence"]
        markers = [r for r in rows if r["recurrence"] == "1"]
        assert markers
        assert all(float(r["z"]) == 0.0 for r in markers)
        z_vals = np.array([float(r["z"]) for r in rows if r["recurrence"] == "0"])
        assert z_vals.min() < 0 < z_vals.max()  # Z oscillates about the level

    def test_constant_price_input_yields_zero_profit(self, runner, tmp_path):
        price_csv = tmp_path / "flat.csv"
        with open(price_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "value"])
            for k in range(101):
                writer.writerow([repr(k * 0.01), repr(100.0)])
        out = tmp_path / "flat_out"
        result = runner.invoke(
            main, ["--out", str(out), "trade", "--input", str(price_csv)]
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_excursions"] == 0
        assert summary["profit"] == 0.0

    @pytest.mark.parametrize(
        "text, cause",
        [
            ("", "empty"),
            ("t,value\n", "0 data row"),
            ("t,value\n0.0,100.0\n", "1 data row"),
            ("t,value\n0.0,1.0\n0.1,1.0\n0.2,1.0\n0.4,1.0\n", "uniform grid"),
            ("t,value\n0.5,1.0\n0.6,1.0\n0.7,1.0\n", "start at 0"),
            ("t,value\n0.0,1.0\n0.5,inf\n1.0,1.0\n", "must be finite"),
        ],
        ids=["empty", "header_only", "one_row", "gap", "late_start", "infinite"],
    )
    def test_malformed_input_is_usage_error(self, runner, tmp_path, text, cause):
        price_csv = tmp_path / "bad.csv"
        price_csv.write_text(text)
        result = runner.invoke(
            main, ["--out", str(tmp_path / "out"), "trade", "--input", str(price_csv)]
        )
        assert result.exit_code == 2, result.output
        assert "bad --input" in result.output and cause in result.output

    def test_input_with_byte_order_mark_reads_as_without(self, runner, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with the UTF-8 BOM
        grid = TimeGrid(T=1.0, dt=0.001)
        params = GbmParams(mu=0.1, sigma=0.2, s0=100.0)
        price = simulate_gbm(params, simulate_wiener(grid, path_seed(2, 0)))
        buf = io.StringIO()
        write_path_csv(price, buf)
        outputs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            src = tmp_path / f"{name}.csv"
            src.write_bytes(prefix + buf.getvalue().encode())
            out = tmp_path / f"{name}_out"
            result = runner.invoke(main, ["--out", str(out), "trade", "--input", str(src)])
            assert result.exit_code == 0, result.output
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"].pop("input") == str(src)
            outputs.append((manifest, {p.name: p.read_bytes() for p in out.iterdir()
                                       if p.name != "manifest.json"}))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1]["summary.json"])["n_excursions"] > 0

    def test_input_horizon_beyond_float_range_is_usage_error(self, runner, tmp_path):
        # a well-formed grid whose horizon T = 1e200 puts T^beta past the float range
        price_csv = tmp_path / "long.csv"
        price_csv.write_text("t,value\n" + "".join(f"{k}e199,100.0\n" for k in range(11)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out", str(out), "trade", "--input", str(price_csv)])
        assert result.exit_code == 2, result.output
        assert "T = 1e+200 and beta = 2.0 put T^beta outside the float range" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--mu", "1e300", "mu = 1e+300, sigma = 0.2, beta = 2.0 and T = 1.0 take Z out of the "
                          "float range: path values must be finite, got -inf at index 1"),
        ("--sigma", "1e-310", "mu = 0.1 and sigma = 1e-310 take the Wiener path backed out of "
                              "--input beyond the float range: Wiener values must be finite, "
                              "got -inf at index 1"),
    ], ids=["mu", "sigma"])
    def test_input_setting_that_overflows_is_named(self, tmp_path, flag, value, message):
        # in a child process, where a NumPy warning would print rather than raise
        price_csv = tmp_path / "in.csv"
        price_csv.write_text("t,value\n0,100\n0.5,101\n1,102\n")
        result = subprocess.run(
            [sys.executable, "-m", "logergodic.cli", "--out", str(tmp_path / "o"), "trade",
             "--input", str(price_csv), flag, value],
            capture_output=True, text=True, timeout=60, env=_child_env())
        assert result.returncode == 2, result.stderr
        assert "RuntimeWarning" not in result.stderr + result.stdout
        assert result.stderr.strip().splitlines()[-1] == f"Error: {message}"
        assert not (tmp_path / "o").exists()

    def test_directory_input_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path / "out"), "trade", "--input", str(tmp_path)]
        )
        assert result.exit_code == 2, result.output
        assert "--input" in result.output and "is a directory" in result.output

    def test_signal_snapshot_is_stable(self, runner, tmp_path):
        outs = []
        for d in ("s1", "s2"):
            out = tmp_path / d
            result = runner.invoke(
                main, ["--seed", "3", "--out", str(out), "trade", "--dt", "0.001"]
            )
            assert result.exit_code == 0, result.output
            outs.append((out / "signals.csv").read_bytes())
        assert outs[0] == outs[1]


class TestRotate:
    def test_diagnostics_and_figure_data(self, runner, tmp_path):
        out = tmp_path / "rot"
        result = runner.invoke(
            main,
            [
                "--out", str(out), "rotate", "--theta", "sqrt2", "--n", "100000",
                "--intervals", "0.2:0.5", "--arcs", "0.25",
            ],
        )
        assert result.exit_code == 0, result.output
        freq = read_csv(out / "equidistribution.csv")
        assert len(freq) == 1
        assert abs(float(freq[0]["frequency"]) - 0.3) <= 0.01
        kac = read_csv(out / "kac_returns.csv")
        assert float(kac[0]["mean_return"]) == pytest.approx(4.0, rel=0.02)
        birkhoff = read_csv(out / "birkhoff.csv")
        consts = {r["function"]: float(r["average"]) for r in birkhoff}
        assert consts["constant_0.37"] == pytest.approx(0.37, abs=1e-12)
        fig3 = read_csv(out / "fig3_circle.csv")
        assert list(fig3[0]) == ["t", "price", "theta", "circle_x", "circle_y"]
        x = float(fig3[10]["circle_x"])
        y = float(fig3[10]["circle_y"])
        assert x**2 + y**2 == pytest.approx(1.0, abs=1e-12)

    def test_numeric_theta_accepted(self, runner, tmp_path):
        out = tmp_path / "num"
        result = runner.invoke(
            main,
            ["--out", str(out), "rotate", "--theta", "0.4142", "--n", "1000",
             "--intervals", "0.0:0.5", "--arcs", "0.5"],
        )
        assert result.exit_code == 0, result.output

    def test_near_integer_theta_is_usage_error_and_writes_no_file(self, runner, tmp_path):
        # the orbit steps back by 1e-12 a step and never re-enters the arc [0, 0.1)
        out = tmp_path / "near"
        result = runner.invoke(
            main, ["--out", str(out), "rotate", "--theta", "0.999999999999", "--n", "1000"])
        assert result.exit_code == 2, result.output
        assert "theta 0.999999999999" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("n", [1000, 10**6, 10**9])
    @pytest.mark.parametrize(
        "theta, convergent",
        [(0.0, (0, 1)), (1.0, (0, 1)), (-1.0, (0, 1)), (1e300, (0, 1)), (1e-300, (0, 1)),
         (0.5, (1, 2)), (1 / 3, (1, 3)), (0.1, (1, 10)), (0.3, (3, 10)),
         (rotation.SQRT2, None), (rotation.GOLDEN_CONJUGATE, None), (math.pi, None),
         (math.e, None), (0.4142, None), (0.999999999999, None)],
    )
    def test_rational_neighbour(self, theta, convergent, n):
        assert _rational_neighbour(theta, n) == convergent

    def test_orbit_over_cap_is_usage_error_before_scanning(self, runner, tmp_path, monkeypatch):
        def no_count(*args):
            raise AssertionError("orbit counted")

        monkeypatch.setattr(rotation, "_floor_sum", no_count)
        out = tmp_path / "long"
        result = runner.invoke(main, ["--out", str(out), "rotate", "--n", "100000000000"])
        assert result.exit_code == 2, result.output
        assert "a scan of 100000000000 orbit steps is more than 1000000000" in result.output
        assert not out.exists()

    def test_unknown_theta_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path / "x"), "rotate", "--theta", "pi-ish"]
        )
        assert result.exit_code == 2

    def test_interval_without_colon_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path / "x"), "rotate", "--n", "1000", "--intervals", "0.5"]
        )
        assert result.exit_code == 2, result.output
        assert "bad interval/arc spec" in result.output

    @pytest.mark.parametrize("spec, bad", [("0.1:0.2:0.3", "0.1:0.2:0.3"), ("0.5", "0.5"),
                                           ("0.0:0.5,,0.5:1.0", "")])
    def test_interval_that_is_not_a_pair_is_named(self, runner, tmp_path, spec, bad):
        result = runner.invoke(
            main, ["--out", str(tmp_path / "x"), "rotate", "--n", "1000", "--intervals", spec])
        assert result.exit_code == 2, result.output
        assert f"bad interval/arc spec: interval {bad!r} is not a:b" in result.output


class TestPrice:
    def test_default_sweep_cross_validates(self, runner, tmp_path):
        out = tmp_path / "sweep"
        result = runner.invoke(main, ["--out", str(out), "price"])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "pricing_sweep.csv")
        assert len(rows) == 27
        for row in rows:
            assert row["error"] == ""
            assert float(row["rel_gap"]) <= 1e-2
            assert row["rotation"] != ""

    def test_domain_error_rows_are_reported_not_fatal(self, runner, tmp_path):
        out = tmp_path / "err"
        result = runner.invoke(main, ["--out", str(out), "price", "--k", "0.5"])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "pricing_sweep.csv")
        assert all("K > 1" in row["error"] for row in rows)
        assert all(row["closed_form"] == "" for row in rows)
        # the rotation pricer needs only K < s_t0, which holds
        assert all(math.isfinite(float(row["rotation"])) for row in rows)

    def test_non_finite_input_is_an_error_row(self, runner, tmp_path):
        out = tmp_path / "nan"
        result = runner.invoke(
            main,
            ["--out", str(out), "price", "--taus", "0.5", "--zs", "0.05", "--xs", "100",
             "--mu", "nan"],
        )
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "pricing_sweep.csv")
        assert [row["error"] for row in rows] == ["mu must be finite, got nan"]

    @pytest.mark.parametrize(
        "flag, value, failed",
        [("--xs", "nan", "ergodic"), ("--zs", "nan", "ergodic"), ("--taus", "nan", "ergodic"),
         ("--sigma", "0", "ergodic"), ("--mu", "inf", "ergodic"),
         ("--s-t0", "nan", "rotation"), ("--t-valuation", "inf", "rotation")],
    )
    def test_each_pricer_fails_only_in_its_own_cells(self, runner, tmp_path, flag, value,
                                                     failed):
        point = {"--taus": "0.5", "--zs": "0.05", "--xs": "100", flag: value}
        out = tmp_path / "one"
        result = runner.invoke(
            main, ["--out", str(out), "price", *(a for kv in point.items() for a in kv)])
        assert result.exit_code == 0, result.output
        [row] = read_csv(out / "pricing_sweep.csv")
        ergodic_cells = [row["closed_form"], row["pde"], row["rel_gap"]]
        if failed == "ergodic":
            assert ergodic_cells == ["", "", ""]
            assert math.isfinite(float(row["rotation"]))
            assert row["error"] and not row["error"].startswith("rotation:")
        else:
            assert all(math.isfinite(float(cell)) for cell in ergodic_cells)
            assert row["rotation"] == ""
            assert row["error"].startswith("rotation: ")

    def test_single_point_sweep(self, runner, tmp_path):
        out = tmp_path / "single"
        result = runner.invoke(
            main,
            ["--out", str(out), "price", "--taus", "0.5", "--zs", "0.05", "--xs", "100"],
        )
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "pricing_sweep.csv")
        assert len(rows) == 1
        assert float(rows[0]["closed_form"]) == pytest.approx(-2.846658565115171, rel=1e-9)

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "json"
        result = runner.invoke(
            main,
            ["--out", str(out), "--format", "json", "price",
             "--taus", "0.5", "--zs", "0.05", "--xs", "100"],
        )
        assert result.exit_code == 0, result.output
        rows = json.loads((out / "pricing_sweep.json").read_text())
        assert len(rows) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflow_points_are_error_rows(self, runner, tmp_path, fmt):
        out = tmp_path / "big"
        result = runner.invoke(
            main,
            ["--out", str(out), "--format", fmt, "price",
             "--taus", "0.95,0.99,0.999", "--zs", "0.05", "--xs", "100"],
        )
        assert result.exit_code == 0, result.output
        text = (out / f"pricing_sweep.{fmt}").read_text()
        assert "Infinity" not in text and "inf" not in text
        rows = read_csv(out / "pricing_sweep.csv") if fmt == "csv" else json.loads(text)
        assert [row["error"] for row in rows] == [
            "closed-form price overflows the float range; "
            "pde price overflows the float range"] * 3
        for row in rows:
            assert row["closed_form"] == row["pde"] == row["rel_gap"] == ""

    @pytest.mark.parametrize(
        "flag, value",
        [("--zs", "1e300"), ("--r", "1e300"), ("--mu", "1e300"), ("--t-horizon", "1e300"),
         ("--beta", "1e300"), ("--mu", "1e100"), ("--zs", "1e-300"), ("--r", "1e-300")],
        ids=["--zs", "--r", "--mu", "--t-horizon", "--beta", "--mu-1e100", "--zs-1e-300",
             "--r-1e-300"],
    )
    def test_coefficient_overflow_is_an_error_row(self, runner, tmp_path, flag, value):
        out = tmp_path / "huge"
        result = runner.invoke(main, ["--out", str(out), "price", flag, value])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "pricing_sweep.csv")
        assert rows and all("put the pricing coefficients outside the float range" in row["error"]
                   for row in rows)
        assert all(row["closed_form"] == row["pde"] == "" for row in rows)

    def test_bad_grid_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path / "x"), "price", "--taus", "0.5,abc"]
        )
        assert result.exit_code == 2


class TestValidate:
    def test_failure_exits_nonzero(self, runner, monkeypatch):
        def fake_run_all():
            return [
                CriterionResult(cid=1, description="stub", passed=True, detail="ok"),
                CriterionResult(cid=2, description="stub", passed=False, detail="bad"),
            ]

        monkeypatch.setattr(validation, "run_all", fake_run_all)
        result = runner.invoke(main, ["validate"])
        assert result.exit_code == 1
        assert "[FAIL]" in result.output
        assert "1/2 criteria passed" in result.output

    def test_report_lists_every_criterion(self, runner, monkeypatch):
        def fake_run_all():
            return [
                CriterionResult(cid=i, description=f"c{i}", passed=True, detail="ok")
                for i in range(1, 13)
            ]

        monkeypatch.setattr(validation, "run_all", fake_run_all)
        result = runner.invoke(main, ["validate"])
        assert result.exit_code == 0
        for i in range(1, 13):
            assert f"[PASS] {i:2d}" in result.output

    def test_bad_format_flag_is_usage_error(self, runner):
        result = runner.invoke(main, ["--format", "xml", "validate"])
        assert result.exit_code == 2
