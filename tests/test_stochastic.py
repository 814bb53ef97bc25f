import csv
import io
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logergodic import (
    GbmParams,
    PathKind,
    SamplePath,
    TimeGrid,
    WienerPath,
    log_path,
    path_seed,
    simulate_gbm,
    simulate_wiener,
    stochastic,
)
from logergodic.cli import _table
from logergodic.stochastic import (
    _CHUNK_ROWS,
    _write_csv,
    path_header,
    read_path_csv,
    write_path_csv,
)

CHUNK_EDGES = [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1]
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 1.7e308, -1.7e308, math.inf, math.nan, 0.1]
SPECIAL_INTS = [0, -1, 2**63 - 1, -(2**63), 10**18]


def csv_writer_text(header, columns) -> str:
    """The reference table: `csv.writer` on Python values, as before columns were
    written by chunks."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() for c in columns)))
    return buf.getvalue()


def random_column(rng, kind: str, n: int) -> np.ndarray:
    """n values of every magnitude (random float bit patterns, or int64 or
    uint64 values), with the special values of the kind at random rows."""
    if kind == "float":
        col = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
        special = np.array(SPECIAL_FLOATS)
    elif kind == "int":
        col = rng.integers(-(2**63), 2**63, n, dtype=np.int64, endpoint=False)
        special = np.array(SPECIAL_INTS)
    else:
        col = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        special = np.array([0, 2**64 - 1], dtype=np.uint64)
    if n:
        col[rng.integers(0, n, len(special))] = special
    return col


def float_per_field(text: str) -> SamplePath:
    """The oracle reader: `csv` rows, blank ones skipped, and `float` on the first
    two fields of each data row."""
    t, v = np.array([(float(r[0]), float(r[1]))
                     for r in list(csv.reader(io.StringIO(text)))[1:] if r]).T
    return SamplePath(grid=TimeGrid(T=float(t[-1]), dt=float(t[1] - t[0])), values=v,
                      kind=PathKind.PRICE)


# the reader's own wording for a row that is not two numbers
NOT_TWO_NUMBERS = "path CSV rows must start with two numbers t,value"


class TestTimeGrid:
    def test_three_point_grid(self):
        grid = TimeGrid(T=1.0, dt=0.5)
        assert grid.n == 2
        np.testing.assert_allclose(grid.times(), [0.0, 0.5, 1.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"T": 1.0, "dt": 0.0},
            {"T": 1.0, "dt": -0.1},
            {"T": 0.0, "dt": 0.1},
            {"T": -1.0, "dt": 0.1},
            {"T": 1.0, "dt": 1.0},  # n = 1 < 2
            {"T": 1.0, "dt": 0.3},  # dt does not divide T
        ],
    )
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TimeGrid(**kwargs)

    @pytest.mark.parametrize("T, dt", [(1e10, 1e-300), (1e300, 1e-10)])
    def test_step_count_beyond_float_range_rejected(self, T, dt):
        with pytest.raises(ValueError, match=re.escape(f"T = {T} over dt = {dt}")):
            TimeGrid(T=T, dt=dt)

    def test_index_of_nearest(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        assert grid.index_of(0.0) == 0
        assert grid.index_of(0.26) == 1
        assert grid.index_of(1.0) == 4
        assert grid.index_of(5.0) == 4  # clamped

    def test_index_of_scalar_is_int_and_ties_round_half_to_even(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        # t/dt = 0.5, 1.5, 2.5 -> 0, 2, 2, as round() gives
        assert [grid.index_of(t) for t in (0.125, 0.375, 0.625)] == [0, 2, 2]
        assert type(grid.index_of(0.3)) is int
        assert grid.index_of(-3.0) == 0

    @given(ts=st.lists(st.floats(-2.0, 3.0) | st.sampled_from([0.05, 0.15, 0.25, 0.35]),
                       max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_index_of_array_matches_scalar_rule(self, ts):
        grid = TimeGrid(T=2.0, dt=0.1)
        got = grid.index_of(np.asarray(ts, dtype=float))
        assert got.shape == (len(ts),)
        assert got.tolist() == [min(max(round(t / grid.dt), 0), grid.n) for t in ts]
        assert got.tolist() == [grid.index_of(t) for t in ts]

    def test_index_of_keeps_the_array_shape(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        got = grid.index_of(np.array([[0.0, 0.26], [1.0, 5.0]]))
        np.testing.assert_array_equal(got, [[0, 1], [4, 4]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
    def test_index_of_rejects_non_finite_time(self, bad):
        with pytest.raises(ValueError, match="t must be finite"):
            TimeGrid(T=1.0, dt=0.25).index_of(bad)


class TestSimulateWiener:
    def test_starts_at_zero(self):
        path = simulate_wiener(TimeGrid(T=1.0, dt=0.5), seed=7)
        assert len(path.w) == 3
        assert path.w[0] == 0.0

    def test_deterministic_in_seed(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        a = simulate_wiener(grid, seed=7)
        b = simulate_wiener(grid, seed=7)
        c = simulate_wiener(grid, seed=8)
        np.testing.assert_array_equal(a.w, b.w)
        assert not np.array_equal(a.w, c.w)

    def test_path_seed_is_order_independent(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        first = simulate_wiener(grid, path_seed(5, 3)).w
        # generating other ensemble members does not change member 3
        for i in (0, 1, 2, 4):
            simulate_wiener(grid, path_seed(5, i))
        np.testing.assert_array_equal(simulate_wiener(grid, path_seed(5, 3)).w, first)
        assert not np.array_equal(simulate_wiener(grid, path_seed(5, 4)).w, first)

    def test_terminal_ensemble_statistics(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        n = 10_000
        wt = np.array(
            [simulate_wiener(grid, path_seed(0, i)).terminal for i in range(n)]
        )
        assert abs(wt.mean()) <= 3 * math.sqrt(grid.T / n)
        assert 0.95 <= wt.var(ddof=1) / grid.T <= 1.05

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match=f"Wiener values must be finite, got {bad} at index 2"):
            WienerPath(grid=TimeGrid(T=1.0, dt=0.5), w=np.array([0.0, 0.1, bad]))


class TestSimulateGbm:
    def test_vanishing_volatility_limit(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        w = simulate_wiener(grid, seed=3)
        s = simulate_gbm(GbmParams(mu=0.1, sigma=1e-9, s0=100.0), w)
        assert s.values[-1] == pytest.approx(100.0 * math.exp(0.1), rel=1e-6)

    def test_flat_wiener_zero_log_drift(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        w = WienerPath(grid=grid, w=np.zeros(grid.n + 1))
        sigma = 0.2
        s = simulate_gbm(GbmParams(mu=sigma**2 / 2, sigma=sigma, s0=100.0), w)
        np.testing.assert_allclose(s.values, 100.0)

    def test_matches_exponential_formula_pointwise(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        w = simulate_wiener(grid, seed=11)
        params = GbmParams(mu=0.1, sigma=0.2, s0=100.0)
        s = simulate_gbm(params, w)
        expected = params.s0 * np.exp(params.q * grid.times() + params.sigma * w.w)
        np.testing.assert_allclose(s.values, expected, rtol=1e-12)

    def test_zero_drift_terminal_mean(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        params = GbmParams(mu=0.0, sigma=0.2, s0=100.0)
        n = 10_000
        st = np.array(
            [
                simulate_gbm(params, simulate_wiener(grid, path_seed(1, i))).values[-1]
                for i in range(n)
            ]
        )
        assert abs(st.mean() / params.s0 - 1.0) <= 0.02

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GbmParams(mu=0.1, sigma=0.0, s0=100.0)
        with pytest.raises(ValueError):
            GbmParams(mu=0.1, sigma=0.2, s0=0.0)

    @pytest.mark.parametrize("name", ["mu", "sigma", "s0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_param_rejected(self, name, bad):
        kwargs = {"mu": 0.1, "sigma": 0.2, "s0": 100.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GbmParams(**kwargs)

    @pytest.mark.parametrize(
        "mu, sigma",
        [(0.1, 1e300), (-1.7e308, 1.5e154)],
        ids=["sigma_squared_overflows", "difference_overflows"],
    )
    def test_log_drift_beyond_float_range_rejected(self, mu, sigma):
        with pytest.raises(ValueError, match=re.escape(f"mu = {mu} and sigma = {sigma} put the log drift")):
            GbmParams(mu=mu, sigma=sigma, s0=100.0)

    def test_q_property(self):
        assert GbmParams(mu=0.1, sigma=0.2, s0=1.0).q == pytest.approx(0.08)


class TestLogPath:
    def test_constants(self):
        grid = TimeGrid(T=1.0, dt=0.5)
        ones = SamplePath(grid=grid, values=np.ones(3), kind=PathKind.PRICE)
        np.testing.assert_allclose(log_path(ones).values, 0.0)
        es = SamplePath(grid=grid, values=np.full(3, math.e), kind=PathKind.PRICE)
        np.testing.assert_allclose(log_path(es).values, 1.0)

    def test_gbm_log_closed_form(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        w = simulate_wiener(grid, seed=13)
        params = GbmParams(mu=0.1, sigma=0.2, s0=100.0)
        y = log_path(simulate_gbm(params, w))
        expected = math.log(100.0) + params.q * grid.times() + params.sigma * w.w
        np.testing.assert_allclose(y.values, expected, rtol=0, atol=1e-12)

    def test_round_trip(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        w = simulate_wiener(grid, seed=13)
        s = simulate_gbm(GbmParams(mu=0.1, sigma=0.2, s0=100.0), w)
        np.testing.assert_allclose(np.exp(log_path(s).values), s.values, rtol=1e-12)

    def test_rejects_wrong_kind(self):
        grid = TimeGrid(T=1.0, dt=0.5)
        z = SamplePath(grid=grid, values=np.zeros(3), kind=PathKind.ZPROCESS)
        with pytest.raises(ValueError, match="price"):
            log_path(z)

    def test_non_positive_price_path_rejected_at_construction(self):
        grid = TimeGrid(T=1.0, dt=0.5)
        with pytest.raises(ValueError, match="positive"):
            SamplePath(grid=grid, values=np.array([1.0, -1.0, 1.0]), kind=PathKind.PRICE)

    @pytest.mark.parametrize("kind", [PathKind.PRICE, PathKind.ZPROCESS])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected_at_construction(self, kind, bad):
        grid = TimeGrid(T=1.0, dt=0.5)
        with pytest.raises(ValueError, match="values must be finite.*index 1"):
            SamplePath(grid=grid, values=np.array([1.0, bad, 1.0]), kind=kind)


class TestSerialization:
    def test_csv_round_trip(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        w = simulate_wiener(grid, seed=5)
        s = simulate_gbm(GbmParams(mu=0.1, sigma=0.2, s0=100.0), w)
        buf = io.StringIO()
        write_path_csv(s, buf)
        buf.seek(0)
        back = read_path_csv(buf)
        assert back.grid.compatible(grid)
        np.testing.assert_array_equal(back.values, s.values)

    @pytest.mark.parametrize(
        "text, cause",
        [
            ("", "empty"),
            ("t,value\r\n", "0 data row"),
            ("t,value\r\n0.0,100.0\r\n", "1 data row"),
            ("t,value\r\n0.0,100.0\r\n0.5\r\n1.0,100.0\r\n", NOT_TWO_NUMBERS),
            ("t,value\r\n0.0,100.0\r\n0.5,abc\r\n1.0,100.0\r\n", f"{NOT_TWO_NUMBERS}: .*'abc'"),
            ("t,value\r\n0.0,1.0\r\n0.1,1.0\r\n0.2,1.0\r\n0.4,1.0\r\n", "uniform grid"),
            ("t,value\r\n0.0,1.0\r\n0.1,1.0\r\n0.25,1.0\r\n0.3,1.0\r\n", "uniform grid"),
            ("t,value\r\n0.5,1.0\r\n0.6,1.0\r\n0.7,1.0\r\n", "start at 0"),
            ("t,value\r\n0.0,1.0\r\n0.5,inf\r\n1.0,1.0\r\n", "must be finite"),
            ("t,value\r\n0.0,1.0\r\n0.5,0.0\r\n1.0,1.0\r\n", "strictly positive"),
        ],
        ids=["empty", "header_only", "one_row", "short_row", "not_a_number", "gap",
             "uneven_step", "late_start", "infinite", "zero_price"],
    )
    def test_malformed_csv_names_the_cause(self, text, cause):
        with pytest.raises(ValueError, match=cause):
            read_path_csv(io.StringIO(text))

    @given(rows=st.sampled_from(CHUNK_EDGES),
           kinds=st.lists(st.sampled_from(["float", "int", "uint"]), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_array_table_matches_csv_writer(self, rows, kinds, seed):
        rng = np.random.default_rng(seed)
        columns = [random_column(rng, kind, rows) for kind in kinds]
        header = [f"c{i}" for i in range(len(columns))]
        buf = io.StringIO()
        _write_csv(buf, header, columns)
        assert buf.getvalue() == csv_writer_text(header, columns)

    def test_table_with_a_string_column_matches_csv_writer(self):
        columns = {"x": np.array([1.5, -0.0, math.nan]), "name": np.array(["a", "b,c", 'd"e']),
                   "ok": np.array([True, False, True]), "note": ("", None, "f\ng")}
        buf = io.StringIO()
        _table("t", columns, "csv")["t.csv"](buf)
        expected = io.StringIO()
        csv.writer(expected).writerows([["x", "name", "ok", "note"], [1.5, "a", True, ""],
                                        [-0.0, "b,c", False, None], [math.nan, 'd"e', True, "f\ng"]])
        assert buf.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("rows", CHUNK_EDGES[1:])
    def test_cli_table_matches_csv_writer(self, rows):
        rng = np.random.default_rng(rows)
        columns = {"t": random_column(rng, "float", rows), "z": random_column(rng, "float", rows),
                   "mark": random_column(rng, "int", rows)}
        buf = io.StringIO()
        _table("fig", columns, "csv")["fig.csv"](buf)
        assert buf.getvalue() == csv_writer_text(list(columns), list(columns.values()))

    @pytest.mark.parametrize("T, dt", [(1.0, 1.0 / (_CHUNK_ROWS - 2)), (1.0, 1.0 / (_CHUNK_ROWS - 1)),
                                       (1.0, 1.0 / _CHUNK_ROWS), (2.0, 1.0 / _CHUNK_ROWS),
                                       (1.0, 0.1)])
    def test_path_csv_matches_csv_writer(self, T, dt):
        grid = TimeGrid(T=T, dt=dt)
        # two paths on one grid: the second reuses the first one's time fields
        for seed in (1, 2):
            path = simulate_gbm(GbmParams(mu=0.1, sigma=0.2, s0=100.0), simulate_wiener(grid, seed))
            buf = io.StringIO()
            write_path_csv(path, buf)
            assert buf.getvalue() == csv_writer_text(["t", "value"], [grid.times(), path.values])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_tables_in_files_do_not_depend_on_writers(self, tmp_path, force_writers,
                                                      assert_writers_gone, workers):
        """A path CSV and a numeric table written to files, their rows split
        across as many as `workers` writers, keep the bytes of csv.writer."""
        forked = force_writers(workers, chunk_rows=100)
        grid = TimeGrid(T=1.0, dt=1e-3)  # 1001 rows: eleven chunks
        path = simulate_gbm(GbmParams(mu=0.1, sigma=0.2, s0=100.0), simulate_wiener(grid, 3))
        rng = np.random.default_rng(workers)
        columns = {"t": random_column(rng, "float", 1001), "mark": random_column(rng, "int", 1001)}
        with open(tmp_path / "path.csv", "w", newline="") as fh:
            write_path_csv(path, fh)
        with open(tmp_path / "fig.csv", "w", newline="") as fh:
            _table("fig", columns, "csv")["fig.csv"](fh)
        assert len(forked) == 2 * (workers - 1)
        assert (tmp_path / "path.csv").read_bytes() == csv_writer_text(
            ["t", "value"], [grid.times(), path.values]).encode()
        assert (tmp_path / "fig.csv").read_bytes() == csv_writer_text(
            list(columns), list(columns.values())).encode()
        assert_writers_gone(tmp_path, ["fig.csv", "path.csv"])

    @pytest.mark.parametrize("where", ["stdout", "read_only_directory", "refused"])
    def test_tables_with_no_temporary_files_are_written_serially(
            self, tmp_path, monkeypatch, force_writers, assert_writers_gone, where):
        """A path CSV of 2 x 16384 rows is written by one process, with the
        bytes of csv.writer, to a file that its name does not name, such as
        sys.stdout ('<stdout>'), or to a writable file in a directory that
        takes no temporary file: read-only, or refusing them outright."""
        forked = force_writers(2)
        grid = TimeGrid(T=1.0, dt=1.0 / (2 * 16384))
        path = simulate_gbm(GbmParams(mu=0.1, sigma=0.2, s0=100.0), simulate_wiener(grid, 4))
        target = tmp_path / "path.csv"
        target.touch()
        monkeypatch.chdir(tmp_path)  # where a temporary file beside '<stdout>' would go
        if where == "read_only_directory":
            if os.geteuid() == 0:
                pytest.skip("root may write into a read-only directory")
            tmp_path.chmod(0o555)
        elif where == "refused":
            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied", str(tmp_path))
            monkeypatch.setattr(stochastic.tempfile, "TemporaryFile", refuse)
        try:
            with open(target, "w", newline="") as fh:
                if where == "stdout":
                    fh.buffer.raw.name = "<stdout>"
                write_path_csv(path, fh)
        finally:
            tmp_path.chmod(0o755)
        assert forked == []
        assert target.read_bytes() == csv_writer_text(
            ["t", "value"], [grid.times(), path.values]).encode()
        assert_writers_gone(tmp_path, ["path.csv"])

    @pytest.mark.parametrize(
        "text, outcome",
        [
            ("t,value\n0,100\n0.5,101\n1,102\n", [100.0, 101.0, 102.0]),
            ("t,value\r\n0,100\r\n0.5,101\r\n1,102\r\n", [100.0, 101.0, 102.0]),
            ("t,value\n\n0,100\n\n0.5,101\r\n\r\n1,102\n\n", [100.0, 101.0, 102.0]),
            ("t,value\n# a comment\n0,100\n0.5,101\n1,102\n", (NOT_TWO_NUMBERS, "'# a comment'")),
            ('t,value\n"0","100"\n0.5,"101"\n1,102\n', [100.0, 101.0, 102.0]),
            ('"t","value"\n0,100\n0.5,101\n1,102\n', [100.0, 101.0, 102.0]),
            ("t,value\n 0 , 100 \n0.5 ,\t101\n1, 102\n", [100.0, 101.0, 102.0]),
            ("t,value\n0,100,x\n0.5,101,y\n1,102,z\n", [100.0, 101.0, 102.0]),
            ("t,value\n0,100,\n0.5,101,\n1,102,\n", [100.0, 101.0, 102.0]),
            ("t,value\n0,100\n0.5,101,7\n1,102\n", [100.0, 101.0, 102.0]),
            # a quoted third field continues onto the next line: two data rows
            ('t,value,note\n0,100,"a\n0.5,101,b"\n1,102,c\n', ("2 data row(s)",)),
            ("t,value\n0,100\n0.5\n1,102\n", (NOT_TWO_NUMBERS,)),
            ("t,value\n0,100\n   \n0.5,101\n1,102\n", (NOT_TWO_NUMBERS, "'   '")),
            ("t,value\n0,100\n0.5,abc\n1,102\n", (NOT_TWO_NUMBERS, "'abc'")),
            ("t,value\n0,100\n0.5,\n1,102\n", (NOT_TWO_NUMBERS, "''")),
            ("t,value\n0,100\n0.5,nan\n1,102\n", ("values must be finite, got nan at index 1",)),
            ("t,value\n0,100\n0.5,inf\n1,102\n", ("values must be finite, got inf at index 1",)),
            ("t,value\n0,100\n0.5,-Infinity\n1,102\n",
             ("values must be finite, got -inf at index 1",)),
            # Python literal syntax, which no CSV producer writes
            ("t,value\n0,1_000\n0.5,101\n1,102\n", (NOT_TWO_NUMBERS, "'1_000'")),
            ("t,value,volume\n0,100,5\n0.5,101,6\n1,102,7\n", [100.0, 101.0, 102.0]),
            ("t,value\n0,1\n", ("1 data row(s); a path needs at least 3",)),
            ("t,value\n", ("0 data row(s); a path needs at least 3",)),
            ("", ("path CSV is empty",)),
            ("t,value," + "x" * 200_000 + "\n0,100\n0.5,101\n1,102\n",
             ("path CSV header is not a CSV line: field larger than field limit",)),
            ("\ufefft,value\n0,100\n0.5,101\n1,102\n",
             ("expected 't,value' header, got ['\\ufefft', 'value']",)),
            ("time,value\n0,100\n0.5,101\n1,102\n",
             ("expected 't,value' header, got ['time', 'value']",)),
            ("t,value\n0,100\n0.25,101\n1,102\n", ("not the uniform grid 0, 0.25, ..., 1.0",)),
            ("t,value\n0.5,100\n1,101\n1.5,102\n", ("times must start at 0, got t = 0.5",)),
            # 1 + 2^-53 exactly, half way between two doubles, rounds to even
            ("t,value\n-0,+1e2\n.5,101.\n1E0,1.00000000000000011102230246251565404236316680908203125\n",
             [100.0, 101.0, 1.0]),
            ("t,value\n0,0.1000000000000000055511151231257827021181583404541015625\n"
             "0.5,2.2250738585072011e-308\n1,4.9406564584124654e-324\n",
             [0.1, 2.225073858507201e-308, 5e-324]),
            ("t,value\n0,100\n0.5,0\n1,102\n", ("price paths must be strictly positive",)),
        ],
        ids=["lf", "crlf", "blank_lines", "comment", "quoted_fields", "quoted_header",
             "spaces", "extra_text_column", "trailing_comma", "one_extra_field",
             "multiline_quoted_field", "short_row", "whitespace_row", "abc", "empty_field", "nan",
             "inf", "minus_infinity", "underscore", "three_column_header", "one_row",
             "header_only", "empty", "huge_header", "bom", "wrong_header", "uneven_grid",
             "late_start", "number_forms", "rounding_cases", "zero_price"],
    )
    def test_both_read_paths_agree(self, text, outcome):
        """The reader's outcome on each input: an accepted one gives its values on
        the grid 0, 0.5, 1, bit for bit those of the `float_per_field` oracle; a
        rejected one gives the reader's own message and the offending field."""
        if isinstance(outcome, tuple):
            with pytest.raises(ValueError) as err:
                read_path_csv(io.StringIO(text))
            assert all(part in str(err.value) for part in outcome), str(err.value)
            return
        path = read_path_csv(io.StringIO(text))
        assert path.grid == TimeGrid(T=1.0, dt=0.5)
        assert path.values.tolist() == outcome
        assert path.values.tobytes() == float_per_field(text).values.tobytes()

    @given(values=st.lists(st.floats(min_value=5e-324, allow_infinity=False), min_size=3,
                           max_size=40),
           form=st.sampled_from(["{!r}", "{:.17g}", "{:.25e}", "{:.3f}", "{:.40f}"]),
           newline=st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=100, deadline=None)
    def test_both_read_paths_read_the_same_bits(self, values, form, newline):
        grid = TimeGrid(T=1.0, dt=1.0 / (len(values) - 1))
        lines = ["t,value"] + [f"{t!r},{form.format(v)}"
                               for t, v in zip(grid.times().tolist(), values)]
        text = newline.join(lines) + newline
        try:
            expected = float_per_field(text)
        except ValueError as e:  # a value that rounds to 0 in the form: both refuse it
            with pytest.raises(ValueError, match=re.escape(str(e))):
                read_path_csv(io.StringIO(text))
            return
        path = read_path_csv(io.StringIO(text))
        assert path.grid == expected.grid
        assert path.values.tobytes() == expected.values.tobytes()

    def test_unseekable_stream_is_read(self):
        class Unseekable(io.StringIO):
            def seekable(self):
                return False

            def seek(self, *args):
                raise io.UnsupportedOperation("seek")

        path = read_path_csv(Unseekable('t,value\n0,"100"\n0.5,101\n1,102\n'))
        assert path.values.tolist() == [100.0, 101.0, 102.0]

    def test_reading_is_bounded_in_memory(self, tmp_path):
        n = 200_000
        grid = TimeGrid(T=1.0, dt=1.0 / n)
        path = simulate_gbm(GbmParams(mu=0.1, sigma=0.2, s0=100.0), simulate_wiener(grid, 1))
        src = tmp_path / "path.csv"
        with open(src, "w", newline="") as fh:
            write_path_csv(path, fh)
        with open(src) as fh:
            tracemalloc.start()
            try:
                back = read_path_csv(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(back.values, path.values)
        # two float columns are 3.2 MB; a list of Python row tuples takes ~28 MB
        assert peak < 10e6

    def test_writing_is_bounded_in_memory(self, force_writers):
        forked = force_writers(3)  # a stream with no path is written serially
        n = 200_000
        columns = {"t": np.linspace(0.0, 1.0, n), "z": np.sin(np.arange(n) * 0.1),
                   "mark": np.arange(n) % 2}
        buf = io.StringIO()
        write = _table("fig", columns, "csv")["fig.csv"]
        tracemalloc.start()
        try:
            write(buf)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beyond the text written, at most one chunk of Python floats, their
        # strings and lines (~100 bytes per field), not a list of every row
        assert peak - current < _CHUNK_ROWS * len(columns) * 200
        assert forked == []

    def test_header_contents(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        w = simulate_wiener(grid, seed=5)
        s = simulate_gbm(GbmParams(mu=0.1, sigma=0.2, s0=100.0), w)
        header = path_header(s, seed=5, params={"mu": 0.1})
        assert header["kind"] == "price"
        assert header["seed"] == 5
        assert header["n"] == grid.n
        assert header["params"] == {"mu": 0.1}
