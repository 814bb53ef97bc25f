import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logergodic import (
    GbmParams,
    ItoParams,
    PathKind,
    SamplePath,
    TimeGrid,
    WienerPath,
    log_path,
    path_seed,
    simulate_gbm,
    simulate_ito,
    simulate_wiener,
)
from logergodic.stochastic import path_header, read_path_csv, write_path_csv


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

    def test_q_property(self):
        assert GbmParams(mu=0.1, sigma=0.2, s0=1.0).q == pytest.approx(0.08)


class TestSimulateIto:
    def test_zero_coefficients_keep_initial_value(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        w = simulate_wiener(grid, seed=1)
        params = ItoParams(mu=lambda t, x: 0.0, sigma=lambda t, x: 0.0, y0=2.5)
        y = simulate_ito(params, w)
        np.testing.assert_allclose(y.values, 2.5)
        assert y.kind is PathKind.LOGPRICE

    def test_constant_coefficients_exact(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        w = simulate_wiener(grid, seed=2)
        params = ItoParams(mu=lambda t, x: 0.07, sigma=lambda t, x: 0.3, y0=1.0)
        y = simulate_ito(params, w)
        expected = 1.0 + 0.07 * grid.times() + 0.3 * w.w
        np.testing.assert_allclose(y.values, expected, rtol=1e-12, atol=1e-14)

    def test_non_finite_coefficient_diagnostic(self):
        grid = TimeGrid(T=1.0, dt=0.5)
        w = simulate_wiener(grid, seed=2)
        params = ItoParams(mu=lambda t, x: math.inf, sigma=lambda t, x: 0.1, y0=0.0)
        with pytest.raises(ValueError, match="non-finite"):
            simulate_ito(params, w)

    def test_state_dependent_strong_half_order_convergence(self):
        # error vs a finer reference shrinks by ~sqrt(2) per halving of dt
        params = ItoParams(mu=lambda t, x: 0.05, sigma=lambda t, x: 0.1 * abs(x), y0=1.0)
        n_fine = 1024
        fine = TimeGrid(T=1.0, dt=1.0 / n_fine)

        def coarsen(w, factor):
            grid = TimeGrid(T=1.0, dt=factor / n_fine)
            return WienerPath(grid=grid, w=w.w[::factor].copy())

        errs = {4: [], 2: []}
        for i in range(200):
            w = simulate_wiener(fine, path_seed(42, i))
            ref = simulate_ito(params, w).values[-1]
            for factor in (4, 2):
                approx = simulate_ito(params, coarsen(w, factor)).values[-1]
                errs[factor].append(abs(approx - ref))
        ratio = np.mean(errs[4]) / np.mean(errs[2])
        assert 1.15 <= ratio <= 1.9


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
        back = read_path_csv(buf, PathKind.PRICE)
        assert back.grid.compatible(grid)
        np.testing.assert_array_equal(back.values, s.values)

    @pytest.mark.parametrize(
        "text, cause",
        [
            ("", "empty"),
            ("t,value\r\n", "0 data row"),
            ("t,value\r\n0.0,100.0\r\n", "1 data row"),
            ("t,value\r\n0.0,100.0\r\n0.5\r\n1.0,100.0\r\n", "line 3 has fewer than 2"),
            ("t,value\r\n0.0,100.0\r\n0.5,abc\r\n1.0,100.0\r\n", "could not convert"),
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
            read_path_csv(io.StringIO(text), PathKind.PRICE)

    def test_header_contents(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        w = simulate_wiener(grid, seed=5)
        s = simulate_gbm(GbmParams(mu=0.1, sigma=0.2, s0=100.0), w)
        header = path_header(s, seed=5, params={"mu": 0.1})
        assert header["kind"] == "price"
        assert header["seed"] == 5
        assert header["n"] == grid.n
        assert header["params"] == {"mu": 0.1}
