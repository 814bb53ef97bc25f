import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logergodic import (
    DecomposedPath,
    EmoConfig,
    GbmParams,
    PathKind,
    SamplePath,
    TimeGrid,
    WienerPath,
    apply_emo,
    apply_iemo,
    construct_z_gbm,
    ergodicity_diagnostic,
    log_path,
    path_seed,
    simulate_gbm,
    simulate_wiener,
)

GBM = GbmParams(mu=0.1, sigma=0.2, s0=100.0)  # q = 0.08


def gbm_split(y: SamplePath) -> DecomposedPath:
    """Drift/martingale split of a GBM log path: drift q t, martingale y - y0 - q t."""
    drift = GBM.q * y.grid.times()
    y0 = float(y.values[0])
    return DecomposedPath(grid=y.grid, y0=y0, drift_part=drift, mart_part=y.values - y0 - drift)


def random_decomposition(seed: int, grid: TimeGrid) -> DecomposedPath:
    rng = np.random.default_rng(seed)
    d = np.concatenate(([0.0], np.cumsum(rng.normal(0, 0.1, grid.n))))
    r = np.concatenate(([0.0], np.cumsum(rng.normal(0, 0.1, grid.n))))
    return DecomposedPath(grid=grid, y0=float(rng.normal(0, 2)), drift_part=d, mart_part=r)


class TestApplyEmo:
    def test_constant_path_maps_to_zero(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        dec = DecomposedPath(
            grid=grid, y0=3.7, drift_part=np.zeros(11), mart_part=np.zeros(11)
        )
        z = apply_emo(dec, EmoConfig(beta=2.0, T=1.0, wT=0.4))
        np.testing.assert_array_equal(z.reconstruct(), 0.0)

    def test_starts_at_zero(self):
        z = apply_emo(
            random_decomposition(0, TimeGrid(T=1.0, dt=0.1)),
            EmoConfig(beta=2.0, T=1.0, wT=0.4),
        )
        assert z.reconstruct()[0] == 0.0

    def test_hand_evaluated_gbm_point(self):
        # q = 0.08, sigma = 0.2, T = 1, beta = 2, W_T = 0.3, W_0.5 = -0.1
        grid = TimeGrid(T=1.0, dt=0.5)
        w = WienerPath(grid=grid, w=np.array([0.0, -0.1, 0.3]))
        y = log_path(simulate_gbm(GBM, w))
        dec = gbm_split(y)
        z = apply_emo(dec, EmoConfig(beta=2.0, T=1.0, wT=w.terminal))
        assert z.reconstruct()[1] == pytest.approx(-0.008, abs=1e-12)

    def test_beta_at_or_below_threshold_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            EmoConfig(beta=1.5, T=1.0, wT=0.3)

    @pytest.mark.parametrize("name", ["beta", "T", "wT"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_setting_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            EmoConfig(**{"beta": 2.0, "T": 1.0, "wT": 0.3, name: value})

    @pytest.mark.parametrize("T", [1e-300, 1e200])
    def test_horizon_power_beyond_float_range_rejected(self, T):
        with pytest.raises(ValueError, match=re.escape(f"T = {T} and beta = 2.0 put T^beta")):
            EmoConfig(beta=2.0, T=T, wT=0.3)

    def test_horizon_mismatch_rejected(self):
        dec = random_decomposition(0, TimeGrid(T=1.0, dt=0.1))
        with pytest.raises(ValueError, match="horizon"):
            apply_emo(dec, EmoConfig(beta=2.0, T=2.0, wT=0.3))

    @given(seed=st.integers(0, 2**31), a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed, a, b):
        grid = TimeGrid(T=1.0, dt=0.1)
        cfg = EmoConfig(beta=2.0, T=1.0, wT=0.4)
        p = random_decomposition(seed, grid)
        q = random_decomposition(seed + 1, grid)
        combo = DecomposedPath(
            grid=grid,
            y0=a * p.y0 + b * q.y0,
            drift_part=a * p.drift_part + b * q.drift_part,
            mart_part=a * p.mart_part + b * q.mart_part,
        )
        lhs = apply_emo(combo, cfg).reconstruct()
        rhs = a * apply_emo(p, cfg).reconstruct() + b * apply_emo(q, cfg).reconstruct()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @given(seed=st.integers(0, 2**31), shift=st.floats(-100, 100))
    @settings(max_examples=25, deadline=None)
    def test_initial_value_annihilated_bitwise(self, seed, shift):
        grid = TimeGrid(T=1.0, dt=0.1)
        cfg = EmoConfig(beta=2.0, T=1.0, wT=0.4)
        dec = random_decomposition(seed, grid)
        shifted = DecomposedPath(
            grid=grid, y0=dec.y0 + shift, drift_part=dec.drift_part, mart_part=dec.mart_part
        )
        np.testing.assert_array_equal(apply_emo(dec, cfg).reconstruct(),
                                      apply_emo(shifted, cfg).reconstruct())


class TestApplyIemo:
    def test_round_trip_restores_the_path(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        cfg = EmoConfig(beta=2.0, T=1.0, wT=0.4)
        dec = random_decomposition(7, grid)
        back = apply_iemo(apply_emo(dec, cfg), dec.y0, cfg)
        np.testing.assert_allclose(back.reconstruct(), dec.reconstruct(), atol=1e-10)

    def test_constant_choice_is_an_exact_affine_offset(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        cfg = EmoConfig(beta=2.0, T=1.0, wT=0.4)
        dec = random_decomposition(8, grid)
        z = apply_emo(dec, cfg)
        a = apply_iemo(z, 1.25, cfg).reconstruct()
        b = apply_iemo(z, -0.75, cfg).reconstruct()
        np.testing.assert_array_equal(a - b, np.full_like(a, 2.0))

    def test_gbm_round_trip(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        w = simulate_wiener(grid, seed=9)
        y = log_path(simulate_gbm(GBM, w))
        dec = gbm_split(y)
        cfg = EmoConfig(beta=2.0, T=1.0, wT=w.terminal)
        back = apply_iemo(apply_emo(dec, cfg), dec.y0, cfg)
        np.testing.assert_allclose(back.reconstruct(), y.values, atol=1e-10)

    def test_zero_terminal_value_is_singular(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        cfg = EmoConfig(beta=2.0, T=1.0, wT=0.0)
        z = random_decomposition(1, grid)
        with pytest.raises(ValueError, match="singular"):
            apply_iemo(z, 0.0, cfg)

    def test_tiny_terminal_value_overflowing_the_drift_scale_is_refused(self):
        cfg = EmoConfig(beta=2.0, T=1.0, wT=1e-320)
        z = random_decomposition(1, TimeGrid(T=1.0, dt=0.1))
        with pytest.raises(ValueError, match="wT = 1e-320"):
            apply_iemo(z, 0.0, cfg)


class TestConstructZGbm:
    def test_starts_at_zero(self):
        w = simulate_wiener(TimeGrid(T=1.0, dt=0.1), seed=1)
        assert construct_z_gbm(GBM, w, beta=2.0).values[0] == 0.0

    def test_hand_evaluated_point(self):
        grid = TimeGrid(T=1.0, dt=0.5)
        w = WienerPath(grid=grid, w=np.array([0.0, -0.1, 0.3]))
        z = construct_z_gbm(GBM, w, beta=2.0)
        assert z.values[1] == pytest.approx(-0.008, abs=1e-15)

    def test_agrees_with_transform_pipeline(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        worst = 0.0
        for i in range(100):
            w = simulate_wiener(grid, path_seed(77, i))
            direct = construct_z_gbm(GBM, w, beta=2.0)
            y = log_path(simulate_gbm(GBM, w))
            dec = gbm_split(y)
            via_emo = apply_emo(dec, EmoConfig(beta=2.0, T=1.0, wT=w.terminal))
            worst = max(worst, float(np.max(np.abs(direct.values - via_emo.reconstruct()))))
        assert worst <= 1e-10

    def test_beta_validation(self):
        w = simulate_wiener(TimeGrid(T=1.0, dt=0.1), seed=1)
        with pytest.raises(ValueError, match="beta"):
            construct_z_gbm(GBM, w, beta=1.4)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_non_finite_beta_rejected(self, beta):
        w = simulate_wiener(TimeGrid(T=1.0, dt=0.1), seed=1)
        with pytest.raises(ValueError, match="beta must be finite"):
            construct_z_gbm(GBM, w, beta=beta)

    @pytest.mark.parametrize("sigma, w1", [(0.2, -0.1), (1e150, -1e200)],
                             ids=["overflow", "inf_minus_inf"])
    def test_z_beyond_float_range_names_the_settings(self, sigma, w1):
        # q t W_T overflows at t = 0.5; with sigma W_t = -inf, Z is inf - inf
        grid = TimeGrid(T=1.0, dt=0.5)
        w = WienerPath(grid=grid, w=np.array([0.0, w1, 1e10]))
        params = GbmParams(mu=1e300, sigma=sigma, s0=100.0)
        with pytest.raises(ValueError, match=re.escape(
                f"mu = 1e+300, sigma = {sigma}, beta = 2.0 and T = 1.0 take Z out of the float "
                "range: path values must be finite, got ")):
            construct_z_gbm(params, w, beta=2.0)


class TestErgodicityDiagnostic:
    def test_constant_zero_ensemble(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        paths = [
            SamplePath(grid=grid, values=np.zeros(11), kind=PathKind.ZPROCESS)
            for _ in range(5)
        ]
        curve = ergodicity_diagnostic(paths, horizons=[0.5, 1.0])
        np.testing.assert_array_equal(curve, 0.0)

    def test_needs_at_least_two_paths(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        one = [SamplePath(grid=grid, values=np.zeros(11), kind=PathKind.ZPROCESS)]
        with pytest.raises(ValueError, match="at least 2"):
            ergodicity_diagnostic(one, horizons=[1.0])

    @pytest.mark.parametrize("horizon", [0.0, -0.5, math.nan])
    def test_horizons_must_be_positive(self, horizon):
        grid = TimeGrid(T=1.0, dt=0.1)
        two = [SamplePath(grid=grid, values=np.zeros(11), kind=PathKind.ZPROCESS)] * 2
        with pytest.raises(ValueError, match="horizons must be positive"):
            ergodicity_diagnostic(two, horizons=[horizon])

    @pytest.mark.parametrize("horizons", [[1.0, 0.5], [0.5, 0.5]])
    def test_horizons_must_strictly_increase(self, horizons):
        grid = TimeGrid(T=1.0, dt=0.1)
        two = [SamplePath(grid=grid, values=np.zeros(11), kind=PathKind.ZPROCESS)] * 2
        with pytest.raises(ValueError, match="strictly increasing"):
            ergodicity_diagnostic(two, horizons=horizons)

    def test_transformed_beats_raw_log_ensemble(self):
        grid = TimeGrid(T=20.0, dt=0.1)
        zs, ys = [], []
        for i in range(300):
            w = simulate_wiener(grid, path_seed(4242, i))
            zs.append(construct_z_gbm(GBM, w, beta=2.0))
            ys.append(log_path(simulate_gbm(GBM, w)))
        z_curve = ergodicity_diagnostic(zs, horizons=[5.0, 20.0])
        y_curve = ergodicity_diagnostic(ys, horizons=[5.0, 20.0])
        # the transform shrinks the diagnostic by orders of magnitude
        assert abs(z_curve[0]) < 1e-2 * abs(y_curve[0])
        assert abs(z_curve[1]) < 1e-2 * abs(y_curve[1])
