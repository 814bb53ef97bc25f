import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logergodic import (
    DecomposedPath,
    EmoConfig,
    GbmParams,
    ItoParams,
    PathKind,
    SamplePath,
    TimeGrid,
    WienerPath,
    apply_emo,
    apply_iemo,
    construct_z_gbm,
    decompose,
    ergodicity_diagnostic,
    log_path,
    path_seed,
    simulate_gbm,
    simulate_wiener,
)
from logergodic.ergodic import emo_decomposition

GBM = GbmParams(mu=0.1, sigma=0.2, s0=100.0)  # q = 0.08


def gbm_ito_params(params: GbmParams, y0: float) -> ItoParams:
    return ItoParams(mu=lambda t, x: params.q, sigma=lambda t, x: params.sigma, y0=y0)


def random_decomposition(seed: int, grid: TimeGrid) -> DecomposedPath:
    rng = np.random.default_rng(seed)
    d = np.concatenate(([0.0], np.cumsum(rng.normal(0, 0.1, grid.n))))
    r = np.concatenate(([0.0], np.cumsum(rng.normal(0, 0.1, grid.n))))
    return DecomposedPath(grid=grid, y0=float(rng.normal(0, 2)), drift_part=d, mart_part=r)


class TestDecompose:
    def test_zero_drift_puts_everything_in_martingale_part(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        w = simulate_wiener(grid, seed=1)
        params = ItoParams(mu=lambda t, x: 0.0, sigma=lambda t, x: 0.2, y0=1.0)
        y = SamplePath(grid=grid, values=1.0 + 0.2 * w.w, kind=PathKind.LOGPRICE)
        dec = decompose(y, params, w)
        np.testing.assert_allclose(dec.drift_part, 0.0)
        np.testing.assert_allclose(dec.mart_part, 0.2 * w.w, atol=1e-14)

    def test_zero_volatility_leaves_quadrature_residual_only(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        w = simulate_wiener(grid, seed=1)
        params = ItoParams(mu=lambda t, x: 0.07, sigma=lambda t, x: 0.0, y0=0.5)
        y = SamplePath(grid=grid, values=0.5 + 0.07 * grid.times(), kind=PathKind.LOGPRICE)
        dec = decompose(y, params, w)
        assert np.max(np.abs(dec.mart_part)) <= 10 * grid.dt**2

    def test_gbm_components_are_closed_form(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        w = simulate_wiener(grid, seed=2)
        y = log_path(simulate_gbm(GBM, w))
        dec = decompose(y, gbm_ito_params(GBM, float(y.values[0])), w)
        np.testing.assert_allclose(dec.drift_part, GBM.q * grid.times(), atol=1e-10)
        np.testing.assert_allclose(dec.mart_part, GBM.sigma * w.w, atol=1e-10)

    def test_reconstruction_is_exact(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        w = simulate_wiener(grid, seed=3)
        y = log_path(simulate_gbm(GBM, w))
        dec = decompose(y, gbm_ito_params(GBM, float(y.values[0])), w)
        np.testing.assert_array_equal(dec.reconstruct(), y.values)

    def test_grid_mismatch_rejected(self):
        w = simulate_wiener(TimeGrid(T=1.0, dt=0.01), seed=1)
        y = SamplePath(
            grid=TimeGrid(T=1.0, dt=0.02),
            values=np.zeros(51),
            kind=PathKind.LOGPRICE,
        )
        with pytest.raises(ValueError, match="grid"):
            decompose(y, gbm_ito_params(GBM, 0.0), w)


class TestApplyEmo:
    def test_constant_path_maps_to_zero(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        dec = DecomposedPath(
            grid=grid, y0=3.7, drift_part=np.zeros(11), mart_part=np.zeros(11)
        )
        z = apply_emo(dec, EmoConfig(beta=2.0, T=1.0, wT=0.4))
        np.testing.assert_array_equal(z.values, 0.0)
        assert z.kind is PathKind.ZPROCESS

    def test_starts_at_zero(self):
        z = apply_emo(
            random_decomposition(0, TimeGrid(T=1.0, dt=0.1)),
            EmoConfig(beta=2.0, T=1.0, wT=0.4),
        )
        assert z.values[0] == 0.0

    def test_hand_evaluated_gbm_point(self):
        # q = 0.08, sigma = 0.2, T = 1, beta = 2, W_T = 0.3, W_0.5 = -0.1
        grid = TimeGrid(T=1.0, dt=0.5)
        w = WienerPath(grid=grid, w=np.array([0.0, -0.1, 0.3]))
        y = log_path(simulate_gbm(GBM, w))
        dec = decompose(y, gbm_ito_params(GBM, float(y.values[0])), w)
        z = apply_emo(dec, EmoConfig(beta=2.0, T=1.0, wT=w.terminal))
        assert z.values[1] == pytest.approx(-0.008, abs=1e-12)

    def test_beta_at_or_below_threshold_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            EmoConfig(beta=1.5, T=1.0, wT=0.3)

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
        lhs = apply_emo(combo, cfg).values
        rhs = a * apply_emo(p, cfg).values + b * apply_emo(q, cfg).values
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
        np.testing.assert_array_equal(apply_emo(dec, cfg).values, apply_emo(shifted, cfg).values)


class TestApplyIemo:
    def test_round_trip_restores_the_path(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        cfg = EmoConfig(beta=2.0, T=1.0, wT=0.4)
        dec = random_decomposition(7, grid)
        z = apply_emo(dec, cfg)
        back = apply_iemo(z, dec.y0, cfg, emo_decomposition(dec, cfg))
        np.testing.assert_allclose(back.values, dec.reconstruct(), atol=1e-10)
        assert back.kind is PathKind.LOGPRICE

    def test_constant_choice_is_an_exact_affine_offset(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        cfg = EmoConfig(beta=2.0, T=1.0, wT=0.4)
        dec = random_decomposition(8, grid)
        z = apply_emo(dec, cfg)
        shape = emo_decomposition(dec, cfg)
        a = apply_iemo(z, 1.25, cfg, shape).values
        b = apply_iemo(z, -0.75, cfg, shape).values
        np.testing.assert_array_equal(a - b, np.full_like(a, 2.0))

    def test_gbm_round_trip(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        w = simulate_wiener(grid, seed=9)
        y = log_path(simulate_gbm(GBM, w))
        dec = decompose(y, gbm_ito_params(GBM, float(y.values[0])), w)
        cfg = EmoConfig(beta=2.0, T=1.0, wT=w.terminal)
        z = apply_emo(dec, cfg)
        back = apply_iemo(z, dec.y0, cfg, emo_decomposition(dec, cfg))
        np.testing.assert_allclose(back.values, y.values, atol=1e-10)

    def test_zero_terminal_value_is_singular(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        cfg = EmoConfig(beta=2.0, T=1.0, wT=0.0)
        dec = random_decomposition(1, grid)
        z = SamplePath(grid=grid, values=np.zeros(11), kind=PathKind.ZPROCESS)
        with pytest.raises(ValueError, match="singular"):
            apply_iemo(z, 0.0, cfg, dec)


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
            dec = decompose(y, gbm_ito_params(GBM, float(y.values[0])), w)
            via_emo = apply_emo(dec, EmoConfig(beta=2.0, T=1.0, wT=w.terminal))
            worst = max(worst, float(np.max(np.abs(direct.values - via_emo.values))))
        assert worst <= 1e-10

    def test_beta_validation(self):
        w = simulate_wiener(TimeGrid(T=1.0, dt=0.1), seed=1)
        with pytest.raises(ValueError, match="beta"):
            construct_z_gbm(GBM, w, beta=1.4)


class TestErgodicityDiagnostic:
    def test_constant_zero_ensemble(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        paths = [
            SamplePath(grid=grid, values=np.zeros(11), kind=PathKind.ZPROCESS)
            for _ in range(5)
        ]
        curve = ergodicity_diagnostic(paths, horizons=[0.5, 1.0])
        np.testing.assert_array_equal(curve.values, 0.0)

    def test_needs_at_least_two_paths(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        one = [SamplePath(grid=grid, values=np.zeros(11), kind=PathKind.ZPROCESS)]
        with pytest.raises(ValueError, match="at least 2"):
            ergodicity_diagnostic(one, horizons=[1.0])

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
        assert abs(z_curve.values[0]) < 1e-2 * abs(y_curve.values[0])
        assert abs(z_curve.values[1]) < 1e-2 * abs(y_curve.values[1])
