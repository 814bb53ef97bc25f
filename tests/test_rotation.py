import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logergodic import (
    GOLDEN_CONJUGATE,
    SQRT2,
    EmoConfig,
    PathKind,
    SamplePath,
    TabulatedPeriodic,
    ThetaPath,
    TimeGrid,
    TrigPolynomial,
    birkhoff_average,
    equidistribution_test,
    kac_return_time,
    orbit,
    rotate,
    theta_moment_check,
    theta_process,
)


class TestRotate:
    def test_quarter_plus_half(self):
        assert rotate(0.25, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_identity_angle(self):
        assert rotate(0.3, 0.0) == 0.3

    def test_wraps_into_unit_interval(self):
        theta = math.sqrt(2) - 1
        assert rotate(0.9, theta) == pytest.approx(0.9 + theta - 1.0, abs=1e-12)

    def test_point_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            rotate(1.2, 0.1)
        with pytest.raises(ValueError):
            rotate(-0.1, 0.1)

    @given(x=st.floats(0.0, 1.0, exclude_max=True), theta=st.floats(-10.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_image_stays_in_unit_interval(self, x, theta):
        assert 0.0 <= rotate(x, theta) < 1.0


class TestOrbit:
    def test_rational_half_angle_alternates(self):
        np.testing.assert_allclose(orbit(0.0, 0.5, 4), [0.0, 0.5, 0.0, 0.5])

    def test_matches_iterated_rotation(self):
        theta = SQRT2
        pts = orbit(0.1, theta, 100_000)
        for k in (10, 1000, 99_999):
            assert pts[k] == pytest.approx((0.1 + k * (theta % 1.0)) % 1.0, abs=1e-12)
        # explicit iteration agrees within 1e-9
        x = 0.1
        for _ in range(1000):
            x = rotate(x, theta)
        assert x == pytest.approx(pts[1000], abs=1e-9)

    def test_orbit_is_dense_at_scale_one_thousandth(self):
        pts = orbit(0.0, SQRT2, 100_000)
        counts, _ = np.histogram(pts, bins=1000, range=(0.0, 1.0))
        assert np.all(counts > 0)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            orbit(0.0, SQRT2, 0)


class TestBirkhoffAverage:
    def test_constant_function(self):
        avg = birkhoff_average(TrigPolynomial(c0=0.37), x=0.0, theta=SQRT2, n=10_000)
        assert avg == pytest.approx(0.37, abs=1e-12)

    def test_sine_averages_to_zero(self):
        phi = TrigPolynomial(c0=0.0, sin_coeffs=(1.0,))
        assert abs(birkhoff_average(phi, x=0.0, theta=SQRT2, n=1_000_000)) <= 1e-3

    def test_trig_polynomial_converges_to_constant_term(self):
        phi = TrigPolynomial(c0=0.37, cos_coeffs=(0.9, 0.2), sin_coeffs=(0.3,))
        avg = birkhoff_average(phi, x=0.0, theta=SQRT2, n=1_000_000)
        assert avg == pytest.approx(0.37, abs=1e-3)
        assert phi.integral == 0.37

    def test_non_periodic_function_rejected(self):
        with pytest.raises(ValueError, match="periodic"):
            birkhoff_average(lambda x: x, x=0.0, theta=SQRT2, n=100)

    def test_tabulated_periodic_endpoint_check(self):
        with pytest.raises(ValueError):
            TabulatedPeriodic([0.0, 0.5, 1.0])
        phi = TabulatedPeriodic([0.2, 0.9, 0.2])
        assert phi(0.0) == pytest.approx(phi(1.0), abs=1e-12)


class TestEquidistribution:
    def test_full_circle_has_frequency_one(self):
        assert equidistribution_test(SQRT2, 0.0, 1.0, x0=0.0, n=1000) == 1.0

    def test_sqrt2_interval_frequency(self):
        freq = equidistribution_test(SQRT2, 0.2, 0.5, x0=0.0, n=1_000_000)
        assert freq == pytest.approx(0.3, abs=0.005)

    def test_rational_angle_misses_the_interval(self):
        # orbit {0, 0.5} never enters [0.1, 0.4): irrationality matters
        assert equidistribution_test(0.5, 0.1, 0.4, x0=0.0, n=1000) == 0.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            equidistribution_test(SQRT2, 0.5, 0.5, x0=0.0, n=100)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda theta: rotate(0.0, theta),
        lambda theta: orbit(0.0, theta, 10),
        lambda theta: birkhoff_average(TrigPolynomial(c0=1.0), x=0.0, theta=theta, n=10),
        lambda theta: equidistribution_test(theta, 0.0, 0.5, x0=0.0, n=10),
        # unchecked, a nan angle never returns and the scan runs to its 1e9-step cap
        lambda theta: kac_return_time(theta, (0.0, 1.0), x0=0.0, n_returns=1),
    ],
    ids=["rotate", "orbit", "birkhoff_average", "equidistribution_test", "kac_return_time"],
)
def test_non_finite_theta_rejected(call, theta):
    with pytest.raises(ValueError, match="theta"):
        call(theta)


def test_equidistribution_needs_at_least_one_point():
    with pytest.raises(ValueError, match="n must be >= 1"):
        equidistribution_test(SQRT2, 0.0, 0.5, x0=0.0, n=0)


class TestKacReturnTime:
    def test_full_circle_returns_every_step(self):
        assert kac_return_time(SQRT2, (0.0, 1.0), x0=0.0, n_returns=100) == 1.0

    def test_quarter_arc_mean_return(self):
        mean = kac_return_time(GOLDEN_CONJUGATE, (0.0, 0.25), x0=0.0, n_returns=10_000)
        assert mean == pytest.approx(4.0, rel=0.02)

    def test_tenth_arc_mean_return(self):
        mean = kac_return_time(GOLDEN_CONJUGATE, (0.0, 0.1), x0=0.0, n_returns=10_000)
        assert mean == pytest.approx(10.0, rel=0.02)

    def test_start_point_must_be_inside_arc(self):
        with pytest.raises(ValueError, match="arc"):
            kac_return_time(SQRT2, (0.0, 0.25), x0=0.5, n_returns=10)

    def test_zero_returns_rejected(self):
        with pytest.raises(ValueError, match="n_returns"):
            kac_return_time(SQRT2, (0.0, 0.25), x0=0.0, n_returns=0)


def constant_price(grid: TimeGrid, level: float) -> SamplePath:
    return SamplePath(grid=grid, values=np.full(grid.n + 1, level), kind=PathKind.PRICE)


def zero_z(grid: TimeGrid) -> SamplePath:
    return SamplePath(grid=grid, values=np.zeros(grid.n + 1), kind=PathKind.ZPROCESS)


class TestThetaProcess:
    def test_zero_strike_reduces_to_z(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        z = SamplePath(
            grid=grid, values=np.linspace(0, 0.1, grid.n + 1), kind=PathKind.ZPROCESS
        )
        theta = theta_process(z, constant_price(grid, 100.0), K=0.0,
                              cfg=EmoConfig(beta=2.0, T=1.0, wT=1.0))
        np.testing.assert_array_equal(theta.values, z.values)
        np.testing.assert_array_equal(theta.gamma, 0.0)

    def test_hand_evaluated_log_half(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        theta = theta_process(zero_z(grid), constant_price(grid, 100.0), K=50.0,
                              cfg=EmoConfig(beta=2.0, T=1.0, wT=1.0))
        np.testing.assert_allclose(theta.values, math.log(0.5), atol=1e-15)

    def test_price_at_strike_not_exercisable(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        with pytest.raises(ValueError, match="index 0"):
            theta_process(zero_z(grid), constant_price(grid, 50.0), K=50.0,
                          cfg=EmoConfig(beta=2.0, T=1.0, wT=1.0))


def theta_paths_from(values_rows) -> list[ThetaPath]:
    grid = TimeGrid(T=1.0, dt=0.25)
    return [
        ThetaPath(grid=grid, values=np.asarray(row, dtype=float),
                  gamma=np.zeros(grid.n + 1))
        for row in values_rows
    ]


class TestThetaMomentCheck:
    def test_symmetric_ensemble_passes_mean_zero(self):
        rows = []
        rng = np.random.default_rng(17)
        for _ in range(100):
            v = rng.normal(0, 0.1, 5)
            rows.append(v)
            rows.append(-v)
        report = theta_moment_check(theta_paths_from(rows))
        assert report.mean_zero_ok
        np.testing.assert_allclose(report.means, 0.0, atol=1e-12)

    def test_single_constant_path_has_zero_variance(self):
        report = theta_moment_check(theta_paths_from([[0.2] * 5]))
        np.testing.assert_array_equal(report.variances, 0.0)

    def test_shifted_ensemble_fails_negative_control(self):
        rng = np.random.default_rng(18)
        rows = [1.0 + rng.normal(0, 0.01, 5) for _ in range(200)]
        report = theta_moment_check(theta_paths_from(rows))
        assert not report.mean_zero_ok

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            theta_moment_check([])
