import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from logergodic import (
    GOLDEN_CONJUGATE,
    SQRT2,
    EmoConfig,
    PathKind,
    SamplePath,
    TimeGrid,
    TrigPolynomial,
    birkhoff_average,
    equidistribution_test,
    kac_return_time,
    theta_process,
)
from logergodic import rotation


def fraction_orbit(x, theta, n):
    """The first n points {x + k theta} of the orbit of the doubles x and theta, in exact
    rational arithmetic."""
    x, theta = Fraction(x), Fraction(theta)
    return [(x + k * theta) % 1 for k in range(n)]


def exact_mean_return(theta, arc, n_returns):
    """Mean gap between the first n_returns + 1 visits of the exact orbit of a to [a, b),
    all within ceil(4 n_returns / (b - a)) steps; visit 0 is step 0."""
    a, b = map(Fraction, arc)
    budget = math.ceil(4 * n_returns / (b - a))
    hits = [k for k, p in enumerate(fraction_orbit(arc[0], theta, budget)) if a <= p < b]
    return hits[n_returns] / n_returns


def exact_birkhoff(phi, x, theta, n):
    """(1/n) sum_{k<n} phi(x + k theta), each angle 2 pi m p taken from the exact point p."""
    total = 0.0
    for p in fraction_orbit(x, theta, n):
        total += phi.c0
        total += sum(c * math.cos(2 * math.pi * float(m * p % 1))
                     for m, c in enumerate(phi.cos_coeffs, start=1))
        total += sum(c * math.sin(2 * math.pi * float(m * p % 1))
                     for m, c in enumerate(phi.sin_coeffs, start=1))
    return total / n


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

    @pytest.mark.parametrize("coeffs, name", [({"c0": math.nan}, "c0"),
                                              ({"cos_coeffs": (0.9, math.inf)}, r"cos_coeffs\[1\]"),
                                              ({"sin_coeffs": (-math.inf,)}, r"sin_coeffs\[0\]")],
                             ids=["c0", "cos", "sin"])
    def test_non_finite_coefficient_rejected(self, coeffs, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrigPolynomial(**{"c0": 0.37, **coeffs})

    # 2 * 0.5 is an integer; next to an integer, sin(pi m theta) is tiny or subnormal
    @pytest.mark.parametrize("theta", [0.5, 5e-324, -5e-324, 1e-20, 1 - 2**-53, 0.5 + 2**-50])
    def test_near_rational_angle_matches_exact_orbit(self, theta):
        phi = TrigPolynomial(c0=0.3, cos_coeffs=(1.0, 0.2), sin_coeffs=(0.5,))
        assert birkhoff_average(phi, x=0.1, theta=theta, n=1000) == pytest.approx(
            exact_birkhoff(phi, 0.1, theta, 1000), abs=1e-12)


class TestEquidistribution:
    def test_full_circle_has_frequency_one(self):
        assert equidistribution_test(SQRT2, 0.0, 1.0, x0=0.0, n=1000) == 1.0

    def test_sqrt2_interval_frequency(self):
        freq = equidistribution_test(SQRT2, 0.2, 0.5, x0=0.0, n=1_000_000)
        assert freq == pytest.approx(0.3, abs=0.005)

    def test_rational_angle_misses_the_interval(self):
        # orbit {0, 0.5} never enters [0.1, 0.4): irrationality matters
        assert equidistribution_test(0.5, 0.1, 0.4, x0=0.0, n=1000) == 0.0

    def test_count_at_a_billion_points_is_immediate(self):
        start = time.perf_counter()
        freq = equidistribution_test(SQRT2, 0.2, 0.5, x0=0.0, n=10**9)
        assert time.perf_counter() - start < 1.0
        assert freq == pytest.approx(0.3, abs=1e-6)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            equidistribution_test(SQRT2, 0.5, 0.5, x0=0.0, n=100)


@pytest.mark.parametrize("seed", range(10))
def test_matches_exact_orbit_on_random_angles(seed):
    rng = random.Random(seed)
    for theta in (rng.uniform(-3.0, 0.0), rng.uniform(0.0, 1.0), rng.uniform(1.0, 50.0)):
        x0, n = rng.random(), rng.randrange(1, 300)
        a = rng.uniform(0.0, 0.9)
        b = rng.uniform(a + 0.1, 1.0)
        hits = sum(Fraction(a) <= p < Fraction(b) for p in fraction_orbit(x0, theta, n))
        assert equidistribution_test(theta, a, b, x0=x0, n=n) == hits / n
        n_returns = rng.randrange(1, 30)
        assert kac_return_time(theta, (a, b), x0=a, n_returns=n_returns) == exact_mean_return(
            theta, (a, b), n_returns)
        phi = TrigPolynomial(c0=rng.uniform(-1, 1), cos_coeffs=(rng.uniform(-1, 1), 0.5),
                             sin_coeffs=(rng.uniform(-1, 1), 0.0, -0.7))
        assert birkhoff_average(phi, x=x0, theta=theta, n=n) == pytest.approx(
            exact_birkhoff(phi, x0, theta, n), abs=1e-12)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda theta: birkhoff_average(TrigPolynomial(c0=1.0), x=0.0, theta=theta, n=10),
        lambda theta: equidistribution_test(theta, 0.0, 0.5, x0=0.0, n=10),
        # unchecked, the angle's exact ratio fails: ValueError for nan, OverflowError for inf
        lambda theta: kac_return_time(theta, (0.0, 1.0), x0=0.0, n_returns=1),
    ],
    ids=["birkhoff_average", "equidistribution_test", "kac_return_time"],
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

    @pytest.mark.parametrize(
        "theta, arc, n_returns",
        [
            (0.5, (0.0, 0.25), 100),
            (0.3, (0.0, 0.1), 100),
            (1 / 3, (0.0, 0.5), 100),
            (1 / 3, (0.2, 0.7), 100),
        ],
    )
    def test_matches_brute_force_hit_gaps(self, theta, arc, n_returns):
        # the exact orbit of the double: a float scan rounds points onto the arc ends
        # and gives 5.5 for 0.3 on [0, 0.1), where the exact orbit gives 9.97
        expected = exact_mean_return(theta, arc, n_returns)
        assert kac_return_time(theta, arc, x0=arc[0], n_returns=n_returns) == expected

    @pytest.mark.parametrize("theta", [SQRT2, GOLDEN_CONJUGATE])
    def test_matches_float_scan_on_fixture_angles(self, theta):
        # on these angles no float orbit point of the first 10^6 rounds across an end
        pts = (np.arange(10**6) * (theta % 1.0)) % 1.0
        for a, b in ((0.0, 0.5), (0.2, 0.5), (0.0, 0.1)):
            hits = np.flatnonzero((pts >= a) & (pts < b))
            assert equidistribution_test(theta, a, b, x0=0.0, n=10**6) == hits.size / 10**6
        for p in (0.5, 0.25, 0.1):
            hits = np.flatnonzero(pts < p)
            mean = kac_return_time(theta, (0.0, p), x0=0.0, n_returns=10_000)
            assert mean == hits[10_000] / 10_000

    def test_budget_over_cap_rejected_before_scanning(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("orbit counted")

        monkeypatch.setattr(rotation, "_floor_sum", no_count)
        with pytest.raises(ValueError, match="orbit steps"):
            kac_return_time(SQRT2, (0.0, 1e-4), x0=0.0, n_returns=100_000)

    def test_near_rational_angle_runs_out_of_budget(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="theta 0.999999999999"):
            kac_return_time(0.999999999999, (0.0, 0.1), x0=0.0, n_returns=1000)
        assert time.perf_counter() - start < 1.0

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
        np.testing.assert_array_equal(theta, z.values)

    def test_hand_evaluated_log_half(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        theta = theta_process(zero_z(grid), constant_price(grid, 100.0), K=50.0,
                              cfg=EmoConfig(beta=2.0, T=1.0, wT=1.0))
        np.testing.assert_allclose(theta, math.log(0.5), atol=1e-15)

    def test_price_at_strike_not_exercisable(self):
        grid = TimeGrid(T=1.0, dt=0.25)
        with pytest.raises(ValueError, match="index 0"):
            theta_process(zero_z(grid), constant_price(grid, 50.0), K=50.0,
                          cfg=EmoConfig(beta=2.0, T=1.0, wT=1.0))
