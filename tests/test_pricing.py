import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logergodic
from logergodic import (
    EmoConfig,
    HeatProblem,
    PricingInputs,
    derive_coefficients,
    heat_kernel,
    normal_cdf,
    price_ergodic_bs,
    price_rotation_call,
    price_via_pde,
    pricing,
    solve_heat_convolution,
    solve_heat_fd,
)

# independently derived high-precision value of the closed-form chain at the
# reference point (B = 0.96, p = 0.00125, lambda = 368.64, y = 0.066)
ERGODIC_REFERENCE_PRICE = -2.846658565115170686
# direct evaluation of exp(-0.05) * (ln(1 - 50/100) - 50)
ROTATION_REFERENCE_PRICE = -48.22081321869403


def base_inputs(**overrides) -> PricingInputs:
    kwargs = dict(
        r=0.05,
        K=math.e**math.e,
        T=1.0,
        beta=2.0,
        mu=0.1,
        sigma=0.2,
        tau=0.5,
        z=0.05,
        wT=0.3,
        X=100.0,
    )
    kwargs.update(overrides)
    return PricingInputs(**kwargs)


def rotation_call(K, wT=0.3, r=0.05, s_t0=100.0, t=1.0, T=1.0, beta=2.0):
    return price_rotation_call(EmoConfig(beta=beta, T=T, wT=wT), r, K, s_t0, t)


class TestPricingInputs:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PricingInputs)])
    def test_non_finite_field_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            base_inputs(**{name: math.nan})


class TestNormalCdf:
    def test_midpoint(self):
        assert normal_cdf(0.0) == 0.5

    def test_far_left_tail(self):
        assert normal_cdf(-40.0) == pytest.approx(0.0, abs=1e-300)

    def test_one_sigma(self):
        assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)


class TestPriceRotationCall:
    def test_reference_value(self):
        result = rotation_call(K=50.0, wT=1.0)
        assert result.price == pytest.approx(ROTATION_REFERENCE_PRICE, abs=1e-3)
        assert "negative_price" in result.flags

    def test_vanishing_strike_limit(self):
        result = rotation_call(K=1e-12, wT=1.0)
        assert result.price == pytest.approx(0.0, abs=1e-11)

    def test_zero_terminal_wiener_reduction(self):
        result = rotation_call(K=50.0, wT=0.0)
        assert result.price == -math.exp(-0.05) * 50.0

    def test_linear_in_terminal_wiener(self):
        p0 = rotation_call(K=50.0, wT=0.0).price
        p1 = rotation_call(K=50.0, wT=1.0).price
        p2 = rotation_call(K=50.0, wT=2.0).price
        assert p2 - p0 == pytest.approx(2 * (p1 - p0), rel=1e-12)

    def test_strictly_decreasing_in_strike(self):
        prices = [rotation_call(K=k, wT=1.0).price for k in (40.0, 50.0, 60.0)]
        assert prices[0] > prices[1] > prices[2]

    def test_half_strike(self):
        # K = s_t0 / 2: gamma = ln(1 - 1/2) = -ln 2, the slope in wT at t = 0
        p0 = rotation_call(K=50.0, wT=0.0, t=0.0).price
        p1 = rotation_call(K=50.0, wT=1.0, t=0.0).price
        assert p1 - p0 == pytest.approx(-math.log(2.0), abs=1e-13)

    def test_at_the_strike_rejected(self):
        with pytest.raises(ValueError, match="K < s_t0"):
            rotation_call(K=100.0)

    def test_strike_above_spot_rejected(self):
        with pytest.raises(ValueError, match="s_t0"):
            rotation_call(K=150.0)

    def test_negative_valuation_time_rejected(self):
        with pytest.raises(ValueError, match="valuation time"):
            rotation_call(K=50.0, t=-1.0)

    @pytest.mark.parametrize("name", ["r", "K", "s_t0", "t"])
    def test_non_finite_input_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            rotation_call(**{"K": 50.0, name: math.nan})

    @pytest.mark.parametrize(
        "overrides, message",
        [({"T": 1e-300}, "T = 1e-300 and beta = 2.0 put T^beta outside the float range"),
         ({"T": 1e-160}, "r = 0.05, t = 1.0, T = 1e-160 and beta = 2.0 put the rotation price "
          "outside the float range"),
         ({"T": 1e300}, "T = 1e+300 and beta = 2.0 put T^beta outside the float range"),
         ({"r": -1e300}, "r = -1e+300, t = 1.0, T = 1.0 and beta = 2.0 put the rotation price "
          "outside the float range")],
        ids=["power_underflows", "power_subnormal", "power_overflows", "discount_overflows"],
    )
    def test_price_beyond_float_range_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            rotation_call(K=50.0, **overrides)


class TestDeriveCoefficients:
    def test_reference_chain(self):
        c = derive_coefficients(base_inputs())
        assert c.q == pytest.approx(0.08, abs=1e-15)
        assert c.B == pytest.approx(0.96, abs=1e-14)
        assert c.eta == pytest.approx(0.9216, abs=1e-14)
        assert c.p == pytest.approx(0.00125, abs=1e-16)
        assert c.lam == pytest.approx(368.64, abs=1e-10)
        assert c.y == pytest.approx(0.066, abs=1e-15)
        # (y (lam - 2) + p (lam - 2)^2 / 4) / (2 lam) in exact rationals
        assert c.log_amp == pytest.approx(0.08979765896267361, abs=1e-15)

    def test_definition_identities(self):
        for tau in (0.25, 0.5, 0.75):
            for z in (0.03, 0.05, 0.08):
                inp = base_inputs(tau=tau, z=z)
                c = derive_coefficients(inp)
                tb = inp.T**inp.beta
                assert c.lam * inp.r * abs(z) == pytest.approx(tb * c.B**2, rel=1e-12)
                assert c.p * c.lam == pytest.approx(
                    c.B**2 * inp.T ** (2 * inp.beta) * tau, rel=1e-12
                )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"z": 0.0}, "z != 0"),
            ({"r": 0.0}, "r > 0"),
            ({"K": 0.5}, "K > 1"),
            ({"tau": 1.0}, "tau"),
            ({"tau": 0.0}, "tau"),
            ({"X": -1.0}, "X > 0"),
            ({"z": 1e300}, r"z = 1e\+300 put the pricing coefficients outside the float range"),
            ({"r": 1e300}, r"r = 1e\+300 and z = 0.05 put the pricing coefficients outside"),
            ({"mu": 1e300}, r"mu = 1e\+300, .* outside the float range"),
            ({"T": 1e300}, r"T = 1e\+300, .* outside the float range"),
            ({"beta": 1e300}, r"beta = 1e\+300, .* outside the float range"),
            # finite coefficients whose log amplitude overflows: (lam - 2)^2 > 1.8e308
            ({"mu": 1e100}, r"mu = 1e\+100, .* outside the float range"),
            ({"z": 1e-300}, r"z = 1e-300 put the pricing coefficients outside the float range"),
            ({"r": 1e-300}, r"r = 1e-300 and z = 0.05 put the pricing coefficients outside"),
            # y = T^beta z - q (wT - delta) overflows with wT's term
            ({"wT": 1e308}, r"wT = 1e\+308, .* outside the float range"),
        ],
    )
    def test_domain_gates(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            derive_coefficients(base_inputs(**overrides))

    def test_constructor_gates(self):
        with pytest.raises(ValueError, match="strike"):
            base_inputs(K=-1.0)
        with pytest.raises(ValueError, match="beta"):
            base_inputs(beta=1.2)
        with pytest.raises(ValueError, match="sigma"):
            base_inputs(sigma=-0.1)


class TestPriceErgodicBs:
    def test_reference_value(self):
        result = price_ergodic_bs(base_inputs())
        assert result.price == pytest.approx(ERGODIC_REFERENCE_PRICE, rel=1e-12)
        assert "negative_payoff_factor" in result.flags
        assert "negative_price" in result.flags

    def test_payoff_factor_zero_at_log_strike(self):
        k = 1.1
        result = price_ergodic_bs(base_inputs(K=k, z=math.log(k)))
        assert result.price == 0.0
        assert result.flags == ()

    def test_positive_payoff_has_no_flags(self):
        result = price_ergodic_bs(base_inputs(K=1.2, z=0.5))
        assert result.price > 0
        assert result.flags == ()

    def test_monotone_in_underlying_price(self):
        prices = [
            price_ergodic_bs(base_inputs(K=1.2, z=0.5, X=x)).price
            for x in (50.0, 100.0, 150.0)
        ]
        assert prices[0] < prices[1] < prices[2]

    def test_underflowing_moneyness_names_x(self):
        # X / ln K underflows to 0 before its log
        with pytest.raises(ValueError, match=r"X = 5e-324 over ln K = .* underflows to 0"):
            price_ergodic_bs(base_inputs(X=5e-324))


class TestHeatKernel:
    def test_standard_peak(self):
        assert heat_kernel(0.0, 1.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-15
        )

    def test_symmetry(self):
        y = np.linspace(0.1, 3.0, 20)
        np.testing.assert_array_equal(heat_kernel(y, 0.5, 0.7), heat_kernel(-y, 0.5, 0.7))

    def test_unit_mass(self):
        y = np.linspace(-10.0, 10.0, 4001)  # 20 std for tau*eta = 0.25
        mass = np.trapezoid(heat_kernel(y, 0.5, 0.5), y)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            heat_kernel(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("tau, eta, name", [(math.inf, 1.0, "tau"), (1.0, math.inf, "eta")])
    def test_infinite_time_or_diffusivity_rejected(self, tau, eta, name):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            heat_kernel(0.0, tau, eta)

    def test_underflowing_variance_rejected(self):
        with pytest.raises(ValueError, match="tau = 5e-324 times eta = 0.5 underflows to 0"):
            heat_kernel(np.array([0.0, 1.0]), 5e-324, 0.5)


def gaussian_problem(eta=0.8, tau=0.4, s=0.5, half_width=12.0, n=1601) -> HeatProblem:
    y = np.linspace(-half_width, half_width, n)
    f = np.exp(-(y**2) / (2 * s**2)) / math.sqrt(2 * math.pi * s**2)
    return HeatProblem(eta=eta, grid_y=y, initial=f, tau_end=tau)


class TestHeatSolvers:
    @pytest.mark.parametrize("name", ["eta", "tau_end"])
    def test_problem_refuses_an_infinite_constant(self, name):
        y = np.linspace(-5.0, 5.0, 11)
        kwargs = {"eta": 1.0, "tau_end": 0.5, name: math.inf}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            HeatProblem(grid_y=y, initial=np.zeros_like(y), **kwargs)

    def test_convolution_gaussian_semigroup(self):
        hp = gaussian_problem()
        var = 0.5**2 + hp.eta * hp.tau_end
        expected = np.exp(-(hp.grid_y**2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert np.max(np.abs(solve_heat_convolution(hp) - expected)) <= 1e-6

    def test_convolution_matches_dense_product(self):
        # 2101 nodes make two row blocks of the full solve; check rows at both
        # ends of each against a plain matrix product
        hp = gaussian_problem(n=2101)
        w = np.full(2101, hp.dy)
        w[0] = w[-1] = 0.5 * hp.dy
        rows = np.array([0, 1995, 1996, 2100])
        dense = heat_kernel(hp.grid_y[rows, None] - hp.grid_y[None, :], hp.tau_end, hp.eta)
        np.testing.assert_allclose(solve_heat_convolution(hp)[rows], dense @ (hp.initial * w),
                                   rtol=1e-13, atol=1e-16)

    def test_convolution_identity_limit(self):
        # tau small enough that diffusion is negligible, grid fine enough
        # that the narrow kernel is still resolved by the quadrature
        hp = gaussian_problem(tau=6e-5, half_width=6.0, n=9601)
        assert np.max(np.abs(solve_heat_convolution(hp) - hp.initial)) <= 1e-4

    def test_convolution_refuses_narrow_grid(self):
        hp = gaussian_problem(eta=10.0, tau=10.0, half_width=2.0, n=101)
        with pytest.raises(ValueError, match="need span"):
            solve_heat_convolution(hp)

    def test_convolution_refuses_kernel_narrower_than_the_grid_step(self):
        # std 1e-4 against a step of 0.01: the quadrature returned 39.9 times the data at the peak
        y = np.linspace(-5.0, 5.0, 1001)
        hp = HeatProblem(eta=1.0, grid_y=y, initial=np.exp(-(y**2) / 2), tau_end=1e-8)
        with pytest.raises(ValueError, match="tau_end = 1e-08 is too short for the heat grid: "
                                             "kernel std 0.0001 is below the grid step 0.01"):
            solve_heat_convolution(hp)

    def test_fd_gaussian_semigroup(self):
        hp = gaussian_problem()
        var = 0.5**2 + hp.eta * hp.tau_end
        expected = np.exp(-(hp.grid_y**2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert np.max(np.abs(solve_heat_fd(hp, dt=hp.tau_end / 400) - expected)) <= 1e-4

    def test_fd_zero_initial_data_stays_zero(self):
        y = np.linspace(-5.0, 5.0, 201)
        hp = HeatProblem(eta=1.0, grid_y=y, initial=np.zeros_like(y), tau_end=0.5)
        np.testing.assert_array_equal(solve_heat_fd(hp, dt=0.01), 0.0)

    @pytest.mark.parametrize("dt, match", [
        (math.nan, "dt must be positive and finite"),
        (math.inf, "dt must be positive and finite"),
        # 4e299 and 8e323 steps: refused before the first one
        (1e-300, "tau_end = 0.4 and dt = 1e-300"),
        (5e-324, "tau_end = 0.4 and dt = 5e-324"),
    ])
    def test_fd_refuses_a_bad_or_tiny_step_at_once(self, dt, match):
        y = np.linspace(-5.0, 5.0, 101)
        hp = HeatProblem(eta=1.0, grid_y=y, initial=np.zeros_like(y), tau_end=0.4)
        with pytest.raises(ValueError, match=match):
            solve_heat_fd(hp, dt=dt)

    def test_cross_solver_agreement(self):
        hp = gaussian_problem()
        u_conv = solve_heat_convolution(hp)
        u_fd = solve_heat_fd(hp, dt=hp.tau_end / 400)
        interior = slice(40, -40)
        rel = np.max(np.abs(u_fd[interior] - u_conv[interior])) / np.max(np.abs(u_conv))
        assert rel <= 1e-3

    def test_convolution_bytes_independent_of_blas_threads(self, tmp_path):
        # a 1995-node payoff-step grid on which a matrix-product reduction
        # gave different last bits with one and two OpenBLAS threads
        convolution = (
            "import hashlib, math, numpy as np\n"
            "from logergodic import HeatProblem, solve_heat_convolution\n"
            "y = 1.0 + 0.20709362896539574 * np.arange(-997, 998)\n"
            "f = np.where(y > 1.0, 0.17052736898374465 - math.e, 0.0)\n"
            "f[997] *= 0.5\n"
            "hp = HeatProblem(eta=354.73158792780623, grid_y=y, initial=f,"
            " tau_end=1.7896124484735363)\n"
            "print(hashlib.sha256(solve_heat_convolution(hp).tobytes()).hexdigest())\n"
        )
        # the `price` sweep at the same near-step points, into the directory argv[1]
        price = (
            "import hashlib, pathlib, sys\n"
            "from logergodic.cli import main\n"
            "main(['--out', sys.argv[1], 'price', '--taus', '0.1,0.5,0.8948',"
            " '--zs', '0.05,0.1705', '--xs', '2.2098,100'], standalone_mode=False)\n"
            "csv = pathlib.Path(sys.argv[1], 'pricing_sweep.csv')\n"
            "print(hashlib.sha256(csv.read_bytes()).hexdigest())\n"
        )
        src = str(Path(logergodic.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for name, script in (("convolution", convolution), ("price", price)):
            digests = set()
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
                done = subprocess.run(
                    [sys.executable, "-c", script, str(tmp_path / f"{name}{threads}")],
                    env=env, capture_output=True, text=True, check=True, timeout=60)
                digests.add(done.stdout.splitlines()[-1])
            assert len(digests) == 1, name


class TestPriceViaPde:
    def test_matches_closed_form(self):
        inp = base_inputs()
        closed = price_ergodic_bs(inp).price
        numeric = price_via_pde(inp).price
        assert abs(numeric - closed) / abs(closed) <= 1e-6

    def test_flags_propagate(self):
        result = price_via_pde(base_inputs())
        assert "negative_payoff_factor" in result.flags

    def test_second_order_grid_convergence(self, monkeypatch):
        inp = base_inputs()
        closed = price_ergodic_bs(inp).price
        errs = []
        for n in (250, 500, 1000):
            monkeypatch.setattr(pricing, "_PDE_NODES", n)
            errs.append(abs(price_via_pde(inp).price - closed))
        assert errs[0] / errs[1] >= 2.0
        assert errs[1] / errs[2] >= 2.0

    @pytest.mark.parametrize("tau", [1e-5, 1e-6, 1e-300])
    def test_kernel_narrower_than_the_grid_step_is_refused(self, tau):
        # at tau = 1e-5 the quadrature gave -3.263 against the closed form's -2.804
        with pytest.raises(ValueError, match=f"tau = {tau} is too short .* at X = 100.0"):
            price_via_pde(base_inputs(tau=tau))

    def test_kernel_just_wider_than_the_grid_step_still_prices(self):
        inp = base_inputs(tau=1e-4)
        assert price_via_pde(inp).price == pytest.approx(price_ergodic_bs(inp).price, rel=1e-8)

    def test_zero_payoff_neighborhood_prices_near_zero(self):
        k = 1.1
        result = price_via_pde(base_inputs(K=k, z=math.log(k)))
        assert abs(result.price) <= 1e-10

    @given(
        tau=st.floats(0.05, 0.999),
        z=st.floats(0.01, 0.2),
        z_sign=st.sampled_from((-1.0, 1.0)),
        X=st.one_of(st.floats(3.0, 500.0),
                    st.integers(1, 12).map(lambda k: math.e * (1 + 10.0**-k))),
    )
    @settings(max_examples=60, deadline=None)
    def test_quadrature_matches_closed_form(self, tau, z, z_sign, X):
        inp = base_inputs(tau=tau, z=z_sign * z, X=X)
        closed = price_ergodic_bs(inp).price
        got = price_via_pde(inp).price
        if math.isfinite(closed) or math.isfinite(got):
            assert got == pytest.approx(closed, rel=1e-5, abs=0.0)

    def test_convolution_builds_no_square_kernel_matrix(self, monkeypatch):
        shapes = []

        def spy(y, tau, eta):
            shapes.append(np.shape(y))
            return heat_kernel(y, tau, eta)

        monkeypatch.setattr(pricing, "heat_kernel", spy)
        price_via_pde(base_inputs())
        assert shapes == [(1, 2001)]


class TestOverflowAndGridCap:
    @pytest.mark.parametrize("tau", [0.95, 0.99])
    def test_price_beyond_float_range_is_flagged(self, tau):
        inp = base_inputs(tau=tau)
        for result in (price_ergodic_bs(inp), price_via_pde(inp)):
            assert "overflow" in result.flags
            assert result.price == -math.inf

    def test_amplitude_overflow_with_finite_price(self):
        # the amplitude alone exceeds the float range; the small payoff
        # factor |z| - ln K = -0.01 brings the price back inside it
        inp = base_inputs(tau=0.9487, z=math.e - 0.01)
        c = derive_coefficients(inp)
        lm2 = c.lam - 2.0
        with pytest.raises(OverflowError):
            math.exp((c.y * lm2 + 0.25 * c.p * lm2**2) / (2.0 * c.lam))
        closed = price_ergodic_bs(inp)
        numeric = price_via_pde(inp)
        assert "overflow" not in closed.flags + numeric.flags
        assert math.isfinite(closed.price) and closed.price < -1e307
        assert numeric.price == pytest.approx(closed.price, rel=1e-5)

    def test_query_at_step_prices_to_closed_form(self):
        inp = base_inputs(X=math.e * (1 + 1e-12))
        closed = price_ergodic_bs(inp).price
        assert price_via_pde(inp).price == pytest.approx(closed, rel=1e-8, abs=0.0)

    def test_near_maturity_point_is_flagged_overflow(self):
        result = price_via_pde(base_inputs(tau=0.999))
        assert "overflow" in result.flags
        assert result.price == -math.inf

    @pytest.mark.parametrize(
        "overrides",
        [{"tau": 0.999}, {"X": math.e * (1 + 1e-12)}],
        ids=["tau_near_T", "query_at_step"],
    )
    def test_grid_size_is_fixed_by_n_nodes(self, monkeypatch, overrides):
        inp = base_inputs(**overrides)
        built = []

        def spy(**kwargs):
            built.append(len(kwargs["grid_y"]))
            return HeatProblem(**kwargs)

        monkeypatch.setattr(pricing, "HeatProblem", spy)
        for n_nodes in (250, 2000):
            monkeypatch.setattr(pricing, "_PDE_NODES", n_nodes)
            price_via_pde(inp)
        assert built == [251, 2001]
