"""European call pricing engines for the ergodic model.

Three routes are provided and cross-checked; the two ergodic ones read a
``PricingInputs``, checked against their whole domain when it is built:

* ``price_rotation_call`` -- the circle-rotation closed form, with beta, T
  and W_T from an ``EmoConfig``: C = exp(-r t) * ((W_T / T^beta) ln(1 - K/S) - K).
* ``price_ergodic_bs`` -- the closed-form solution of the ergodic
  Black-Scholes equation in the Z variable,
  C = exp(-r tau) * exp{(y(l-2) + p(l-2)^2/4) / (2l)} * (|z| - ln K) * N[d],
  d = ln(X / ln K) / sqrt(2 p l).
* ``price_via_pde`` -- the same value obtained numerically: the valuation
  reduces to a constant-coefficient heat equation, whose solution at ln X is
  one trapezoidal heat-kernel quadrature, O(nodes), instead of the analytic
  Gaussian integral.  The query point need not sit on a grid node, so the
  grid has a fixed size at every tau and X: points near maturity or with X
  near ln K are priced, or flagged "overflow" when the price leaves the
  float range.  The full-grid solvers ``solve_heat_convolution`` and
  ``solve_heat_fd`` remain for the cross-solver check (criterion 9).

Both closed forms can return negative values; they are reported as computed
with a "negative_price" flag rather than floored at zero.  A price beyond the float
range comes back as a signed infinity flagged "overflow" instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy.linalg import solve_banded

from .ergodic import BETA_MIN, EmoConfig

__all__ = [
    "PricingInputs",
    "DerivedCoefficients",
    "HeatProblem",
    "PriceResult",
    "normal_cdf",
    "price_rotation_call",
    "derive_coefficients",
    "price_ergodic_bs",
    "heat_kernel",
    "solve_heat_convolution",
    "solve_heat_fd",
    "price_via_pde",
]

# kernel mass outside +-3.9 std is ~1e-4; grids must span at least that much
_KERNEL_WIDTH_STD = 3.9
# price_via_pde's grid: _PDE_NODES steps across its span, _PDE_NODES + 1 nodes
_PDE_NODES = 2000
_MASS_TOL = 1e-4
_MAX_FD_STEPS = 10**6  # solve_heat_fd refuses to take more steps than this


@dataclass(frozen=True)
class PricingInputs:
    r: float  # short rate, > 0
    K: float  # strike, > 1
    T: float  # horizon
    beta: float  # damping exponent, > 3/2
    mu: float  # price drift
    sigma: float  # volatility, > 0
    tau: float  # time to maturity, 0 < tau < T
    z: float  # Z-process level, != 0
    wT: float  # terminal Wiener value
    X: float  # underlying price in the PDE closed form, > 0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.K > 0:
            raise ValueError(f"strike must be positive, got {self.K}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if not self.beta > BETA_MIN:
            raise ValueError(f"beta must exceed 3/2, got {self.beta}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.K > 1:
            raise ValueError(f"ergodic pricer needs K > 1 (ln ln K), got K={self.K}")
        if self.z == 0:
            raise ValueError("ergodic pricer needs z != 0")
        if not self.r > 0:
            raise ValueError(f"ergodic pricer needs r > 0, got r={self.r}")
        if not self.X > 0:
            raise ValueError(f"ergodic pricer needs X > 0, got X={self.X}")
        if not 0 < self.tau < self.T:
            raise ValueError(f"need 0 < tau < T, got tau={self.tau}, T={self.T}")


@dataclass(frozen=True)
class DerivedCoefficients:
    q: float  # mu - sigma^2/2
    B: float  # q / delta^(beta-1) + sigma / delta^beta, delta = T - tau
    eta: float  # B^2 T^(2 beta), heat diffusivity
    p: float  # r |z| tau T^beta
    lam: float  # T^beta B^2 / (r |z|)
    y: float  # T^beta z - q (wT - delta)
    log_amp: float  # (y (lam - 2) + p (lam - 2)^2 / 4) / (2 lam), log of the price amplitude


def normal_cdf(x: float) -> float:
    """Standard normal CDF to full double precision."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class PriceResult:
    price: float
    flags: tuple = ()


def price_rotation_call(cfg: EmoConfig, r: float, K: float, s_t0: float, t: float) -> PriceResult:
    """Rotation closed form: exp(-r t) * ((wT / T^beta) gamma - K) with
    gamma = ln(1 - K / s_t0), beta, T and wT taken from the transform's config.

    The formula is evaluated as written; it can be negative, in which case a
    "negative_price" flag accompanies the raw value.  Settings that put the
    price outside the float range raise ValueError.
    """
    for name, value in (("r", r), ("K", K), ("s_t0", s_t0), ("t", t)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not K > 0:
        raise ValueError(f"strike must be positive, got {K}")
    if not K < s_t0:
        raise ValueError(f"rotation pricer needs K < s_t0, got K={K}, s_t0={s_t0}")
    if t < 0:
        raise ValueError(f"valuation time must be nonnegative, got {t}")
    gamma = math.log1p(-K / s_t0)  # 0 < K < s_t0
    try:
        price = math.exp(-r * t) * ((cfg.wT / cfg.T**cfg.beta) * gamma - K)
    except OverflowError:  # exp(-r t) overflows; EmoConfig keeps T^beta in (0, inf)
        price = math.nan
    if not math.isfinite(price):
        raise ValueError(f"r = {r}, t = {t}, T = {cfg.T} and beta = {cfg.beta} put the "
                         "rotation price outside the float range")
    flags = ("negative_price",) if price < 0 else ()
    return PriceResult(price=price, flags=flags)


def derive_coefficients(inputs: PricingInputs) -> DerivedCoefficients:
    """The scalar coefficients of the ergodic valuation, recomputed fresh.

    Settings whose coefficients leave the float range, or give no positive
    smoothing variance 2 p lam, raise ValueError.
    """
    delta = inputs.T - inputs.tau  # > 0: PricingInputs requires tau < T, both finite
    try:
        q = inputs.mu - 0.5 * inputs.sigma**2
        B = q / delta ** (inputs.beta - 1) + inputs.sigma / delta**inputs.beta
        if B == 0.0:
            raise ValueError("B = 0: diffusion coefficient vanishes")
        tb = inputs.T**inputs.beta
        eta = B**2 * inputs.T ** (2 * inputs.beta)
        p = inputs.r * abs(inputs.z) * inputs.tau * tb
        lam = tb * B**2 / (inputs.r * abs(inputs.z))
        y = tb * inputs.z - q * (inputs.wT - delta)
        lm2 = lam - 2.0
        log_amp = (y * lm2 + 0.25 * p * lm2**2) / (2.0 * lam)
        c = DerivedCoefficients(q=q, B=B, eta=eta, p=p, lam=lam, y=y, log_amp=log_amp)
        in_range = all(map(math.isfinite, astuple(c))) and 2.0 * p * lam > 0
    except (OverflowError, ZeroDivisionError):  # a power over- or underflows
        in_range = False
    if not in_range:
        raise ValueError(
            f"T = {inputs.T}, tau = {inputs.tau}, beta = {inputs.beta}, mu = {inputs.mu}, "
            f"sigma = {inputs.sigma}, wT = {inputs.wT}, r = {inputs.r} and z = {inputs.z} put "
            "the pricing coefficients outside the float range")
    return c


def _valuation_price(inputs: PricingInputs, c: DerivedCoefficients, *factors: float) -> float:
    """exp(-r tau) * amplitude * factors, the amplitude exp(c.log_amp) being
    the common prefactor of the closed form and the numerical reconstruction.

    Multiplied out left to right while the amplitude is a float; otherwise
    summed in log space.  A price beyond the float range is a signed inf.
    """
    try:
        price = math.exp(-inputs.r * inputs.tau) * math.exp(c.log_amp)
    except OverflowError:
        if 0.0 in factors:
            return 0.0
        sign = math.prod(math.copysign(1.0, f) for f in factors)
        log_abs = -inputs.r * inputs.tau + c.log_amp + sum(math.log(abs(f)) for f in factors)
        try:
            return sign * math.exp(log_abs)
        except OverflowError:
            return sign * math.inf
    for f in factors:
        price *= f
    return price


def _price_result(price: float, payoff: float) -> PriceResult:
    flags = []
    if payoff < 0:
        flags.append("negative_payoff_factor")
    if price < 0:
        flags.append("negative_price")
    if math.isinf(price):
        flags.append("overflow")
    return PriceResult(price=price, flags=tuple(flags))


def price_ergodic_bs(inputs: PricingInputs) -> PriceResult:
    """Closed-form ergodic Black-Scholes price.

    The payoff factor |z| - ln K keeps its sign; a flag is attached when the
    resulting price is negative, and "overflow" when it leaves the float range.
    """
    c = derive_coefficients(inputs)
    payoff = abs(inputs.z) - math.log(inputs.K)
    ratio = inputs.X / math.log(inputs.K)
    if ratio == 0.0:
        raise ValueError(f"X = {inputs.X} over ln K = {math.log(inputs.K)} underflows to 0")
    d = math.log(ratio) / math.sqrt(2.0 * c.p * c.lam)
    return _price_result(_valuation_price(inputs, c, payoff, normal_cdf(d)), payoff)


# --- heat equation machinery --------------------------------------------------


@dataclass(frozen=True, eq=False)
class HeatProblem:
    """U_tau = (1/2) eta U_yy on a uniform y grid, integrated to tau_end."""

    eta: float
    grid_y: np.ndarray
    initial: np.ndarray
    tau_end: float

    def __post_init__(self):
        for name in ("eta", "tau_end"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if len(self.grid_y) != len(self.initial):
            raise ValueError("grid and initial data must have equal length")
        if len(self.grid_y) < 3:
            raise ValueError("grid needs at least 3 nodes")
        dy = np.diff(self.grid_y)
        if np.any(dy <= 0) or not np.allclose(dy, dy[0], rtol=1e-9):
            raise ValueError("y grid must be uniform and increasing")
        if not np.all(np.isfinite(self.initial)):
            raise ValueError("initial data must be finite")

    @property
    def dy(self) -> float:
        return float(self.grid_y[1] - self.grid_y[0])


def heat_kernel(y, tau: float, eta: float):
    """Gaussian fundamental solution with variance tau * eta."""
    for name, value in (("tau", tau), ("eta", eta)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    var = tau * eta
    if var == 0.0:
        raise ValueError(f"tau = {tau} times eta = {eta} underflows to 0")
    y = np.asarray(y, dtype=float)
    out = np.exp(-(y**2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return float(out) if out.ndim == 0 else out


def _require_grid_width(hp: HeatProblem) -> None:
    """The grid spans the kernel's mass and its step resolves the kernel."""
    std = math.sqrt(hp.tau_end * hp.eta)
    span = float(hp.grid_y[-1] - hp.grid_y[0])
    required = 2.0 * _KERNEL_WIDTH_STD * std
    if span < required:
        raise ValueError(
            f"y grid span {span:.6g} too narrow: kernel mass truncation exceeds "
            f"{_MASS_TOL}; need span >= {required:.6g}"
        )
    if hp.dy > std:  # a kernel narrower than the grid step makes the quadrature wrong
        raise ValueError(f"tau_end = {hp.tau_end} is too short for the heat grid: "
                         f"kernel std {std:.3g} is below the grid step {hp.dy:.3g}")


def _convolve(hp: HeatProblem, points: np.ndarray) -> np.ndarray:
    """Trapezoidal convolution of the initial data with the kernel at `points`,
    sum_j w_j k(point - y_j) f_j.  Each sum is an ``np.sum`` over its row, so
    its bits depend neither on the other points nor on the BLAS thread count."""
    y = hp.grid_y
    weights = np.full(len(y), hp.dy)
    weights[0] = weights[-1] = 0.5 * hp.dy
    fw = hp.initial * weights
    return np.sum(heat_kernel(points[:, None] - y[None, :], hp.tau_end, hp.eta) * fw, axis=1)


def solve_heat_convolution(hp: HeatProblem) -> np.ndarray:
    """U(., tau_end) by trapezoidal convolution of the initial data with the kernel.

    Direct O(n^2) quadrature over the whole grid, in row blocks of about 4M
    kernel entries; grids at desk scale make this cheap and avoid the
    periodic wraparound of FFT convolution.  The initial data is treated as
    zero outside the grid.  ``price_via_pde`` evaluates the same quadrature
    at its query point only, O(n); this full-grid solve remains for the
    cross-solver check (criterion 9).
    """
    _require_grid_width(hp)
    y = hp.grid_y
    rows = max(1, (1 << 22) // len(y))
    return np.concatenate([_convolve(hp, y[i:i + rows]) for i in range(0, len(y), rows)])


def solve_heat_fd(hp: HeatProblem, dt: float) -> np.ndarray:
    """U(., tau_end) by Crank-Nicolson steps on second-order central differences in y.

    dt is rounded so that a whole number of steps reaches tau_end; Crank-Nicolson
    is unconditionally stable, so any finite dt > 0 is accepted that needs at
    most _MAX_FD_STEPS steps.  Dirichlet boundaries hold the far-field values
    of the initial data fixed (payoff-type data is affine-to-constant far from
    the kink, so its value does not diffuse at the edges of a sufficiently wide grid).
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    # a product, not the ratio tau_end / dt, which overflows for a subnormal dt
    if hp.tau_end > _MAX_FD_STEPS * dt:
        raise ValueError(f"tau_end = {hp.tau_end} and dt = {dt} ask for more than "
                         f"{_MAX_FD_STEPS} Crank-Nicolson steps")
    dy = hp.dy
    n_steps = max(1, round(hp.tau_end / dt))
    dt = hp.tau_end / n_steps
    r = 0.5 * hp.eta * dt / dy**2
    u = hp.initial.copy()
    n = len(u)

    # (I - r/2 L) u+ = (I + r/2 L) u, Dirichlet edges fixed
    ab = np.zeros((3, n - 2))
    ab[0, 1:] = -0.5 * r
    ab[1, :] = 1.0 + r
    ab[2, :-1] = -0.5 * r
    for _ in range(n_steps):
        rhs = u[1:-1] + 0.5 * r * (u[2:] - 2 * u[1:-1] + u[:-2])
        rhs[0] += 0.5 * r * u[0]
        rhs[-1] += 0.5 * r * u[-1]
        u[1:-1] = solve_banded((1, 1), ab, rhs)
    return u


def price_via_pde(inputs: PricingInputs) -> PriceResult:
    """Numerical counterpart of ``price_ergodic_bs``, by one heat-kernel quadrature.

    The valuation integral behind the closed form is a Gaussian smoothing,
    with total variance 2 p lam, of a payoff step of height |z| - ln K
    located at ln(ln K), read at ln X.  Diffusing the step with diffusivity
    eta for time 2 p lam / eta reproduces that integral.  The step sits on
    the middle node of a uniform grid of 2001 nodes and carries half the jump
    there (the standard second-order treatment of a discontinuity); the
    solution is the trapezoid sum at ln X alone, which need not be a node, so
    the work is O(nodes) at every tau and X.  It is multiplied by the discount
    and reconstruction factor and agrees with the closed form to quadrature
    accuracy.  A tau so short that the kernel is narrower than the grid step
    raises ValueError.
    """
    c = derive_coefficients(inputs)
    two_pl = 2.0 * c.p * c.lam
    std = math.sqrt(two_pl)
    step_y = math.log(math.log(inputs.K))
    query_y = math.log(inputs.X)
    payoff = abs(inputs.z) - math.log(inputs.K)

    half_span = max(_KERNEL_WIDTH_STD * 2.1 * std, abs(query_y - step_y) + 6 * std)
    dy = 2 * half_span / _PDE_NODES
    if dy > std:  # a kernel narrower than the grid step makes the quadrature wrong
        raise ValueError(f"tau = {inputs.tau} is too short for the heat grid at X = {inputs.X}: "
                         f"kernel std {std:.3g} is below the grid step {dy:.3g}")
    h = _PDE_NODES // 2
    grid_y = step_y + dy * np.arange(-h, h + 1)
    initial = np.where(grid_y > step_y, payoff, 0.0)
    initial[h] = 0.5 * payoff
    hp = HeatProblem(eta=c.eta, grid_y=grid_y, initial=initial, tau_end=two_pl / c.eta)
    u_query = float(_convolve(hp, np.array([query_y]))[0])
    return _price_result(_valuation_price(inputs, c, u_query), payoff)
