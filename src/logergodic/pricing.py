"""European call pricing engines for the ergodic model.

Three routes are provided and cross-checked:

* ``price_rotation_call`` -- the circle-rotation closed form
  C = exp(-r t) * ((W_T / T^beta) ln(1 - K/S) - K).
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
with a sanity flag rather than floored at zero.  A price beyond the float
range comes back as a signed infinity flagged "overflow" instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import solve_banded

__all__ = [
    "PricingInputs",
    "DerivedCoefficients",
    "HeatProblem",
    "PriceResult",
    "normal_cdf",
    "gamma_delta",
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
_MASS_TOL = 1e-4


@dataclass(frozen=True)
class PricingInputs:
    r: float  # short rate
    K: float  # strike
    T: float  # horizon
    beta: float  # damping exponent, > 3/2
    mu: float  # price drift
    sigma: float  # volatility, > 0
    tau: float  # time to maturity, 0 < tau < T
    z: float  # Z-process level
    wT: float  # terminal Wiener value
    s_t0: float  # spot at contract purchase (rotation pricer)
    X: float  # underlying price in the PDE closed form
    t: float = 0.0  # valuation time (rotation pricer discount)

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.K > 0:
            raise ValueError(f"strike must be positive, got {self.K}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if not self.beta > 1.5:
            raise ValueError(f"beta must exceed 3/2, got {self.beta}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def require_rotation_domain(self) -> None:
        if not self.K < self.s_t0:
            raise ValueError(
                f"rotation pricer needs K < s_t0, got K={self.K}, s_t0={self.s_t0}"
            )
        if self.t < 0:
            raise ValueError(f"valuation time must be nonnegative, got {self.t}")

    def require_ergodic_domain(self) -> None:
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
    a: float  # 1/2 - r z / (B^2 T^beta)
    b: float  # reconstruction exponent constant


def normal_cdf(x: float) -> float:
    """Standard normal CDF to full double precision."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gamma_delta(S: float, K: float) -> float:
    """ln(1 - K/S); defined for S > K >= 0, with gamma -> 0 as K -> 0."""
    if K < 0:
        raise ValueError(f"strike must be nonnegative, got {K}")
    if not S > K:
        raise ValueError(f"price {S} must exceed strike {K}: option not exercisable")
    return math.log1p(-K / S)


@dataclass(frozen=True)
class PriceResult:
    price: float
    flags: tuple = ()

    @property
    def sane(self) -> bool:
        return "negative_price" not in self.flags


def price_rotation_call(inputs: PricingInputs) -> PriceResult:
    """Rotation closed form: exp(-r t) * ((wT / T^beta) gamma - K).

    The formula is evaluated as written; it can be negative, in which case a
    "negative_price" flag accompanies the raw value.
    """
    inputs.require_rotation_domain()
    g = gamma_delta(inputs.s_t0, inputs.K)
    price = math.exp(-inputs.r * inputs.t) * (
        (inputs.wT / inputs.T**inputs.beta) * g - inputs.K
    )
    flags = ("negative_price",) if price < 0 else ()
    return PriceResult(price=price, flags=flags)


def derive_coefficients(inputs: PricingInputs) -> DerivedCoefficients:
    """All scalar coefficients of the ergodic valuation, recomputed fresh.

    Self-checks the definition identity lam * r * |z| = T^beta * B^2.
    """
    inputs.require_ergodic_domain()
    delta = inputs.T - inputs.tau  # > 0: the domain requires tau < T, both finite
    q = inputs.mu - 0.5 * inputs.sigma**2
    B = q / delta ** (inputs.beta - 1) + inputs.sigma / delta**inputs.beta
    if B == 0.0:
        raise ValueError("B = 0: diffusion coefficient vanishes")
    tb = inputs.T**inputs.beta
    eta = B**2 * inputs.T ** (2 * inputs.beta)
    p = inputs.r * abs(inputs.z) * inputs.tau * tb
    lam = tb * B**2 / (inputs.r * abs(inputs.z))
    y = tb * inputs.z - q * (inputs.wT - delta)
    a = 0.5 - inputs.r * inputs.z / (B**2 * tb)
    b = (
        (4 * inputs.r * inputs.z * tb - B**2 * inputs.T ** (2 * inputs.beta)) / 8
        - inputs.r**2 * inputs.z**2 / (2 * B**2)
        - inputs.r
    )
    assert abs(lam * inputs.r * abs(inputs.z) - tb * B**2) <= 1e-12 * max(
        1.0, abs(tb * B**2)
    )
    return DerivedCoefficients(q=q, B=B, eta=eta, p=p, lam=lam, y=y, a=a, b=b)


def _valuation_price(inputs: PricingInputs, c: DerivedCoefficients, *factors: float) -> float:
    """exp(-r tau) * amplitude * factors, the amplitude being
    exp{(y (lam - 2) + p (lam - 2)^2 / 4) / (2 lam)}, the common prefactor of
    the closed form and the numerical reconstruction.

    Multiplied out left to right while the amplitude is a float; otherwise
    summed in log space.  A price beyond the float range is a signed inf.
    """
    lm2 = c.lam - 2.0
    log_amp = (c.y * lm2 + 0.25 * c.p * lm2**2) / (2.0 * c.lam)
    try:
        price = math.exp(-inputs.r * inputs.tau) * math.exp(log_amp)
    except OverflowError:
        if 0.0 in factors:
            return 0.0
        sign = math.prod(math.copysign(1.0, f) for f in factors)
        log_abs = -inputs.r * inputs.tau + log_amp + sum(math.log(abs(f)) for f in factors)
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
    two_pl = 2.0 * c.p * c.lam
    if not two_pl > 0:
        raise ValueError(f"need 2 p lam > 0, got {two_pl}")
    payoff = abs(inputs.z) - math.log(inputs.K)
    d = math.log(inputs.X / math.log(inputs.K)) / math.sqrt(two_pl)
    return _price_result(_valuation_price(inputs, c, payoff, normal_cdf(d)), payoff)


# --- heat equation machinery --------------------------------------------------


@dataclass(frozen=True)
class HeatProblem:
    """U_tau = (1/2) eta U_yy on a uniform y grid, integrated to tau_end."""

    eta: float
    grid_y: np.ndarray
    initial: np.ndarray
    tau_end: float

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not self.tau_end > 0:
            raise ValueError(f"tau_end must be positive, got {self.tau_end}")
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
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    var = tau * eta
    y = np.asarray(y, dtype=float)
    out = np.exp(-(y**2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return float(out) if out.ndim == 0 else out


def _require_grid_width(hp: HeatProblem) -> None:
    std = math.sqrt(hp.tau_end * hp.eta)
    span = float(hp.grid_y[-1] - hp.grid_y[0])
    required = 2.0 * _KERNEL_WIDTH_STD * std
    if span < required:
        raise ValueError(
            f"y grid span {span:.6g} too narrow: kernel mass truncation exceeds "
            f"{_MASS_TOL}; need span >= {required:.6g}"
        )


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
    is unconditionally stable, so any positive dt is accepted.  Dirichlet
    boundaries hold the far-field values of the initial data fixed
    (payoff-type data is affine-to-constant far from the kink, so its value
    does not diffuse at the edges of a sufficiently wide grid).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
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


def price_via_pde(inputs: PricingInputs, n_nodes: int = 2000) -> PriceResult:
    """Numerical counterpart of ``price_ergodic_bs``, by one heat-kernel quadrature.

    The valuation integral behind the closed form is a Gaussian smoothing,
    with total variance 2 p lam, of a payoff step of height |z| - ln K
    located at ln(ln K), read at ln X.  Diffusing the step with diffusivity
    eta for time 2 p lam / eta reproduces that integral.  The step sits on
    the middle node of a uniform grid of 2 ceil(n_nodes / 2) + 1 nodes and
    carries half the jump there (the standard second-order treatment of a
    discontinuity); the solution is the trapezoid sum at ln X alone, which
    need not be a node, so the work is O(n_nodes) at every tau and X.  It is
    multiplied by the discount and reconstruction factor and agrees with the
    closed form to quadrature accuracy.
    """
    if not n_nodes >= 1:
        raise ValueError(f"n_nodes must be at least 1, got {n_nodes}")
    c = derive_coefficients(inputs)
    two_pl = 2.0 * c.p * c.lam
    std = math.sqrt(two_pl)
    step_y = math.log(math.log(inputs.K))
    query_y = math.log(inputs.X)
    payoff = abs(inputs.z) - math.log(inputs.K)

    half_span = max(_KERNEL_WIDTH_STD * 2.1 * std, abs(query_y - step_y) + 6 * std)
    h = math.ceil(n_nodes / 2)
    grid_y = step_y + (2 * half_span / n_nodes) * np.arange(-h, h + 1)
    initial = np.where(grid_y > step_y, payoff, 0.0)
    initial[h] = 0.5 * payoff
    hp = HeatProblem(eta=c.eta, grid_y=grid_y, initial=initial, tau_end=two_pl / c.eta)
    u_query = float(_convolve(hp, np.array([query_y]))[0])
    return _price_result(_valuation_price(inputs, c, u_query), payoff)
