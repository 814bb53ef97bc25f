"""Circle rotation by an irrational angle, orbit statistics, and the random angle process.

Points live additively in [0, 1); the multiplicative point is exp(2*pi*i*x).
Irrationality of an angle cannot be certified in floating point, so it is a
modeling assumption; fixtures use quadratic irrationals (sqrt(2), the golden
ratio conjugate) whose equidistribution behavior is well understood.
"""

from __future__ import annotations

import bisect
import math
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .ergodic import EmoConfig
from .stochastic import PathKind, SamplePath

__all__ = [
    "SQRT2",
    "GOLDEN_CONJUGATE",
    "TrigPolynomial",
    "birkhoff_average",
    "equidistribution_test",
    "kac_return_time",
    "theta_process",
]

SQRT2 = math.sqrt(2.0)
GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0

_MAX_ORBIT_STEPS = 1_000_000_000  # a domain limit on orbit lengths; work grows as their log


class TrigPolynomial:
    """Finite trigonometric polynomial on [0, 1]; its integral is the constant term.

    phi(x) = c0 + sum_m (cos_coeffs[m-1] cos(2 pi m x) + sin_coeffs[m-1] sin(2 pi m x))
    """

    def __init__(self, c0: float, cos_coeffs: Sequence[float] = (), sin_coeffs: Sequence[float] = ()):
        self.c0 = float(c0)
        self.cos_coeffs = tuple(float(c) for c in cos_coeffs)
        self.sin_coeffs = tuple(float(c) for c in sin_coeffs)
        for name, value in [("c0", self.c0),
                            *((f"cos_coeffs[{m}]", c) for m, c in enumerate(self.cos_coeffs)),
                            *((f"sin_coeffs[{m}]", c) for m, c in enumerate(self.sin_coeffs))]:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def integral(self) -> float:
        return self.c0


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{k<n} floor((a k + b) / m) for integers n >= 0 and m >= 1, in O(log m) steps:
    past the whole parts of a / m and b / m, it counts lattice points under a line,
    which is the same sum with a and m swapped, as in Euclid's algorithm."""
    total = 0
    while True:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        n, b = divmod(a * n + b, m)
        if n == 0:
            return total
        m, a = a, m


def _exact_orbit(x: float, theta: float, n: int, *ends: float) -> tuple[int, ...]:
    """(D, x D, theta D, *ends D) in exact integers, D the largest power-of-two denominator
    of these doubles; x, theta and 1 <= n <= _MAX_ORBIT_STEPS are checked first."""
    if not (0.0 <= x < 1.0):
        raise ValueError(f"circle point x0 must lie in [0, 1), got {x}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _MAX_ORBIT_STEPS:
        raise ValueError(f"a scan of {n} orbit steps is more than {_MAX_ORBIT_STEPS}")
    ratios = [float(v).as_integer_ratio() for v in (x, theta, *ends)]
    d = max(q for _, q in ratios)
    return (d, *(p * (d // q) for p, q in ratios))


def _hits(n: int, d: int, x: int, theta: int, a: int, b: int) -> int:
    """Number of k < n with {x + k theta} in [a, b), all over d: as 1[{u} < c] =
    floor(u) - floor(u - c) for c in [0, 1], the count is F(a) - F(b), where
    F(c) = sum_{k<n} floor(x + k theta - c) is a floor sum."""
    return _floor_sum(n, d, theta, x - a) - _floor_sum(n, d, theta, x - b)


def birkhoff_average(phi: TrigPolynomial, x: float, theta: float, n: int) -> float:
    """Orbit average (1/n) sum_{k<n} phi((x + k theta) mod 1) of a trigonometric polynomial;
    for irrational theta it converges to the integral of phi over [0, 1]."""
    d, x_num, theta_num = _exact_orbit(x, theta, n)

    def angle(k: int) -> float:  # pi k / d, with k / d reduced mod 2 to [-1, 1) exactly
        return math.pi * (((k + d) % (2 * d) - d) / d)
    total = phi.c0
    modes = zip_longest(phi.cos_coeffs, phi.sin_coeffs, fillvalue=0.0)
    for m, (c, s) in enumerate(modes, start=1):
        t = (m * theta_num + d // 2) % d - d // 2  # m theta mod 1 in [-1/2, 1/2), over d
        # a geometric series: sum_{k<n} e^{2 pi i (m x + k t)}
        #   = e^{i pi (2 m x + (n-1) t)} sin(pi n t) / sin(pi t)
        if abs(t / d) < 1e-150:  # all terms equal to double precision; sin(pi t) could underflow
            r = 1.0
        else:
            r = math.sin(angle(n * t)) / (n * math.sin(angle(t)))
        phase = angle(2 * m * x_num + (n - 1) * t)
        total += r * (c * math.cos(phase) + s * math.sin(phase))
    return total


def equidistribution_test(theta: float, a: float, b: float, x0: float, n: int) -> float:
    """Fraction of the first n orbit points landing in [a, b)."""
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"interval needs 0 <= a < b <= 1, got a={a}, b={b}")
    return _hits(n, *_exact_orbit(x0, theta, n, a, b)) / n


def kac_return_time(theta: float, arc: tuple[float, float], x0: float, n_returns: int) -> float:
    """Mean number of steps between successive visits to the arc [a, b).

    For an ergodic rotation the expected return time is 1 / (b - a).  The
    returns are sought in at most ceil(4 * n_returns / (b - a)) orbit steps; an
    angle that needs more, such as one too close to a rational, raises ValueError.
    """
    a, b = arc
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"need 0 <= a < b <= 1, got arc={arc}")
    if not (a <= x0 < b):
        raise ValueError(f"start point {x0} must lie in the arc {arc}")
    if n_returns < 1:
        raise ValueError(f"n_returns must be >= 1, got {n_returns}")
    # the budget in exact integers: as a float, the quotient overflows for a subnormal arc
    (pa, qa), (pb, qb) = float(a).as_integer_ratio(), float(b).as_integer_ratio()
    budget = -(-4 * n_returns * qa * qb // (pb * qa - pa * qb))
    orbit = _exact_orbit(x0, theta, budget, a, b)
    # x0 lies in the arc, so k = 0 is hit 0 and n_returns gaps end at hit
    # n_returns: the least N whose first N steps hold n_returns + 1 hits is one past it
    first = bisect.bisect_left(range(budget + 1), n_returns + 1, key=lambda n: _hits(n, *orbit))
    if first > budget:
        raise ValueError(f"theta {theta} returned to the arc {arc} fewer than {n_returns} "
                         f"times in {budget} orbit steps; it may be too close to a rational")
    return (first - 1) / n_returns


def theta_process(
    z: SamplePath, price: SamplePath, K: float, cfg: EmoConfig
) -> np.ndarray:
    """Angle path theta = Z + (wT / T^beta) * ln(1 - K / S), one value per grid point.

    Requires the price to stay above the strike on the whole grid; the log
    term is undefined otherwise.
    """
    if z.kind is not PathKind.ZPROCESS:
        raise ValueError(f"theta_process expects a zprocess path, got {z.kind.value}")
    if price.kind is not PathKind.PRICE:
        raise ValueError(f"theta_process expects a price path, got {price.kind.value}")
    if not z.grid.compatible(price.grid):
        raise ValueError("z and price paths must share a grid")
    if K < 0:
        raise ValueError(f"strike must be nonnegative, got {K}")
    s = price.values
    bad = np.nonzero(s <= K)[0]
    if bad.size:
        raise ValueError(
            f"price {s[bad[0]]} <= strike {K} at index {bad[0]}: option not exercisable"
        )
    return z.values + (cfg.wT / cfg.T**cfg.beta) * np.log1p(-K / s)
