"""Circle rotation by an irrational angle, orbit statistics, and the random angle process.

Points live additively in [0, 1); the multiplicative point is exp(2*pi*i*x).
Irrationality of an angle cannot be certified in floating point, so it is a
modeling assumption; fixtures use quadratic irrationals (sqrt(2), the golden
ratio conjugate) whose equidistribution behavior is well understood.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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

_PERIODICITY_TOL = 1e-12
_ORBIT_CHUNK = 1 << 18
_MAX_ORBIT_STEPS = 1_000_000_000


class TrigPolynomial:
    """Finite trigonometric polynomial on [0, 1]; its integral is the constant term.

    phi(x) = c0 + sum_m (cos_coeffs[m-1] cos(2 pi m x) + sin_coeffs[m-1] sin(2 pi m x))
    """

    def __init__(self, c0: float, cos_coeffs: Sequence[float] = (), sin_coeffs: Sequence[float] = ()):
        self.c0 = float(c0)
        self.cos_coeffs = tuple(float(c) for c in cos_coeffs)
        self.sin_coeffs = tuple(float(c) for c in sin_coeffs)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.c0)
        for m, c in enumerate(self.cos_coeffs, start=1):
            out = out + c * np.cos(2 * np.pi * m * x)
        for m, c in enumerate(self.sin_coeffs, start=1):
            out = out + c * np.sin(2 * np.pi * m * x)
        return out

    @property
    def integral(self) -> float:
        return self.c0


def _check_periodic(phi: Callable) -> None:
    p0 = float(np.asarray(phi(0.0)))
    p1 = float(np.asarray(phi(1.0)))
    if abs(p0 - p1) > _PERIODICITY_TOL:
        raise ValueError(f"test function is not periodic: phi(0)={p0}, phi(1)={p1}")


def _orbit_chunk(x: float, theta: float, start: int, stop: int) -> np.ndarray:
    # k*theta computed from the reduced angle so the product stays small and
    # the mod-1 reduction keeps ~1e-11 accuracy out to k = 1e6
    theta_red = theta % 1.0
    k = np.arange(start, stop, dtype=float)
    out = (x + k * theta_red) % 1.0
    out[out >= 1.0] = 0.0  # float modulo can round up to exactly 1.0
    return out


def _orbit_chunks(x: float, theta: float, n: int):
    """The first n orbit points as (index of the first, points) pairs, in
    chunks of at most _ORBIT_CHUNK points: the one scan over an orbit, which
    checks x, theta and 1 <= n <= _MAX_ORBIT_STEPS before its first step."""
    if not (0.0 <= x < 1.0):
        raise ValueError(f"circle point x0 must lie in [0, 1), got {x}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _MAX_ORBIT_STEPS:
        raise ValueError(f"a scan of {n} orbit steps is more than {_MAX_ORBIT_STEPS}")
    for start in range(0, n, _ORBIT_CHUNK):
        yield start, _orbit_chunk(x, theta, start, min(start + _ORBIT_CHUNK, n))


def birkhoff_average(phi: Callable, x: float, theta: float, n: int) -> float:
    """Orbit average (1/n) sum_{k<n} phi((x + k theta) mod 1).

    phi must wrap (phi(0) = phi(1)); for irrational theta the average
    converges to the integral of phi over [0, 1].
    """
    _check_periodic(phi)
    total = 0.0
    for _, pts in _orbit_chunks(x, theta, n):
        total += float(np.sum(phi(pts)))
    return total / n


def equidistribution_test(theta: float, a: float, b: float, x0: float, n: int) -> float:
    """Fraction of the first n orbit points landing in [a, b)."""
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"interval needs 0 <= a < b <= 1, got a={a}, b={b}")
    hits = sum(int(np.count_nonzero((pts >= a) & (pts < b)))
               for _, pts in _orbit_chunks(x0, theta, n))
    return hits / n


def kac_return_time(
    theta: float, arc: tuple[float, float], x0: float, n_returns: int
) -> float:
    """Mean number of steps between successive visits to the arc [a, b).

    For an ergodic rotation the expected return time is 1 / (b - a).  The
    scan takes at most ceil(4 * n_returns / (b - a)) orbit steps; an angle
    that needs more, such as one too close to a rational, raises ValueError.
    """
    a, b = arc
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"need 0 <= a < b <= 1, got arc={arc}")
    if not (a <= x0 < b):
        raise ValueError(f"start point {x0} must lie in the arc {arc}")
    if n_returns < 1:
        raise ValueError(f"n_returns must be >= 1, got {n_returns}")

    budget = math.ceil(4 * n_returns / (b - a))
    n_hits = 0
    # x0 lies in the arc, so k = 0 is hit 0 and n_returns gaps end at hit n_returns
    for start, pts in _orbit_chunks(x0, theta, budget):
        hits = np.flatnonzero((pts >= a) & (pts < b))
        if n_hits + hits.size > n_returns:
            return float(hits[n_returns - n_hits] + start) / n_returns
        n_hits += hits.size
    raise ValueError(f"theta {theta} returned to the arc {arc} fewer than {n_returns} "
                     f"times in {budget} orbit steps; it may be too close to a rational")


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
