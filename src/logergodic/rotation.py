"""Circle rotation by an irrational angle, orbit statistics, and the random angle process.

Points live additively in [0, 1); the multiplicative point is exp(2*pi*i*x).
Irrationality of an angle cannot be certified in floating point, so it is a
modeling assumption; fixtures use quadratic irrationals (sqrt(2), the golden
ratio conjugate) whose equidistribution behavior is well understood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ergodic import EmoConfig
from .stochastic import PathKind, SamplePath, TimeGrid

__all__ = [
    "SQRT2",
    "GOLDEN_CONJUGATE",
    "ThetaPath",
    "TrigPolynomial",
    "TabulatedPeriodic",
    "ThetaMomentReport",
    "rotate",
    "orbit",
    "birkhoff_average",
    "equidistribution_test",
    "kac_return_time",
    "theta_process",
    "theta_moment_check",
]

SQRT2 = math.sqrt(2.0)
GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0

_PERIODICITY_TOL = 1e-12
_ORBIT_CHUNK = 1 << 18
_MAX_ORBIT_STEPS = 1_000_000_000


def _check_start(name: str, x: float, theta: float) -> None:
    if not (0.0 <= x < 1.0):
        raise ValueError(f"circle point {name} must lie in [0, 1), got {x}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")


@dataclass(frozen=True)
class ThetaPath:
    """Random rotation angle along a path: theta = Z + (wT/T^beta) * gamma."""

    grid: TimeGrid
    values: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n + 1 or len(self.gamma) != self.grid.n + 1:
            raise ValueError("theta path length must be grid.n + 1")
        if not np.all(np.isfinite(self.gamma)):
            raise ValueError("gamma must be finite (strike below price everywhere)")


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


class TabulatedPeriodic:
    """Periodic function given by samples on a uniform grid over [0, 1]."""

    def __init__(self, samples: Sequence[float]):
        samples = np.asarray(samples, dtype=float)
        if len(samples) < 2:
            raise ValueError("need at least 2 samples")
        if abs(samples[0] - samples[-1]) > _PERIODICITY_TOL:
            raise ValueError(
                f"samples do not wrap: phi(0)={samples[0]} vs phi(1)={samples[-1]}"
            )
        self.samples = samples
        self.xs = np.linspace(0.0, 1.0, len(samples))

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.samples)


def _check_periodic(phi: Callable) -> None:
    p0 = float(np.asarray(phi(0.0)))
    p1 = float(np.asarray(phi(1.0)))
    if abs(p0 - p1) > _PERIODICITY_TOL:
        raise ValueError(f"test function is not periodic: phi(0)={p0}, phi(1)={p1}")


def rotate(x: float, theta: float) -> float:
    """One rotation step: (x + theta) mod 1."""
    _check_start("x", x, theta)
    out = (x + theta) % 1.0
    # float modulo can round up to exactly 1.0 for tiny negative arguments
    return out if out < 1.0 else 0.0


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
    chunks of at most _ORBIT_CHUNK points: the one scan over an orbit."""
    for start in range(0, n, _ORBIT_CHUNK):
        yield start, _orbit_chunk(x, theta, start, min(start + _ORBIT_CHUNK, n))


def orbit(x: float, theta: float, n: int) -> np.ndarray:
    """First n orbit points (x + k*theta) mod 1, k = 0..n-1.

    Each point is computed from the multiple k*theta rather than by iterated
    addition, so rounding does not accumulate along the orbit.
    """
    _check_start("x", x, theta)
    if n < 1:
        raise ValueError(f"orbit length must be >= 1, got {n}")
    return _orbit_chunk(x, theta, 0, n)


def birkhoff_average(phi: Callable, x: float, theta: float, n: int) -> float:
    """Orbit average (1/n) sum_{k<n} phi((x + k theta) mod 1).

    phi must wrap (phi(0) = phi(1)); for irrational theta the average
    converges to the integral of phi over [0, 1].
    """
    _check_start("x", x, theta)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_periodic(phi)
    total = 0.0
    for _, pts in _orbit_chunks(x, theta, n):
        total += float(np.sum(phi(pts)))
    return total / n


def equidistribution_test(theta: float, a: float, b: float, x0: float, n: int) -> float:
    """Fraction of the first n orbit points landing in [a, b)."""
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"interval needs 0 <= a < b <= 1, got a={a}, b={b}")
    _check_start("x0", x0, theta)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
    _check_start("x0", x0, theta)

    budget = math.ceil(4 * n_returns / (b - a))
    if budget > _MAX_ORBIT_STEPS:
        raise ValueError(f"{n_returns} returns to the arc {arc} need a scan of {budget} "
                         f"orbit steps, more than {_MAX_ORBIT_STEPS}")
    hits = []
    n_hits = 0
    # x0 lies in the arc, so k = 0 is the first hit
    for start, pts in _orbit_chunks(x0, theta, budget):
        hits.append(np.flatnonzero((pts >= a) & (pts < b)) + start)
        n_hits += hits[-1].size
        if n_hits > n_returns:
            return float(np.mean(np.diff(np.concatenate(hits))[:n_returns]))
    raise ValueError(f"theta {theta} returned to the arc {arc} fewer than {n_returns} "
                     f"times in {budget} orbit steps; it may be too close to a rational")


def theta_process(
    z: SamplePath, price: SamplePath, K: float, cfg: EmoConfig
) -> ThetaPath:
    """Angle path theta = Z + (wT / T^beta) * ln(1 - K / S).

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
    gamma = np.log1p(-K / s)
    values = z.values + (cfg.wT / cfg.T**cfg.beta) * gamma
    return ThetaPath(grid=z.grid, values=values, gamma=gamma)


@dataclass(frozen=True)
class ThetaMomentReport:
    anchor_times: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    stderrs: np.ndarray
    mean_zero_ok: bool  # |mean| <= 3 stderr at every anchor


def theta_moment_check(
    ensemble: Sequence[ThetaPath], anchor_times: Sequence[float] | None = None
) -> ThetaMomentReport:
    """Ensemble mean/variance of the angle at a set of time anchors.

    Asserts only the mean-zero property (within 3 standard errors); the
    variance is reported, not checked against a formula.
    """
    if len(ensemble) < 1:
        raise ValueError("ensemble must contain at least 1 path")
    grid = ensemble[0].grid
    if anchor_times is None:
        anchor_times = [grid.T * f for f in (0.25, 0.5, 0.75, 1.0)]
    anchor_times = np.asarray(anchor_times, dtype=float)
    idx = grid.index_of(anchor_times)
    values_matrix = np.vstack([p.values for p in ensemble])[:, idx]
    n = values_matrix.shape[0]
    means = values_matrix.mean(axis=0)
    variances = values_matrix.var(axis=0, ddof=1) if n > 1 else np.zeros(len(idx))
    stderrs = np.sqrt(variances / n)
    ok = bool(np.all(np.abs(means) <= 3 * stderrs + 1e-300))
    return ThetaMomentReport(
        anchor_times=anchor_times,
        means=means,
        variances=variances,
        stderrs=stderrs,
        mean_zero_ok=ok,
    )
