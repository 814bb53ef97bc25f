"""Seeded simulation of Wiener, geometric Brownian, and general Ito paths.

All generators are pure functions of their inputs: the same (grid, seed)
pair always reproduces the same path bit for bit.  Ensembles derive one
seed per path from (master_seed, path_index), so member paths do not
depend on evaluation order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, IO

import numpy as np

__all__ = [
    "PathKind",
    "TimeGrid",
    "WienerPath",
    "ItoParams",
    "GbmParams",
    "SamplePath",
    "simulate_wiener",
    "simulate_gbm",
    "simulate_ito",
    "log_path",
    "path_seed",
    "write_path_csv",
    "read_path_csv",
    "path_header",
]


class PathKind(Enum):
    WIENER = "wiener"
    PRICE = "price"
    LOGPRICE = "logprice"
    ZPROCESS = "zprocess"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with step dt and n = T/dt intervals."""

    T: float
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"step dt must be positive and finite, got {self.dt}")
        if self.t0 != 0.0:
            raise ValueError("grids start at t0 = 0")
        n = self.n
        if n < 2:
            raise ValueError(f"grid needs at least 2 steps, got n={n}")
        if abs(n * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValueError(
                f"dt={self.dt} does not divide T={self.T} (n*dt = {n * self.dt})"
            )

    @property
    def n(self) -> int:
        return round(self.T / self.dt)

    def times(self) -> np.ndarray:
        # linspace keeps the endpoint exactly T
        return np.linspace(0.0, self.n * self.dt, self.n + 1)

    def index_of(self, t: float) -> int:
        """Nearest grid index for time t."""
        k = round(t / self.dt)
        return min(max(k, 0), self.n)

    def compatible(self, other: "TimeGrid") -> bool:
        return self.n == other.n and math.isclose(self.dt, other.dt, rel_tol=1e-12)


@dataclass(frozen=True)
class WienerPath:
    grid: TimeGrid
    w: np.ndarray
    seed: int

    def __post_init__(self):
        if len(self.w) != self.grid.n + 1:
            raise ValueError("Wiener path length must be grid.n + 1")
        if self.w[0] != 0.0:
            raise ValueError("Wiener path must start at 0")

    @property
    def terminal(self) -> float:
        return float(self.w[-1])


@dataclass(frozen=True)
class ItoParams:
    """Drift and volatility functions of (t, x) for the log process."""

    mu: Callable[[float, float], float]
    sigma: Callable[[float, float], float]
    y0: float = 0.0


@dataclass(frozen=True)
class GbmParams:
    mu: float
    sigma: float
    s0: float

    def __post_init__(self):
        for name in ("mu", "sigma", "s0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.s0 > 0:
            raise ValueError(f"s0 must be positive, got {self.s0}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def q(self) -> float:
        """Log drift mu - sigma^2 / 2."""
        return self.mu - 0.5 * self.sigma**2


@dataclass(frozen=True)
class SamplePath:
    grid: TimeGrid
    values: np.ndarray
    kind: PathKind
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(self.values) != self.grid.n + 1:
            raise ValueError(
                f"path has {len(self.values)} values, grid expects {self.grid.n + 1}"
            )
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"path values must be finite, got {self.values[bad[0]]} "
                             f"at index {bad[0]}")
        if self.kind is PathKind.PRICE and not np.all(np.asarray(self.values) > 0):
            raise ValueError("price paths must be strictly positive")


def path_seed(master_seed: int, path_index: int) -> np.random.SeedSequence:
    """Per-path seed derived from (master_seed, path_index).

    Members of an ensemble can be generated in any order, or in parallel,
    without changing the result.
    """
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(path_index,))


def simulate_wiener(grid: TimeGrid, seed) -> WienerPath:
    """Standard Wiener path: W[0] = 0, independent N(0, dt) increments."""
    rng = np.random.default_rng(seed)
    dw = rng.normal(0.0, math.sqrt(grid.dt), grid.n)
    w = np.empty(grid.n + 1)
    w[0] = 0.0
    np.cumsum(dw, out=w[1:])
    seed_int = seed if isinstance(seed, int) else -1
    return WienerPath(grid=grid, w=w, seed=seed_int)


def simulate_gbm(params: GbmParams, wiener: WienerPath) -> SamplePath:
    """Exact GBM path S = s0 * exp(q t + sigma W); no Euler error."""
    t = wiener.grid.times()
    s = params.s0 * np.exp(params.q * t + params.sigma * wiener.w)
    return SamplePath(grid=wiener.grid, values=s, kind=PathKind.PRICE)


def simulate_ito(params: ItoParams, wiener: WienerPath) -> SamplePath:
    """Euler-Maruyama integration of the log process dY = mu dt + sigma dW."""
    grid = wiener.grid
    t = grid.times()
    y = np.empty(grid.n + 1)
    y[0] = params.y0
    for k in range(grid.n):
        m = params.mu(t[k], y[k])
        s = params.sigma(t[k], y[k])
        if not (math.isfinite(m) and math.isfinite(s)):
            raise ValueError(
                f"non-finite coefficients at step {k} (t={t[k]:.6g}, y={y[k]:.6g}): "
                f"mu={m}, sigma={s}"
            )
        y[k + 1] = y[k] + m * grid.dt + s * (wiener.w[k + 1] - wiener.w[k])
    return SamplePath(grid=grid, values=y, kind=PathKind.LOGPRICE)


def log_path(price: SamplePath) -> SamplePath:
    """Pointwise natural log of a price path."""
    if price.kind is not PathKind.PRICE:
        raise ValueError(f"log_path expects a price path, got {price.kind.value}")
    v = np.asarray(price.values)
    bad = np.nonzero(v <= 0)[0]
    if bad.size:
        raise ValueError(f"non-positive price at index {bad[0]}: {v[bad[0]]}")
    return SamplePath(grid=price.grid, values=np.log(v), kind=PathKind.LOGPRICE)


# --- serialization -----------------------------------------------------------


def path_header(path: SamplePath, seed: int | None = None, params: dict | None = None) -> dict:
    return {
        "kind": path.kind.value,
        "seed": seed,
        "params": params or {},
        "T": path.grid.T,
        "dt": path.grid.dt,
        "n": path.grid.n,
    }


def write_path_csv(path: SamplePath, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["t", "value"])
    values = np.asarray(path.values, dtype=float)
    writer.writerows(zip(path.grid.times().tolist(), values.tolist()))


def read_path_csv(fh: IO[str], kind: PathKind) -> SamplePath:
    """Read a 't,value' CSV whose times are the uniform grid 0, dt, ..., T."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise ValueError("path CSV is empty; expected a 't,value' header")
    if header[:2] != ["t", "value"]:
        raise ValueError(f"expected 't,value' header, got {header}")
    try:
        rows = [(float(r[0]), float(r[1])) for r in reader if r]
    except IndexError:
        raise ValueError(f"path CSV line {reader.line_num} has fewer than 2 fields") from None
    if len(rows) < 3:
        raise ValueError(f"path CSV has {len(rows)} data row(s); a path needs at least 3")
    t = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    if t[0] != 0.0:
        raise ValueError(f"path CSV times must start at 0, got t = {t[0]}")
    grid = TimeGrid(T=float(t[-1]), dt=float(t[1] - t[0]))
    # same tolerance as TimeGrid's check that dt divides T
    if len(t) != grid.n + 1 or not np.max(np.abs(t - grid.times())) <= 1e-9 * max(1.0, grid.T):
        raise ValueError(f"path CSV times are not the uniform grid 0, {grid.dt!r}, ..., {grid.T!r}")
    return SamplePath(grid=grid, values=v, kind=kind)
