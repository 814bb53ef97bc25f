"""The ergodic-maker transform, its inverse, and the mean-ergodicity diagnostic.

A log path Y = y0 + D + R (drift part plus martingale part) is mapped to the
mean-reverting Z process

    Z = (W_T / T^beta) * D  +  (1 / T^beta) * R,

which annihilates the initial value y0 and oscillates around 0.  The inverse
transform restores a chosen constant plus the original components, so the
round trip is the identity up to quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .stochastic import (
    GbmParams,
    ItoParams,
    PathKind,
    SamplePath,
    TimeGrid,
    WienerPath,
)

__all__ = [
    "EmoConfig",
    "DecomposedPath",
    "DiagnosticCurve",
    "decompose",
    "apply_emo",
    "emo_decomposition",
    "apply_iemo",
    "construct_z_gbm",
    "ergodicity_diagnostic",
]

BETA_MIN = 1.5


@dataclass(frozen=True)
class EmoConfig:
    """Transform parameters: damping exponent beta, horizon T, terminal W."""

    beta: float
    T: float
    wT: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.beta > BETA_MIN:
            raise ValueError(f"beta must exceed 3/2, got {self.beta}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")


@dataclass(frozen=True)
class DecomposedPath:
    """Drift/martingale split of a log path: Y = y0 + drift_part + mart_part."""

    grid: TimeGrid
    y0: float
    drift_part: np.ndarray
    mart_part: np.ndarray

    def __post_init__(self):
        if len(self.drift_part) != self.grid.n + 1 or len(self.mart_part) != self.grid.n + 1:
            raise ValueError("component length must be grid.n + 1")
        if self.drift_part[0] != 0.0 or self.mart_part[0] != 0.0:
            raise ValueError("components must start at 0")

    def reconstruct(self) -> np.ndarray:
        return self.y0 + self.drift_part + self.mart_part


@dataclass(frozen=True)
class DiagnosticCurve:
    horizons: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.horizons) != len(self.values):
            raise ValueError("horizons and values must have equal length")
        if np.any(np.diff(self.horizons) <= 0):
            raise ValueError("horizons must be strictly increasing")


def decompose(path: SamplePath, params: ItoParams, wiener: WienerPath) -> DecomposedPath:
    """Split a log path into drift and martingale parts.

    The drift part is the trapezoidal cumulative integral of mu along the
    path; the martingale part is assigned as the residual Y - y0 - D, so the
    reconstruction y0 + D + R is exact by construction.
    """
    if path.kind is not PathKind.LOGPRICE:
        raise ValueError(f"decompose expects a logprice path, got {path.kind.value}")
    if not (path.grid.compatible(wiener.grid)):
        raise ValueError("path and wiener must share a grid")
    t = path.grid.times()
    y = path.values
    mu_vals = np.array([params.mu(tk, yk) for tk, yk in zip(t, y)])
    d = np.empty_like(mu_vals)
    d[0] = 0.0
    np.cumsum(0.5 * (mu_vals[1:] + mu_vals[:-1]) * path.grid.dt, out=d[1:])
    y0 = float(y[0])
    r = y - y0 - d
    r[0] = 0.0
    return DecomposedPath(grid=path.grid, y0=y0, drift_part=d, mart_part=r)


def emo_decomposition(dec: DecomposedPath, cfg: EmoConfig) -> DecomposedPath:
    """Component-wise image of the transform: the drift/martingale split of Z."""
    if not math.isclose(dec.grid.T, cfg.T, rel_tol=1e-12):
        raise ValueError(f"config horizon {cfg.T} does not match grid horizon {dec.grid.T}")
    scale = cfg.T**cfg.beta
    return DecomposedPath(
        grid=dec.grid,
        y0=0.0,  # the initial value is annihilated (coefficient 0)
        drift_part=(cfg.wT / scale) * dec.drift_part,
        mart_part=dec.mart_part / scale,
    )


def apply_emo(dec: DecomposedPath, cfg: EmoConfig) -> SamplePath:
    """Z = (wT / T^beta) * D + (1 / T^beta) * R; Z[0] = 0."""
    zdec = emo_decomposition(dec, cfg)
    return SamplePath(
        grid=dec.grid,
        values=zdec.drift_part + zdec.mart_part,
        kind=PathKind.ZPROCESS,
    )


def apply_iemo(z: SamplePath, c: float, cfg: EmoConfig, dec_shape: DecomposedPath) -> SamplePath:
    """Inverse transform: c + (T^beta / wT) * D_z + T^beta * R_z.

    dec_shape carries the drift/martingale split of z itself (the scalar path
    alone is not invertible).  With c = y0 of the original path, the round
    trip through apply_emo is the identity.
    """
    if z.kind is not PathKind.ZPROCESS:
        raise ValueError(f"apply_iemo expects a zprocess path, got {z.kind.value}")
    if cfg.wT == 0.0:
        raise ValueError("wT = 0: inverse transform is singular")
    if not z.grid.compatible(dec_shape.grid):
        raise ValueError("z and dec_shape must share a grid")
    scale = cfg.T**cfg.beta
    y = c + (scale / cfg.wT) * dec_shape.drift_part + scale * dec_shape.mart_part
    return SamplePath(grid=z.grid, values=y, kind=PathKind.LOGPRICE)


def construct_z_gbm(params: GbmParams, wiener: WienerPath, beta: float) -> SamplePath:
    """Closed-form Z for a GBM log path: Z = (q t W_T + sigma W) / T^beta."""
    grid = wiener.grid
    cfg = EmoConfig(beta=beta, T=grid.T, wT=wiener.terminal)  # checks beta
    z = (params.q * grid.times() * cfg.wT + params.sigma * wiener.w) / cfg.T**cfg.beta
    return SamplePath(grid=grid, values=z, kind=PathKind.ZPROCESS)


def ergodicity_diagnostic(
    ensemble: Sequence[SamplePath], horizons: Sequence[float]
) -> DiagnosticCurve:
    """Windowed covariance average used to judge mean ergodicity.

    The lag covariance Cov(tau) is estimated as the ensemble variance of the
    path values at lag tau (values centered at the ensemble mean per lag).
    For each horizon T' the curve value is

        (1 / T') * integral_0^T' (1 - tau/T') Cov(tau) dtau

    by trapezoidal quadrature.  A process whose curve tends to 0 with
    growing horizon behaves mean-ergodically at the sampled scale.
    """
    if len(ensemble) < 2:
        raise ValueError("ensemble must contain at least 2 paths")
    grid = ensemble[0].grid
    for p in ensemble[1:]:
        if not p.grid.compatible(grid):
            raise ValueError("ensemble paths must share a grid")
    horizons = np.asarray(horizons, dtype=float)
    if np.any(horizons > grid.T * (1 + 1e-12)):
        raise ValueError("horizon exceeds the ensemble grid")

    values_matrix = np.vstack([p.values for p in ensemble])
    cov = values_matrix.var(axis=0, ddof=1)

    out = np.empty(len(horizons))
    tau = grid.times()
    for i, tprime in enumerate(horizons):
        k = grid.index_of(tprime)
        weights = 1.0 - tau[: k + 1] / tprime
        out[i] = np.trapezoid(weights * cov[: k + 1], dx=grid.dt) / tprime
    return DiagnosticCurve(horizons=horizons, values=out)
