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

from .stochastic import GbmParams, PathKind, SamplePath, TimeGrid, WienerPath

__all__ = [
    "EmoConfig",
    "DecomposedPath",
    "apply_emo",
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
        try:
            in_range = 0.0 < self.T**self.beta < math.inf
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError(f"T = {self.T} and beta = {self.beta} put T^beta outside the "
                             "float range")


@dataclass(frozen=True, eq=False)
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


def apply_emo(dec: DecomposedPath, cfg: EmoConfig) -> DecomposedPath:
    """The split of Z = (wT / T^beta) * D + (1 / T^beta) * R; its y0 is 0.

    Z's values are the returned split's ``reconstruct()``.
    """
    if not math.isclose(dec.grid.T, cfg.T, rel_tol=1e-12):
        raise ValueError(f"config horizon {cfg.T} does not match grid horizon {dec.grid.T}")
    scale = cfg.T**cfg.beta
    return DecomposedPath(
        grid=dec.grid,
        y0=0.0,  # the initial value is annihilated (coefficient 0)
        drift_part=(cfg.wT / scale) * dec.drift_part,
        mart_part=dec.mart_part / scale,
    )


def apply_iemo(z: DecomposedPath, c: float, cfg: EmoConfig) -> DecomposedPath:
    """Inverse transform of the split of Z: y0 = c, drift (T^beta / wT) * D_z and
    martingale T^beta * R_z.

    The scalar Z path alone is not invertible; its split is.  With c = y0 of
    the original path, the round trip through apply_emo is the identity.
    """
    if cfg.wT == 0.0:
        raise ValueError("wT = 0: inverse transform is singular")
    scale = cfg.T**cfg.beta
    if not math.isfinite(scale / cfg.wT):
        raise ValueError(f"wT = {cfg.wT} puts T^beta / wT outside the float range")
    return DecomposedPath(
        grid=z.grid,
        y0=c,
        drift_part=(scale / cfg.wT) * z.drift_part,
        mart_part=scale * z.mart_part,
    )


def construct_z_gbm(params: GbmParams, wiener: WienerPath, beta: float) -> SamplePath:
    """Closed-form Z for a GBM log path: Z = (q t W_T + sigma W) / T^beta."""
    grid = wiener.grid
    cfg = EmoConfig(beta=beta, T=grid.T, wT=wiener.terminal)  # checks beta
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan Z fails SamplePath's checks
        z = (params.q * grid.times() * cfg.wT + params.sigma * wiener.w) / cfg.T**cfg.beta
    try:
        return SamplePath(grid=grid, values=z, kind=PathKind.ZPROCESS)
    except ValueError as e:
        raise ValueError(f"mu = {params.mu}, sigma = {params.sigma}, beta = {beta} and "
                         f"T = {grid.T} take Z out of the float range: {e}") from None


def ergodicity_diagnostic(
    ensemble: Sequence[SamplePath], horizons: Sequence[float]
) -> np.ndarray:
    """Windowed average of the ensemble variance, one value per horizon.

    V(tau) is the ensemble variance of the path values at time tau (values
    centered at the ensemble mean at that time); it is not an autocovariance
    at lag tau.  For each horizon T' the curve value is

        (1 / T') * integral_0^T' (1 - tau/T') V(tau) dtau

    by trapezoidal quadrature.  It scales with the square of the paths, so it
    is small for paths of small scale, such as Z with its factor 1 / T^beta,
    whether or not their time averages concentrate.  The horizons must
    strictly increase and lie within the ensemble grid.
    """
    if len(ensemble) < 2:
        raise ValueError("ensemble must contain at least 2 paths")
    grid = ensemble[0].grid
    for p in ensemble[1:]:
        if not p.grid.compatible(grid):
            raise ValueError("ensemble paths must share a grid")
    horizons = np.asarray(horizons, dtype=float)
    if not np.all(horizons > 0):
        raise ValueError(f"horizons must be positive, got {horizons.tolist()}")
    if np.any(np.diff(horizons) <= 0):
        raise ValueError("horizons must be strictly increasing")
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
    return out
