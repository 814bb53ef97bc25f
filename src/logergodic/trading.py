"""Recurrence and sojourn analysis of Z paths, trade timing, and the profit ledger.

A Z path reverts to the reference level 0.  Each return time tau_i is located
by linear interpolation at a sign change; the stretch between consecutive
returns is an excursion, classified above/below the level.  The excursion's
extremum time t_M (the largest |Z|) is read as the exit time of a trade
entered at tau_i: long when the path is below the level, short when above.
The excursions of a path are one columnar `Excursions` record, and every later
stage works on its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stochastic import PathKind, SamplePath

__all__ = [
    "RecurrenceSet",
    "Excursions",
    "detect_recurrences",
    "subgrid_crossing_probability",
    "build_excursions",
    "sojourn_stats",
    "oet_bound_report",
    "trade_profit",
    "generate_signals",
    "build_ledger",
]

# relative floor under which a grid value counts as exactly at the level;
# guards against endpoint values like sin(2*pi) ~ 1e-16
_ZERO_FLOOR_REL = 1e-12


@dataclass(frozen=True, eq=False)
class RecurrenceSet:
    taus: np.ndarray

    def __post_init__(self):
        if len(self.taus) > 1 and np.any(np.diff(self.taus) <= 0):
            raise ValueError("recurrence times must be strictly increasing")


@dataclass(frozen=True, eq=False)
class Excursions:
    """One entry per excursion in each array: its start tau_i and end
    tau_{i+1}, the extremum time t_M and size M = |Z(t_M)|, and whether the
    path lies above the level."""

    start: np.ndarray
    end: np.ndarray
    tM: np.ndarray
    M: np.ndarray
    above: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.start)


def detect_recurrences(z: SamplePath, eps: float = 0.0) -> RecurrenceSet:
    """Times at which the path returns to the reference level 0.

    A return is either a sign change between adjacent grid points (located by
    linear interpolation) or a grid point with |Z| <= eps.  With eps == 0 the
    level test uses a relative floor for exact zeros, and interior grid-point
    tangencies -- a zero value whose neighbors share a sign -- are not
    returns (endpoint zeros are); with eps > 0 every visit to the band counts,
    reported at the time the band is entered.  Results are deduplicated with
    minimum separation one grid step.
    """
    if z.kind is not PathKind.ZPROCESS:
        raise ValueError(f"detect_recurrences expects a zprocess path, got {z.kind.value}")
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    v = z.values
    t = z.grid.times()
    dt = z.grid.dt
    eff = max(eps, _ZERO_FLOOR_REL * float(np.max(np.abs(v))))

    at_level = np.abs(v) <= eff
    n = len(v)

    # grid points at the level: endpoints always count; with an explicit
    # tolerance every band visit counts, while at the exact-zero floor
    # interior runs count only when the nearest off-level neighbors change
    # sign (true crossings, not tangencies)
    padded = np.concatenate(([False], at_level, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    run_starts = edges[::2]
    run_ends = edges[1::2] - 1  # inclusive
    before = v[np.maximum(run_starts - 1, 0)]
    after = v[np.minimum(run_ends + 1, n - 1)]
    keep = (eps > 0) | (run_starts == 0) | (run_ends == n - 1) | (np.sign(before) != np.sign(after))

    # interpolated sign changes between adjacent off-level points
    off = ~at_level
    ks = np.flatnonzero(off[:-1] & off[1:] & ((v[:-1] > 0) != (v[1:] > 0)))
    frac = np.abs(v[ks]) / (np.abs(v[ks]) + np.abs(v[ks + 1]))

    candidates = np.sort(np.concatenate((t[run_starts[keep]], t[ks] + frac * dt)))
    taus: list[float] = []
    for c in candidates.tolist():
        if not taus or c - taus[-1] >= dt * (1 - 1e-9):
            taus.append(c)
    return RecurrenceSet(taus=np.asarray(taus))


def subgrid_crossing_probability(z: SamplePath) -> float:
    """Probability that the continuous path behind the samples touched 0
    strictly inside a grid step whose endpoints share a sign.

    Conditional on its endpoints, a diffusion over one step is a pinned
    bridge, which still reaches the level between same-sign samples a and b
    with probability exp(-2ab / (step_vol^2 dt)).  Steps with a grid-point
    sign change or an at-level endpoint are skipped: those returns are
    already visible to detect_recurrences.  step_vol, the per-unit-time
    volatility, is estimated from the path increments.
    """
    if z.kind is not PathKind.ZPROCESS:
        raise ValueError(f"subgrid_crossing_probability expects a zprocess path, got {z.kind.value}")
    v = z.values
    dt = z.grid.dt
    step_vol = float(np.std(np.diff(v))) / math.sqrt(dt)
    if step_vol <= 0:
        return 0.0
    a, b = v[:-1], v[1:]
    prod = a * b
    prod = prod[prod > 0]
    if prod.size == 0:
        return 0.0
    p_hit = np.exp(-2.0 * prod / (step_vol * step_vol * dt))
    log_survive = np.sum(np.log1p(-np.minimum(p_hit, 1.0 - 1e-16)))
    return float(-np.expm1(log_survive))


def build_excursions(z: SamplePath, rec: RecurrenceSet) -> Excursions:
    """One excursion per consecutive recurrence pair with a nonzero interior.

    Sign and extremum come from the grid values strictly inside the interval;
    argmax ties break to the earliest time so the exit time is deterministic.
    """
    taus = np.asarray(rec.taus, dtype=float)
    v = z.values
    t = z.grid.times()
    # grid indices lo..hi-1 lie strictly inside (tau_i, tau_{i+1})
    lo = np.searchsorted(t, taus[:-1], "right")
    hi = np.searchsorted(t, taus[1:], "left")
    # index of the first largest |Z| inside each interval (argmax returns the
    # first maximum), -1 for an interval with no grid point inside
    j = np.array([a + int(np.argmax(np.abs(v[a:b]))) if a < b else -1
                  for a, b in zip(lo.tolist(), hi.tolist())], dtype=np.intp)
    M = np.abs(v[j])
    # an empty or flat-at-level interior is not a sojourn on either side
    keep = (j >= 0) & (M > 0.0)
    j = j[keep]
    return Excursions(start=taus[:-1][keep], end=taus[1:][keep], tM=t[j], M=M[keep],
                      above=v[j] > 0)


def sojourn_stats(exc: Excursions) -> dict:
    """Mean sojourn length and count on each side of the level; the mean of
    an empty side is nan."""
    delta = exc.end - exc.start
    above, below = delta[exc.above], delta[~exc.above]
    return {"mean_sojourn_above": float(np.mean(above)) if above.size else math.nan,
            "mean_sojourn_below": float(np.mean(below)) if below.size else math.nan,
            "count_above": above.size, "count_below": below.size}


def oet_bound_report(exc: Excursions, q: float, sigma: float) -> dict:
    """Descriptive report on exit-time placement inside each excursion.

    Containment tau_i < t_M < tau_{i+1} is checked per excursion.  The ratio
    sigma / q of the log volatility to the log drift is tabulated alongside
    the increments and an excursion is flagged when the ratio exceeds the
    sojourn length; no pass threshold is imposed on the flags.  Named
    columns, one entry per excursion: i, contained (0/1), vol_drift_ratio =
    sigma / q (nan when q = 0), dt_M = t_M - tau_i, d_tau = tau_{i+1} - tau_i
    and flagged (0/1) = vol_drift_ratio > d_tau.
    """
    ratio = sigma / q if q != 0.0 else math.nan
    d_tau = exc.end - exc.start
    contained = (exc.start < exc.tM) & (exc.tM < exc.end)
    flagged = ratio > d_tau  # False wherever the ratio is nan
    return {"i": np.arange(len(exc)), "contained": contained.astype(int),
            "vol_drift_ratio": np.full(len(exc), ratio), "dt_M": exc.tM - exc.start,
            "d_tau": d_tau, "flagged": flagged.astype(int)}


def build_ledger(z: SamplePath, price: SamplePath,
                 exc: Excursions) -> tuple[np.ndarray, np.ndarray]:
    """Entry and exit prices, X(tau_i) and X(t_M_i), read off the price path."""
    if price.kind is not PathKind.PRICE:
        raise ValueError(f"ledger needs a price path, got {price.kind.value}")
    if not price.grid.compatible(z.grid):
        raise ValueError("price and z paths must share a grid")
    return (price.values[price.grid.index_of(exc.start)],
            price.values[price.grid.index_of(exc.tM)])


def trade_profit(exc: Excursions, entry_prices, exit_prices, l: float, s: float,
                 literal_indicator: bool = False) -> float:
    """Portfolio profit over the classified excursions, with long leverage l
    and short leverage s.

    Default: V = l * sum over below-excursions |entry - exit|
               + s * sum over above-excursions |entry - exit|.

    literal_indicator=True weights each full sum by the nonemptiness of the
    corresponding class instead, double-counting every excursion in both sums
    whenever both classes are nonempty; kept for fidelity testing only.

    A profit beyond the float range raises ValueError.
    """
    for name, value in (("l", l), ("s", s)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"leverage {name} must be finite and nonnegative, got {value}")
    entry, exit_ = np.asarray(entry_prices), np.asarray(exit_prices)
    if len(entry) != len(exc) or len(exit_) != len(exc):
        raise ValueError("one (entry, exit) price pair per excursion")
    if np.any(entry <= 0) or np.any(exit_ <= 0):
        raise ValueError("prices must be positive")
    gaps = np.abs(entry - exit_)
    above = exc.above
    below = ~above
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite profit is rejected below
        if literal_indicator:
            sum_below = gaps.sum() if below.any() else 0.0
            sum_above = gaps.sum() if above.any() else 0.0
        else:
            sum_below, sum_above = gaps[below].sum(), gaps[above].sum()
        profit = float(l * sum_below + s * sum_above)
    if not math.isfinite(profit):
        raise ValueError(f"leverages l = {l} and s = {s} on price gaps up to "
                         f"{gaps.max()} put the profit outside the float range")
    return profit


def generate_signals(exc: Excursions) -> dict:
    """Trade list columns: enter at tau_i (long below / short above), exit at t_M_i."""
    return {"entry_time": exc.start, "direction": np.where(exc.above, "short", "long"),
            "exit_time": exc.tM}
