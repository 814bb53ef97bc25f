"""Recurrence and sojourn analysis of Z paths, trade timing, and the profit ledger.

A Z path reverts to the reference level 0.  Each return time tau_i is located
by linear interpolation at a sign change; the stretch between consecutive
returns is an excursion, classified above/below the level.  The excursion's
extremum time t_M (the largest |Z|) is read as the exit time of a trade
entered at tau_i: long when the path is below the level, short when above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .stochastic import GbmParams, ItoParams, PathKind, SamplePath, WienerPath

__all__ = [
    "ExcursionSign",
    "RecurrenceSet",
    "Excursion",
    "SojournStats",
    "TradeLedger",
    "BoundReport",
    "detect_recurrences",
    "subgrid_crossing_probability",
    "build_excursions",
    "sojourn_stats",
    "simulate_recurrence_sde",
    "oet_bound_report",
    "trade_profit",
    "generate_signals",
    "build_ledger",
]

# relative floor under which a grid value counts as exactly at the level;
# guards against endpoint values like sin(2*pi) ~ 1e-16
_ZERO_FLOOR_REL = 1e-12

_W_SINGULAR = 1e-12


class ExcursionSign(Enum):
    ABOVE = "above"
    BELOW = "below"


@dataclass(frozen=True)
class RecurrenceSet:
    taus: np.ndarray

    def __post_init__(self):
        if len(self.taus) > 1 and np.any(np.diff(self.taus) <= 0):
            raise ValueError("recurrence times must be strictly increasing")


@dataclass(frozen=True)
class Excursion:
    i: int
    start: float
    end: float
    sign: ExcursionSign
    M: float
    tM: float

    def __post_init__(self):
        if not (self.start < self.tM < self.end):
            raise ValueError(
                f"excursion {self.i}: extremum time {self.tM} outside ({self.start}, {self.end})"
            )
        if self.M < 0:
            raise ValueError("excursion extremum must be nonnegative")

    @property
    def delta(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SojournStats:
    mean_above: float  # nan when count_above == 0
    mean_below: float  # nan when count_below == 0
    count_above: int
    count_below: int


@dataclass(frozen=True)
class TradeLedger:
    excursions: tuple
    entry_prices: np.ndarray  # X(tau_i)
    exit_prices: np.ndarray  # X(t_M_i)
    l: float
    s: float

    def __post_init__(self):
        for name, value in (("l", self.l), ("s", self.s)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"leverage {name} must be finite and nonnegative, got {value}")
        if len(self.entry_prices) != len(self.excursions) or len(self.exit_prices) != len(
            self.excursions
        ):
            raise ValueError("one (entry, exit) price pair per excursion")
        if np.any(np.asarray(self.entry_prices) <= 0) or np.any(np.asarray(self.exit_prices) <= 0):
            raise ValueError("prices must be positive")


@dataclass(frozen=True)
class BoundReport:
    # one dict per excursion: i, contained (0/1), vol_drift_ratio =
    # sigma(tM)/mu(tM) (nan when mu(tM) = 0), dt_M = t_M - tau_i,
    # d_tau = tau_{i+1} - tau_i, flagged (0/1) = vol_drift_ratio > d_tau
    rows: tuple
    all_contained: bool
    fraction_flagged: float


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


def build_excursions(z: SamplePath, rec: RecurrenceSet) -> list[Excursion]:
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
    out: list[Excursion] = []
    for start, end, a, b in zip(taus[:-1].tolist(), taus[1:].tolist(), lo.tolist(), hi.tolist()):
        if a >= b:
            continue
        seg = np.abs(v[a:b])
        jrel = int(np.argmax(seg))  # argmax returns the first maximum
        j = a + jrel
        m = float(seg[jrel])
        if m == 0.0:
            continue  # flat-at-level interior; not a sojourn on either side
        sign = ExcursionSign.ABOVE if v[j] > 0 else ExcursionSign.BELOW
        out.append(
            Excursion(i=len(out), start=start, end=end, sign=sign, M=m, tM=float(t[j]))
        )
    return out


def sojourn_stats(excursions: Sequence[Excursion]) -> SojournStats:
    above = [e.delta for e in excursions if e.sign is ExcursionSign.ABOVE]
    below = [e.delta for e in excursions if e.sign is ExcursionSign.BELOW]
    return SojournStats(
        mean_above=float(np.mean(above)) if above else math.nan,
        mean_below=float(np.mean(below)) if below else math.nan,
        count_above=len(above),
        count_below=len(below),
    )


def simulate_recurrence_sde(params: GbmParams, wiener: WienerPath, tau0: float) -> np.ndarray:
    """Euler path of the recurrence-time dynamics for a GBM underlying.

    d tau = -[(sigma + q tau) / q] dW / W with q = mu - sigma^2/2.  The step
    at the origin is skipped because W starts at 0 by construction; any other
    W value within 1e-12 of 0 halts with a diagnostic (the dynamics divide by
    W and are not regularized).  Steps with a zero Wiener increment leave tau
    unchanged without touching W.  Returns tau at every grid time.
    """
    q = params.q
    if abs(q) < 1e-15:
        raise ValueError("q = mu - sigma^2/2 = 0: recurrence-time drift is singular")
    grid = wiener.grid
    w = wiener.w
    taus = np.empty(grid.n + 1)
    taus[0] = tau0
    for k in range(grid.n):
        dw = w[k + 1] - w[k]
        if dw == 0.0 or k == 0:
            taus[k + 1] = taus[k]
            continue
        if abs(w[k]) < _W_SINGULAR:
            raise ValueError(
                f"Wiener path within {_W_SINGULAR} of 0 at step {k}: dynamics singular"
            )
        taus[k + 1] = taus[k] - ((params.sigma + q * taus[k]) / q) * dw / w[k]
    return taus


def oet_bound_report(excursions: Sequence[Excursion], params: ItoParams) -> BoundReport:
    """Descriptive report on exit-time placement inside each excursion.

    Containment tau_i < t_M < tau_{i+1} is checked per excursion.  The ratio
    sigma(t_M)/mu(t_M) is tabulated alongside the increments and an excursion
    is flagged when the ratio exceeds the sojourn length; no pass threshold
    is imposed on the flags.
    """
    rows = []
    for e in excursions:
        z_tm = e.M if e.sign is ExcursionSign.ABOVE else -e.M
        m = params.mu(e.tM, z_tm)
        s = params.sigma(e.tM, z_tm)
        ratio = s / m if m != 0.0 else math.nan
        rows.append({"i": e.i, "contained": int(e.start < e.tM < e.end),
                     "vol_drift_ratio": ratio, "dt_M": e.tM - e.start, "d_tau": e.delta,
                     "flagged": int(not math.isnan(ratio) and ratio > e.delta)})
    frac = sum(r["flagged"] for r in rows) / len(rows) if rows else 0.0
    return BoundReport(
        rows=tuple(rows),
        all_contained=all(r["contained"] for r in rows),
        fraction_flagged=frac,
    )


def build_ledger(
    z: SamplePath,
    price: SamplePath,
    excursions: Sequence[Excursion],
    l: float,
    s: float,
) -> TradeLedger:
    """Entry/exit prices read off the price path at tau_i and t_M_i."""
    if price.kind is not PathKind.PRICE:
        raise ValueError(f"ledger needs a price path, got {price.kind.value}")
    if not price.grid.compatible(z.grid):
        raise ValueError("price and z paths must share a grid")
    times = np.array([(e.start, e.tM) for e in excursions], dtype=float).reshape(-1, 2)
    entries, exits = price.values[price.grid.index_of(times)].T
    return TradeLedger(
        excursions=tuple(excursions), entry_prices=entries, exit_prices=exits, l=l, s=s
    )


def trade_profit(ledger: TradeLedger, literal_indicator: bool = False) -> float:
    """Portfolio profit over the classified excursions.

    Default: V = l * sum over below-excursions |entry - exit|
               + s * sum over above-excursions |entry - exit|.

    literal_indicator=True weights each full sum by the nonemptiness of the
    corresponding class instead, double-counting every excursion in both sums
    whenever both classes are nonempty; kept for fidelity testing only.
    """
    gaps = np.abs(np.asarray(ledger.entry_prices) - np.asarray(ledger.exit_prices))
    below = np.array([e.sign is ExcursionSign.BELOW for e in ledger.excursions], dtype=bool)
    above = ~below
    if not literal_indicator:
        return float(ledger.l * gaps[below].sum() + ledger.s * gaps[above].sum())
    ind_below = 1.0 if below.any() else 0.0
    ind_above = 1.0 if above.any() else 0.0
    return float(ledger.l * ind_below * gaps.sum() + ledger.s * ind_above * gaps.sum())


def generate_signals(excursions: Sequence[Excursion]) -> list[dict]:
    """Trade list rows: enter at tau_i (long below / short above), exit at t_M_i."""
    return [
        {"entry_time": e.start,
         "direction": "long" if e.sign is ExcursionSign.BELOW else "short",
         "exit_time": e.tM}
        for e in excursions
    ]
