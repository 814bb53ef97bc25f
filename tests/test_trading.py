import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logergodic import (
    Excursions,
    GbmParams,
    PathKind,
    RecurrenceSet,
    SamplePath,
    TimeGrid,
    build_excursions,
    build_ledger,
    construct_z_gbm,
    detect_recurrences,
    generate_signals,
    oet_bound_report,
    path_seed,
    simulate_wiener,
    sojourn_stats,
    subgrid_crossing_probability,
    trade_profit,
)
from logergodic.trading import _ZERO_FLOOR_REL

GBM = GbmParams(mu=0.1, sigma=0.2, s0=100.0)  # q = 0.08


def zpath(values, T=1.0, dt=None) -> SamplePath:
    values = np.asarray(values, dtype=float)
    grid = TimeGrid(T=T, dt=dt if dt is not None else T / (len(values) - 1))
    return SamplePath(grid=grid, values=values, kind=PathKind.ZPROCESS)


def sine_fixture(dt=1e-3) -> SamplePath:
    grid = TimeGrid(T=1.0, dt=dt)
    return SamplePath(
        grid=grid, values=np.sin(2 * math.pi * grid.times()), kind=PathKind.ZPROCESS
    )


class TestDetectRecurrences:
    def test_sine_roots(self):
        z = sine_fixture()
        taus = detect_recurrences(z).taus
        np.testing.assert_allclose(taus, [0.0, 0.5, 1.0], atol=z.grid.dt)

    def test_strictly_positive_path_has_no_recurrence(self):
        z = zpath(np.full(11, 0.3))
        assert detect_recurrences(z).taus.size == 0

    def test_identically_zero_path_is_degenerate(self):
        z = zpath(np.zeros(11))
        rec = detect_recurrences(z)
        np.testing.assert_array_equal(rec.taus, [0.0])
        assert len(build_excursions(z, rec)) == 0

    def test_interior_tangency_is_not_a_recurrence(self):
        # touches 0 at t = 0.5 but never changes sign
        grid_t = np.linspace(0, 1, 101)
        z = zpath((2 * grid_t - 1) ** 2)
        assert detect_recurrences(z).taus.size == 0

    @pytest.mark.parametrize("values", [[1.0, 0.5, 0.0, 0.0, 0.25, 1.0],
                                        [-1.0, -0.5, 0.0, -0.25, -1.0]])
    def test_lopsided_tangency_is_not_a_recurrence(self, values):
        # touches 0 with unequal neighbors on the same side
        assert detect_recurrences(zpath(values)).taus.size == 0

    def test_band_visit_counts_with_explicit_tolerance(self):
        # dips to 0.001 at t = 0.5 without crossing
        t = np.linspace(0, 1, 101)
        z = zpath(0.001 + (2 * t - 1) ** 2)
        assert detect_recurrences(z, eps=0.0).taus.size == 0
        taus = detect_recurrences(z, eps=0.01).taus
        assert taus.size >= 1
        assert np.any(np.abs(taus - 0.5) <= 0.06)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            detect_recurrences(zpath(np.zeros(11)), eps=-0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            detect_recurrences(zpath(np.zeros(11)), eps=eps)

    def test_wrong_kind_rejected(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        w = SamplePath(grid=grid, values=np.zeros(11), kind=PathKind.LOGPRICE)
        with pytest.raises(ValueError, match="zprocess"):
            detect_recurrences(w)

    def test_refinement_moves_crossings_by_at_most_one_coarse_step(self):
        coarse = detect_recurrences(sine_fixture(dt=1e-3)).taus
        fine = detect_recurrences(sine_fixture(dt=5e-4)).taus
        assert len(coarse) == len(fine)
        np.testing.assert_allclose(coarse, fine, atol=1e-3)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_recurrence_times_strictly_increasing(self, seed):
        grid = TimeGrid(T=1.0, dt=0.01)
        w = simulate_wiener(grid, path_seed(seed, 0))
        taus = detect_recurrences(construct_z_gbm(GBM, w, beta=2.0)).taus
        assert np.all(np.diff(taus) > 0)


class TestSubgridCrossingProbability:
    def test_far_from_level_probability_is_negligible(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        w = simulate_wiener(grid, path_seed(10, 0))
        z = zpath(5.0 + 0.01 * w.w, dt=0.01)
        assert subgrid_crossing_probability(z) < 1e-6

    def test_path_hugging_the_level_is_near_certain(self):
        rng = np.random.default_rng(3)
        v = 1e-4 + np.abs(np.cumsum(rng.normal(0, 1e-3, 101)))
        assert subgrid_crossing_probability(zpath(v)) > 0.9

    def test_flat_path_gives_zero(self):
        assert subgrid_crossing_probability(zpath(np.full(11, 0.2))) == 0.0

    def test_wrong_kind_rejected(self):
        grid = TimeGrid(T=1.0, dt=0.1)
        w = SamplePath(grid=grid, values=np.zeros(11), kind=PathKind.LOGPRICE)
        with pytest.raises(ValueError, match="zprocess"):
            subgrid_crossing_probability(w)


class TestExcursions:
    def test_sine_excursions(self):
        z = sine_fixture()
        exc = build_excursions(z, detect_recurrences(z))
        assert len(exc) == 2
        assert exc.above.tolist() == [True, False]
        assert exc.M[0] == pytest.approx(1.0, abs=1e-4)
        np.testing.assert_allclose(exc.tM, [0.25, 0.75], atol=z.grid.dt)

    def test_single_crossing_produces_no_open_ended_excursion(self):
        t = np.linspace(0, 1, 101)
        z = zpath(t - 0.5)  # crosses once, never returns
        exc = build_excursions(z, detect_recurrences(z))
        assert len(exc) == 0

    def test_containment_on_simulated_ensemble(self):
        grid = TimeGrid(T=1.0, dt=0.01)
        for i in range(20):
            w = simulate_wiener(grid, path_seed(55, i))
            z = construct_z_gbm(GBM, w, beta=2.0)
            exc = build_excursions(z, detect_recurrences(z))
            assert np.all((exc.start < exc.tM) & (exc.tM < exc.end))

    def test_sojourn_stats_sine(self):
        z = sine_fixture()
        stats = sojourn_stats(build_excursions(z, detect_recurrences(z)))
        assert list(stats) == ["mean_sojourn_above", "mean_sojourn_below", "count_above",
                               "count_below"]
        assert stats["mean_sojourn_above"] == pytest.approx(0.5, abs=2e-3)
        assert stats["mean_sojourn_below"] == pytest.approx(0.5, abs=2e-3)
        assert stats["count_above"] == stats["count_below"] == 1

    def test_sojourn_stats_empty(self):
        stats = sojourn_stats(make_excursions([]))
        assert stats["count_above"] == stats["count_below"] == 0
        assert math.isnan(stats["mean_sojourn_above"]) and math.isnan(stats["mean_sojourn_below"])


class TestOetBoundReport:
    def test_sine_containment_passes(self):
        z = sine_fixture()
        exc = build_excursions(z, detect_recurrences(z))
        report = oet_bound_report(exc, q=0.08, sigma=0.2)
        assert list(report) == ["i", "contained", "vol_drift_ratio", "dt_M", "d_tau", "flagged"]
        assert np.all(report["contained"] == 1)
        assert np.all(report["dt_M"] < report["d_tau"])

    def test_zero_drift_ratio_is_undefined_marker(self):
        z = sine_fixture()
        exc = build_excursions(z, detect_recurrences(z))
        report = oet_bound_report(exc, q=0.0, sigma=0.2)
        assert np.all(np.isnan(report["vol_drift_ratio"]))
        assert not np.any(report["flagged"])

    def test_flagging_is_descriptive_not_asserted(self):
        z = sine_fixture()
        exc = build_excursions(z, detect_recurrences(z))
        report = oet_bound_report(exc, q=1e-6, sigma=0.2)  # huge ratio
        assert np.all(report["flagged"] == 1)
        assert np.all(report["contained"] == 1)


def make_excursions(above) -> Excursions:
    """Unit-length excursions, the i-th on [i, i + 1], on the given sides."""
    start = np.arange(len(above), dtype=float)
    return Excursions(start=start, end=start + 1.0, tM=start + 0.5, M=np.ones(len(above)),
                      above=np.array(above, dtype=bool))


def profit_of(above, entries, exits, l=1.0, s=1.0, literal_indicator=False) -> float:
    """trade_profit over unit excursions on the given sides at these prices."""
    return trade_profit(make_excursions(above), np.asarray(entries, dtype=float),
                        np.asarray(exits, dtype=float), l, s,
                        literal_indicator=literal_indicator)


class TestTradeProfit:
    def test_empty_ledger_is_zero(self):
        assert profit_of([], [], []) == 0.0

    def test_single_below_excursion(self):
        assert profit_of([False], [100.0], [110.0], l=2.0, s=1.0) == pytest.approx(20.0)

    def test_mixed_ledger_matches_brute_force(self):
        above = [False, True, False, True]
        entries = [100.0, 105.0, 95.0, 102.0]
        exits = [110.0, 98.0, 99.0, 108.0]
        l, s = 2.0, 1.5
        brute = sum(
            (s if side else l) * abs(en - ex)
            for side, en, ex in zip(above, entries, exits)
        )
        assert profit_of(above, entries, exits, l=l, s=s) == pytest.approx(brute, rel=1e-15)

    def test_literal_indicator_double_counts_both_classes(self):
        total_gap = 20.0
        assert profit_of([False, True], [100.0, 100.0], [110.0, 90.0], l=2.0, s=3.0,
                         literal_indicator=True) == pytest.approx((2.0 + 3.0) * total_gap)

    def test_negative_leverage_rejected(self):
        with pytest.raises(ValueError, match="leverage"):
            profit_of([False], [100.0], [110.0], l=-1.0)

    @pytest.mark.parametrize("name", ["l", "s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_leverage_rejected(self, name, value):
        # no excursions too: inf * 0 would make the profit nan
        with pytest.raises(ValueError, match=f"leverage {name}"):
            profit_of([], [], [], **{name: value})

    @pytest.mark.parametrize("entries, exits", [([100.0], [110.0, 120.0]),
                                                ([100.0, 110.0], [120.0])])
    def test_one_price_pair_per_excursion(self, entries, exits):
        with pytest.raises(ValueError, match="one \\(entry, exit\\) price pair per excursion"):
            profit_of([False], entries, exits)

    @pytest.mark.parametrize("entries, exits", [([0.0], [110.0]), ([100.0], [-1.0])])
    def test_prices_must_be_positive(self, entries, exits):
        with pytest.raises(ValueError, match="prices must be positive"):
            profit_of([False], entries, exits)

    @pytest.mark.parametrize("literal_indicator", [False, True])
    @pytest.mark.parametrize(
        "entries, exits, l",
        [([1e308], [1e307], 10.0), ([1e308, 1e308], [1e307, 1e307], 1.0)],
        ids=["leverage_times_gap", "sum_of_gaps"],
    )
    def test_profit_beyond_float_range_rejected(self, entries, exits, l, literal_indicator):
        with pytest.raises(ValueError, match="put the profit outside the float range"):
            profit_of([False] * len(entries), entries, exits, l=l,
                      literal_indicator=literal_indicator)

    @given(
        scale=st.floats(0.0, 10.0),
        l=st.floats(0.0, 5.0),
        s=st.floats(0.0, 5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_linear_in_each_leverage_and_nonnegative(self, scale, l, s):
        signs = [False, True, False]
        entries = [100.0, 105.0, 95.0]
        exits = [103.0, 99.0, 95.5]
        base_l = profit_of(signs, entries, exits, l=1.0, s=s)
        base_0 = profit_of(signs, entries, exits, l=0.0, s=s)
        scaled = profit_of(signs, entries, exits, l=scale, s=s)
        assert scaled == pytest.approx(base_0 + scale * (base_l - base_0), abs=1e-9)
        assert profit_of(signs, entries, exits, l=l, s=s) >= 0.0

    def test_ledger_built_from_paths(self):
        z = sine_fixture()
        grid = z.grid
        price = SamplePath(
            grid=grid, values=100.0 * np.exp(z.values), kind=PathKind.PRICE
        )
        exc = build_excursions(z, detect_recurrences(z))
        entry_prices, exit_prices = build_ledger(z, price, exc)
        pv = price.values
        expected = 2.0 * abs(pv[grid.index_of(0.5)] - pv[grid.index_of(0.75)]) + 1.5 * abs(
            pv[grid.index_of(0.0)] - pv[grid.index_of(0.25)]
        )
        assert trade_profit(exc, entry_prices, exit_prices, l=2.0, s=1.5) == pytest.approx(
            expected, rel=1e-12)


class TestGenerateSignals:
    def test_sine_signals(self):
        z = sine_fixture()
        signals = generate_signals(build_excursions(z, detect_recurrences(z)))
        assert signals["direction"].tolist() == ["short", "long"]
        np.testing.assert_allclose(signals["entry_time"], [0.0, 0.5], atol=1e-3)
        np.testing.assert_allclose(signals["exit_time"], [0.25, 0.75], atol=1e-3)

    def test_empty(self):
        signals = generate_signals(make_excursions([]))
        assert list(signals) == ["entry_time", "direction", "exit_time"]
        assert all(len(column) == 0 for column in signals.values())


# --- brute-force oracles --------------------------------------------------------
# The earlier per-run and per-excursion implementations, kept here only to pin the
# vectorised ones to the same output.


def detect_recurrences_oracle(z: SamplePath, eps: float = 0.0) -> np.ndarray:
    v = np.asarray(z.values, dtype=float)
    t = z.grid.times()
    dt = z.grid.dt
    vmax = float(np.max(np.abs(v)))
    if vmax == 0.0:
        return np.array([0.0])
    at_level = np.abs(v) <= max(eps, _ZERO_FLOOR_REL * vmax)
    n = len(v)
    candidates = []
    padded = np.concatenate(([False], at_level, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    for k, j in zip(edges[::2], edges[1::2] - 1):
        if eps > 0 or k == 0 or j == n - 1 or np.sign(v[k - 1]) != np.sign(v[j + 1]):
            candidates.append(float(t[k]))
    off = ~at_level
    ks = np.flatnonzero(off[:-1] & off[1:] & ((v[:-1] > 0) != (v[1:] > 0)))
    if ks.size:
        frac = np.abs(v[ks]) / (np.abs(v[ks]) + np.abs(v[ks + 1]))
        candidates.extend((t[ks] + frac * dt).tolist())
    candidates.sort()
    taus = []
    for c in candidates:
        if not taus or c - taus[-1] >= dt * (1 - 1e-9):
            taus.append(c)
    return np.asarray(taus)


def build_excursions_oracle(z: SamplePath, rec: RecurrenceSet) -> dict:
    taus = np.asarray(rec.taus)
    v = np.asarray(z.values)
    t = z.grid.times()
    out = {"start": [], "end": [], "tM": [], "M": [], "above": []}
    for i in range(len(taus) - 1):
        start, end = float(taus[i]), float(taus[i + 1])
        inside = np.nonzero((t > start) & (t < end))[0]
        if inside.size == 0:
            continue
        seg = np.abs(v[inside])
        jrel = int(np.argmax(seg))
        m = float(seg[jrel])
        if m == 0.0:
            continue
        j = inside[jrel]
        for name, value in zip(out, (start, end, float(t[j]), m, bool(v[j] > 0))):
            out[name].append(value)
    return out


def assert_excursions_equal(exc: Excursions, expected: dict) -> None:
    for name, column in expected.items():
        np.testing.assert_array_equal(getattr(exc, name), column, err_msg=name)


@st.composite
def level_walks(draw):
    """Short random walks that hit the level exactly, sit on it, touch it and
    cross it: integer or real steps, shifted by an integer or a real offset."""
    n = draw(st.integers(2, 60))
    step = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) | st.floats(-1.0, 1.0)
    steps = draw(st.lists(step, min_size=n + 1, max_size=n + 1))
    offset = draw(st.integers(-2, 2).map(float) | st.floats(-2.0, 2.0))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    values = scale * (np.cumsum(steps) - offset)
    return zpath(values, T=draw(st.sampled_from([1.0, 3.0])))


class TestVectorisedTradingMatchesOracles:
    @given(z=level_walks(), eps=st.sampled_from([0.0, 1e-3, 0.05, 0.5, 5.0]))
    @settings(max_examples=300, deadline=None)
    def test_recurrences_and_excursions(self, z, eps):
        rec = detect_recurrences(z, eps=eps)
        np.testing.assert_array_equal(rec.taus, detect_recurrences_oracle(z, eps))
        assert_excursions_equal(build_excursions(z, rec), build_excursions_oracle(z, rec))

    @given(z=level_walks(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_excursions_for_taus_on_and_between_grid_points(self, z, data):
        t = z.grid.times()
        on_grid = data.draw(st.lists(st.integers(0, z.grid.n), max_size=8))
        between = data.draw(st.lists(st.floats(0.0, z.grid.T), max_size=8))
        rec = RecurrenceSet(taus=np.unique(np.concatenate([t[on_grid], between])))
        assert_excursions_equal(build_excursions(z, rec), build_excursions_oracle(z, rec))

    @given(z=level_walks(), seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_ledger_prices_match_per_excursion_lookup(self, z, seed):
        grid = z.grid
        price = SamplePath(grid=grid, values=100.0 * np.exp(
            simulate_wiener(grid, seed).w), kind=PathKind.PRICE)
        exc = build_excursions(z, detect_recurrences(z))
        entry_prices, exit_prices = build_ledger(z, price, exc)
        pv = price.values
        np.testing.assert_array_equal(
            entry_prices, [pv[grid.index_of(t)] for t in exc.start.tolist()])
        np.testing.assert_array_equal(
            exit_prices, [pv[grid.index_of(t)] for t in exc.tM.tolist()])

    def test_empty_ledger(self):
        z = sine_fixture()
        price = SamplePath(grid=z.grid, values=np.ones(z.grid.n + 1), kind=PathKind.PRICE)
        exc = make_excursions([])
        entry_prices, exit_prices = build_ledger(z, price, exc)
        assert entry_prices.shape == exit_prices.shape == (0,)
        assert trade_profit(exc, entry_prices, exit_prices, l=1.0, s=1.0) == 0.0
