import numpy as np
import pytest
from hypothesis import given, strategies as st

from levnet.balance_sheet import (
    DegenerateEquityError,
    DomainError,
    EmptyPanelWarning,
    Panel,
    _leverage_matrix,
    census,
    central_leverage,
    filter_complete,
)

from conftest import (
    bank_series,
    constant_series,
    from_observations,
    panel_from_members,
    series_from_leverage,
)

positive = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False)


def make_panel(bank_id, rows):
    return panel_from_members("p", [from_observations(bank_id, rows)])


def leverage_of(assets, liabilities):
    """The leverage of one balance sheet, as a one-bank, one-date panel has it."""
    return float(_leverage_matrix(Panel("p", ("b",), [0], [[assets]], [[liabilities]]))[0, 0])


def leverage_row(bank_id, rows):
    return _leverage_matrix(make_panel(bank_id, rows))[0]


class TestLeverageOf:
    def test_basic(self):
        assert leverage_of(120.0, 100.0) == 5.0

    def test_zero_debt(self):
        assert leverage_of(100.0, 0.0) == 0.0

    def test_zero_equity(self):
        with pytest.raises(DegenerateEquityError):
            leverage_of(100.0, 100.0)

    def test_negative_equity(self):
        with pytest.raises(DegenerateEquityError):
            leverage_of(100.0, 150.0)

    @pytest.mark.parametrize("assets,liabilities", [(0.0, 0.0), (-5.0, 1.0), (10.0, -1.0),
                                                    (float("nan"), 1.0)])
    def test_domain(self, assets, liabilities):
        with pytest.raises(DomainError):
            leverage_of(assets, liabilities)

    @given(assets=positive, frac=st.floats(min_value=0.0, max_value=0.99),
           scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariant(self, assets, frac, scale):
        liabilities = assets * frac
        base = leverage_of(assets, liabilities)
        scaled = leverage_of(scale * assets, scale * liabilities)
        assert scaled == pytest.approx(base, rel=1e-12)


class TestBankSeries:
    """A bank's column of a panel: checked against the rules when the panel is
    built, and read-only."""

    def test_validation_orders_and_rejects(self):
        with pytest.raises(DomainError, match="invalid assets/liabilities at t=1"):
            make_panel("x", [(0, 10.0, 1.0), (1, -1.0, 0.0)])
        with pytest.raises(DomainError, match="non-finite"):
            make_panel("x", [(0, 10.0, 1.0), (1, 10.0, np.inf)])
        # a non-finite value is reported before an earlier invalid one
        with pytest.raises(DomainError, match="non-finite"):
            make_panel("x", [(0, 10.0, -1.0), (1, np.nan, 1.0)])
        with pytest.raises(ValueError, match="balance sheets must be"):
            Panel("p", ("x",), [0, 1], [[10.0]], [[1.0]])

    def test_degenerate_equity_reports_time(self):
        with pytest.raises(DegenerateEquityError) as exc:
            make_panel("bankX", [(0, 10.0, 5.0), (3, 10.0, 10.0)])
        assert exc.value.bank_id == "bankX"
        assert exc.value.time_index == 3

    def test_arrays_read_only(self):
        panel = panel_from_members("p", [constant_series("a", range(3))])
        with pytest.raises(ValueError):
            panel.assets[0, 0] = 1.0


class TestLeverageSeries:
    def test_constant(self):
        assert leverage_row("k", [(t, 110.0, 100.0) for t in range(3)]).tolist() == \
            [10.0, 10.0, 10.0]

    def test_pointwise(self):
        rows = [(0, 120.0, 100.0), (1, 125.0, 100.0), (2, 150.0, 100.0)]
        assert leverage_row("k", rows).tolist() == [5.0, 4.0, 2.0]

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 30))
            assets = rng.uniform(10.0, 1e6, n)
            liabilities = assets * rng.uniform(0.0, 0.95, n)
            got = leverage_row("r", zip(range(n), assets.tolist(), liabilities.tolist()))
            expected = [liabilities[i] / (assets[i] - liabilities[i]) for i in range(n)]
            assert got.tolist() == expected

    @given(lev=st.floats(min_value=1e-6, max_value=1e6),
           liabilities=st.floats(min_value=1e-3, max_value=1e9))
    def test_assets_round_trip(self, lev, liabilities):
        # invert: A = L * (1 + 1/lev) should reproduce the assets
        assets = liabilities * (1.0 + 1.0 / lev)
        got = leverage_of(assets, liabilities)
        back = liabilities * (1.0 + 1.0 / got)
        assert back == pytest.approx(assets, rel=1e-9)


class TestFilterComplete:
    def test_drops_short_member(self):
        full = [constant_series(f"b{i}", range(4)) for i in range(2)]
        short = constant_series("c", range(3))  # misses the final grid point
        panel = panel_from_members("p", full + [short])
        out = filter_complete(panel)
        assert out.bank_ids == ("b0", "b1")
        assert np.array_equal(out.grid, panel.grid)

    def test_identity_when_all_complete(self):
        panel = panel_from_members("p", [constant_series(f"b{i}", range(5)) for i in range(3)])
        assert filter_complete(panel) is panel

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        members = []
        for i in range(12):
            first, last = sorted(rng.choice(10, size=2, replace=False))
            members.append(constant_series(f"b{i:02d}", range(int(first), int(last) + 1)))
        panel = panel_from_members("p", members)
        once = filter_complete(panel)
        twice = filter_complete(once)
        assert once.bank_ids == twice.bank_ids

    def test_empty_result_warns(self):
        panel = panel_from_members("p", [constant_series("a", range(2)),
                                         constant_series("b", range(1, 4))])
        with pytest.warns(EmptyPanelWarning):
            out = filter_complete(panel)
        assert out.bank_ids == ()

    def test_table_shaped_fixture(self, argentina_panel):
        assert len(bank_series(filter_complete(argentina_panel))) == 75


class TestCensus:
    def test_argentina_shape(self, argentina_panel):
        rep = census(argentina_panel)
        assert (rep.n_start, rep.n_end, rep.n_birth, rep.n_death, rep.n_complete) == \
            (81, 78, 3, 6, 75)

    def test_single_complete_bank(self):
        panel = panel_from_members("p", [constant_series("a", range(6))])
        rep = census(panel)
        assert (rep.n_start, rep.n_end, rep.n_birth, rep.n_death, rep.n_complete) == \
            (1, 1, 0, 0, 1)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_banks = int(rng.integers(2, 15))
        horizon = int(rng.integers(2, 8))
        members = []
        for i in range(n_banks):
            first, last = sorted(rng.choice(horizon, size=2, replace=False).tolist()) \
                if horizon > 1 else (0, 0)
            members.append(constant_series(f"b{i:02d}", range(first, last + 1)))
        panel = panel_from_members("p", members)
        rep = census(panel)

        # independent scan over each bank's first/last observation
        start, end = int(panel.grid[0]), int(panel.grid[-1])
        firsts = {m.bank_id: int(m.times[0]) for m in bank_series(panel)}
        lasts = {m.bank_id: int(m.times[-1]) for m in bank_series(panel)}
        assert rep.n_start == sum(1 for v in firsts.values() if v == start)
        assert rep.n_end == sum(1 for v in lasts.values() if v == end)
        assert rep.n_birth == sum(1 for v in firsts.values() if v > start)
        assert rep.n_death == sum(1 for v in lasts.values() if v < end)
        assert rep.n_complete == sum(
            1 for m in bank_series(panel) if len(m.times) == len(panel.grid))

    def test_identity_without_mid_window_turnover(self, argentina_panel):
        # no bank both appears and disappears inside the window
        rep = census(argentina_panel)
        assert rep.n_complete == rep.n_start - rep.n_death


class TestCentralLeverage:
    def test_two_bank_median(self):
        a = series_from_leverage("a", range(4), [4.0] * 4)
        b = series_from_leverage("b", range(4), [8.0] * 4)
        panel = panel_from_members("p", [a, b])
        values = central_leverage(panel)
        assert [v for _, v in values] == pytest.approx([6.0] * 4)
        assert [t for t, _ in values] == [0, 1, 2, 3]

    def test_taiwan_overall_median(self, taiwan_panel):
        values = [v for _, v in central_leverage(taiwan_panel, "median")]
        assert float(np.median(values)) == pytest.approx(16.4, rel=1e-9)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(23)
        n_banks, n_times = 9, 7
        levs = rng.uniform(0.5, 20.0, size=(n_banks, n_times))
        panel = panel_from_members(
            "p", [series_from_leverage(f"b{i}", range(n_times), levs[i])
                  for i in range(n_banks)])
        got = dict(central_leverage(panel, "median"))
        for t in range(n_times):
            col = sorted(levs[i, t] for i in range(n_banks))
            assert got[t] == pytest.approx(col[n_banks // 2], rel=1e-12)

    def test_mean_statistic(self):
        a = series_from_leverage("a", range(2), [2.0, 2.0])
        b = series_from_leverage("b", range(2), [4.0, 8.0])
        panel = panel_from_members("p", [a, b])
        assert [v for _, v in central_leverage(panel, "mean")] == pytest.approx([3.0, 5.0])

    def test_rejects_incomplete_and_unknown(self):
        panel = panel_from_members("p", [constant_series("a", range(3)),
                                         constant_series("b", range(2))])
        with pytest.raises(ValueError):
            central_leverage(panel)
        with pytest.raises(ValueError):
            central_leverage(filter_complete(panel), "mode")


def test_central_mean_sums_bank_by_bank():
    # the mean over banks must round as a row-by-row sum of stacked series does
    rng = np.random.default_rng(5)
    levs = rng.uniform(0.5, 20.0, size=(40, 6))
    panel = panel_from_members(
        "p", [series_from_leverage(f"b{i:02d}", range(6), levs[i]) for i in range(40)])
    stack = np.vstack([m.liabilities / (m.assets - m.liabilities) for m in bank_series(panel)])
    got = [v for _, v in central_leverage(panel, "mean")]
    assert got == np.mean(stack, axis=0).tolist()
    assert got == [v for _, v in central_leverage(panel_from_members("q", bank_series(panel)),
                                                  "mean")]
