import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levnet.growth import (
    NoDefinedPairsError,
    ZeroInitialLeverageError,
    growth_records,
    most_correlated_pair,
    replication_study,
)
from levnet.network import CorrelationMatrix
from levnet.sim import SimConfig

from conftest import BankSeries, from_observations, panel_from_members, random_correlation_matrix

STUDY_CFG = SimConfig(n_banks=10, n_periods=150, seed=21)


class TestMostCorrelatedPair:
    def test_six_bank_example(self, six_bank_matrix):
        assert most_correlated_pair(six_bank_matrix) == ("C", "D", 0.84)

    def test_all_equal_takes_lexicographic_first(self):
        vals = np.full((4, 4), 0.5)
        np.fill_diagonal(vals, 1.0)
        m = CorrelationMatrix(("a", "b", "c", "d"), vals)
        assert most_correlated_pair(m) == ("a", "b", 0.5)

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = random_correlation_matrix(rng, int(rng.integers(2, 30)))
            got = most_correlated_pair(m)
            best = None
            for i in range(m.n):
                for j in range(i + 1, m.n):
                    r = m.entry(i, j)
                    if not math.isnan(r) and (best is None or r > best[2]):
                        best = (m.bank_ids[i], m.bank_ids[j], r)
            assert got == best

    def test_no_defined_pairs(self):
        vals = np.full((3, 3), math.nan)
        np.fill_diagonal(vals, 1.0)
        with pytest.raises(NoDefinedPairsError):
            most_correlated_pair(CorrelationMatrix(("a", "b", "c"), vals))

    def test_single_defined_pair_wins(self):
        vals = np.full((3, 3), math.nan)
        np.fill_diagonal(vals, 1.0)
        vals[1, 2] = vals[2, 1] = -0.4
        m = CorrelationMatrix(("a", "b", "c"), vals)
        assert most_correlated_pair(m) == ("b", "c", -0.4)


def growth_record(series):
    (record,) = growth_records(panel_from_members("p", [series]))
    return record


def scalar_growth_records(panel):
    """Bank by bank in Python floats, from the first and last grid points."""
    records = []
    for k, bank in enumerate(panel.bank_ids):
        a0, a1 = float(panel.assets[0, k]), float(panel.assets[-1, k])
        l0, l1 = float(panel.liabilities[0, k]), float(panel.liabilities[-1, k])
        lev0, lev1 = l0 / (a0 - l0), l1 / (a1 - l1)
        if lev0 == 0.0:
            raise ZeroInitialLeverageError(
                f"{bank}: initial leverage is zero, growth undefined")
        records.append((bank, lev1 / lev0, a1 / a0))
    return records


class TestGrowthRecord:
    def test_constant_series(self):
        s = from_observations("k", [(t, 150.0, 100.0) for t in range(5)])
        rec = growth_record(s)
        assert rec.leverage_growth == 1.0
        assert rec.assets_growth == 1.0

    def test_assets_growth_example(self):
        s = from_observations(
            "k", [(0, 10_000.0, 5_000.0), (1, 20_000.0, 9_000.0), (2, 45_000.0, 22_500.0)])
        assert growth_record(s).assets_growth == 4.5

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            assets = rng.uniform(100.0, 1e6, n)
            liabilities = assets * rng.uniform(0.05, 0.9, n)
            rec = growth_record(BankSeries("r", np.arange(n), assets, liabilities))
            lev = liabilities / (assets - liabilities)
            assert rec.assets_growth == pytest.approx(assets[-1] / assets[0], rel=1e-12)
            assert rec.leverage_growth == pytest.approx(lev[-1] / lev[0], rel=1e-12)

    def test_zero_initial_leverage(self):
        s = from_observations("k", [(0, 100.0, 0.0), (1, 100.0, 50.0)])
        with pytest.raises(ZeroInitialLeverageError,
                           match="^k: initial leverage is zero, growth undefined$"):
            growth_record(s)

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_currency_scale_invariance(self, scale):
        rows = [(0, 1_000.0, 400.0), (1, 1_600.0, 900.0), (2, 2_500.0, 1_200.0)]
        base = growth_record(from_observations("k", rows))
        scaled = growth_record(from_observations(
            "k", [(t, a * scale, l * scale) for t, a, l in rows]))
        assert scaled.assets_growth == pytest.approx(base.assets_growth, rel=1e-12)
        assert scaled.leverage_growth == pytest.approx(base.leverage_growth, rel=1e-12)


@st.composite
def growth_panels(draw):
    """A few complete banks over a short grid with random balance sheets;
    some start or end with zero debt."""
    n_dates = draw(st.integers(min_value=1, max_value=6))
    banks = []
    for k in range(draw(st.integers(min_value=1, max_value=6))):
        rows = []
        for t in range(n_dates):
            assets = draw(st.floats(min_value=1e-3, max_value=1e12))
            share = draw(st.sampled_from([0.0, 0.5]) | st.floats(min_value=0.0, max_value=0.99))
            rows.append((t, assets, assets * share))
        banks.append(from_observations(f"b{k}", rows))
    return panel_from_members("p", banks)


@settings(max_examples=200, deadline=None)
@given(growth_panels())
def test_growth_records_match_the_scalar_loop(panel):
    try:
        expected = scalar_growth_records(panel)
    except ZeroInitialLeverageError as exc:
        with pytest.raises(ZeroInitialLeverageError, match=f"^{exc}$"):
            growth_records(panel)
        return
    assert [(g.bank_id, g.leverage_growth, g.assets_growth)
            for g in growth_records(panel)] == expected


class TestReplicationStudy:
    def test_single_run_shape(self):
        study = replication_study(STUDY_CFG, 1)
        assert study.runs == 1
        rec = study.run_records[0]
        assert rec.run_index == 0
        assert rec.bank_a != rec.bank_b
        ids = {g.bank_id for g in rec.records}
        assert rec.bank_a in ids and rec.bank_b in ids
        assert len(rec.records) == STUDY_CFG.n_banks

    def test_deterministic(self):
        a = replication_study(STUDY_CFG, 3)
        b = replication_study(STUDY_CFG, 3)
        assert a == b

    def test_runs_are_independent_streams(self):
        # records for run r depend only on (seed, r), not on how many runs execute
        few = replication_study(STUDY_CFG, 1)
        many = replication_study(STUDY_CFG, 3)
        assert many.run_records[0] == few.run_records[0]
        assert many.run_records[0] != many.run_records[1]

    def test_medians_cover_population(self):
        rec = replication_study(STUDY_CFG, 1).run_records[0]
        ast = sorted(g.assets_growth for g in rec.records)
        assert rec.median_assets_growth == pytest.approx(float(np.median(ast)))

    def test_rejects_bad_runs(self):
        with pytest.raises(ValueError):
            replication_study(STUDY_CFG, 0)
