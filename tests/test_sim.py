from dataclasses import replace

import numpy as np
import pytest

from levnet.sim import (
    ConfigError,
    LoanRecord,
    SimConfig,
    apply_shock,
    bank_label,
    grant_loan,
    init,
    run,
    settle_repayments,
    step,
)

from conftest import bank_series

SMALL = SimConfig(n_banks=12, n_periods=300, seed=7)


def fresh_state(config=SMALL, seed=1):
    rng = np.random.default_rng(seed)
    return init(config, rng), rng


def identity_gap(state):
    assets = state.assets
    rhs = state.liabilities + state.equity
    return float(np.max(np.abs(assets - rhs) / np.abs(rhs)))


def imbalance(state):
    """Per-bank assets minus (liabilities + equity); operations must not move it."""
    return state.assets - state.liabilities - state.equity


def snapshot(state):
    return {name: getattr(state, name).copy()
            for name in ("liquidity", "illiquid", "corporate", "ib_claims",
                         "deposits", "ib_debt", "equity")}


def states_equal(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a)


class TestConfig:
    def test_defaults_valid(self):
        SimConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        dict(n_banks=1),
        dict(n_periods=-1),
        dict(assets_range=(0.0, 10.0)),
        dict(assets_range=(20.0, 10.0)),
        dict(equity_ratio_range=(0.0, 0.3)),
        dict(equity_ratio_range=(0.2, 1.0)),
        dict(liquidity_share=0.0),
        dict(arrival_rate=-0.5),
        dict(loan_size=0.0),
        dict(r_corporate=0.01, r_interbank=0.02),
        dict(maturity=0),
        dict(deposit_bank_count=0),
        dict(deposit_bank_count=80),
        dict(shock_probability=1.5),
        dict(shock_factor=-0.1),
        dict(seed=-3),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            replace(SimConfig(), **kwargs).validate()


class TestInit:
    def test_identity_holds_exactly_enough(self):
        state, _ = fresh_state()
        assert identity_gap(state) < 1e-12

    def test_arithmetic_example(self):
        cfg = SimConfig(n_banks=2, assets_range=(10_000.0, 10_000.0),
                        equity_ratio_range=(0.2, 0.2), liquidity_share=0.2,
                        deposit_bank_count=1)
        state, _ = fresh_state(cfg)
        assert state.equity[0] == 2_000.0
        assert state.liquidity[0] == 2_000.0
        assert state.illiquid[0] == 8_000.0
        assert state.deposits[0] == 8_000.0
        assert state.corporate[0] == state.ib_claims[0] == state.ib_debt[0] == 0.0

    def test_sampler_statistics(self):
        cfg = SimConfig(n_banks=10_000)
        state, _ = fresh_state(cfg, seed=42)
        assets = state.assets
        lo, hi = cfg.assets_range
        assert assets.min() >= lo and assets.max() <= hi
        ratios = state.equity / assets
        rlo, rhi = cfg.equity_ratio_range
        assert ratios.min() >= rlo and ratios.max() <= rhi
        se = (rhi - rlo) / np.sqrt(12.0) / np.sqrt(cfg.n_banks)
        assert abs(ratios.mean() - (rlo + rhi) / 2) < 3 * se
        assert 0.0 < state.deposit_weight.min() and state.deposit_weight.max() < 1.0

    def test_validates_config(self):
        with pytest.raises(ConfigError):
            init(replace(SMALL, maturity=0), np.random.default_rng(0))


class TestStep:
    def test_quiet_period_changes_nothing_but_the_clock(self):
        cfg = replace(SMALL, arrival_rate=0.0, shock_probability=0.0)
        state, rng = fresh_state(cfg)
        before = snapshot(state)
        step(state, rng)
        assert state.period == 1
        assert states_equal(before, snapshot(state))
        assert state.events == []

    def test_identity_and_nonnegativity_over_run(self):
        cfg = SimConfig(n_banks=15, n_periods=400, seed=3)
        state, rng = fresh_state(cfg, seed=cfg.seed)
        prev_equity = state.equity.copy()
        for _ in range(cfg.n_periods):
            step(state, rng)
            assert identity_gap(state) < 1e-9
            for arr in (state.liquidity, state.deposits, state.corporate,
                        state.ib_claims, state.ib_debt):
                assert (arr >= 0.0).all()
            assert (state.equity >= prev_equity).all()
            prev_equity = state.equity.copy()
            total_claims, total_debt = state.ib_claims.sum(), state.ib_debt.sum()
            assert abs(total_claims - total_debt) <= 1e-9 * max(1.0, total_debt)


class TestGrantLoan:
    def test_fully_liquid_no_interbank_leg(self):
        state, rng = fresh_state()
        state.liquidity[:] = 2 * state.config.loan_size
        rec = grant_loan(state, rng)
        assert rec is not None
        assert rec.lender is None and rec.borrowed_amount == 0.0
        assert state.adjacency[0] == []

    def test_exact_liquidity_boundary(self):
        state, rng = fresh_state()
        loan = state.config.loan_size
        state.liquidity[:] = loan
        rec = grant_loan(state, rng)
        i = rec.originator
        assert rec.borrowed_amount == 0.0
        assert state.liquidity[i] == 0.0
        assert state.corporate[i] == loan

    def test_shortfall_borrowed_all_or_nothing(self):
        # one rich bank; every other originator must borrow 0.7 * loan from it
        state, rng = fresh_state()
        loan = state.config.loan_size
        rich = 9
        for _ in range(50):
            state.liquidity[:] = 0.3 * loan
            state.liquidity[rich] = 10 * loan
            rec = grant_loan(state, rng)
            if rec is not None and rec.originator != rich:
                break
        assert rec.lender == rich
        assert rec.borrowed_amount == pytest.approx(0.7 * loan)
        i = rec.originator
        assert state.liquidity[i] == 0.0
        assert state.ib_debt[i] == rec.borrowed_amount
        assert state.ib_claims[rich] == rec.borrowed_amount
        assert state.adjacency[0][-1] == (rich, i, rec.borrowed_amount)

    def test_system_conservation(self):
        state, rng = fresh_state()
        for _ in range(60):
            liq0 = state.liquidity.sum()
            dep0 = state.deposits.sum()
            rec = grant_loan(state, rng)
            if rec is None:
                assert state.liquidity.sum() == liq0 and state.deposits.sum() == dep0
                continue
            loan = state.config.loan_size
            assert state.liquidity.sum() == pytest.approx(liq0, abs=1e-6)
            assert state.deposits.sum() == pytest.approx(dep0 + loan, rel=1e-12)

    def test_nobody_can_fund_is_a_logged_noop(self):
        state, rng = fresh_state()
        state.liquidity[:] = 0.0
        before = snapshot(state)
        assert grant_loan(state, rng) is None
        assert states_equal(before, snapshot(state))
        assert state.events[-1].kind == "loan_failed"


class TestApplyShock:
    def test_reduces_both_sides(self):
        state, rng = fresh_state()
        loan = state.config.loan_size
        state.liquidity[:] = 10 * loan
        state.deposits[:] = 10 * loan
        liq0, dep0 = state.liquidity.sum(), state.deposits.sum()
        apply_shock(state, rng)
        dent = state.config.shock_factor * loan
        assert state.liquidity.sum() == pytest.approx(liq0 - dent)
        assert state.deposits.sum() == pytest.approx(dep0 - dent)

    def test_clips_at_zero_liquidity(self):
        state, rng = fresh_state()
        state.liquidity[:] = 0.0
        before = snapshot(state)
        apply_shock(state, rng)
        assert states_equal(before, snapshot(state))
        assert state.events[-1].amount == 0.0

    def test_equity_untouched_and_leverage_falls(self):
        state, rng = fresh_state()
        state.liquidity[:] = 10 * state.config.loan_size
        state.deposits[:] = 10 * state.config.loan_size
        equity0 = state.equity.copy()
        gap0 = imbalance(state)
        lev0 = (state.deposits + state.ib_debt) / state.equity
        apply_shock(state, rng)
        assert np.max(np.abs(state.equity - equity0)) < 1e-12
        hit = state.events[-1].bank
        lev1 = (state.deposits + state.ib_debt) / state.equity
        assert lev1[hit] < lev0[hit]
        np.testing.assert_allclose(imbalance(state), gap0, atol=1e-9)


class TestSettleRepayments:
    def test_self_funded_loan_pays_corporate_interest_only(self):
        state, _ = fresh_state()
        cfg = state.config
        state.corporate[3] = cfg.loan_size
        state.n_corporate[3] = 1
        state.due[5] = [LoanRecord(3, None, cfg.loan_size, 0.0, 5 - cfg.maturity, 5)]
        equity0 = state.equity[3]
        liq0 = state.liquidity[3]
        settle_repayments(state, 5)
        assert state.equity[3] == pytest.approx(equity0 + cfg.loan_size * cfg.r_corporate)
        assert state.liquidity[3] == pytest.approx(liq0 + cfg.loan_size * (1 + cfg.r_corporate))
        assert state.corporate[3] == 0.0

    def test_interest_split_example(self):
        cfg = SimConfig(n_banks=4, loan_size=1_000.0, r_corporate=0.05, r_interbank=0.02,
                        deposit_bank_count=1)
        state, _ = fresh_state(cfg)
        state.corporate[0] = 1_000.0
        state.n_corporate[0] = 1
        state.ib_debt[0] = 400.0
        state.n_debts[0] = 1
        state.ib_claims[1] = 400.0
        state.n_claims[1] = 1
        e0, e1 = state.equity[0], state.equity[1]
        gap0 = imbalance(state)
        state.due[9] = [LoanRecord(0, 1, 1_000.0, 400.0, 9 - cfg.maturity, 9)]
        settle_repayments(state, 9)
        assert state.equity[0] == pytest.approx(e0 + 42.0)
        assert state.equity[1] == pytest.approx(e1 + 8.0)
        assert state.ib_debt[0] == 0.0 and state.ib_claims[1] == 0.0
        np.testing.assert_allclose(imbalance(state), gap0, atol=1e-9)

    def test_noop_when_nothing_due(self):
        state, _ = fresh_state()
        before = snapshot(state)
        settle_repayments(state, 1)
        assert states_equal(before, snapshot(state))


class TestRun:
    def test_zero_periods_keeps_initial_states_only(self):
        out = run(replace(SMALL, n_periods=0))
        assert out.assets.shape == (1, SMALL.n_banks)
        assert len(out.panel.grid) == 1
        assert all(len(m) == 1 for m in bank_series(out.panel))

    def test_deterministic_bit_identical(self):
        a = run(SMALL)
        b = run(SMALL)
        assert np.array_equal(a.assets, b.assets)
        assert np.array_equal(a.liabilities, b.liabilities)
        assert np.array_equal(a.leverage, b.leverage)
        assert a.events == b.events
        assert a.adjacency == b.adjacency

    def test_seed_changes_output(self):
        a = run(SMALL)
        b = run(replace(SMALL, seed=8))
        assert not np.array_equal(a.assets, b.assets)

    def test_panel_matches_arrays_and_is_complete(self):
        out = run(SMALL)
        assert out.panel.bank_ids == out.bank_ids
        for k, m in enumerate(bank_series(out.panel)):
            assert np.array_equal(m.assets, out.assets[:, k])
            assert np.array_equal(m.liabilities, out.liabilities[:, k])
            assert len(m) == SMALL.n_periods + 1

    def test_adjacency_consistent_with_events(self):
        out = run(replace(SMALL, n_periods=500))
        borrowed = {}
        for ev in out.events:
            if ev.kind == "loan" and ev.counterparty is not None:
                borrowed[ev.period] = borrowed.get(ev.period, 0) + 1
        assert out.adjacency.total_links == sum(borrowed.values())
        for t, links in enumerate(out.adjacency.links):
            assert len(links) == borrowed.get(t, 0)

    def test_leverage_positive_and_finite(self):
        out = run(SMALL)
        assert np.isfinite(out.leverage).all()
        assert (out.leverage > 0).all()

    def test_external_rng_stream_matches_manual_loop(self):
        rng = np.random.default_rng(SMALL.seed)
        state = init(SMALL, rng)
        traj = [state.assets.copy()]
        for _ in range(SMALL.n_periods):
            step(state, rng)
            traj.append(state.assets.copy())
        out = run(SMALL)
        assert np.array_equal(out.assets, np.array(traj))


def test_bank_labels_sort_numerically():
    labels = [bank_label(i, 80) for i in range(80)]
    assert labels == sorted(labels)
    assert labels[7] == "B07"
    assert bank_label(3, 1000) == "B003"
