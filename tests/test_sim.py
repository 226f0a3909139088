"""The simulator: config checks, the model's steps on the per-period
reference engine (``tests/sim_reference.py``), ``run`` against it, and
``run``'s draws against numpy's Generator."""

import re
from collections import Counter
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from levnet import growth
from levnet.cli import EXIT_COMPUTE, EXIT_OK, main
from levnet.balance_sheet import filter_complete
from levnet.panel_io import write_study_csv
from levnet.sim import (
    _MAX_CELLS, _MAX_REQUESTS, EVENT_KINDS, ConfigError, SimConfig, _draws, bank_label,
    period_date, run)

from conftest import bank_series
from sim_reference import (
    LoanRecord,
    apply_shock,
    grant_loan,
    init,
    reference_run,
    settle_repayments,
    step,
    write_simulate_outputs,
)

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


# the largest rate Generator.poisson takes, computed as numpy computes it
POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


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
        dict(arrival_rate=float(np.nextafter(POISSON_LAM_MAX, np.inf))),
        dict(arrival_rate=1e300),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            replace(SimConfig(), **kwargs).validate()

    def test_arrival_rate_up_to_the_request_bound(self):
        # numpy's Generator.poisson takes every rate the bound lets through
        assert _MAX_REQUESTS == 2**24 < POISSON_LAM_MAX
        np.random.default_rng(0).poisson(POISSON_LAM_MAX)
        at_bound = float(2**24)
        for n_periods in (0, 1):
            SimConfig(n_periods=n_periods, arrival_rate=at_bound).validate()
        SimConfig(n_banks=3, n_periods=2**24, arrival_rate=1.0).validate()
        SimConfig(n_periods=4, arrival_rate=at_bound / 4).validate()
        over = float(np.nextafter(at_bound, np.inf))
        for config in (SimConfig(n_periods=1, arrival_rate=over),
                       SimConfig(n_periods=0, arrival_rate=over),
                       SimConfig(n_periods=2**24 + 1, arrival_rate=1.0),
                       SimConfig(n_periods=10**400, arrival_rate=5e-324)):
            with pytest.raises(ConfigError, match=re.escape(
                    "a run's expected loan requests, arrival_rate * max(n_periods, 1), "
                    "must be at most 2**24 = 16777216, got ")):
                config.validate()
        with pytest.raises(ConfigError, match=re.escape("got 1e+19 * 1")):
            SimConfig(n_periods=0, arrival_rate=1e19).validate()

    def test_panel_cells_up_to_the_cell_bound(self):
        # 64 banks x 2**20 dates is 2**26 cells; the request bound is checked
        # first, so its cases above keep their message though they are over this one
        assert _MAX_CELLS == 2**26
        SimConfig(n_banks=64, n_periods=2**20 - 1).validate()
        message = re.escape("a run's panel, n_banks * (n_periods + 1) cells, must hold at "
                            "most 2**26 = 67108864, got ")
        with pytest.raises(ConfigError, match=message + re.escape("64 * 1048577")):
            SimConfig(n_banks=64, n_periods=2**20).validate()
        with pytest.raises(ConfigError, match=message + re.escape(f"80 * {10**30 + 1}")):
            SimConfig(n_periods=10**30, arrival_rate=0.0).validate()


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
        assert out.panel.assets.shape == out.leverage.shape == (1, SMALL.n_banks)
        assert out.panel.dates == ("2000-01-01",)
        assert all(len(m) == 1 for m in bank_series(out.panel))

    def test_deterministic_bit_identical(self):
        a = run(SMALL)
        b = run(SMALL)
        assert np.array_equal(a.panel.assets, b.panel.assets)
        assert np.array_equal(a.panel.liabilities, b.panel.liabilities)
        assert np.array_equal(a.leverage, b.leverage)
        assert a.events == b.events
        assert a.adjacency == b.adjacency

    def test_seed_changes_output(self):
        a = run(SMALL)
        b = run(replace(SMALL, seed=8))
        assert not np.array_equal(a.panel.assets, b.panel.assets)

    def test_panel_matches_arrays_and_is_complete(self):
        out = run(SMALL)
        assert out.panel.bank_ids == tuple(bank_label(i, SMALL.n_banks)
                                           for i in range(SMALL.n_banks))
        assert out.panel.dates == tuple(map(period_date, range(SMALL.n_periods + 1)))
        assert out.leverage.shape == out.panel.assets.shape
        assert filter_complete(out.panel) is out.panel

    def test_adjacency_consistent_with_events(self):
        out = run(replace(SMALL, n_periods=500))
        ev, links = out.events, out.adjacency
        funded = [(t, lender, bank) for t, kind, bank, lender in zip(
            ev.period, ev.kind, ev.bank, ev.counterparty)
            if EVENT_KINDS[kind] == "loan" and lender >= 0]
        assert funded and list(zip(links.period, links.lender, links.borrower)) == funded
        assert links.total_links == len(funded)
        assert all(x > 0.0 for x in links.amount)
        assert Counter(map(EVENT_KINDS.__getitem__, ev.kind)) == {
            kind: ev.count(kind) for kind in EVENT_KINDS if ev.count(kind)}

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
        assert np.array_equal(out.panel.assets, np.array(traj))


def test_bank_labels_sort_numerically():
    labels = [bank_label(i, 80) for i in range(80)]
    assert labels == sorted(labels)
    assert labels[7] == "B07"
    assert bank_label(3, 1000) == "B003"


# -- the engine against the per-period reference ---------------------------


@st.composite
def small_configs(draw):
    """Small configs that reach every branch: deposit splits over 1 to 12
    banks (numpy sums 8 or more in partial sums), no periods, certain and
    impossible shocks, busy arrivals that exhaust liquidity, short maturities."""
    k = draw(st.integers(1, 12))
    lo = draw(st.floats(1_000.0, 50_000.0))
    r_ib = draw(st.floats(0.0, 0.05))
    e_lo = draw(st.floats(0.05, 0.5))
    return SimConfig(
        n_banks=draw(st.integers(k + 1, k + 5)),
        n_periods=draw(st.sampled_from([0, 1]) | st.integers(2, 60)),
        assets_range=(lo, lo * draw(st.floats(1.0, 10.0))),
        equity_ratio_range=(e_lo, e_lo + draw(st.floats(0.0, 0.45))),
        liquidity_share=draw(st.floats(0.05, 0.6)),
        arrival_rate=draw(st.floats(0.0, 3.0)),
        loan_size=draw(st.floats(1_000.0, 40_000.0)),
        r_corporate=r_ib + draw(st.floats(0.001, 0.05)),
        r_interbank=r_ib,
        maturity=draw(st.integers(1, 12)),
        deposit_bank_count=k,
        shock_probability=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        shock_factor=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
    )


def config_flags(config):
    """CLI flags that parse back to ``config`` exactly (floats through repr)."""
    flags = []
    for f in fields(SimConfig):
        value = getattr(config, f.name)
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        flags += [f"--{f.name.replace('_', '-')}", text]
    return flags


ORACLE_FILES = ("panel.csv", "adjacency.csv", "events.csv", "summary.json")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(config=SimConfig(n_banks=12, n_periods=60, arrival_rate=2.5, deposit_bank_count=8,
                          maturity=5, seed=4))
@example(config=SimConfig(n_banks=10, n_periods=0, deposit_bank_count=9, seed=1))
@example(config=SimConfig(n_banks=8, n_periods=40, arrival_rate=0.0, maturity=5, seed=2))
@example(config=SimConfig(n_banks=8, n_periods=40, arrival_rate=12.0, deposit_bank_count=3,
                          maturity=5, seed=3))
@given(config=small_configs())
def test_run_writes_the_reference_engine_bytes(tmp_path_factory, config):
    """``simulate``'s four files and ``study.csv`` from ``run`` equal, byte for
    byte, those the per-period reference engine gives for the same config."""
    directory = tmp_path_factory.mktemp("oracle")
    flags = config_flags(config)
    assert main(["simulate", "--out-dir", str(directory / "new"), *flags]) == EXIT_OK
    write_simulate_outputs(reference_run(config), directory / "reference")
    for name in ORACLE_FILES:
        assert (directory / "new" / name).read_bytes() == \
            (directory / "reference" / name).read_bytes(), name

    # a study needs two banks whose leverage varies; without them both fail
    study_args = ["study", "--runs", "2", "--out", str(directory / "study.csv"), *flags]
    try:
        with mock.patch.object(growth, "run", reference_run):
            study = growth.replication_study(config, 2)
    except ValueError:
        assert main(study_args) == EXIT_COMPUTE
        return
    write_study_csv(study, directory / "reference.csv")
    assert main(study_args) == EXIT_OK
    assert (directory / "study.csv").read_bytes() == (directory / "reference.csv").read_bytes()


def assert_same_run(out, reference):
    """``run``'s output equals the reference engine's, bit for bit."""
    for mine, theirs in ((out.panel.assets, reference.assets),
                         (out.panel.liabilities, reference.liabilities),
                         (out.leverage, reference.leverage)):
        assert mine.tobytes() == theirs.tobytes()
    ev = out.events
    assert list(zip(ev.period, map(EVENT_KINDS.__getitem__, ev.kind), ev.bank,
                    [c if c >= 0 else None for c in ev.counterparty], ev.amount)) == \
        [tuple(e) for e in reference.events]
    links = out.adjacency
    assert list(zip(links.period, links.lender, links.borrower, links.amount)) == \
        list(reference.adjacency)


@pytest.mark.parametrize("bit_generator, seed", [("PCG64", 0), ("PCG64", 1), ("MT19937", 2)])
def test_run_at_the_calibrated_size_matches_the_reference_engine(bit_generator, seed):
    # 80 banks x 5,000 periods: thousands of loans, interbank loans and
    # shocks; PCG64 is the default stream
    config = SimConfig(seed=seed)
    out, reference = (engine(config, np.random.Generator(getattr(np.random, bit_generator)(seed)))
                      for engine in (run, reference_run))
    assert out.events.count("loan") > 1_000 and out.adjacency.total_links > 100
    assert_same_run(out, reference)


# -- the draw helper against numpy's Generator -------------------------------

BIT_GENERATORS = ("PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64")
DRAWS = ("integers", "random", "choice", "poisson")
# numpy draws Poisson counts by multiplying uniforms below 10 and by PTRS from 10 up
POISSON_EDGES = (0.0, 5e-324, 0.4, float(np.nextafter(10.0, 0.0)), 10.0, POISSON_LAM_MAX)


@st.composite
def draw_calls(draw):
    """One call of a ``_draws`` callable or of ``Generator.permutation``, with
    arguments in its domain, weighted to the edges of numpy's branches."""
    kind = draw(st.sampled_from(DRAWS + ("permutation",)))
    if kind == "poisson":
        return kind, draw(st.sampled_from(POISSON_EDGES) | st.floats(0.0, 10.0)
                          | st.floats(10.0, 1e12))
    if kind == "integers":
        return kind, draw(st.integers(2, 100) | st.integers(2, 2**32)
                          | st.sampled_from([2**31, 2**31 + 1, 2**32 - 1, 2**32]))
    if kind == "random":
        return (kind,)
    if kind == "choice":
        # Floyd's algorithm up to 10,000, and above it while k <= n // 50
        n = draw(st.integers(1, 100) | st.integers(10_001, 20_010))
        return kind, n, draw(st.integers(0, min(n, 600)))
    return kind, draw(st.integers(1, 100))


def generator_call(rng, call):
    kind, *args = call
    if kind == "integers":
        return int(rng.integers(*args))
    if kind == "random":
        return rng.random()
    if kind == "choice":
        return rng.choice(*args, replace=False).tolist()
    if kind == "poisson":
        return int(rng.poisson(*args))
    return rng.permutation(*args).tolist()


@settings(max_examples=200, deadline=None)
@example(name="PCG64", seed=1, calls=[("choice", 10_000, 9_999), ("permutation", 79),
                                      ("integers", 80)])
@example(name="MT19937", seed=2, calls=[("choice", 10_001, 200), ("random",)])
@example(name="Philox", seed=3, calls=[("choice", 10_001, 201), ("integers", 3)])
@example(name="SFC64", seed=4, calls=[("choice", 1, 1), ("choice", 5, 0), ("random",),
                                      ("integers", 7)])
@example(name="PCG64DXSM", seed=6,
         calls=[("integers", 2**31), ("integers", 2**31 + 1)] * 4 + [("permutation", 5)])
@example(name="PCG64", seed=7, calls=[("poisson", lam) for lam in POISSON_EDGES + (12.0,)]
         + [("random",), ("poisson", 0.4), ("integers", 80), ("poisson", 9.5)])
@given(name=st.sampled_from(BIT_GENERATORS), seed=st.integers(0, 2**64 - 1),
       calls=st.lists(draw_calls(), max_size=40))
def test_draws_return_what_the_generator_returns(name, seed, calls):
    """``_draws`` calls mixed with ``permutation`` on one Generator give the
    values, and leave the stream where, a second Generator on the same seed
    does with its own methods."""
    bit_generator = getattr(np.random, name)
    rng, expected = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
    draws = dict(zip(DRAWS, _draws(rng)))
    poisson = draws["poisson"]
    draws["poisson"] = lambda lam: poisson(lam)()
    for call in calls:
        kind, *args = call
        got = rng.permutation(*args).tolist() if kind == "permutation" else draws[kind](*args)
        assert got == generator_call(expected, call), call
    # the same position, and the same buffered half of a 64-bit output
    assert rng.integers(2**32, size=3).tolist() == expected.integers(2**32, size=3).tolist()


# -- the deposit total against numpy's sum -----------------------------------


@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 7),
       scales=st.lists(st.floats(1e-300, 1e300), min_size=7, max_size=7))
def test_deposit_total_below_8_recipients_is_numpys_sum(seed, k, scales):
    """Below 8 terms ``run`` adds the recipients' weights in order from the
    first, which is what numpy's sum of ``weights[recipients]`` does: on
    drawn weights, and on weights scaled apart so that rounding shows."""
    rng = np.random.default_rng(seed)
    n = k + 1 + int(rng.integers(20))
    _, _, choice, _ = _draws(rng)
    for weights in (rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n) * np.resize(scales, n)):
        weight, recipients = weights.tolist(), choice(n, k)
        assert sum(map(weight.__getitem__, recipients), 0.0) == float(weights[recipients].sum())


def test_numpy_sums_8_weights_otherwise():
    """From 8 terms numpy sums in pairwise blocks, so an in-order sum differs
    from it on some weights, and ``run`` keeps numpy's sum there; the
    reference-engine tests hold it to numpy's sum over 8 to 12 recipients."""
    rng = np.random.default_rng(8)
    weights = [rng.uniform(0.0, 1.0, 8) for _ in range(200)]
    assert any(sum(w.tolist(), 0.0) != float(w.sum()) for w in weights)
