"""The per-period simulator engine, kept as the oracle for ``levnet.sim.run``.

This is the engine ``run`` replaced: numpy arrays of the balance-sheet
items, one function per model step, a full snapshot of every bank after
each period, ``SimEvent`` tuples and per-period link lists. It draws from
the generator in the same order with the same arguments, so for any config
and stream ``reference_run`` and ``levnet.sim.run`` must agree bit for bit.
``write_simulate_outputs`` writes the four ``simulate`` files from its
output as the command did before the logs went columnar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from levnet.balance_sheet import Panel
from levnet.panel_io import _fmt, write_panel_csv
from levnet.sim import SimConfig, _period_labels, bank_label


@dataclass(frozen=True)
class LoanRecord:
    """One corporate loan: who originated it, who (if anyone) funded the gap."""

    originator: int
    lender: int | None
    corporate_amount: float
    borrowed_amount: float
    origination: int
    due: int


class SimEvent(NamedTuple):
    period: int
    kind: str  # loan | loan_failed | shock | repayment
    bank: int
    counterparty: int | None
    amount: float


@dataclass(frozen=True)
class AdjacencyHistory:
    """Directed interbank links per period: links[t] lists (lender, borrower, amount)."""

    links: tuple[tuple[tuple[int, int, float], ...], ...]

    def __iter__(self) -> Iterator[tuple[int, int, int, float]]:
        for t, period_links in enumerate(self.links):
            for lender, borrower, amount in period_links:
                yield t, lender, borrower, amount

    @property
    def total_links(self) -> int:
        return sum(len(p) for p in self.links)


class SimState:
    """Mutable working state of a single run."""

    __slots__ = ("config", "period", "liquidity", "illiquid", "corporate",
                 "ib_claims", "deposits", "ib_debt", "equity", "deposit_weight",
                 "n_corporate", "n_claims", "n_debts", "due", "adjacency", "events")

    def __init__(self, config: SimConfig):
        n = config.n_banks
        self.config = config
        self.period = 0
        self.liquidity = np.zeros(n)
        self.illiquid = np.zeros(n)
        self.corporate = np.zeros(n)
        self.ib_claims = np.zeros(n)
        self.deposits = np.zeros(n)
        self.ib_debt = np.zeros(n)
        self.equity = np.zeros(n)
        self.deposit_weight = np.zeros(n)
        self.n_corporate = np.zeros(n, dtype=np.int64)
        self.n_claims = np.zeros(n, dtype=np.int64)
        self.n_debts = np.zeros(n, dtype=np.int64)
        self.due: dict[int, list[LoanRecord]] = {}
        self.adjacency: list[list[tuple[int, int, float]]] = [[]]
        self.events: list[SimEvent] = []

    @property
    def assets(self) -> np.ndarray:
        return self.liquidity + self.illiquid + self.corporate + self.ib_claims

    @property
    def liabilities(self) -> np.ndarray:
        return self.deposits + self.ib_debt


def init(config: SimConfig, rng: np.random.Generator) -> SimState:
    """Draw the initial banking system: assets, equity ratios, weights."""
    config.validate()
    state = SimState(config)
    n = config.n_banks
    assets0 = rng.uniform(config.assets_range[0], config.assets_range[1], n)
    ratios = rng.uniform(config.equity_ratio_range[0], config.equity_ratio_range[1], n)
    state.deposit_weight[:] = rng.uniform(0.0, 1.0, n)
    state.equity[:] = ratios * assets0
    state.liquidity[:] = config.liquidity_share * assets0
    state.illiquid[:] = assets0 - state.liquidity
    state.deposits[:] = assets0 - state.equity
    return state


def settle_repayments(state: SimState, period: int) -> SimState:
    """Repay every loan due at ``period``; funds arrive from outside the system."""
    cfg = state.config
    for rec in state.due.pop(period, ()):  # insertion order = origination order
        i = rec.originator
        loan, b = rec.corporate_amount, rec.borrowed_amount
        state.liquidity[i] += loan * (1.0 + cfg.r_corporate)
        state.corporate[i] -= loan
        state.n_corporate[i] -= 1
        if state.n_corporate[i] == 0:
            state.corporate[i] = 0.0  # clear float residue once nothing is outstanding
        if rec.lender is not None:
            j = rec.lender
            payback = b * (1.0 + cfg.r_interbank)
            state.liquidity[i] -= payback
            state.ib_debt[i] -= b
            state.n_debts[i] -= 1
            if state.n_debts[i] == 0:
                state.ib_debt[i] = 0.0
            state.equity[i] += loan * cfg.r_corporate - b * cfg.r_interbank
            state.liquidity[j] += payback
            state.ib_claims[j] -= b
            state.n_claims[j] -= 1
            if state.n_claims[j] == 0:
                state.ib_claims[j] = 0.0
            state.equity[j] += b * cfg.r_interbank
        else:
            state.equity[i] += loan * cfg.r_corporate
        state.events.append(SimEvent(period, "repayment", i, rec.lender, loan))
    return state


def grant_loan(state: SimState, rng: np.random.Generator) -> LoanRecord | None:
    """Process one corporate loan request; returns the record, or None if it failed."""
    cfg = state.config
    n = cfg.n_banks
    loan = cfg.loan_size
    t = state.period
    i = int(rng.integers(n))

    lender: int | None = None
    borrowed = 0.0
    own = float(state.liquidity[i])
    if own >= loan:
        state.liquidity[i] = own - loan
    else:
        shortfall = loan - own
        for c in rng.permutation(n - 1):
            j = int(c) if c < i else int(c) + 1
            if state.liquidity[j] >= shortfall:
                lender = j
                break
        if lender is None:
            state.events.append(SimEvent(t, "loan_failed", i, None, loan))
            return None
        borrowed = shortfall
        state.liquidity[i] = 0.0
        state.liquidity[lender] -= borrowed
        state.ib_claims[lender] += borrowed
        state.n_claims[lender] += 1
        state.ib_debt[i] += borrowed
        state.n_debts[i] += 1

    state.corporate[i] += loan
    state.n_corporate[i] += 1

    # the loan returns to the system as deposits, split over a few banks
    recipients = rng.choice(n, size=cfg.deposit_bank_count, replace=False)
    w = state.deposit_weight[recipients]
    inflow = loan * (w / w.sum())
    state.liquidity[recipients] += inflow
    state.deposits[recipients] += inflow

    rec = LoanRecord(i, lender, loan, borrowed, t, t + cfg.maturity)
    state.due.setdefault(rec.due, []).append(rec)
    if borrowed > 0.0:
        state.adjacency[t].append((lender, i, borrowed))
    state.events.append(SimEvent(t, "loan", i, lender, loan))
    return rec


def apply_shock(state: SimState, rng: np.random.Generator) -> SimState:
    """Drain deposits and liquidity from one random bank, clipped at zero."""
    cfg = state.config
    k = int(rng.integers(cfg.n_banks))
    amount = min(cfg.shock_factor * cfg.loan_size,
                 float(state.liquidity[k]), float(state.deposits[k]))
    state.liquidity[k] -= amount
    state.deposits[k] -= amount
    state.events.append(SimEvent(state.period, "shock", k, None, amount))
    return state


def step(state: SimState, rng: np.random.Generator) -> SimState:
    """Advance one period: repayments, then arrivals, then a possible shock."""
    state.period += 1
    state.adjacency.append([])
    settle_repayments(state, state.period)
    for _ in range(int(rng.poisson(state.config.arrival_rate))):
        grant_loan(state, rng)
    if rng.random() < state.config.shock_probability:
        apply_shock(state, rng)
    return state


@dataclass(frozen=True, eq=False)
class ReferenceOutput:
    config: SimConfig
    bank_ids: tuple[str, ...]
    assets: np.ndarray
    liabilities: np.ndarray
    leverage: np.ndarray
    panel: Panel
    adjacency: AdjacencyHistory
    events: tuple[SimEvent, ...]

    @property
    def mean_leverage(self) -> np.ndarray:
        return self.leverage.mean(axis=1)

    @property
    def mean_assets(self) -> np.ndarray:
        return self.assets.mean(axis=1)

    @property
    def assets_growth(self) -> float:
        return float(self.mean_assets[-1] / self.mean_assets[0])


def reference_run(config: SimConfig, rng: np.random.Generator | None = None) -> ReferenceOutput:
    """``step`` ``n_periods`` times, snapshotting every bank after each period."""
    config.validate()
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = init(config, rng)
    n, t_max = config.n_banks, config.n_periods

    assets = np.empty((t_max + 1, n))
    liab = np.empty((t_max + 1, n))
    equity = np.empty((t_max + 1, n))
    assets[0], liab[0], equity[0] = state.assets, state.liabilities, state.equity
    for t in range(1, t_max + 1):
        step(state, rng)
        assets[t], liab[t], equity[t] = state.assets, state.liabilities, state.equity
    leverage = liab / equity

    ids = tuple(bank_label(i, n) for i in range(n))
    panel = Panel(f"sim-seed{config.seed}", ids, _period_labels(t_max), assets, liab)
    adjacency = AdjacencyHistory(tuple(tuple(p) for p in state.adjacency))
    return ReferenceOutput(config, ids, assets, liab, leverage, panel,
                           adjacency, tuple(state.events))


def write_simulate_outputs(output: ReferenceOutput, out: Path) -> None:
    """The four ``simulate`` files, written row by row from the tuples."""
    config = output.config
    out.mkdir(parents=True, exist_ok=True)
    write_panel_csv(output.panel, out / "panel.csv")
    with open(out / "adjacency.csv", "w", encoding="utf-8") as fh:
        fh.write("period,lender_id,borrower_id,amount\n")
        for t, lender, borrower, amount in output.adjacency:
            fh.write(f"{t},{output.bank_ids[lender]},{output.bank_ids[borrower]},{_fmt(amount)}\n")
    with open(out / "events.csv", "w", encoding="utf-8") as fh:
        fh.write("period,event,bank_a,bank_b,amount\n")
        for ev in output.events:
            other = output.bank_ids[ev.counterparty] if ev.counterparty is not None else ""
            fh.write(f"{ev.period},{ev.kind},{output.bank_ids[ev.bank]},{other},{_fmt(ev.amount)}\n")
    tail = min(1000, config.n_periods)
    kinds = [e.kind for e in output.events]
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": config.seed, "n_banks": config.n_banks,
                   "n_periods": config.n_periods,
                   "mean_leverage_final": float(output.mean_leverage[-1]),
                   "mean_leverage_tail": float(output.mean_leverage[-(tail + 1):].mean()),
                   "assets_growth": output.assets_growth,
                   "n_loans": kinds.count("loan"),
                   "n_failed_loans": kinds.count("loan_failed"),
                   "n_shocks": kinds.count("shock"),
                   "n_interbank_links": output.adjacency.total_links},
                  fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
