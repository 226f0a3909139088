"""Discrete-time simulator of corporate and interbank lending.

N banks hold liquidity L, illiquid assets I, corporate loans C and
interbank claims B_L against deposits D, interbank debt B_D and equity E,
with L + I + C + B_L = D + B_D + E at all times. Each period, in order:

1. Loans that mature this period are repaid with interest. The originator
   collects loan_size * (1 + r_corporate) from the (always productive)
   corporate sector, repays any interbank borrowing at r_interbank, and
   books the net interest as equity; the lender books its interest too.
2. A Poisson(arrival_rate) number of corporate loan requests arrive. Each
   request picks a uniform-random originator, which puts up its entire
   liquidity and borrows any shortfall, all or nothing, from a single
   other bank (candidates tried in uniform random order); if nobody can
   cover the shortfall the request fails and nothing changes. A granted
   loan immediately returns to the system as household deposits:
   ``deposit_bank_count`` banks are drawn and receive shares of loan_size
   proportional to their fixed deposit weights.
3. With probability shock_probability one uniform-random bank loses up to
   shock_factor * loan_size of deposits and liquidity (clipped so neither
   goes negative; equity is untouched).

Equity only ever grows (interest income), deposits grow by loan_size per
granted loan, and every interbank loan is recorded as a dated directed
lender -> borrower link. All randomness flows through a single
``numpy.random.Generator``; a run is bit-reproducible from its seed, and
replication ``r`` of a study uses ``default_rng([seed, r])``.
"""

from __future__ import annotations

import datetime
import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .balance_sheet import Panel

__all__ = [
    "AdjacencyHistory",
    "ConfigError",
    "LoanRecord",
    "SimConfig",
    "SimEvent",
    "SimOutput",
    "SimState",
    "apply_shock",
    "grant_loan",
    "init",
    "run",
    "settle_repayments",
    "step",
]


class ConfigError(ValueError):
    """A simulation parameter violates its constraints."""


@dataclass(frozen=True)
class SimConfig:
    """Model parameters.

    Defaults are calibrated so that an 80-bank, 5,000-period run plateaus
    near mean leverage 6, grows mean assets by roughly 4.5x, and yields
    leverage networks whose largest cluster jumps from ~0.4 to >0.8 of the
    banks as the threshold crosses ~0.5 (see configs/default.cfg).
    """

    n_banks: int = 80
    n_periods: int = 5000
    assets_range: tuple[float, float] = (5_000.0, 50_000.0)
    equity_ratio_range: tuple[float, float] = (0.10, 0.35)
    liquidity_share: float = 0.20
    arrival_rate: float = 0.40
    loan_size: float = 12_000.0
    r_corporate: float = 0.037
    r_interbank: float = 0.02
    maturity: int = 150
    deposit_bank_count: int = 2
    shock_probability: float = 1.0
    shock_factor: float = 0.36
    seed: int = 0

    def validate(self) -> None:
        c = self
        if not isinstance(c.n_banks, int) or c.n_banks < 2:
            raise ConfigError(f"n_banks must be an integer >= 2, got {c.n_banks}")
        if not isinstance(c.n_periods, int) or c.n_periods < 0:
            raise ConfigError(f"n_periods must be a nonnegative integer, got {c.n_periods}")
        lo, hi = c.assets_range
        if not (0 < lo <= hi) or not np.isfinite([lo, hi]).all():
            raise ConfigError(f"assets_range must satisfy 0 < low <= high, got {c.assets_range}")
        rlo, rhi = c.equity_ratio_range
        if not (0 < rlo <= rhi < 1):
            raise ConfigError(
                f"equity_ratio_range must lie within (0, 1), got {c.equity_ratio_range}")
        if not 0 < c.liquidity_share < 1:
            raise ConfigError(f"liquidity_share must lie in (0, 1), got {c.liquidity_share}")
        if not (np.isfinite(c.arrival_rate) and c.arrival_rate >= 0):
            raise ConfigError(f"arrival_rate must be finite and >= 0, got {c.arrival_rate}")
        if not (np.isfinite(c.loan_size) and c.loan_size > 0):
            raise ConfigError(f"loan_size must be finite and > 0, got {c.loan_size}")
        if not (np.isfinite(c.r_corporate) and np.isfinite(c.r_interbank)):
            raise ConfigError("interest rates must be finite")
        if not c.r_corporate > c.r_interbank >= 0:
            raise ConfigError(
                f"need r_corporate > r_interbank >= 0, got {c.r_corporate} vs {c.r_interbank}")
        if not isinstance(c.maturity, int) or c.maturity < 1:
            raise ConfigError(f"maturity must be an integer >= 1, got {c.maturity}")
        if not isinstance(c.deposit_bank_count, int) or not 1 <= c.deposit_bank_count < c.n_banks:
            raise ConfigError(
                f"deposit_bank_count must satisfy 1 <= count < n_banks, got {c.deposit_bank_count}")
        if not 0 <= c.shock_probability <= 1:
            raise ConfigError(f"shock_probability must lie in [0, 1], got {c.shock_probability}")
        if not (np.isfinite(c.shock_factor) and c.shock_factor >= 0):
            raise ConfigError(f"shock_factor must be finite and >= 0, got {c.shock_factor}")
        if not isinstance(c.seed, int) or c.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {c.seed}")


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
    """Draw the initial banking system.

    Per bank: assets uniform over ``assets_range``; equity a uniform share
    of assets from ``equity_ratio_range``; liquidity a fixed
    ``liquidity_share`` of assets, the rest illiquid; deposits fill the
    liability side; and a fixed deposit weight uniform on (0, 1). No loans
    are outstanding yet. Draw order: assets, equity ratios, weights.
    """
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
    """Process one corporate loan request; returns the record, or None if it failed.

    The originator is uniform over all banks. If its liquidity falls short
    of loan_size it contributes everything it has and seeks the whole
    shortfall from a single other bank, trying candidates in uniform random
    order; when no candidate can cover the shortfall the request fails and
    the state is left untouched.
    """
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


def bank_label(i: int, n_banks: int) -> str:
    width = max(2, len(str(n_banks - 1)))
    return f"B{i:0{width}d}"


@dataclass(frozen=True, eq=False)
class SimOutput:
    """Everything a run produces.

    ``assets``, ``liabilities`` and ``leverage`` have shape
    (n_periods + 1, n_banks): row t is the state after period t, row 0 the
    initial system. The panel wraps the same ``assets`` and ``liabilities``
    arrays, which are therefore read-only. ``leverage`` is liabilities over
    the model's equity and feeds only the mean-leverage traces; networks and
    growth records take leverage from the panel, as they do for a file.
    """

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


def period_date(t: int) -> str:
    """ISO date label for period t (day t after 2000-01-01)."""
    return (datetime.date(2000, 1, 1) + datetime.timedelta(days=int(t))).isoformat()


@functools.cache
def _period_labels(n_periods: int) -> tuple[str, ...]:
    """``period_date`` of periods 0 to ``n_periods``, formatted once per length."""
    return tuple(period_date(t) for t in range(n_periods + 1))


def run(config: SimConfig, rng: np.random.Generator | None = None) -> SimOutput:
    """Simulate ``n_periods`` periods and assemble the output panel.

    With the default ``rng=None`` the stream is ``default_rng(config.seed)``,
    so identical configs give bit-identical outputs.
    """
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
    labels = _period_labels(t_max)
    panel = Panel(f"sim-seed{config.seed}", ids, np.arange(t_max + 1), assets, liab, labels)
    adjacency = AdjacencyHistory(tuple(tuple(p) for p in state.adjacency))
    return SimOutput(config, ids, assets, liab, leverage, panel,
                     adjacency, tuple(state.events))
