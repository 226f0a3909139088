"""Shared fixtures: small synthetic panels shaped like the empirical systems."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import pytest

from levnet.balance_sheet import Panel
from levnet.network import CorrelationMatrix
from levnet.sim import period_date


@dataclass(frozen=True, eq=False)
class BankSeries:
    """One bank's observations, the per-bank form tests build panels from."""

    bank_id: str
    times: np.ndarray
    assets: np.ndarray
    liabilities: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def from_observations(bank_id: str,
                      observations: Iterable[tuple[int, float, float]]) -> BankSeries:
    """A bank series from (time, assets, liabilities) rows, sorted by time."""
    obs = sorted(observations)
    return BankSeries(bank_id, np.array([o[0] for o in obs], dtype=np.int64),
                      np.array([o[1] for o in obs], dtype=np.float64),
                      np.array([o[2] for o in obs], dtype=np.float64))


def panel_from_members(label: str, members: Iterable[BankSeries],
                       dates: Iterable[str] | None = None) -> Panel:
    """The panel of the given banks, one row per time in the union of their
    times, dated by ``dates`` (``period_date`` of each time by default); the
    panel checks every observation against the balance-sheet rules."""
    members = sorted(members, key=lambda m: m.bank_id)
    ids = [m.bank_id for m in members]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate bank ids in panel {label!r}")
    grid = np.unique(np.concatenate([m.times for m in members]))
    assets = np.full((len(grid), len(members)), np.nan)
    liab = np.full_like(assets, np.nan)
    for k, m in enumerate(members):
        rows = np.searchsorted(grid, m.times)
        assets[rows, k], liab[rows, k] = m.assets, m.liabilities
    dates = tuple(map(period_date, grid.tolist()) if dates is None else dates)
    return Panel(label, tuple(ids), dates, assets, liab)


def bank_series(panel: Panel) -> tuple[BankSeries, ...]:
    """One bank series per column of the panel, from its observed cells;
    a cell's time is its row."""
    seen = ~np.isnan(panel.assets)
    return tuple(BankSeries(bank, np.flatnonzero(rows), panel.assets[rows, k],
                            panel.liabilities[rows, k])
                 for k, (bank, rows) in enumerate(zip(panel.bank_ids, seen.T)))


def series_from_leverage(bank_id: str, times, leverage) -> BankSeries:
    """Bank series with the given leverage path (equity pinned at 1000)."""
    lev = np.asarray(leverage, dtype=np.float64)
    liabilities = 1000.0 * lev
    return BankSeries(bank_id, np.asarray(times, dtype=np.int64),
                      liabilities + 1000.0, liabilities)


def constant_series(bank_id: str, times, assets=200.0, liabilities=100.0) -> BankSeries:
    times = np.asarray(times, dtype=np.int64)
    return BankSeries(bank_id, times,
                      np.full(len(times), float(assets)),
                      np.full(len(times), float(liabilities)))


QUARTERS = tuple(f"{y}-{m:02d}-{d:02d}"
                 for y in range(2005, 2011)
                 for m, d in ((3, 31), (6, 30), (9, 30), (12, 31)))


@pytest.fixture(scope="session")
def argentina_panel() -> Panel:
    """81 banks over 24 quarters: 6 die early, 3 are born late, 75 complete."""
    grid = range(24)
    members = [constant_series(f"AR{i:02d}", grid, assets=200.0 + i) for i in range(75)]
    for k, last in enumerate((8, 10, 14, 17, 20, 22)):
        members.append(constant_series(f"DEAD{k}", range(0, last + 1), assets=500.0 + k))
    for k, first in enumerate((3, 6, 12)):
        members.append(constant_series(f"BORN{k}", range(first, 24), assets=600.0 + k))
    return panel_from_members("argentina-shaped", members, QUARTERS)


@pytest.fixture(scope="session")
def taiwan_panel() -> Panel:
    """30 banks, 25 dates; the per-date median path has overall median 16.4."""
    n_dates = 25
    ks = [0, 5, -3, 8, -7, 2, -11, 12, -1, 6, -9, 4, -12, 10, -5, 1, -8, 11,
          -2, 7, -10, 3, -6, 9, -4]  # permutation of -12..12, median 0
    medians = [16.4 + 0.05 * k for k in ks]
    offsets = list(range(-14, 0)) + [0, 0] + list(range(1, 15))
    members = []
    for b, off in enumerate(offsets):
        lev = [m + off for m in medians]
        members.append(series_from_leverage(f"TW{b:02d}", range(n_dates), lev))
    return panel_from_members("taiwan-shaped", members)


@pytest.fixture(scope="session")
def modular_panel() -> Panel:
    """75 banks whose signed network at rho = 0.8 has 41 isolated nodes.

    Four trend groups (14 + 8 + 6 + 6 banks, within-group r > 0.8) plus 41
    pure-noise banks whose correlations all stay below the threshold.
    """
    rng = np.random.default_rng(20210705)
    t = np.arange(40, dtype=np.float64)
    shapes = {
        "INC": (3.0 + 0.10 * t, 14),
        "DEC": (8.0 - 0.12 * t, 8),
        "CAP": (4.0 + 0.30 * t - 0.0075 * t * t, 6),
        "MIX": (6.0 - 0.20 * t + 0.0030 * t * t, 6),
    }
    members = []
    for tag, (base, count) in shapes.items():
        for b in range(count):
            scale = 0.8 + 0.4 * rng.random()
            lev = scale * base + 0.5 + 0.05 * rng.standard_normal(len(t))
            members.append(series_from_leverage(f"{tag}{b:02d}", range(len(t)), lev))
    for b in range(41):
        lev = 5.0 + 0.8 * rng.standard_normal(len(t))
        members.append(series_from_leverage(f"NSE{b:02d}", range(len(t)), np.clip(lev, 0.5, None)))
    return panel_from_members("modular", members)


SIX_BANK_IDS = ("A", "B", "C", "D", "E", "F")


@pytest.fixture()
def six_bank_matrix() -> CorrelationMatrix:
    """The worked six-bank example: three tight pairs and scattered negatives."""
    ids = SIX_BANK_IDS
    vals = np.full((6, 6), 0.05)
    pairs = {("A", "B"): 0.81, ("C", "D"): 0.84, ("E", "F"): 0.83,
             ("C", "E"): -0.35, ("C", "F"): -0.45, ("D", "E"): -0.65,
             ("D", "F"): -0.55, ("A", "C"): 0.10, ("A", "D"): -0.02,
             ("B", "E"): 0.12, ("B", "F"): -0.08}
    for (a, b), r in pairs.items():
        i, j = ids.index(a), ids.index(b)
        vals[i, j] = vals[j, i] = r
    np.fill_diagonal(vals, 1.0)
    return CorrelationMatrix(ids, vals)


def random_correlation_matrix(rng: np.random.Generator, n: int) -> CorrelationMatrix:
    """Symmetric random matrix in [-1, 1] with unit diagonal (not necessarily PSD)."""
    vals = rng.uniform(-1.0, 1.0, size=(n, n))
    vals = np.triu(vals, k=1)
    vals = vals + vals.T
    np.fill_diagonal(vals, 1.0)
    return CorrelationMatrix(tuple(f"N{i:03d}" for i in range(n)), vals)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no process is forked")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(mp):
    """A list that gains an item each time this process forks."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    mp.setattr(os, "fork", counted)
    return forks
