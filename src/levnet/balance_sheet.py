"""Balance-sheet panels and leverage computations.

A bank's record is its total assets and total liabilities sampled on an
integer time grid. Leverage is liabilities over equity (assets minus
liabilities, at book value), so it is unit-free and comparable across
countries and currencies. A panel collects many banks on a common grid as
two dense (dates x banks) matrices, assets and liabilities, with one column
per bank in bank-id order and NaN where a bank is not observed. Banks
appear and disappear, so only *complete* members (an observation at every
grid point) enter correlation analysis; filtering, the census and the
cross-sectional statistics are reductions over those columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Literal

import numpy as np

__all__ = [
    "BankSeries",
    "CensusReport",
    "DegenerateEquityError",
    "DomainError",
    "EmptyPanelWarning",
    "LeverageSeries",
    "Panel",
    "census",
    "central_leverage",
    "filter_complete",
    "leverage_of",
    "leverage_series",
]


class DomainError(ValueError):
    """Assets or liabilities outside the valid domain (A > 0, L >= 0)."""


class DegenerateEquityError(ValueError):
    """Liabilities at or above assets: equity is non-positive, leverage undefined."""

    def __init__(self, message: str, bank_id: str | None = None,
                 time_index: int | None = None):
        super().__init__(message)
        self.bank_id = bank_id
        self.time_index = time_index


class EmptyPanelWarning(UserWarning):
    """Completeness filtering removed every member of a panel."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class BankSeries:
    """One bank's (time, assets, liabilities) observations, validated on build.

    Times are strictly increasing integers; assets are positive and strictly
    exceed liabilities at every observation (equity stays positive).
    """

    bank_id: str
    times: np.ndarray
    assets: np.ndarray
    liabilities: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.int64)
        assets = np.asarray(self.assets, dtype=np.float64)
        liab = np.asarray(self.liabilities, dtype=np.float64)
        if not (times.ndim == assets.ndim == liab.ndim == 1):
            raise DomainError(f"{self.bank_id}: series must be one-dimensional")
        if not (len(times) == len(assets) == len(liab)):
            raise DomainError(f"{self.bank_id}: mismatched series lengths")
        if len(times) == 0:
            raise DomainError(f"{self.bank_id}: empty series")
        if np.any(np.diff(times) <= 0):
            raise DomainError(f"{self.bank_id}: time indices must be strictly increasing")
        for error in _faults((self.bank_id,), times, assets[:, None], liab[:, None]).values():
            raise error
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "assets", _readonly(assets))
        object.__setattr__(self, "liabilities", _readonly(liab))

    @classmethod
    def from_observations(cls, bank_id: str,
                          observations: Iterable[tuple[int, float, float]]) -> "BankSeries":
        obs = sorted(observations)
        times = [o[0] for o in obs]
        return cls(bank_id,
                   np.array(times, dtype=np.int64),
                   np.array([o[1] for o in obs], dtype=np.float64),
                   np.array([o[2] for o in obs], dtype=np.float64))

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class LeverageSeries:
    """A bank's leverage ratio on its observation grid."""

    bank_id: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(np.asarray(self.times, dtype=np.int64)))
        object.__setattr__(self, "values", _readonly(np.asarray(self.values, dtype=np.float64)))

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class Panel:
    """A labelled (dates x banks) balance-sheet table over a common time grid.

    ``assets`` and ``liabilities`` have shape (len(grid), len(bank_ids)):
    column k is bank ``bank_ids[k]``, columns are in bank-id order, and NaN
    marks a date on which a bank is not observed. ``grid_labels``
    optionally keeps the original date strings, one per grid point, so that
    a panel read from a file can be written back verbatim.
    """

    label: str
    bank_ids: tuple[str, ...]
    grid: np.ndarray
    assets: np.ndarray
    liabilities: np.ndarray
    grid_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "bank_ids", tuple(self.bank_ids))
        object.__setattr__(self, "grid", _readonly(np.asarray(self.grid, dtype=np.int64)))
        assets = _readonly(np.asarray(self.assets, dtype=np.float64))
        liab = _readonly(np.asarray(self.liabilities, dtype=np.float64))
        if not assets.shape == liab.shape == (len(self.grid), len(self.bank_ids)):
            raise ValueError(f"balance sheets must be {len(self.grid)} dates x "
                             f"{len(self.bank_ids)} banks, got {assets.shape} and {liab.shape}")
        errors = _faults(self.bank_ids, self.grid, assets, liab,
                         ~(np.isnan(assets) & np.isnan(liab)))
        if errors:
            raise errors[min(errors)]
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "liabilities", liab)
        if self.grid_labels is not None:
            labels = tuple(self.grid_labels)
            if len(labels) != len(self.grid):
                raise ValueError("grid_labels length must match grid length")
            object.__setattr__(self, "grid_labels", labels)

    @classmethod
    def from_members(cls, label: str, members: Iterable[BankSeries],
                     grid_labels: Iterable[str] | None = None) -> "Panel":
        members = sorted(members, key=lambda m: m.bank_id)
        ids = [m.bank_id for m in members]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate bank ids in panel {label!r}")
        if not members:
            raise ValueError(f"panel {label!r} has no members")
        grid = np.unique(np.concatenate([m.times for m in members]))
        assets = np.full((len(grid), len(members)), np.nan)
        liab = np.full_like(assets, np.nan)
        for k, m in enumerate(members):
            rows = np.searchsorted(grid, m.times)
            assets[rows, k], liab[rows, k] = m.assets, m.liabilities
        labels = tuple(grid_labels) if grid_labels is not None else None
        return cls(label, tuple(ids), grid, assets, liab, labels)

    @property
    def members(self) -> tuple[BankSeries, ...]:
        """One bank series per column, built on demand from the observed cells."""
        seen = ~np.isnan(self.assets)
        return tuple(BankSeries(bank, self.grid[rows], self.assets[rows, k],
                                self.liabilities[rows, k])
                     for k, (bank, rows) in enumerate(zip(self.bank_ids, seen.T)))

    def __len__(self) -> int:
        return len(self.bank_ids)


def _faults(bank_ids: tuple[str, ...], times: np.ndarray, assets: np.ndarray,
            liabilities: np.ndarray, seen: np.ndarray | bool = True) -> dict[int, DomainError]:
    """The balance-sheet rules, applied to the ``seen`` cells of (dates x banks) matrices.

    Returns the error of each column that breaks a rule, keyed by column. A
    column is checked for non-finite values, then for assets <= 0 or
    liabilities < 0, then for liabilities >= assets (non-positive equity);
    the first rule it breaks is reported, at the time of its first breach.
    """
    invalid = seen & ((assets <= 0) | (liabilities < 0))
    degenerate = seen & (liabilities >= assets)
    errors: dict[int, DomainError] = {}
    # later rules first, so that an earlier rule overwrites them
    for k in np.flatnonzero(degenerate.any(axis=0)).tolist():
        t = int(times[degenerate[:, k].argmax()])
        errors[k] = DegenerateEquityError(
            f"{bank_ids[k]}: liabilities >= assets at t={t} (non-positive equity)",
            bank_id=bank_ids[k], time_index=t)
    for k in np.flatnonzero(invalid.any(axis=0)).tolist():
        t = int(times[invalid[:, k].argmax()])
        errors[k] = DomainError(f"{bank_ids[k]}: invalid assets/liabilities at t={t}")
    non_finite = seen & ~(np.isfinite(assets) & np.isfinite(liabilities))
    for k in np.flatnonzero(non_finite.any(axis=0)).tolist():
        errors[k] = DomainError(f"{bank_ids[k]}: non-finite balance sheet values")
    return errors


def _leverage_matrix(panel: Panel) -> np.ndarray:
    """(banks x dates) leverage rows, C-contiguous, as stacking each bank's series gives."""
    return np.ascontiguousarray((panel.liabilities / (panel.assets - panel.liabilities)).T)


@dataclass(frozen=True)
class CensusReport:
    """Membership counts over a panel window.

    ``n_start``/``n_end`` count banks observed at the first/last grid point,
    ``n_birth`` banks whose first observation falls strictly inside the
    window, ``n_death`` banks whose last one does, and ``n_complete`` banks
    observed at every grid point.
    """

    n_start: int
    n_end: int
    n_birth: int
    n_death: int
    n_complete: int


def leverage_of(assets: float, liabilities: float) -> float:
    """Leverage ratio: liabilities / (assets - liabilities)."""
    error = _faults(("",), np.zeros(1), np.array([[assets]], dtype=np.float64),
                    np.array([[liabilities]], dtype=np.float64)).get(0)
    if isinstance(error, DegenerateEquityError):
        raise DegenerateEquityError(
            f"liabilities ({liabilities}) >= assets ({assets}): equity is not positive")
    if error is not None:
        raise DomainError(f"invalid balance sheet: assets={assets}, liabilities={liabilities}")
    return liabilities / (assets - liabilities)


def leverage_series(series: BankSeries) -> LeverageSeries:
    """Pointwise leverage of a bank series, preserving its time grid."""
    values = series.liabilities / (series.assets - series.liabilities)
    return LeverageSeries(series.bank_id, series.times, values)


def filter_complete(panel: Panel) -> Panel:
    """Keep only members with an observation at every grid point.

    The grid itself is unchanged. Warns (EmptyPanelWarning) when nothing
    survives. Idempotent.
    """
    keep = ~np.isnan(panel.assets).any(axis=0)
    if len(panel) and not keep.any():
        warnings.warn(f"panel {panel.label!r}: no complete members", EmptyPanelWarning)
    return Panel(panel.label, tuple(compress(panel.bank_ids, keep)), panel.grid,
                 panel.assets[:, keep], panel.liabilities[:, keep], panel.grid_labels)


def census(panel: Panel) -> CensusReport:
    """Count start/end populations, births, deaths, and complete members."""
    if not len(panel):
        raise ValueError("cannot take a census of an empty panel")
    seen = ~np.isnan(panel.assets)
    end = len(panel.grid) - 1
    first, last = seen.argmax(axis=0), end - seen[::-1].argmax(axis=0)
    return CensusReport(int(np.count_nonzero(first == 0)), int(np.count_nonzero(last == end)),
                        int(np.count_nonzero(first > 0)), int(np.count_nonzero(last < end)),
                        int(np.count_nonzero(seen.all(axis=0))))


def central_leverage(panel: Panel, statistic: Literal["median", "mean"] = "median",
                     ) -> list[tuple[int, float]]:
    """Per-grid-point median (or mean) leverage across complete members."""
    if statistic not in ("median", "mean"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if not len(panel):
        raise ValueError("cannot summarize an empty panel")
    complete = ~np.isnan(panel.assets).any(axis=0)
    if not complete.all():
        incomplete = list(compress(panel.bank_ids, ~complete))
        raise ValueError(f"panel has incomplete members (filter first): {incomplete[:5]}")
    # banks x dates, so that the mean sums bank by bank as stacking series does
    stack = _leverage_matrix(panel)
    agg = np.median(stack, axis=0) if statistic == "median" else np.mean(stack, axis=0)
    return list(zip(panel.grid.tolist(), agg.tolist()))
