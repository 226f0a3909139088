"""Balance-sheet panels and leverage computations.

A bank's record is its total assets and total liabilities sampled on a
run of dates. Leverage is liabilities over equity (assets minus
liabilities, at book value), so it is unit-free and comparable across
countries and currencies. A panel collects many banks on common dates as
two dense (dates x banks) matrices, assets and liabilities, with one column
per bank in bank-id order and NaN where a bank is not observed. Banks
appear and disappear, so only *complete* members (an observation on every
date) enter correlation analysis; filtering, the census and the
cross-sectional statistics are reductions over those columns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import compress
from typing import Literal

import numpy as np

__all__ = [
    "CensusReport",
    "DegenerateEquityError",
    "DomainError",
    "EmptyPanelWarning",
    "Panel",
    "census",
    "central_leverage",
    "filter_complete",
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
class Panel:
    """A labelled (dates x banks) balance-sheet table.

    ``dates`` holds one date label per row, in order. ``assets`` and
    ``liabilities`` have shape (len(dates), len(bank_ids)): column k is bank
    ``bank_ids[k]``, columns are in bank-id order, and NaN marks a date on
    which a bank is not observed.
    """

    label: str
    bank_ids: tuple[str, ...]
    dates: tuple[str, ...]
    assets: np.ndarray
    liabilities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bank_ids", tuple(self.bank_ids))
        object.__setattr__(self, "dates", tuple(self.dates))
        assets = _readonly(np.asarray(self.assets, dtype=np.float64))
        liab = _readonly(np.asarray(self.liabilities, dtype=np.float64))
        if not assets.shape == liab.shape == (len(self.dates), len(self.bank_ids)):
            raise ValueError(f"balance sheets must be {len(self.dates)} dates x "
                             f"{len(self.bank_ids)} banks, got {assets.shape} and {liab.shape}")
        errors = _faults(self.bank_ids, assets, liab, ~(np.isnan(assets) & np.isnan(liab)))
        if errors:
            raise errors[min(errors)]
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "liabilities", liab)

    def __len__(self) -> int:
        return len(self.bank_ids)


def _faults(bank_ids: tuple[str, ...], assets: np.ndarray, liabilities: np.ndarray,
            seen: np.ndarray | bool = True) -> dict[int, DomainError]:
    """The balance-sheet rules, applied to the ``seen`` cells of (dates x banks) matrices.

    Returns the error of each column that breaks a rule, keyed by column. A
    column is checked for non-finite values, then for assets <= 0 or
    liabilities < 0, then for liabilities >= assets (non-positive equity);
    the first rule it breaks is reported, at the row of its first breach.
    """
    invalid = seen & ((assets <= 0) | (liabilities < 0))
    degenerate = seen & (liabilities >= assets)
    errors: dict[int, DomainError] = {}
    # later rules first, so that an earlier rule overwrites them
    for k in np.flatnonzero(degenerate.any(axis=0)).tolist():
        t = int(degenerate[:, k].argmax())
        errors[k] = DegenerateEquityError(
            f"{bank_ids[k]}: liabilities >= assets at t={t} (non-positive equity)",
            bank_id=bank_ids[k], time_index=t)
    for k in np.flatnonzero(invalid.any(axis=0)).tolist():
        t = int(invalid[:, k].argmax())
        errors[k] = DomainError(f"{bank_ids[k]}: invalid assets/liabilities at t={t}")
    non_finite = seen & ~(np.isfinite(assets) & np.isfinite(liabilities))
    for k in np.flatnonzero(non_finite.any(axis=0)).tolist():
        errors[k] = DomainError(f"{bank_ids[k]}: non-finite balance sheet values")
    return errors


def _leverage(assets: np.ndarray, liabilities: np.ndarray) -> np.ndarray:
    """Leverage, liabilities / (assets - liabilities), cell by cell: the one
    definition that correlations, growth records and central values use."""
    return liabilities / (assets - liabilities)


def _leverage_matrix(panel: Panel) -> np.ndarray:
    """The panel's leverage as C-contiguous (banks x dates) rows."""
    return np.ascontiguousarray(_leverage(panel.assets, panel.liabilities).T)


@dataclass(frozen=True)
class CensusReport:
    """Membership counts over a panel window.

    ``n_start``/``n_end`` count banks observed on the first/last date,
    ``n_birth`` banks whose first observation falls strictly inside the
    window, ``n_death`` banks whose last one does, and ``n_complete`` banks
    observed on every date.
    """

    n_start: int
    n_end: int
    n_birth: int
    n_death: int
    n_complete: int


def filter_complete(panel: Panel) -> Panel:
    """Keep only members with an observation on every date.

    The dates themselves are unchanged. Warns (EmptyPanelWarning) when nothing
    survives. A panel whose members are all complete is returned as is (it
    is immutable), so filtering is idempotent and free the second time.
    """
    keep = ~np.isnan(panel.assets).any(axis=0)
    if keep.all():
        return panel
    if len(panel) and not keep.any():
        warnings.warn(f"panel {panel.label!r}: no complete members", EmptyPanelWarning)
    return Panel(panel.label, tuple(compress(panel.bank_ids, keep)), panel.dates,
                 panel.assets[:, keep], panel.liabilities[:, keep])


def census(panel: Panel) -> CensusReport:
    """Count start/end populations, births, deaths, and complete members."""
    if not len(panel):
        raise ValueError("cannot take a census of an empty panel")
    seen = ~np.isnan(panel.assets)
    end = len(panel.dates) - 1
    first, last = seen.argmax(axis=0), end - seen[::-1].argmax(axis=0)
    return CensusReport(int(np.count_nonzero(first == 0)), int(np.count_nonzero(last == end)),
                        int(np.count_nonzero(first > 0)), int(np.count_nonzero(last < end)),
                        int(np.count_nonzero(seen.all(axis=0))))


def central_leverage(panel: Panel, statistic: Literal["median", "mean"] = "median",
                     ) -> list[tuple[str, float]]:
    """Per-date median (or mean) leverage across complete members, each
    paired with its date label."""
    if statistic not in ("median", "mean"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if not len(panel):
        raise ValueError("cannot summarize an empty panel")
    complete = ~np.isnan(panel.assets).any(axis=0)
    if not complete.all():
        incomplete = list(compress(panel.bank_ids, ~complete))
        raise ValueError(f"panel has incomplete members (filter first): {incomplete[:5]}")
    # banks x dates, so that the mean sums bank by bank
    stack = _leverage_matrix(panel)
    agg = np.median(stack, axis=0) if statistic == "median" else np.mean(stack, axis=0)
    return list(zip(panel.dates, agg.tolist()))
