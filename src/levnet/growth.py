"""Growth of the most-correlated bank pair across simulation replications.

Each replication simulates the model, finds the pair of banks with the
highest leverage correlation, and compares their start-to-end leverage and
assets growth against the medians of the whole population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance_sheet import BankSeries, leverage_of
from .network import CorrelationMatrix, InsufficientPairsError, correlation_matrix, top_m_network
from .sim import SimConfig, SimOutput, run

__all__ = [
    "GrowthRecord",
    "NoDefinedPairsError",
    "ReplicationStudy",
    "RunRecord",
    "ZeroInitialLeverageError",
    "growth_record",
    "most_correlated_pair",
    "replication_study",
]


class NoDefinedPairsError(ValueError):
    """Every off-diagonal coefficient of the matrix is undefined."""


class ZeroInitialLeverageError(ValueError):
    """Leverage growth is undefined for a bank starting with zero debt."""


@dataclass(frozen=True)
class GrowthRecord:
    """Final-over-initial ratios for one bank."""

    bank_id: str
    leverage_growth: float
    assets_growth: float


@dataclass(frozen=True)
class RunRecord:
    """One replication: the top pair plus growth records for every bank."""

    run_index: int
    bank_a: str
    bank_b: str
    coefficient: float
    records: tuple[GrowthRecord, ...]
    median_leverage_growth: float
    median_assets_growth: float

    def pair_records(self) -> tuple[GrowthRecord, GrowthRecord]:
        by_id = {r.bank_id: r for r in self.records}
        return by_id[self.bank_a], by_id[self.bank_b]


@dataclass(frozen=True)
class ReplicationStudy:
    runs: int
    seed: int
    run_records: tuple[RunRecord, ...]


def most_correlated_pair(matrix: CorrelationMatrix) -> tuple[str, str, float]:
    """Bank pair with the largest defined coefficient; ties go to the
    lexicographically first (i, j) pair."""
    try:
        i, j, r = top_m_network(matrix, m=1).edges[0]
    except InsufficientPairsError as exc:
        raise NoDefinedPairsError("no defined off-diagonal coefficients") from exc
    return matrix.bank_ids[i], matrix.bank_ids[j], r


def growth_record(series: BankSeries) -> GrowthRecord:
    """Assets and leverage growth between the first and last observation."""
    return _growth(series.bank_id, series.assets, series.liabilities)


def _growth(bank_id: str, assets: np.ndarray, liabilities: np.ndarray) -> GrowthRecord:
    lev0 = leverage_of(float(assets[0]), float(liabilities[0]))
    lev1 = leverage_of(float(assets[-1]), float(liabilities[-1]))
    if lev0 == 0.0:
        raise ZeroInitialLeverageError(
            f"{bank_id}: initial leverage is zero, growth undefined")
    return GrowthRecord(bank_id, lev1 / lev0, float(assets[-1]) / float(assets[0]))


def _study_run(config: SimConfig, run_index: int) -> RunRecord:
    rng = np.random.default_rng([config.seed, run_index])
    out: SimOutput = run(config, rng=rng)
    matrix = correlation_matrix(out.leverage_series_set())
    a, b, r = most_correlated_pair(matrix)
    records = tuple(_growth(bank, out.assets[:, k], out.liabilities[:, k])
                    for k, bank in enumerate(out.bank_ids))
    med_lev = float(np.median([g.leverage_growth for g in records]))
    med_ast = float(np.median([g.assets_growth for g in records]))
    return RunRecord(run_index, a, b, r, records, med_lev, med_ast)


def replication_study(config: SimConfig, runs: int) -> ReplicationStudy:
    """Independent replications on streams default_rng([config.seed, r]).

    Run r's stream depends only on (seed, r), so the records for any subset
    of run indices are identical no matter how many runs execute.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    return ReplicationStudy(runs, config.seed,
                            tuple(_study_run(config, r) for r in range(runs)))
