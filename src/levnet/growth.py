"""Growth of the most-correlated bank pair across simulation replications.

Each replication simulates the model, finds the pair of banks with the
highest leverage correlation, and compares their start-to-end leverage and
assets growth against the medians of the whole population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance_sheet import Panel, _leverage
from .network import CorrelationMatrix, InsufficientPairsError, leverage_correlation, top_m_network
from .sim import SimConfig, SimOutput, run

__all__ = [
    "GrowthRecord",
    "NoDefinedPairsError",
    "ReplicationStudy",
    "RunRecord",
    "ZeroInitialLeverageError",
    "growth_records",
    "most_correlated_pair",
    "replication_study",
    "run_record",
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


def growth_records(panel: Panel) -> tuple[GrowthRecord, ...]:
    """Each bank's leverage and assets growth, last date over first."""
    assets = panel.assets[[0, -1]]
    lev = _leverage(assets, panel.liabilities[[0, -1]])
    zero = np.flatnonzero(lev[0] == 0.0)
    if zero.size:
        raise ZeroInitialLeverageError(
            f"{panel.bank_ids[zero[0]]}: initial leverage is zero, growth undefined")
    return tuple(map(GrowthRecord, panel.bank_ids,
                     (lev[1] / lev[0]).tolist(), (assets[1] / assets[0]).tolist()))


def run_record(panel: Panel, run_index: int) -> RunRecord:
    """The record of one replication from its panel: the most-correlated
    pair, every bank's growth and the population medians."""
    a, b, r = most_correlated_pair(leverage_correlation(panel))
    records = growth_records(panel)
    med_lev = float(np.median([g.leverage_growth for g in records]))
    med_ast = float(np.median([g.assets_growth for g in records]))
    return RunRecord(run_index, a, b, r, records, med_lev, med_ast)


def _study_run(config: SimConfig, run_index: int) -> RunRecord:
    out: SimOutput = run(config, rng=np.random.default_rng([config.seed, run_index]))
    return run_record(out.panel, run_index)


def replication_study(config: SimConfig, runs: int) -> ReplicationStudy:
    """Independent replications on streams default_rng([config.seed, r]).

    Run r's stream depends only on (seed, r), so the records for any subset
    of run indices are identical no matter how many runs execute.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    return ReplicationStudy(runs, config.seed,
                            tuple(_study_run(config, r) for r in range(runs)))
