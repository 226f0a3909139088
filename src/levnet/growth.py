"""Growth of the most-correlated bank pair across simulation replications.

Each replication simulates the model, finds the pair of banks with the
highest leverage correlation, and compares their start-to-end leverage and
assets growth against the medians of the whole population.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from ._forked import forked, one_blas_thread, workers
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
    # a ratio past the float range is inf, as in Python float division
    with np.errstate(over="ignore"):
        lev_growth, assets_growth = lev[1] / lev[0], assets[1] / assets[0]
    return tuple(map(GrowthRecord, panel.bank_ids, lev_growth.tolist(), assets_growth.tolist()))


def _median(values: list[float]) -> float:
    """``np.median(values)`` to the bit, for a non-empty list, without the
    NaN check that imports ``numpy.ma`` at its first call: the same partition,
    the mean of the middle one or two values, or the last value if it is NaN.
    The partition, with numpy's own kth, picks the same elements down to a
    zero's sign and a NaN's payload, which ``np.sort`` does not always keep."""
    half, odd = divmod(len(values), 2)
    part = np.partition(values, [half, -1] if odd else [half - 1, half, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[half - 1 + odd:half + 1]))


def run_record(panel: Panel, run_index: int) -> RunRecord:
    """The record of one replication from its panel: the most-correlated
    pair, every bank's growth and the population medians."""
    a, b, r = most_correlated_pair(leverage_correlation(panel))
    records = growth_records(panel)
    med_lev = _median([g.leverage_growth for g in records])
    med_ast = _median([g.assets_growth for g in records])
    return RunRecord(run_index, a, b, r, records, med_lev, med_ast)


def _study_run(config: SimConfig, run_index: int) -> RunRecord:
    out: SimOutput = run(config, rng=np.random.default_rng([config.seed, run_index]))
    return run_record(out.panel, run_index)


def _study_runs(config: SimConfig, start: int, stop: int) -> tuple[RunRecord, ...]:
    return tuple(_study_run(config, r) for r in range(start, stop))


# a study is shared among forked workers only if each gets at least this many
# bank-periods to simulate. On the 80-bank model (2-vCPU x86-64) a run takes
# about 96 ns a bank-period. A worker adds 2-4 ms to fork, send back its
# records and be reaped, and in a fresh ``levnet study`` up to about 7 ms: 2
# runs at 80 x 1,000 take as long in two processes as in one, and 2 runs at
# 80 x 500 take 3 ms longer. 2^19 bank-periods, about 50 ms, keeps a worker's
# cost under a sixth of the time it takes over
_MIN_STUDY_WORK = 1 << 19


def replication_study(config: SimConfig, runs: int) -> ReplicationStudy:
    """Independent replications on streams default_rng([config.seed, r]).

    Run r's stream depends only on (seed, r), so the records for any subset
    of run indices are identical no matter how many runs execute. The runs
    are split into contiguous blocks, one per process that ``workers``
    allows, and run by ``forked`` with OpenBLAS held to one thread; they run
    in this process alone where that thread count cannot be set. Records are
    gathered in run order, and a failing run raises here, the first in run
    order, as it does in one process.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    k = min(runs, workers(runs * config.n_banks * config.n_periods, _MIN_STUDY_WORK))
    capped = one_blas_thread() if k > 1 else None
    if capped is None:
        return ReplicationStudy(runs, config.seed, _study_runs(config, 0, runs))
    with capped:
        blocks = forked([partial(_study_runs, config, runs * b // k, runs * (b + 1) // k)
                         for b in range(k)])
    return ReplicationStudy(runs, config.seed, tuple(chain.from_iterable(blocks)))
