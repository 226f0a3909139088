"""Correlation matrices, threshold networks, and cluster decomposition.

Pairwise Pearson coefficients between banks' leverage series define an
undirected graph: two banks are linked when their coefficient clears a
threshold rho (``signed`` mode, r >= rho) or when its magnitude does
(``absolute`` mode, |r| >= rho). Clusters are connected components.
Sweeping rho yields the largest-cluster fraction curve by single linkage:
at every rho, the clusters of the pairs that clear it are those of the
maximum spanning forest's edges that clear it, so one union-find pass over
the at most n - 1 forest edges, sorted by descending strength, reads off
the largest cluster at each grid rho, equal to the threshold network's.
Top-M is the threshold network at the M-th largest coefficient, so ties
are kept.

Constant (zero-variance) series, every value equal to the first, have no
defined correlation; their matrix entries carry NaN, they are kept as nodes,
and they are never linked. A series that differs only in its last bits is
not constant and has a real variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress
from typing import Iterable, Literal, Sequence

import numpy as np

from .balance_sheet import Panel, _leverage_matrix, filter_complete

__all__ = [
    "ClusterCurve",
    "ComponentPartition",
    "CorrelationMatrix",
    "EdgeLimitError",
    "InsufficientPairsError",
    "LeverageNetwork",
    "LinkMode",
    "cluster_curve",
    "components",
    "leverage_correlation",
    "pearson",
    "threshold_network",
    "top_m_network",
]

LinkMode = Literal["signed", "absolute"]


class InsufficientPairsError(ValueError):
    """Fewer defined correlation pairs than the construction needs."""


class EdgeLimitError(ValueError):
    """More pairs clear the threshold than ``_MAX_EDGES``."""


# a network holds one Python tuple per edge, each far larger than the matrix
# cell it comes from: at most this many, counted before any is built
_MAX_EDGES = 1 << 22

# the smallest normal float: a product of sums of squares below it has lost bits
_TINY = float(np.finfo(np.float64).tiny)

# cells of the correlation matrix divided per block of rows: the block's
# temporaries stay near 0.5 MiB whatever the bank count
_BLOCK_CELLS = 2 ** 16


def pearson(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length series.

    Returns NaN (the undefined marker) when either series has zero
    variance: every value equals its first, or its sum of squares about
    the mean is 0, and when either series holds a NaN or an infinity. The
    result is clipped to [-1, 1].
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ValueError(f"need at least 2 points, got {len(x)}")
    if (x == x[0]).all() or (y == y[0]).all():
        return math.nan
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.dot(xc, xc))
    syy = float(np.dot(yc, yc))
    if sxx == 0.0 or syy == 0.0:
        return math.nan
    denom = sxx * syy
    denom = math.sqrt(denom) if _TINY <= denom < math.inf else math.sqrt(sxx) * math.sqrt(syy)
    r = float(np.dot(xc, yc)) / denom
    # np.clip keeps a NaN, as in _correlation; min and max would give -1.0
    return float(np.clip(r, -1.0, 1.0))


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Symmetric matrix of pairwise coefficients, NaN where undefined.

    The diagonal is exactly 1. ``zero_variance`` lists banks whose constant
    series make every pair involving them undefined.
    """

    bank_ids: tuple[str, ...]
    values: np.ndarray
    zero_variance: tuple[str, ...] = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        n = len(self.bank_ids)
        if vals.shape != (n, n):
            raise ValueError(f"matrix shape {vals.shape} does not match {n} banks")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "bank_ids", tuple(self.bank_ids))
        object.__setattr__(self, "zero_variance", tuple(self.zero_variance))

    @property
    def n(self) -> int:
        return len(self.bank_ids)

    def entry(self, i: int, j: int) -> float:
        return float(self.values[i, j])


def _check_mode(mode: LinkMode) -> None:
    if mode not in ("signed", "absolute"):
        raise ValueError(f"unknown link mode {mode!r}")


def _root_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sqrt(a_i * b_j) for every i and j, or sqrt(a_i) * sqrt(b_j) where the
    product is outside the normal range and so lost its bits."""
    denom = np.multiply.outer(a, b)
    ii, jj = np.nonzero((denom < _TINY) | (denom == math.inf))
    np.sqrt(denom, out=denom)
    denom[ii, jj] = np.sqrt(a[ii]) * np.sqrt(b[jj])
    return denom


def _correlation(bank_ids: tuple[str, ...], X: np.ndarray) -> CorrelationMatrix:
    """Pearson matrix of the rows of the C-contiguous (banks x dates) array X.

    The cross products are divided in place, a block of rows at a time, so
    no n x n temporary is held beside the matrix.
    """
    if len(bank_ids) < 2:
        raise ValueError(f"need at least 2 series, got {len(bank_ids)}")
    if X.shape[1] < 2:
        raise ValueError("grid too short for correlation (need >= 2 points)")

    # constant before centring: the mean of a constant row carries rounding,
    # so its centred sum of squares need not be 0
    flat = (X == X[:, :1]).all(axis=1)
    Xc = X - X.mean(axis=1, keepdims=True)
    sq = np.einsum("ij,ij->i", Xc, Xc)
    flat |= sq == 0.0
    vals = Xc @ Xc.T
    del Xc
    n = len(bank_ids)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        upper = vals[lo:hi, lo:]
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(upper, _root_products(sq[lo:hi], sq[lo:]), out=upper)
        np.clip(upper, -1.0, 1.0, out=upper)
        # `upper` holds the block's whole square, which stays symmetric to the bit: numpy's
        # Xc @ Xc.T is one syrk call that copies its upper triangle into the lower (without BLAS,
        # (i, j) and (j, i) sum alike), and _root_products' products commute. So only left of
        # the block is still undivided: copy it from the rows above
        vals[lo:hi, :lo] = vals[:lo, lo:hi].T
    vals[flat, :] = math.nan
    vals[:, flat] = math.nan
    np.fill_diagonal(vals, 1.0)
    return CorrelationMatrix(bank_ids, vals, tuple(compress(bank_ids, flat)))


def leverage_correlation(panel: Panel) -> CorrelationMatrix:
    """Correlation matrix of the leverage series of a complete-filtered panel."""
    complete = filter_complete(panel)
    return _correlation(complete.bank_ids, _leverage_matrix(complete))


@dataclass(frozen=True, eq=False)
class LeverageNetwork:
    """Thresholded undirected graph over banks.

    ``edges`` holds (i, j, r) index triples with i < j. ``threshold`` is the
    rho used, or the implied cut (the M-th largest coefficient) for top-M
    construction, in which case ``target_edges`` records the requested M.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]
    threshold: float
    mode: LinkMode = "signed"
    target_edges: int | None = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.n_edges / self.n if self.n else 0.0


def _check_threshold(rho: float) -> None:
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"threshold must lie in [-1, 1], got {rho}")


def _check_avg_degree(avg_degree: float) -> None:
    if not (math.isfinite(avg_degree) and avg_degree >= 0):
        raise ValueError(f"average degree must be finite and nonnegative, got {avg_degree}")


def threshold_network(matrix: CorrelationMatrix, rho: float,
                      mode: LinkMode = "signed") -> LeverageNetwork:
    """Link every defined pair whose coefficient clears rho (inclusive).
    Over ``_MAX_EDGES`` such pairs, raise EdgeLimitError before any edge is
    built."""
    _check_threshold(rho)
    _check_mode(mode)
    vals = matrix.values
    # NaN compares False, so an undefined pair is never linked; r <= -rho is
    # |r| >= rho for a negative r, with no |r| copy of the matrix
    keep = vals >= rho
    if mode == "absolute":
        keep |= vals <= -rho
    keep = np.triu(keep, k=1)
    if (kept := np.count_nonzero(keep)) > _MAX_EDGES:
        raise EdgeLimitError(f"{kept} pairs clear the threshold {rho}: the edge list is "
                             f"over the limit of {_MAX_EDGES} edges")
    ii, jj = np.nonzero(keep)  # row-major: pair order
    edges = tuple(zip(ii.tolist(), jj.tolist(), vals[ii, jj].tolist()))
    return LeverageNetwork(matrix.bank_ids, edges, float(rho), mode)


def top_m_network(matrix: CorrelationMatrix, m: int | None = None,
                  avg_degree: float | None = None) -> LeverageNetwork:
    """Link the M most correlated pairs (signed ordering).

    Pass either ``m`` or ``avg_degree``; an average degree k maps to
    M = round(k * n / 2), half away from zero. The result is the threshold
    network at the M-th largest coefficient, so every tie with that cut is
    included and the realized edge count can exceed M, up to
    ``threshold_network``'s edge limit.
    """
    if (m is None) == (avg_degree is None):
        raise ValueError("pass exactly one of m and avg_degree")
    if avg_degree is not None:
        _check_avg_degree(avg_degree)
        m = int(math.floor(avg_degree * matrix.n / 2.0 + 0.5))
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    # the defined upper-triangle coefficients, in pair order
    r = matrix.values[np.triu(~np.isnan(matrix.values), k=1)]
    if m > len(r):
        raise InsufficientPairsError(
            f"requested {m} edges but only {len(r)} defined pairs exist")
    if m == 0:
        return LeverageNetwork(matrix.bank_ids, (), math.nan, "signed", 0)
    cut = np.partition(r, len(r) - m)[len(r) - m]
    # 0.0 and -0.0 tie at the cut; keep the bits of the tie a stable
    # descending sort puts at rank m, the first in pair order after the
    # pairs above the cut
    ties = np.flatnonzero(r == cut)
    cut = r[ties[m - 1 - np.count_nonzero(r > cut)]]
    return replace(threshold_network(matrix, cut), target_edges=m)


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components of a network; isolated nodes are singletons.

    Component ids are 0-based, ordered by each component's smallest node
    index, so the partition is a pure function of the edge set.
    """

    assignment: tuple[int, ...]
    sizes: tuple[int, ...]
    largest_fraction: float

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def n_components(self) -> int:
        return len(self.sizes)

    @property
    def n_isolated(self) -> int:
        return sum(1 for s in self.sizes if s == 1)


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _merge(parent: list[int], size: list[int], pairs: Iterable[tuple[int, int]]) -> None:
    """Union-find: join the clusters of every pair in place. ``size`` is exact at
    roots and no entry exceeds its root's, so max(size) is the largest cluster."""
    for i, j in pairs:
        i, j = _find(parent, i), _find(parent, j)
        if i != j:
            if size[i] < size[j]:
                i, j = j, i
            parent[j] = i
            size[i] += size[j]


def components(network: LeverageNetwork) -> ComponentPartition:
    """Union-find decomposition of the network into clusters."""
    n = network.n
    parent, size = list(range(n)), [1] * n
    _merge(parent, size, ((i, j) for i, j, _ in network.edges))
    ids: dict[int, int] = {}
    assignment = tuple(ids.setdefault(_find(parent, a), len(ids)) for a in range(n))
    sizes = tuple(size[root] for root in ids)
    return ComponentPartition(assignment, sizes, max(sizes) / n)


@dataclass(frozen=True, eq=False)
class ClusterCurve:
    """Largest-cluster fraction as a function of the threshold rho."""

    points: tuple[tuple[float, float], ...]
    mode: LinkMode = "signed"

    @property
    def rhos(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    @property
    def fractions(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])

    def max_jump(self) -> tuple[float, float, float]:
        """Largest single-step drop: (rho_before, rho_after, drop size)."""
        fr = self.fractions
        rh = self.rhos
        if len(fr) < 2:
            raise ValueError("curve needs at least two points")
        drops = fr[:-1] - fr[1:]
        k = int(np.argmax(drops))
        return float(rh[k]), float(rh[k + 1]), float(drops[k])


def _spanning_forest(values: np.ndarray,
                     mode: LinkMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges (i, j) and weights of a maximum spanning forest of the link
    strengths (r, or |r| in absolute mode) of a dense symmetric coefficient
    matrix, by Prim's algorithm. A NaN pair is never linked, and the
    diagonal is not read."""
    n = len(values)
    best = np.full(n, -np.inf)  # the strongest link from the tree to each node
    source = np.zeros(n, dtype=np.intp)  # the tree node at the other end
    unseen = np.ones(n, dtype=bool)
    better = np.empty(n, dtype=bool)
    ii, jj, weights = [], [], []
    for _ in range(n):
        k = int(np.argmax(best))
        if best[k] == -np.inf:
            # no link leaves the tree: start a new one at the lowest unvisited node
            k = int(np.argmax(unseen))
        else:
            ii.append(source[k])
            jj.append(k)
            weights.append(best[k])
        unseen[k] = False
        best[k] = -np.inf
        row = np.abs(values[k]) if mode == "absolute" else values[k]
        # NaN compares False, so an undefined pair never becomes a link
        np.greater(row, best, out=better)
        better &= unseen
        np.putmask(source, better, k)
        np.copyto(best, row, where=better)
    return (np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp),
            np.array(weights, dtype=np.float64))


def cluster_curve(matrix: CorrelationMatrix, rho_grid: Iterable[float],
                  mode: LinkMode = "signed") -> ClusterCurve:
    """Largest-cluster fraction at each threshold of an increasing rho grid.

    Single linkage over a maximum spanning forest of the link strengths (r,
    or |r| in absolute mode): at every rho, the clusters of the forest edges
    that clear it are those of all pairs that clear it, so each fraction
    equals the largest cluster of ``threshold_network(matrix, rho, mode)``.
    """
    rhos = [float(r) for r in rho_grid]
    if any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise ValueError("rho grid must be strictly increasing")
    if not all(-1.0 <= rho <= 1.0 for rho in rhos):
        raise ValueError(f"thresholds must lie in [-1, 1], got [{rhos[0]}, {rhos[-1]}]")
    _check_mode(mode)
    ii, jj, weights = _spanning_forest(matrix.values, mode)
    order = np.argsort(-weights, kind="stable")
    ii, jj = ii[order], jj[order]
    # the edges that clear each rho form a prefix of the ranking
    ends = np.searchsorted(-weights[order], [-rho for rho in rhos], side="right").tolist()[::-1]
    parent, size, fractions = list(range(matrix.n)), [1] * matrix.n, []
    for done, end in zip([0] + ends, ends):
        _merge(parent, size, zip(ii[done:end].tolist(), jj[done:end].tolist()))
        fractions.append(max(size) / matrix.n)
    return ClusterCurve(tuple(zip(rhos, fractions[::-1])), mode)
