import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levnet.balance_sheet import Panel, filter_complete, leverage_series
from levnet.growth import NoDefinedPairsError, most_correlated_pair
from levnet.network import (
    CorrelationMatrix,
    GridMismatchError,
    InsufficientPairsError,
    LeverageNetwork,
    cluster_curve,
    components,
    correlation_matrix,
    leverage_correlation,
    pearson,
    threshold_network,
    top_m_network,
)

from conftest import random_correlation_matrix, series_from_leverage


def pearson_oracle(x, y):
    """Direct covariance / stddev formula with plain Python arithmetic."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return math.nan
    return sxy / math.sqrt(sxx * syy)


def bfs_components_oracle(n, edges):
    """Flood fill; returns assignment with ids ordered by smallest member."""
    adj = [[] for _ in range(n)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    assignment = [-1] * n
    comp = 0
    for start in range(n):
        if assignment[start] >= 0:
            continue
        queue = deque([start])
        assignment[start] = comp
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if assignment[v] < 0:
                    assignment[v] = comp
                    queue.append(v)
        comp += 1
    return assignment


class TestPearson:
    def test_identical_series_is_exactly_one(self):
        x = [1.0, 4.0, 2.0, 8.0, 3.0]
        assert pearson(x, x) == 1.0

    def test_anti_linear_is_exactly_minus_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [10.0 - v for v in x]
        assert pearson(x, y) == -1.0

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            n = int(rng.integers(2, 61))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + rng.uniform(-1, 1) * x
            assert pearson(x, y) == pytest.approx(pearson_oracle(x.tolist(), y.tolist()),
                                                  abs=1e-12)

    def test_zero_variance_is_nan(self):
        assert math.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert math.isnan(pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))

    def test_errors(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=30),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_symmetry_exact(self, x, seed):
        y = np.random.default_rng(seed).normal(size=len(x)).tolist()
        assert pearson(x, y) == pearson(y, x) or (
            math.isnan(pearson(x, y)) and math.isnan(pearson(y, x)))

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base = pearson(x, y)
        for a, b in [(2.5, 1.0), (0.1, -40.0), (1e3, 3.3)]:
            assert pearson(a * x + b, y) == pytest.approx(base, abs=1e-12)
            assert pearson(-a * x + b, y) == pytest.approx(-base, abs=1e-12)


def lev(bank_id, times, values):
    return leverage_series(series_from_leverage(bank_id, times, values))


class TestCorrelationMatrix:
    def test_identical_series_all_ones(self):
        s = [lev(f"b{i}", range(5), [1.0, 3.0, 2.0, 5.0, 4.0]) for i in range(3)]
        m = correlation_matrix(s)
        assert np.array_equal(m.values, np.ones((3, 3)))

    def test_constant_series_flagged_and_nan(self):
        s = [lev("a", range(4), [1.0, 2.0, 3.0, 4.0]),
             lev("b", range(4), [7.0, 7.0, 7.0, 7.0]),
             lev("c", range(4), [4.0, 3.0, 2.0, 1.0])]
        m = correlation_matrix(s)
        assert m.zero_variance == ("b",)
        assert math.isnan(m.entry(0, 1)) and math.isnan(m.entry(1, 2))
        assert m.entry(1, 1) == 1.0  # diagonal pinned even for constant banks
        assert m.entry(0, 2) == -1.0

    def test_pair_count_75_banks(self, modular_panel):
        m = leverage_correlation(modular_panel)
        pairs = list(m.defined_pairs())
        assert m.n == 75
        assert len(pairs) == 75 * 74 // 2 == 2775
        sym_err = np.max(np.abs(m.values - m.values.T))
        assert sym_err == 0.0

    def test_matches_scalar_pearson(self):
        rng = np.random.default_rng(17)
        series = [lev(f"b{i}", range(12), rng.uniform(0.5, 9.0, 12)) for i in range(6)]
        m = correlation_matrix(series)
        for i in range(6):
            for j in range(i + 1, 6):
                assert m.entry(i, j) == pytest.approx(
                    pearson(series[i].values, series[j].values), abs=1e-12)

    def test_grid_mismatch(self):
        a = lev("a", range(4), [1.0, 2.0, 3.0, 4.0])
        b = lev("b", range(1, 5), [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(GridMismatchError):
            correlation_matrix([a, b])

    def test_needs_two_banks(self):
        with pytest.raises(ValueError):
            correlation_matrix([lev("a", range(3), [1.0, 2.0, 3.0])])


class TestThresholdNetwork:
    def test_rho_zero_all_positive_is_complete(self):
        m = CorrelationMatrix(("a", "b", "c"),
                              np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]]))
        net = threshold_network(m, 0.0)
        assert net.n_edges == 3

    def test_rho_above_max_is_empty(self):
        m = CorrelationMatrix(("a", "b"), np.array([[1.0, 0.6], [0.6, 1.0]]))
        assert threshold_network(m, 0.7).edges == ()

    def test_six_bank_example(self, six_bank_matrix):
        net = threshold_network(six_bank_matrix, 0.8)
        named = {(net.nodes[i], net.nodes[j]) for i, j, _ in net.edges}
        assert named == {("A", "B"), ("C", "D"), ("E", "F")}

    def test_absolute_mode_links_negatives(self, six_bank_matrix):
        net = threshold_network(six_bank_matrix, 0.6, mode="absolute")
        named = {(net.nodes[i], net.nodes[j]) for i, j, _ in net.edges}
        assert ("D", "E") in named

    def test_undefined_pairs_never_linked(self):
        vals = np.array([[1.0, math.nan], [math.nan, 1.0]])
        m = CorrelationMatrix(("a", "b"), vals)
        assert threshold_network(m, 0.0).edges == ()
        assert threshold_network(m, 0.0, mode="absolute").edges == ()

    def test_threshold_validated(self, six_bank_matrix):
        with pytest.raises(ValueError):
            threshold_network(six_bank_matrix, 1.5)


class TestTopM:
    def test_average_degree_rounding(self, modular_panel):
        m = leverage_correlation(modular_panel)
        net = top_m_network(m, avg_degree=2.5)
        assert net.target_edges == round(2.5 * 75 / 2 + 0.25)  # 93.75 -> 94
        assert net.target_edges == 94
        assert net.n_edges == 94  # distinct coefficients: no ties at the cut

    def test_single_edge_is_global_max(self, six_bank_matrix):
        net = top_m_network(six_bank_matrix, m=1)
        assert len(net.edges) == 1
        i, j, r = net.edges[0]
        assert (net.nodes[i], net.nodes[j], r) == ("C", "D", 0.84)
        assert net.threshold == 0.84

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            n = int(rng.integers(3, 25))
            matrix = random_correlation_matrix(rng, n)
            m = int(rng.integers(0, n * (n - 1) // 2 + 1))
            net = top_m_network(matrix, m=m)
            ranked = sorted(
                ((i, j, matrix.entry(i, j)) for i in range(n) for j in range(i + 1, n)),
                key=lambda p: -p[2])
            expected = set()
            if m:
                cut = ranked[m - 1][2]
                expected = {(i, j) for i, j, r in ranked if r >= cut}
            assert {(i, j) for i, j, _ in net.edges} == expected

    def test_ties_at_cut_all_included(self):
        vals = np.full((4, 4), 0.5)
        np.fill_diagonal(vals, 1.0)
        vals[0, 1] = vals[1, 0] = 0.9
        m = CorrelationMatrix(("a", "b", "c", "d"), vals)
        net = top_m_network(m, m=2)
        assert net.n_edges == 6  # all five 0.5 pairs tie with the second-ranked edge
        assert net.threshold == 0.5

    def test_insufficient_pairs(self):
        vals = np.array([[1.0, math.nan], [math.nan, 1.0]])
        with pytest.raises(InsufficientPairsError):
            top_m_network(CorrelationMatrix(("a", "b"), vals), m=1)

    def test_argument_validation(self, six_bank_matrix):
        with pytest.raises(ValueError):
            top_m_network(six_bank_matrix)
        with pytest.raises(ValueError):
            top_m_network(six_bank_matrix, m=1, avg_degree=2.0)

    def test_all_pairs_equals_threshold_at_min(self):
        rng = np.random.default_rng(90)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            matrix = random_correlation_matrix(rng, n)
            full = top_m_network(matrix, m=n * (n - 1) // 2)
            lo = min(r for _, _, r in matrix.defined_pairs())
            thresh = threshold_network(matrix, lo)
            assert {(i, j) for i, j, _ in full.edges} == {(i, j) for i, j, _ in thresh.edges}


class TestComponents:
    def test_no_edges_all_singletons(self):
        net = LeverageNetwork(tuple("abcde"), (), 0.9)
        part = components(net)
        assert part.sizes == (1, 1, 1, 1, 1)
        assert part.largest_fraction == pytest.approx(1 / 5)
        assert part.n_isolated == 5

    def test_modular_panel_isolates(self, modular_panel):
        m = leverage_correlation(modular_panel)
        part = components(threshold_network(m, 0.8))
        assert part.n == 75
        assert part.n_isolated == 41
        assert max(part.sizes) == 14

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(2, 120))
            density = rng.uniform(0.0, 3.0 / n)
            edges = tuple((i, j, 0.5) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < density)
            part = components(LeverageNetwork(tuple(map(str, range(n))), edges, 0.0))
            assert list(part.assignment) == bfs_components_oracle(n, edges)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_partition_is_valid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        edges = tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.1)
        part = components(LeverageNetwork(tuple(map(str, range(n))), edges, 0.0))
        assert len(part.assignment) == n
        assert sum(part.sizes) == n
        for c in part.assignment:
            assert 0 <= c < len(part.sizes)


class TestClusterCurve:
    def test_all_ones_matrix(self):
        m = CorrelationMatrix(("a", "b", "c"), np.ones((3, 3)))
        curve = cluster_curve(m, [0.0, 0.5, 1.0])
        assert [f for _, f in curve.points] == [1.0, 1.0, 1.0]

    def test_all_zeros_off_diagonal(self):
        vals = np.zeros((4, 4))
        np.fill_diagonal(vals, 1.0)
        m = CorrelationMatrix(tuple("abcd"), vals)
        curve = cluster_curve(m, [0.1, 0.5, 0.9])
        assert [f for _, f in curve.points] == [0.25, 0.25, 0.25]

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(13)
        grid = [round(0.02 * k, 10) for k in range(51)]
        for _ in range(20):
            m = random_correlation_matrix(rng, int(rng.integers(2, 40)))
            for mode in ("signed", "absolute"):
                fr = cluster_curve(m, grid, mode).fractions
                assert (np.diff(fr) <= 0).all()

    def test_edge_sets_nested(self):
        rng = np.random.default_rng(29)
        m = random_correlation_matrix(rng, 20)
        for mode in ("signed", "absolute"):
            lo = {(i, j) for i, j, _ in threshold_network(m, 0.2, mode).edges}
            hi = {(i, j) for i, j, _ in threshold_network(m, 0.7, mode).edges}
            assert hi <= lo

    def test_grid_must_increase(self, six_bank_matrix):
        with pytest.raises(ValueError):
            cluster_curve(six_bank_matrix, [0.2, 0.2, 0.3])

    def test_max_jump(self):
        vals = np.zeros((4, 4))
        np.fill_diagonal(vals, 1.0)
        vals[0, 1] = vals[1, 0] = 0.6
        vals[1, 2] = vals[2, 1] = 0.6
        vals[2, 3] = vals[3, 2] = 0.6
        m = CorrelationMatrix(tuple("abcd"), vals)
        curve = cluster_curve(m, [0.5, 0.7])
        a, b, size = curve.max_jump()
        assert (a, b) == (0.5, 0.7)
        assert size == pytest.approx(0.75)


def test_leverage_correlation_filters_then_correlates(modular_panel):
    m = leverage_correlation(modular_panel)
    assert m.bank_ids == filter_complete(modular_panel).bank_ids


# -- reference oracles for the single-sweep constructions -------------------

SIGNED_GRID = [round(-1.0 + 0.05 * k, 10) for k in range(41)]
UNIT_GRID = [round(0.01 * k, 10) for k in range(101)]


def tied_matrix(rng, n, n_constant):
    """Symmetric matrix with coefficients on the 0.05 grid, so that pairs tie
    with each other and with grid points; ``n_constant`` random banks are
    zero-variance (NaN rows and columns)."""
    vals = np.triu(np.round(rng.uniform(-1.0, 1.0, size=(n, n)) * 20.0) / 20.0, k=1)
    vals = vals + vals.T
    constant = rng.choice(n, size=n_constant, replace=False)
    vals[constant, :] = math.nan
    vals[:, constant] = math.nan
    np.fill_diagonal(vals, 1.0)
    return CorrelationMatrix(tuple(f"N{i:03d}" for i in range(n)), vals)


def curve_oracle(matrix, grid, mode):
    """Rebuild the network and its partition at every threshold."""
    return tuple((rho, components(threshold_network(matrix, rho, mode)).largest_fraction)
                 for rho in grid)


def threshold_oracle(matrix, rho, mode):
    """Dense link mask, upper triangle, row-major nonzero scan."""
    vals = matrix.values
    with np.errstate(invalid="ignore"):
        mask = (vals if mode == "signed" else np.abs(vals)) >= rho
    ii, jj = np.nonzero(np.triu(mask, k=1))
    return tuple((int(i), int(j), float(vals[i, j])) for i, j in zip(ii, jj))


def most_correlated_oracle(matrix):
    """Masked argmax over the strict upper triangle; None when nothing is defined."""
    vals = np.array(matrix.values)
    vals[np.tril_indices(matrix.n)] = -np.inf
    vals[np.isnan(vals)] = -np.inf
    flat = int(np.argmax(vals))  # row-major scan = lexicographic pair order
    if vals.flat[flat] == -np.inf:
        return None
    i, j = divmod(flat, matrix.n)
    return matrix.bank_ids[i], matrix.bank_ids[j], float(vals.flat[flat])


tied_matrices = st.builds(
    lambda seed, n, k: tied_matrix(np.random.default_rng(seed), n, min(k, n)),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=0, max_value=3))


class TestSingleSweepOracles:
    @settings(max_examples=60, deadline=None)
    @given(tied_matrices)
    def test_curve_equals_per_threshold_rebuild(self, matrix):
        for mode in ("signed", "absolute"):
            for grid in (SIGNED_GRID, UNIT_GRID):
                assert cluster_curve(matrix, grid, mode).points == curve_oracle(matrix, grid, mode)

    def test_curve_equals_rebuild_on_modular_panel(self, modular_panel):
        matrix = leverage_correlation(modular_panel)
        for mode in ("signed", "absolute"):
            assert (cluster_curve(matrix, UNIT_GRID, mode).points
                    == curve_oracle(matrix, UNIT_GRID, mode))

    @settings(max_examples=60, deadline=None)
    @given(tied_matrices)
    def test_threshold_equals_mask_scan(self, matrix):
        for mode in ("signed", "absolute"):
            for rho in SIGNED_GRID:
                net = threshold_network(matrix, rho, mode)
                assert net.edges == threshold_oracle(matrix, rho, mode)

    @settings(max_examples=40, deadline=None)
    @given(tied_matrices)
    def test_top_m_is_threshold_network_at_its_cut(self, matrix):
        ranked = sorted((r for _, _, r in matrix.defined_pairs()), reverse=True)
        for k in range(1, len(ranked) + 1):
            net = top_m_network(matrix, m=k)
            assert net.threshold == ranked[k - 1]
            assert net.target_edges == k and net.mode == "signed"
            assert net.edges == threshold_network(matrix, net.threshold).edges
        empty = top_m_network(matrix, m=0)
        assert empty.edges == () and math.isnan(empty.threshold)

    @settings(max_examples=80, deadline=None)
    @given(tied_matrices)
    def test_most_correlated_pair_equals_masked_argmax(self, matrix):
        expected = most_correlated_oracle(matrix)
        if expected is None:
            with pytest.raises(NoDefinedPairsError):
                most_correlated_pair(matrix)
        else:
            assert most_correlated_pair(matrix) == expected

    def test_curve_rejects_out_of_range_rho_and_unknown_mode(self, six_bank_matrix):
        for grid in ([0.5, 1.5], [-1.5, 0.0], [0.2, math.nan]):
            with pytest.raises(ValueError):
                cluster_curve(six_bank_matrix, grid)
        with pytest.raises(ValueError):
            cluster_curve(six_bank_matrix, [0.1, 0.5], mode="partial")
        with pytest.raises(ValueError):
            threshold_network(six_bank_matrix, 0.5, mode="partial")
