import math
import tracemalloc
from collections import deque
from itertools import compress
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levnet import network
from levnet.balance_sheet import EmptyPanelWarning, Panel, _leverage_matrix, filter_complete
from levnet.growth import NoDefinedPairsError, most_correlated_pair
from levnet.network import (
    _TINY,
    CorrelationMatrix,
    InsufficientPairsError,
    LeverageNetwork,
    _correlation,
    _merge,
    cluster_curve,
    components,
    leverage_correlation,
    pearson,
    threshold_network,
    top_m_network,
)

from conftest import (
    defined_pairs,
    pair_arrays,
    panel_from_members,
    random_correlation_matrix,
    series_from_leverage,
)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_nan(self, bad):
        x, y = [bad, 1.0, 2.0], [1.0, 2.0, 3.0]
        with np.errstate(invalid="ignore"):
            assert math.isnan(pearson(x, y)) and math.isnan(pearson(y, x))
            assert math.isnan(_correlation(("a", "b"), np.array([x, y])).entry(0, 1))

    def test_errors(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])

    @given(x=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=30),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(x=[0.0, 9.04e-162], seed=0)
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
    return series_from_leverage(bank_id, times, values)


def correlation_matrix(series):
    return leverage_correlation(panel_from_members("p", series))


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
        pairs = defined_pairs(m)
        assert m.n == 75
        assert len(pairs) == 75 * 74 // 2 == 2775
        sym_err = np.max(np.abs(m.values - m.values.T))
        assert sym_err == 0.0

    def test_matches_scalar_pearson(self):
        rng = np.random.default_rng(17)
        panel = panel_from_members("p", [lev(f"b{i}", range(12), rng.uniform(0.5, 9.0, 12))
                                         for i in range(6)])
        m = leverage_correlation(panel)
        rows = _leverage_matrix(panel)
        for i in range(6):
            for j in range(i + 1, 6):
                assert m.entry(i, j) == pytest.approx(pearson(rows[i], rows[j]), abs=1e-12)

    def test_grid_mismatch(self):
        # banks on shifted grids share no complete span: nothing to correlate
        a = lev("a", range(4), [1.0, 2.0, 3.0, 4.0])
        b = lev("b", range(1, 5), [1.0, 2.0, 3.0, 4.0])
        with pytest.warns(EmptyPanelWarning), pytest.raises(ValueError):
            correlation_matrix([a, b])

    def test_needs_two_banks(self):
        with pytest.raises(ValueError):
            correlation_matrix([lev("a", range(3), [1.0, 2.0, 3.0])])


@st.composite
def constant_and_walk_rows(draw):
    """Long constant rows at non-dyadic values mixed with random walks, in a
    random order; returns the (banks x dates) rows and which are constant."""
    n_dates = draw(st.sampled_from([2, 3, 24, 61, 500, 5001]))
    levels = draw(st.lists(st.integers(min_value=1, max_value=10 ** 6).map(lambda k: k / 1000)
                           | st.floats(min_value=0.05, max_value=50.0),
                           max_size=8))
    n_walks = draw(st.integers(min_value=0 if len(levels) >= 2 else 2 - len(levels),
                               max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    walks = 5.0 + np.cumsum(rng.normal(scale=0.1, size=(n_walks, n_dates)), axis=1)
    rows = np.vstack([np.repeat(np.array(levels, dtype=np.float64)[:, None], n_dates, axis=1),
                      walks])
    order = rng.permutation(len(rows))
    constant = np.arange(len(rows)) < len(levels)
    return np.ascontiguousarray(rows[order]), constant[order]


class TestConstantBanks:
    @settings(max_examples=100, deadline=None)
    @given(constant_and_walk_rows())
    def test_constant_rows_are_flagged_and_never_linked(self, case):
        X, constant = case
        ids = tuple(f"N{i:02d}" for i in range(len(X)))
        m = _correlation(ids, X)
        assert m.zero_variance == tuple(b for b, c in zip(ids, constant) if c)
        off = ~np.eye(len(ids), dtype=bool)
        undefined = np.isnan(m.values)
        assert (undefined[off] == (constant[:, None] | constant[None, :])[off]).all()
        assert (np.diag(m.values) == 1.0).all()
        for i, j, r in defined_pairs(m):
            assert r == pytest.approx(pearson(X[i], X[j]), abs=1e-12)
        for net in (threshold_network(m, -1.0), threshold_network(m, 0.0, "absolute")):
            assert not any(constant[i] or constant[j] for i, j, _ in net.edges)
            part = components(net)
            assert all(part.sizes[part.assignment[k]] == 1 for k in np.flatnonzero(constant))
        assert all(math.isnan(pearson(X[k], X[0 if k else 1])) for k in np.flatnonzero(constant))

    def test_constant_row_whose_centred_sum_is_not_zero(self):
        x = np.full(5001, 5.1)
        xc = x - x.mean()
        assert np.dot(xc, xc) != 0.0  # the case a sum-of-squares test alone misses
        walk = np.cumsum(np.random.default_rng(0).normal(size=5001))
        m = _correlation(("a", "b", "c"), np.vstack([x, walk, x + 1.0]))
        assert m.zero_variance == ("a", "c")
        assert math.isnan(m.entry(0, 2)) and math.isnan(pearson(x, walk))

    def test_row_differing_in_last_bits_has_variance(self):
        x = np.full(5001, 5.1)
        x[17] = np.nextafter(5.1, 6.0)
        walk = np.cumsum(np.random.default_rng(0).normal(size=5001))
        m = _correlation(("a", "b"), np.vstack([x, walk]))
        assert m.zero_variance == ()
        assert m.entry(0, 1) == pytest.approx(pearson(x, walk), abs=1e-12)

    def test_underflowing_product_keeps_the_pair_defined(self):
        x = [0.0, 9.04e-162]
        y = np.random.default_rng(0).normal(size=2)
        m = _correlation(("x", "y"), np.array([x, y]))
        assert m.zero_variance == ()
        assert m.entry(0, 1) == pearson(x, y) == pearson(y, x)
        # two points always correlate perfectly
        assert abs(m.entry(0, 1)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-20, 1e-9])
    def test_product_below_the_normal_range_keeps_its_bits(self, scale):
        # both sums of squares are normal floats, their product is 0 (1e-20)
        # or subnormal (1e-9): the coefficient is that of the rescaled rows
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(2, 6))
        m = _correlation(("x", "y"), np.array([x * 1e-150, y * scale]))
        assert m.entry(0, 1) == pytest.approx(pearson(x, y), abs=1e-12)
        assert pearson(x * 1e-150, y * scale) == pytest.approx(pearson(x, y), abs=1e-12)


def dense_correlation_oracle(bank_ids, X):
    """The dense kernel the blocked one replaced: the whole cross-product
    matrix mirrored by ``triu_indices``, one ``outer`` product of the sums of
    squares and one division; returns the values and the constant banks.
    The blocked kernel copies no cross product inside a block, so it holds
    numpy's product to be symmetric bit for bit: asserted here first."""
    flat = (X == X[:, :1]).all(axis=1)
    Xc = X - X.mean(axis=1, keepdims=True)
    sq = np.einsum("ij,ij->i", Xc, Xc)
    flat |= sq == 0.0
    cross = Xc @ Xc.T
    # int64 views: NaN rows compare equal to themselves only by their bits
    assert np.array_equal(cross.view(np.int64), cross.T.view(np.int64)), \
        "Xc @ Xc.T is not symmetric bit for bit: the kernel's blocks would be neither"
    iu = np.triu_indices(len(bank_ids), k=1)
    cross[(iu[1], iu[0])] = cross[iu]
    denom = np.outer(sq, sq)
    ii, jj = np.nonzero((denom < _TINY) | (denom == math.inf))
    np.sqrt(denom, out=denom)
    root = np.sqrt(sq)
    denom[ii, jj] = root[ii] * root[jj]
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = cross / denom
    np.clip(vals, -1.0, 1.0, out=vals)
    vals[flat, :] = math.nan
    vals[:, flat] = math.nan
    np.fill_diagonal(vals, 1.0)
    return vals, tuple(compress(bank_ids, flat))


def kernel_rows(seed, n, n_dates, n_constant=0, tiny_row=False, huge_rows=False, bad=()):
    """Random-walk (banks x dates) rows: ``n_constant`` constant rows, one row
    scaled by 1e-160 when ``tiny_row`` (its products with the others leave
    the normal range), two rows scaled by 1e100 when ``huge_rows`` (each
    sum of squares is finite, their product is not), and one random cell
    set to each value in ``bad``."""
    rng = np.random.default_rng(seed)
    X = np.cumsum(rng.normal(size=(n, n_dates)), axis=1)
    X[rng.choice(n, size=n_constant, replace=False)] = 2.5
    if tiny_row:
        X[rng.integers(n)] *= 1e-160
    if huge_rows:
        X[rng.choice(n, size=2, replace=False)] *= 1e100
    for value in bad:
        X[rng.integers(n), rng.integers(n_dates)] = value
    return X


@st.composite
def kernel_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=300))
    return kernel_rows(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)), n,
                       draw(st.integers(min_value=2, max_value=40)),
                       draw(st.integers(min_value=0, max_value=min(n, 3))),
                       draw(st.booleans()),
                       draw(st.booleans()),
                       draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]),
                                     max_size=3)))


class TestBlockedKernel:
    # _BLOCK_CELLS from one row per block, so blocks split mid-matrix, up to
    # the whole matrix in one block
    @settings(max_examples=80, deadline=None)
    @given(kernel_inputs(), st.sampled_from([1, 7, 300, 2 ** 12, 2 ** 16]))
    @example(kernel_rows(0, 50, 12, n_constant=2, tiny_row=True), 300)
    @example(kernel_rows(1, 50, 12, tiny_row=True, bad=[math.nan, math.inf]), 7)
    @example(kernel_rows(2, 300, 30, n_constant=3, tiny_row=True, bad=[-math.inf]), 2 ** 12)
    @example(kernel_rows(3, 40, 20, huge_rows=True), 7)
    def test_equals_dense_oracle_bit_for_bit(self, X, cells):
        ids = tuple(f"N{i:03d}" for i in range(len(X)))
        with np.errstate(all="ignore"), mock.patch.object(network, "_BLOCK_CELLS", cells):
            m = _correlation(ids, X)
            vals, zero_variance = dense_correlation_oracle(ids, X)
        assert m.zero_variance == zero_variance
        assert np.array_equal(m.values.view(np.int64), vals.view(np.int64))


class TestNetworkMemory:
    """Traced peak allocation of the network layer on a 400-bank x 60-date
    panel, in units of n x n doubles: the layer holds one such matrix. Each
    bound adds up the allocations it names, plus SLACK for numpy's own
    buffers and small temporaries, which may differ between numpy releases."""

    N_BANKS, N_DATES = 400, 60
    SLACK = 0.1
    MASK = 1 / 8  # an n x n boolean array

    @pytest.fixture(scope="class")
    def panel(self):
        rng = np.random.default_rng(2024)
        shape = (self.N_DATES, self.N_BANKS)
        assets = 100.0 + np.cumsum(rng.uniform(0.0, 1.0, size=shape), axis=0)
        return Panel("p", tuple(f"B{k:03d}" for k in range(self.N_BANKS)),
                     tuple(f"d{t:02d}" for t in range(self.N_DATES)),
                     assets, assets * rng.uniform(0.5, 0.95, size=shape))

    def peak(self, f):
        """Peak bytes traced while f runs, above those held before, in n x n doubles."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            f()
            return (tracemalloc.get_traced_memory()[1] - base) / (8 * self.N_BANKS ** 2)
        finally:
            tracemalloc.stop()

    def test_correlation_holds_one_matrix_and_one_block(self, panel):
        # the matrix, the (banks x dates) leverage rows built from the panel,
        # and one block of rows: its float denominators and three boolean masks
        rows = self.N_DATES / self.N_BANKS
        block = network._BLOCK_CELLS / self.N_BANKS ** 2
        bound = 1 + rows + block * (1 + 3 / 8) + self.SLACK
        assert self.peak(lambda: leverage_correlation(panel)) <= bound

    def test_top_m_holds_the_pairs_and_one_copy(self, panel):
        # the defined upper-triangle coefficients, their partitioned copy and
        # the masks that select them
        pairs = (self.N_BANKS - 1) / (2 * self.N_BANKS)
        matrix = leverage_correlation(panel)
        bound = 2 * pairs + 2 * self.MASK + self.SLACK
        assert self.peak(lambda: top_m_network(matrix, avg_degree=2.5)) <= bound

    def test_absolute_threshold_holds_only_masks(self, panel):
        # r >= rho, r <= -rho and the upper triangle of their union
        matrix = leverage_correlation(panel)
        bound = 3 * self.MASK + self.SLACK
        assert self.peak(lambda: threshold_network(matrix, 0.9, "absolute")) <= bound

    def test_absolute_curve_holds_no_float_matrix(self, panel):
        # rows of |r| and the forest's edges, all of length n
        matrix = leverage_correlation(panel)
        grid = [round(0.01 * k, 10) for k in range(101)]
        assert self.peak(lambda: cluster_curve(matrix, grid, "absolute")) <= self.SLACK


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

    @pytest.mark.parametrize("avg_degree", [-1.0, math.nan, math.inf])
    def test_avg_degree_must_be_finite_and_nonnegative(self, six_bank_matrix, avg_degree):
        with pytest.raises(ValueError, match="average degree must be finite and nonnegative"):
            top_m_network(six_bank_matrix, avg_degree=avg_degree)

    def test_all_pairs_equals_threshold_at_min(self):
        rng = np.random.default_rng(90)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            matrix = random_correlation_matrix(rng, n)
            full = top_m_network(matrix, m=n * (n - 1) // 2)
            lo = min(r for _, _, r in defined_pairs(matrix))
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


def tied_matrix(rng, n, n_constant, constant=()):
    """Symmetric matrix with coefficients on the 0.05 grid, so that pairs tie
    with each other and with grid points; ``n_constant`` random banks and the
    banks in ``constant`` are zero-variance (NaN rows and columns)."""
    vals = np.triu(np.round(rng.uniform(-1.0, 1.0, size=(n, n)) * 20.0) / 20.0, k=1)
    vals = vals + vals.T
    constant = [*rng.choice(n, size=n_constant, replace=False), *constant]
    vals[constant, :] = math.nan
    vals[:, constant] = math.nan
    np.fill_diagonal(vals, 1.0)
    return CorrelationMatrix(tuple(f"N{i:03d}" for i in range(n)), vals)


def curve_oracle(matrix, grid, mode):
    """Rebuild the network and its partition at every threshold."""
    return tuple((rho, components(threshold_network(matrix, rho, mode)).largest_fraction)
                 for rho in grid)


def sorted_pairs_curve_oracle(matrix, grid, mode):
    """Single linkage over every defined pair: one stable descending sort of
    the link strengths, one union-find pass, the largest cluster read off as
    the sweep passes each rho."""
    ii, jj, r = pair_arrays(matrix)
    strength = r if mode == "signed" else np.abs(r)
    order = np.argsort(-strength, kind="stable")
    ii, jj = ii[order], jj[order]
    # the pairs that clear each rho form a prefix of the ranking
    ends = np.searchsorted(-strength[order], [-rho for rho in grid], side="right").tolist()[::-1]
    parent, size, fractions = list(range(matrix.n)), [1] * matrix.n, []
    for done, end in zip([0] + ends, ends):
        _merge(parent, size, zip(ii[done:end].tolist(), jj[done:end].tolist()))
        fractions.append(max(size) / matrix.n)
    return tuple(zip(grid, fractions[::-1]))


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


@st.composite
def forest_matrices(draw):
    """Tied matrices of 2-40 banks. Constant banks may sit at index 0, where
    the spanning forest starts, at the last index, or cover every bank."""
    n = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    ends = draw(st.sets(st.sampled_from([0, n - 1])))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return tied_matrix(rng, n, 0, constant=range(n))
    return tied_matrix(rng, n, draw(st.integers(min_value=0, max_value=min(3, n))),
                       constant=ends)


def zero_signed_matrix(seed, n):
    """A tied matrix in which at least two pairs hold 0.0 and two hold -0.0."""
    rng = np.random.default_rng(seed)
    matrix = tied_matrix(rng, n, 0)
    vals = np.array(matrix.values)
    iu = np.triu_indices(n, k=1)
    picks = rng.choice(len(iu[0]), size=4, replace=False)
    for p, zero in zip(picks, (0.0, 0.0, -0.0, -0.0)):
        vals[iu[0][p], iu[1][p]] = vals[iu[1][p], iu[0][p]] = zero
    return CorrelationMatrix(matrix.bank_ids, vals)


def factor_model_matrix(n=300, n_dates=24, seed=7):
    """Correlation matrix of a seeded factor model of ``n`` banks: a market
    factor plus one of 12 group factors plus noise. Every tenth bank repeats
    the series before it, so that pair's coefficient is 1 up to rounding, and
    every fifteenth bank is constant, so the spanning forest has many trees."""
    rng = np.random.default_rng(seed)
    market = rng.normal(size=n_dates)
    groups = rng.normal(size=(12, n_dates))
    X = (rng.uniform(0.2, 1.0, size=(n, 1)) * market
         + rng.uniform(0.0, 1.5, size=(n, 1)) * groups[rng.integers(0, 12, size=n)]
         + rng.normal(size=(n, n_dates)))
    X[10::10] = X[9::10][:len(X[10::10])]
    X[::15] = 2.5
    return _correlation(tuple(f"N{i:03d}" for i in range(n)), np.ascontiguousarray(X))


class TestSpanningForestCurve:
    @settings(max_examples=120, deadline=None)
    @given(forest_matrices())
    @example(tied_matrix(np.random.default_rng(1), 12, 0, constant=[0]))
    @example(tied_matrix(np.random.default_rng(2), 12, 0, constant=[11]))
    @example(tied_matrix(np.random.default_rng(3), 7, 0, constant=range(7)))
    @example(tied_matrix(np.random.default_rng(4), 2, 0))
    @example(tied_matrix(np.random.default_rng(5), 2, 0, constant=[1]))
    def test_curve_equals_both_oracles(self, matrix):
        for mode in ("signed", "absolute"):
            for grid in (SIGNED_GRID, UNIT_GRID):
                points = cluster_curve(matrix, grid, mode).points
                assert points == sorted_pairs_curve_oracle(matrix, grid, mode)
                assert points == curve_oracle(matrix, grid, mode)

    @pytest.mark.parametrize("decimals", [None, 2], ids=["raw", "rounded"])
    def test_curve_equals_sorted_pairs_at_300_banks(self, decimals):
        matrix = factor_model_matrix()
        assert len(matrix.zero_variance) == 20
        if decimals is not None:
            # rounded coefficients tie with each other and with the grid, and
            # the 20 repeated series that are not constant tie at exactly 1
            matrix = CorrelationMatrix(matrix.bank_ids, np.round(matrix.values, decimals))
            assert np.count_nonzero(np.triu(matrix.values, k=1) == 1.0) >= 20
        grid = [round(-1.0 + 0.01 * k, 10) for k in range(201)]
        for mode in ("signed", "absolute"):
            points = cluster_curve(matrix, grid, mode).points
            assert points == sorted_pairs_curve_oracle(matrix, grid, mode)


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
    @given(tied_matrices, st.floats(min_value=-1.0, max_value=1.0))
    @example(zero_signed_matrix(11, 8), 0.0)
    @example(zero_signed_matrix(11, 8), -0.0)
    @example(zero_signed_matrix(11, 8), -0.5)
    def test_threshold_equals_mask_scan(self, matrix, rho):
        for mode in ("signed", "absolute"):
            for r in (*SIGNED_GRID, rho):
                net = threshold_network(matrix, r, mode)
                assert net.edges == threshold_oracle(matrix, r, mode)

    @settings(max_examples=40, deadline=None)
    @given(tied_matrices)
    def test_top_m_is_threshold_network_at_its_cut(self, matrix):
        ranked = sorted((r for _, _, r in defined_pairs(matrix)), reverse=True)
        for k in range(1, len(ranked) + 1):
            net = top_m_network(matrix, m=k)
            assert net.threshold == ranked[k - 1]
            assert net.target_edges == k and net.mode == "signed"
            assert net.edges == threshold_network(matrix, net.threshold).edges
        empty = top_m_network(matrix, m=0)
        assert empty.edges == () and math.isnan(empty.threshold)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=4, max_value=12))
    def test_top_m_cut_keeps_the_sign_of_zero_a_stable_sort_picks(self, seed, n):
        matrix = zero_signed_matrix(seed, n)
        r = pair_arrays(matrix)[2]
        assert {math.copysign(1.0, x) for x in r if x == 0.0} == {1.0, -1.0}
        ranked = r[np.argsort(-r, kind="stable")]
        for k in range(1, len(r) + 1):
            net = top_m_network(matrix, m=k)
            assert net.threshold == ranked[k - 1]
            assert math.copysign(1.0, net.threshold) == math.copysign(1.0, ranked[k - 1])

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
