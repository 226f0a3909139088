"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Criteria 2-7 use the frozen defaults (configs/default.cfg) on the
fixed seed set 0..9; criterion 7 uses 40 replication streams off seed 0.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from levnet.balance_sheet import Panel, _leverage_matrix, census
from levnet.growth import replication_study
from levnet.network import (
    LeverageNetwork,
    cluster_curve,
    components,
    leverage_correlation,
    threshold_network,
    top_m_network,
)
from levnet.panel_io import IngestSpec, ingest_panel, write_panel_csv
from levnet.sim import SimConfig, run

from conftest import random_correlation_matrix
from sim_reference import init, step
from test_network import bfs_components_oracle, pearson_oracle
from levnet.network import pearson

SEEDS = tuple(range(10))
RHO_GRID = [round(0.01 * k, 10) for k in range(101)]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def default_runs():
    return {seed: run(replace(SimConfig(), seed=seed)) for seed in SEEDS}


@pytest.fixture(scope="module")
def default_matrices(default_runs):
    return {seed: leverage_correlation(out.panel) for seed, out in default_runs.items()}


@pytest.fixture(scope="module")
def default_curves(default_matrices):
    return {seed: cluster_curve(m, RHO_GRID) for seed, m in default_matrices.items()}


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 61))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + rng.uniform(-2, 2) * x
        got = pearson(x, y)
        want = pearson_oracle(x.tolist(), y.tolist())
        worst = max(worst, abs(got - want))
    assert worst <= 1e-12

    for _ in range(200):
        n = int(rng.integers(2, 201))
        density = rng.uniform(0.0, 4.0 / n)
        edges = tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < density)
        net = LeverageNetwork(tuple(map(str, range(n))), edges, 0.0)
        assert list(components(net).assignment) == bfs_components_oracle(n, edges)

    for _ in range(50):
        matrix = random_correlation_matrix(rng, int(rng.integers(3, 30)))
        m = int(rng.integers(0, matrix.n * (matrix.n - 1) // 2 + 1))
        net = top_m_network(matrix, m=m)
        ranked = sorted(((i, j, matrix.entry(i, j))
                         for i in range(matrix.n) for j in range(i + 1, matrix.n)),
                        key=lambda p: -p[2])
        expected = {(i, j) for i, j, r in ranked if m and r >= ranked[m - 1][2]}
        assert {(i, j) for i, j, _ in net.edges} == expected

    elapsed = time.time() - t0
    report("criterion 1 (oracle equivalence)", elapsed < 10.0,
           f"pearson worst gap {worst:.2e}, components/top-M exact, {elapsed:.1f}s")


def test_criterion_2_simulation_invariants():
    config = SimConfig()  # N=80, 5000 periods, seed 0
    t0 = time.time()
    out1 = run(config)
    run_seconds = time.time() - t0
    out2 = run(config)
    identical = (np.array_equal(out1.panel.assets, out2.panel.assets)
                 and np.array_equal(out1.panel.liabilities, out2.panel.liabilities)
                 and out1.events == out2.events
                 and out1.adjacency == out2.adjacency)

    # the invariants are checked on the per-period reference engine's state,
    # which must agree with run's rows bit for bit
    rng = np.random.default_rng(config.seed)
    state = init(config, rng)
    worst_gap = 0.0
    nonneg = equity_ok = closure_ok = True
    same = np.array_equal(state.assets, out1.panel.assets[0])
    prev_equity = state.equity.copy()
    for t in range(1, config.n_periods + 1):
        step(state, rng)
        same &= (np.array_equal(state.assets, out1.panel.assets[t])
                 and np.array_equal(state.liabilities, out1.panel.liabilities[t])
                 and np.array_equal(state.liabilities / state.equity, out1.leverage[t]))
        rhs = state.liabilities + state.equity
        worst_gap = max(worst_gap, float(np.max(np.abs(state.assets - rhs) / np.abs(rhs))))
        for arr in (state.liquidity, state.deposits, state.corporate,
                    state.ib_claims, state.ib_debt):
            nonneg &= bool((arr >= 0.0).all())
        equity_ok &= bool((state.equity >= prev_equity).all())
        prev_equity = state.equity.copy()
        claims, debt = state.ib_claims.sum(), state.ib_debt.sum()
        closure_ok &= abs(claims - debt) <= 1e-9 * max(1.0, debt)

    ok = (worst_gap < 1e-9 and nonneg and equity_ok and closure_ok
          and identical and same and run_seconds < 5.0)
    report("criterion 2 (simulation invariants)", ok,
           f"identity gap {worst_gap:.2e}, nonneg {nonneg}, equity monotone {equity_ok}, "
           f"claims=debt {closure_ok}, bit-identical {identical}, "
           f"equal to the reference engine {same}, run {run_seconds:.2f}s")


def test_criterion_3_stationary_leverage(default_runs):
    tails, slopes = [], []
    for seed in SEEDS:
        trace = default_runs[seed].mean_leverage[-1001:]
        tails.append(float(trace.mean()))
        slopes.append(float(np.polyfit(np.arange(trace.size), trace, 1)[0]))
    in_band = all(4.0 <= t <= 8.0 for t in tails)
    flat = all(abs(s) < 5e-4 for s in slopes)
    report("criterion 3 (stationary leverage)", in_band and flat,
           f"tail means {min(tails):.2f}..{max(tails):.2f} in [4,8]: {in_band}; "
           f"max |slope| {max(abs(s) for s in slopes):.2e} < 5e-4: {flat}")


def test_criterion_4_assets_growth(default_runs):
    growths = [default_runs[seed].assets_growth for seed in SEEDS]
    ok = all(3.0 <= g <= 6.0 for g in growths)
    report("criterion 4 (assets growth)", ok,
           f"growth factors {min(growths):.2f}..{max(growths):.2f} all in [3,6]: {ok}")


def test_criterion_5_cluster_curve_discontinuity(default_curves):
    band_ok, jump_hits = [], 0
    for seed in SEEDS:
        curve = default_curves[seed]
        rhos, fr = curve.rhos, curve.fractions
        high = rhos[fr >= 0.8]
        low = rhos[fr <= 0.5]
        rho_hi = float(high.max()) if high.size else -1.0
        rho_lo = float(low.min()) if low.size else 2.0
        band_ok.append(rho_hi >= 0.35 and rho_lo <= 0.65 and rho_lo > rho_hi)
        lo_edge, hi_edge, _ = curve.max_jump()
        jump_hits += hi_edge >= 0.3 and lo_edge <= 0.7
    ok = all(band_ok) and jump_hits >= 7
    report("criterion 5 (cluster-curve discontinuity)", ok,
           f"band {sum(band_ok)}/10 (need 10), max jump inside [0.3,0.7] in "
           f"{jump_hits}/10 runs (need 7)")


def test_criterion_6_modular_topology(default_matrices):
    hits = 0
    details = []
    for seed in SEEDS:
        part = components(threshold_network(default_matrices[seed], 0.8))
        iso = part.n_isolated / part.n
        hits += 0.1 <= part.largest_fraction <= 0.6 and iso >= 0.2
        details.append(f"{part.largest_fraction:.2f}/{iso:.2f}")
    report("criterion 6 (modular topology at rho=0.8)", hits >= 7,
           f"largest/isolated fractions {' '.join(details)}; {hits}/10 runs in range (need 7)")


def test_criterion_7_pair_growth_study():
    study = replication_study(SimConfig(), 40)
    assets_hits = leverage_hits = 0
    for rec in study.run_records:
        a, b = rec.pair_records()
        assets_hits += (a.assets_growth > rec.median_assets_growth
                        and b.assets_growth > rec.median_assets_growth)
        leverage_hits += (a.leverage_growth > rec.median_leverage_growth
                          and b.leverage_growth > rec.median_leverage_growth)
    ok = assets_hits >= 24 and leverage_hits >= 24
    report("criterion 7 (pair growth over 40 replications)", ok,
           f"both above median assets growth in {assets_hits}/40, "
           f"leverage growth in {leverage_hits}/40 (need 24)")


def test_criterion_8_empirical_pipeline_fixtures(tmp_path, argentina_panel):
    rep = census(argentina_panel)
    census_ok = (rep.n_start, rep.n_end, rep.n_birth, rep.n_death, rep.n_complete) == \
        (81, 78, 3, 6, 75)

    # round-trip: simulated panel -> CSV -> ingest -> CSV, byte for byte
    out = run(SimConfig(n_banks=10, n_periods=100, seed=13))
    first = tmp_path / "sim_panel.csv"
    write_panel_csv(out.panel, first)
    back = ingest_panel(IngestSpec(str(first), mode="strict"))
    second = tmp_path / "reingested.csv"
    write_panel_csv(back.complete, second)
    round_trip_ok = first.read_bytes() == second.read_bytes()

    rng = np.random.default_rng(31)
    assets = rng.uniform(1.0, 1e9, (1, 200))
    liabilities = assets * rng.uniform(0.0, 0.99, (1, 200))
    c = rng.uniform(1e-6, 1e6, (1, 200))
    ids = tuple(f"b{k:03d}" for k in range(200))
    base = _leverage_matrix(Panel("base", ids, ("2005-03-31",), assets, liabilities))[:, 0].tolist()
    scaled = _leverage_matrix(Panel("scaled", ids, ("2005-03-31",), c * assets, c * liabilities))[:, 0]
    scale_ok = all(math.isclose(s, b, rel_tol=1e-12) for s, b in zip(scaled.tolist(), base))

    ok = census_ok and round_trip_ok and scale_ok
    report("criterion 8 (empirical pipeline fixtures)", ok,
           f"census (81,78,3,6,75): {census_ok}; ingest round-trip bitwise: "
           f"{round_trip_ok}; leverage scale invariance: {scale_ok}")


def test_criterion_9_curve_monotonicity():
    rng = np.random.default_rng(77)
    grid = [round(0.02 * k, 10) for k in range(51)]
    for _ in range(100):
        matrix = random_correlation_matrix(rng, int(rng.integers(2, 41)))
        mode = "signed" if rng.random() < 0.5 else "absolute"
        fractions = cluster_curve(matrix, grid, mode).fractions
        assert (np.diff(fractions) <= 0.0).all()
    report("criterion 9 (curve monotonicity)", True,
           "largest-cluster fraction nonincreasing on 100 random matrices, exactly")
