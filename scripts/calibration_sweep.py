"""Sweep simulator parameters against the acceptance targets.

For each candidate configuration and seed this reports
  - mean leverage averaged over the last 1,000 periods, and its LS slope,
  - assets growth factor (mean assets, final over initial),
  - cluster-curve shape, in signed mode as the acceptance criteria score it
    (``--mode absolute`` for |r|): the largest rho with fraction >= 0.8,
    the smallest rho with fraction <= 0.5, and where the biggest jump sits,
  - topology at rho = 0.8: largest-cluster fraction and isolated share,
  - whether the most-correlated pair beats the population medians.

``--full`` also sweeps a grid centred on the frozen defaults
(configs/default.cfg, mirrored by ``SimConfig()``).

Usage: python scripts/calibration_sweep.py [--seeds 4] [--full] [--mode signed|absolute]
"""

from __future__ import annotations

import argparse
import itertools
from dataclasses import replace

import numpy as np

from levnet.cli import _rho_grid
from levnet.growth import run_record
from levnet.network import cluster_curve, components, leverage_correlation, threshold_network
from levnet.sim import SimConfig, run

RHO_GRID = _rho_grid(0.0, 1.0, 0.01)


def curve_stats(curve):
    rho = curve.rhos
    fr = curve.fractions
    hi = rho[fr >= 0.8]
    lo = rho[fr <= 0.5]
    rho_hi = float(hi.max()) if hi.size else np.nan
    rho_lo = float(lo.min()) if lo.size else np.nan
    a, b, size = curve.max_jump()
    return rho_hi, rho_lo, (a, b), size


def evaluate(config: SimConfig, seeds: range, mode: str = "signed"):
    rows = []
    for seed in seeds:
        out = run(replace(config, seed=seed))
        tail = out.mean_leverage[-1001:]
        slope = np.polyfit(np.arange(tail.size), tail, 1)[0]
        matrix = leverage_correlation(out.panel)
        rho_hi, rho_lo, jump_at, jump = curve_stats(cluster_curve(matrix, RHO_GRID, mode))
        part = components(threshold_network(matrix, 0.8, mode))
        rec = run_record(out.panel, seed)
        pair = rec.pair_records()
        pair_ast = all(g.assets_growth > rec.median_assets_growth for g in pair)
        pair_lev = all(g.leverage_growth > rec.median_leverage_growth for g in pair)
        rows.append(dict(seed=seed, tail=float(tail.mean()), slope=float(slope),
                         growth=out.assets_growth, rho_hi=rho_hi, rho_lo=rho_lo,
                         jump_at=jump_at, jump=jump,
                         top_frac=part.largest_fraction,
                         iso_frac=part.n_isolated / part.n,
                         pair_ast=pair_ast, pair_lev=pair_lev))
    return rows


def summarize(tag: str, rows) -> None:
    tails = [r["tail"] for r in rows]
    slopes = [abs(r["slope"]) for r in rows]
    growths = [r["growth"] for r in rows]
    n = len(rows)
    c3 = sum(4 <= t <= 8 for t in tails) , sum(s < 5e-4 for s in slopes)
    c4 = sum(3 <= g <= 6 for g in growths)
    c5_band = sum((not np.isnan(r["rho_hi"])) and r["rho_hi"] >= 0.35
                  and (not np.isnan(r["rho_lo"])) and r["rho_lo"] <= 0.65
                  and r["rho_lo"] > r["rho_hi"] - 1e-12 for r in rows)
    c5_jump = sum(r["jump_at"][1] >= 0.3 and r["jump_at"][0] <= 0.7 for r in rows)
    c6 = sum(0.1 <= r["top_frac"] <= 0.6 and r["iso_frac"] >= 0.2 for r in rows)
    pair = sum(r["pair_ast"] for r in rows), sum(r["pair_lev"] for r in rows)
    print(f"{tag}: tail={np.mean(tails):5.2f} [{min(tails):4.2f},{max(tails):4.2f}] "
          f"|slope|max={max(slopes):.2e} growth={np.mean(growths):4.2f} "
          f"[{min(growths):4.2f},{max(growths):4.2f}] | "
          f"c3 {c3[0]}/{n},{c3[1]}/{n} c4 {c4}/{n} c5 band {c5_band}/{n} "
          f"jump {c5_jump}/{n} c6 {c6}/{n} pair {pair[0]}/{n},{pair[1]}/{n}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=4)
    ap.add_argument("--full", action="store_true", help="also sweep a grid around the defaults")
    ap.add_argument("--mode", default="signed", choices=("signed", "absolute"))
    args = ap.parse_args()
    seeds = range(args.seeds)

    base = SimConfig()
    summarize("defaults", evaluate(base, seeds, args.mode))
    if not args.full:
        return

    # each swept parameter at its frozen default and on either side of it
    for lam, loan, r_c, p_shock, k_dep in itertools.product(
            *((0.75 * v, v, 1.25 * v) for v in (base.arrival_rate, base.loan_size,
                                                base.r_corporate)),
            (0.75 * base.shock_probability, base.shock_probability),
            (base.deposit_bank_count, base.deposit_bank_count + 1)):
        cfg = replace(base, arrival_rate=lam, loan_size=loan, r_corporate=r_c,
                      shock_probability=p_shock, deposit_bank_count=k_dep)
        tag = f"lam={lam:.4g} l={loan:.0f} rc={r_c:.4g} p={p_shock:.4g} k={k_dep}"
        summarize(tag, evaluate(cfg, seeds, args.mode))


if __name__ == "__main__":
    main()
