"""Produce the plot-ready data behind the headline results for one config.

Writes, under --out-dir (default results/):
  mean_traces.csv       period, mean_assets, mean_leverage per seed
  curve_seed<k>.csv     rho, largest_fraction (signed mode, 0.01 grid)
  topology.csv          per seed: cluster stats of the rho = 0.8 network
  study.csv             40-replication most-correlated-pair growth table

Usage: python scripts/export_run_data.py [--config FILE] [--seeds 10]
       [--runs 40] [--out-dir results]
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

from levnet.cli import _rho_grid, read_sim_config
from levnet.growth import replication_study
from levnet.network import cluster_curve, components, leverage_correlation, threshold_network
from levnet.panel_io import _fmt, _write, write_curve_csv, write_study_csv
from levnet.sim import SimConfig, run


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", help="key = value config file (defaults otherwise)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--runs", type=int, default=40)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    config = read_sim_config(args.config) if args.config else SimConfig()
    out = Path(args.out_dir)

    grid = _rho_grid(0.0, 1.0, 0.01)
    traces = ["seed,period,mean_assets,mean_leverage\n"]
    topology = ["seed,n,n_edges,largest_fraction,n_isolated,n_components\n"]
    for seed in range(args.seeds):
        output = run(replace(config, seed=seed))
        traces += (f"{seed},{t},{_fmt(a)},{_fmt(l)}\n"
                   for t, (a, l) in enumerate(zip(output.mean_assets, output.mean_leverage)))
        matrix = leverage_correlation(output.panel)
        write_curve_csv(cluster_curve(matrix, grid), out / f"curve_seed{seed}.csv")
        net = threshold_network(matrix, 0.8)
        part = components(net)
        topology.append(f"{seed},{part.n},{net.n_edges},{_fmt(part.largest_fraction)},"
                        f"{part.n_isolated},{part.n_components}\n")
        print(f"seed {seed}: growth {output.assets_growth:.2f}, "
              f"final mean leverage {output.mean_leverage[-1]:.2f}, "
              f"largest cluster at 0.8: {part.largest_fraction:.2f}")
    _write(out / "mean_traces.csv", traces)
    _write(out / "topology.csv", topology)

    write_study_csv(replication_study(config, args.runs), out / "study.csv")
    print(f"wrote {args.seeds} curves, traces, topology and a {args.runs}-run study to {out}/")


if __name__ == "__main__":
    main()
