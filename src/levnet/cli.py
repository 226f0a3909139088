"""Command-line front end: ingest panels, build networks, simulate, study.

Exchange format is CSV throughout (JSON for summaries); the panel reader
and every writer are in ``levnet.panel_io``. All outputs are byte-identical
for identical inputs, flags and seeds.

Exit codes: 0 success, 2 validation/config error, 3 I/O error,
4 computation error (out of memory included).
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import asdict, fields, replace
from itertools import chain
from pathlib import Path

from . import balance_sheet as bs
from . import network as net
from .growth import ReplicationStudy, replication_study
from .panel_io import (
    IngestError, IngestSpec, _csv_field, _fmt, _write, _write_json,
    ingest_panel, write_curve_csv, write_panel_csv, write_study_csv,
)
from .sim import EVENT_KINDS, ConfigError, SimConfig, SimOutput, run

__all__ = [
    "EXIT_COMPUTE", "EXIT_IO", "EXIT_OK", "EXIT_VALIDATION",
    "cmd_curve", "cmd_ingest", "cmd_network", "cmd_simulate", "cmd_study",
    "main", "read_sim_config",
]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_COMPUTE = 4


# -- simulation config file ----------------------------------------------

def _kind(name: str) -> type:
    """int, float or tuple: the type of the SimConfig field's default."""
    return type(getattr(SimConfig, name))


def read_sim_config(path: str | Path) -> SimConfig:
    """Read a flat ``key = value`` file over SimConfig fields; '#' comments."""
    names = {f.name for f in fields(SimConfig)}
    updates = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in names:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                updates[key] = _parse_config_value(key, value)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return SimConfig(**updates)


def _parse_config_value(key: str, value: str):
    kind = _kind(key)
    try:
        if kind is tuple:
            lo, hi = (float(p) for p in value.split(","))
            return (lo, hi)
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for f in fields(SimConfig):
        if f.name != "seed":
            p.add_argument("--" + f.name.replace("_", "-"),
                           metavar="LOW,HIGH" if _kind(f.name) is tuple else None)
    p.add_argument("--seed", type=int, required=True,
                   help="run seed (required; no wall-clock seeding)")


def _config_from_args(args: argparse.Namespace) -> SimConfig:
    config = read_sim_config(args.config) if args.config else SimConfig()
    # every field has a flag; --seed, the one that is required, is an int already
    config = replace(config, **{f.name: _parse_config_value(f.name, getattr(args, f.name))
                                for f in fields(SimConfig) if getattr(args, f.name) is not None})
    config.validate()
    return config


# -- commands --------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    spec = IngestSpec(args.input, args.bank_col, args.date_col,
                      args.assets_col, args.liabilities_col, args.mode)
    result = ingest_panel(spec)
    out = Path(args.out_dir)
    write_panel_csv(result.complete, out / "panel.csv")
    _write_json({"census": asdict(result.census), "validation": result.report},
                out / "census.json")
    print(f"ingested {result.report['n_banks_valid']} banks "
          f"({result.census.n_complete} complete) -> {out}")
    return EXIT_OK


# network and curve hold one n x n float64 matrix of the complete banks: at
# most this many cells, so 8,192 banks and 512 MiB
_MAX_MATRIX_CELLS = 1 << 26


def _load_matrix(path: str) -> net.CorrelationMatrix:
    result = ingest_panel(IngestSpec(path))
    n = len(result.complete)
    if n < 2:
        raise IngestError(f"{path}: need at least 2 complete banks")
    if n * n > _MAX_MATRIX_CELLS:
        raise IngestError(f"{path}: the correlation matrix of {n} complete banks, {n} * {n} "
                          f"cells, is over the limit of {_MAX_MATRIX_CELLS} cells")
    return net.leverage_correlation(result.complete)


def cmd_network(args: argparse.Namespace) -> int:
    # a flag error is reported before the input is read
    if args.avg_degree is None:
        net._check_threshold(args.rho)
    elif args.mode == "absolute":
        raise ValueError("--avg-degree ranks signed coefficients; use --rho with --mode absolute")
    else:
        net._check_avg_degree(args.avg_degree)
    matrix = _load_matrix(args.input)
    if args.avg_degree is not None:
        network = net.top_m_network(matrix, avg_degree=args.avg_degree)
    else:
        network = net.threshold_network(matrix, args.rho, args.mode)
    part = net.components(network)

    out = Path(args.out_dir)
    names = [_csv_field(bank) for bank in network.nodes]
    _write(out / "edges.csv", chain(["bank_a,bank_b,r\n"], (
        f"{names[i]},{names[j]},{_fmt(r)}\n" for i, j, r in network.edges)))
    _write(out / "components.csv", chain(["bank_id,component_id,component_size\n"], (
        f"{bank},{comp},{part.sizes[comp]}\n" for bank, comp in zip(names, part.assignment))))
    _write_json({"n": network.n, "n_edges": network.n_edges,
                 "target_edges": network.target_edges,
                 "avg_degree": network.avg_degree,
                 # top-M with M = 0 has no cut: null, as JSON has no NaN
                 "threshold": None if math.isnan(network.threshold) else network.threshold,
                 "mode": network.mode,
                 "largest_fraction": part.largest_fraction,
                 "n_components": part.n_components,
                 "n_isolated": part.n_isolated,
                 "zero_variance_banks": list(matrix.zero_variance)},
                out / "summary.json")
    print(f"network: {network.n} nodes, {network.n_edges} edges, "
          f"{part.n_isolated} isolated -> {out}")
    return EXIT_OK


# a curve's rho grid has at most this many steps, so 10^6 + 1 points
_MAX_RHO_STEPS = 10**6


def _rho_grid(rho_min: float, rho_max: float, rho_step: float) -> list[float]:
    if not (0.0 <= rho_min < rho_max <= 1.0):
        raise ValueError(f"need 0 <= rho_min < rho_max <= 1, got [{rho_min}, {rho_max}]")
    # the steps are counted before any point is built
    steps = (rho_max - rho_min) / rho_step if rho_step > 0 else math.inf
    if not (math.isfinite(rho_step) and steps <= _MAX_RHO_STEPS):
        raise ValueError(f"rho_step must be finite and positive, with at most "
                         f"{_MAX_RHO_STEPS} steps from rho_min to rho_max, got {rho_step}")
    # the count can fall just short of a whole number (0.3 / 0.1 is
    # 2.9999999999999996), so one more point is tried, within the cap; points
    # are rounded to 10 decimals
    points = (round(rho_min + k * rho_step, 10)
              for k in range(min(int(steps) + 2, _MAX_RHO_STEPS + 1)))
    grid = [min(rho, 1.0) for rho in points if rho <= rho_max + 1e-12]
    # a step below the rounding would give one rho row twice
    if len(set(grid)) < len(grid):
        raise ValueError(f"rho_step {rho_step} is below the 1e-10 rounding of the grid's "
                         f"points, so some points from {rho_min} to {rho_max} coincide")
    return grid


def cmd_curve(args: argparse.Namespace) -> int:
    # a flag error is reported before the input is read
    grid = _rho_grid(args.rho_min, args.rho_max, args.rho_step)
    curve = net.cluster_curve(_load_matrix(args.input), grid, args.mode)
    out = Path(args.out)
    write_curve_csv(curve, out)
    print(f"curve: {len(curve.points)} thresholds -> {out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    output: SimOutput = run(config)
    out = Path(args.out_dir)
    write_panel_csv(output.panel, out / "panel.csv")
    ids, links, events = output.panel.bank_ids, output.adjacency, output.events
    _write(out / "adjacency.csv", chain(["period,lender_id,borrower_id,amount\n"], (
        f"{t},{ids[a]},{ids[b]},{_fmt(x)}\n"
        for t, a, b, x in zip(links.period, links.lender, links.borrower, links.amount))))
    # a counterparty of -1 (none) picks the empty name at the end
    names = (*ids, "")
    _write(out / "events.csv", chain(["period,event,bank_a,bank_b,amount\n"], (
        f"{t},{EVENT_KINDS[k]},{ids[a]},{names[b]},{_fmt(x)}\n"
        for t, k, a, b, x in zip(events.period, events.kind, events.bank,
                                 events.counterparty, events.amount))))
    tail = min(1000, config.n_periods)
    _write_json({"seed": config.seed, "n_banks": config.n_banks,
                 "n_periods": config.n_periods,
                 "mean_leverage_final": float(output.mean_leverage[-1]),
                 "mean_leverage_tail": float(output.mean_leverage[-(tail + 1):].mean()),
                 "assets_growth": output.assets_growth,
                 "n_loans": events.count("loan"),
                 "n_failed_loans": events.count("loan_failed"),
                 "n_shocks": events.count("shock"),
                 "n_interbank_links": output.adjacency.total_links},
                out / "summary.json")
    print(f"simulated {config.n_banks} banks x {config.n_periods} periods "
          f"(seed {config.seed}) -> {out}")
    return EXIT_OK


def cmd_study(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    study: ReplicationStudy = replication_study(config, args.runs)
    out = Path(args.out)
    write_study_csv(study, out)
    print(f"study: {study.runs} replications -> {out}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    """An argparse type: a count of at least 1, or a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levnet",
        description="Bank leverage-dependence networks: ingest, simulate, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a balance-sheet CSV into a complete panel")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=("strict", "lenient"), default="lenient")
    p.add_argument("--bank-col", default="bank_id")
    p.add_argument("--date-col", default="date")
    p.add_argument("--assets-col", default="assets")
    p.add_argument("--liabilities-col", default="liabilities")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("network", help="leverage correlation network of a panel")
    p.add_argument("--input", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--rho", type=float)
    g.add_argument("--avg-degree", type=float)
    p.add_argument("--mode", choices=("signed", "absolute"), default="signed")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_network)

    p = sub.add_parser("curve", help="largest-cluster fraction vs threshold")
    p.add_argument("--input", required=True)
    p.add_argument("--rho-min", type=float, default=0.0)
    p.add_argument("--rho-max", type=float, default=1.0)
    p.add_argument("--rho-step", type=float, default=0.01)
    p.add_argument("--mode", choices=("signed", "absolute"), default="signed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("simulate", help="run the lending model and export its panel")
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("study", help="most-correlated-pair growth across replications")
    p.add_argument("--runs", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_study)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # run as the program: what start-up and the imports made lives to
        # exit, so once frozen no collection walks it, finalization's
        # included; a caller that passes argv keeps its collector as it was
        gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IngestError, net.EdgeLimitError, bs.DomainError,
            bs.DegenerateEquityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"computation error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
