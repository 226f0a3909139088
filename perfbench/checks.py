"""Output checks for each levnet subcommand the benchmark runs.

Every check takes the step's output location and what the workload
expects, and returns a list of problems; an empty list means the output is
correct. A command that exits non-zero or fails its check counts as failed.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def simulate(out: Path, n_banks: int, n_periods: int) -> list[str]:
    problems = []
    summary = _json(out / "summary.json")
    if (summary["n_banks"], summary["n_periods"]) != (n_banks, n_periods):
        problems.append(f"summary size {summary['n_banks']}x{summary['n_periods']}")
    for name in ("panel.csv", "adjacency.csv", "events.csv"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    return problems


def ingest_roundtrip(out: Path, source: Path, n_banks: int) -> list[str]:
    """Ingest of a complete, valid panel rewrites it byte for byte."""
    problems = []
    if (out / "panel.csv").read_bytes() != source.read_bytes():
        problems.append("panel.csv differs from its input")
    census = _json(out / "census.json")
    if census["census"]["n_complete"] != n_banks:
        problems.append(f"n_complete {census['census']['n_complete']} != {n_banks}")
    if census["validation"]["dropped"] or census["validation"]["gapped_banks"]:
        problems.append("banks dropped or gapped from a clean panel")
    return problems


def ingest_planted(out: Path, expected: dict) -> list[str]:
    """The census and validation report match what the generator planted."""
    problems = []
    got = _json(out / "census.json")
    report = got["validation"]
    if got["census"] != expected["census"]:
        problems.append(f"census {got['census']} != {expected['census']}")
    for key in ("n_rows", "n_banks_read", "n_banks_valid", "gapped_banks"):
        if report[key] != expected[key]:
            problems.append(f"{key} {report[key]} != {expected[key]}")
    dropped = sorted(d["bank_id"] for d in report["dropped"])
    if dropped != expected["dropped"]:
        problems.append(f"dropped {dropped} != {expected['dropped']}")
    if report["n_banks_complete"] != expected["census"]["n_complete"]:
        problems.append("n_banks_complete disagrees with the census")
    return problems


def network(out: Path, n_nodes: int, rho: float | None = None,
            avg_degree: float | None = None) -> list[str]:
    """Edges clear the threshold and components partition the nodes."""
    problems = []
    summary = _json(out / "summary.json")
    edges = _rows(out / "edges.csv")
    comps = _rows(out / "components.csv")
    threshold = rho if rho is not None else summary["threshold"]
    if summary["n"] != n_nodes or len(comps) != n_nodes:
        problems.append(f"{summary['n']} nodes, {len(comps)} component rows, want {n_nodes}")
    if summary["n_edges"] != len(edges):
        problems.append(f"summary says {summary['n_edges']} edges, file has {len(edges)}")
    if any(float(e["r"]) < threshold for e in edges):
        problems.append(f"edge below threshold {threshold}")
    if avg_degree is not None:
        target = int(avg_degree * n_nodes / 2.0 + 0.5)
        if summary["target_edges"] != target or len(edges) < target:
            problems.append(f"{len(edges)} edges for target {target}")
    members = Counter(c["component_id"] for c in comps)
    sizes = {c["component_id"]: int(c["component_size"]) for c in comps}
    if dict(members) != sizes or sum(sizes.values()) != n_nodes:
        problems.append("component sizes do not partition the nodes")
    return problems


def curve(path: Path, n_points: int = 101) -> list[str]:
    """Grid 0, 0.01, ..., 1 with fractions in (0, 1] that never increase."""
    rows = _rows(path)
    if len(rows) != n_points:
        return [f"{len(rows)} curve rows, want {n_points}"]
    problems = []
    rhos = [float(r["rho"]) for r in rows]
    fracs = [float(r["largest_fraction"]) for r in rows]
    if any(abs(r - k / (n_points - 1)) > 1e-9 for k, r in enumerate(rhos)):
        problems.append("rho grid is not 0, 0.01, ..., 1")
    if not all(0.0 < f <= 1.0 for f in fracs):
        problems.append("fraction outside (0, 1]")
    if any(b > a for a, b in zip(fracs, fracs[1:])):
        problems.append("fraction increases with rho")
    return problems


def study(path: Path, runs: int, n_banks: int) -> list[str]:
    """One row per bank and run, with exactly one pair1 and one pair2 per run."""
    rows = _rows(path)
    if len(rows) != runs * n_banks:
        return [f"{len(rows)} study rows, want {runs * n_banks}"]
    roles = Counter((r["run"], r["role"]) for r in rows)
    want = {"pair1": 1, "pair2": 1, "population": n_banks - 2}
    bad = [run for run in map(str, range(runs))
           if any(roles[(run, role)] != k for role, k in want.items())]
    return [f"runs {bad[:5]} lack exactly one pair1 and one pair2"] if bad else []
