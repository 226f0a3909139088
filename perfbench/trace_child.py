"""Run one levnet subcommand with a span around each layer's public functions.

Usage: python perfbench/trace_child.py SUMMARY.json LEVNET-ARGS...

Each wrapper is installed at the name its caller looks up. ``cli`` binds
``run`` and ``replication_study``, and ``growth`` binds ``run`` and
``correlation_matrix``, by ``from`` import, so patching only the defining
module would record no span for those calls. A binding that no longer
exists is skipped, and its metrics read zero.

Spans (name, start, end, parent) are kept in flat arrays in memory. When
the command returns they are reduced to calls, inclusive time and self time
(span minus its children) per name, and written to SUMMARY.json with the
counters taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

perf = time.perf_counter

CURVE = "network.cluster_curve"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.hook_errors: dict[str, int] = {}
        self.curves_seen: set[int] = set()

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def record(self, name: str, start: float, end: float) -> None:
        self.name_ids.append(self.name_id(name))
        self.parents.append(self.stack[-1])
        self.starts.append(start)
        self.ends.append(end)

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, KeyError, IndexError,
                        ValueError, OSError) as exc:
                    key = f"{name}: {exc!r}"
                    self.hook_errors[key] = self.hook_errors.get(key, 0) + 1
            return result
        return traced

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def parent_name(self) -> str | None:
        """Name of the span enclosing the call a hook is looking at."""
        top = self.stack[-1]
        return self.names[self.name_ids[top]] if top >= 0 else None

    def summary(self) -> dict:
        import numpy as np

        names = np.frombuffer(self.name_ids, dtype=np.intc)
        parents = np.frombuffer(self.parents, dtype=np.intc)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {"spans": {n: [int(calls[i]), float(total[i]), float(self_s[i])]
                          for i, n in enumerate(self.names)},
                "top_level_s": float(dur[~nested].sum()),
                "counters": self.counters,
                "hook_errors": self.hook_errors}


# -- counters taken at the span boundaries ---------------------------------

def _file_rows_bytes(path) -> tuple[int, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    return data.count(b"\n") - 1, len(data)


def on_run(tr: Tracer, args, out) -> None:
    tr.add("sim.interbank_links", out.adjacency.total_links)


def on_grant_loan(tr: Tracer, args, rec) -> None:
    tr.add("sim.loans_failed" if rec is None else "sim.loans_granted", 1)


def on_write_panel(tr: Tracer, args, _) -> None:
    rows, size = _file_rows_bytes(args[1])
    tr.add("cli.write_panel_csv.rows", rows)
    tr.add("cli.write_panel_csv.bytes", size)


def on_ingest(tr: Tracer, args, result) -> None:
    report = result.report
    tr.add("cli.ingest_panel.rows", report["n_rows"])
    tr.add("cli.ingest_panel.bytes", os.path.getsize(args[0].path))
    tr.add("cli.ingest_panel.banks_read", report["n_banks_read"])
    tr.add("cli.ingest_panel.banks_valid", report["n_banks_valid"])


def on_correlation(tr: Tracer, args, _) -> None:
    n, t = len(args[0]), len(args[0][0])
    tr.add("network.correlation_matrix.flops_computed", 2 * n * n * t)
    tr.add("network.correlation_matrix.bytes_computed", 8 * n * t)


def on_threshold(tr: Tracer, args, net) -> None:
    tr.add("network.threshold_network.edges_built", net.n_edges)
    if tr.parent_name() == CURVE:
        tr.add("network.cluster_curve.edges_built", net.n_edges)


def on_components(tr: Tracer, args, part) -> None:
    # the first partition inside a curve is at its lowest rho, the densest graph
    top = tr.stack[-1]
    if tr.parent_name() == CURVE and top not in tr.curves_seen:
        tr.curves_seen.add(top)
        tr.add("network.cluster_curve.merges", part.n - part.n_components)


def on_top_m(tr: Tracer, args, _) -> None:
    import numpy as np

    vals = args[0].values
    upper = vals[np.triu_indices(vals.shape[0], k=1)]
    tr.add("network.top_m_network.pairs", int(np.count_nonzero(~np.isnan(upper))))


def on_study(tr: Tracer, args, study) -> None:
    tr.add("growth.replications", study.runs)


# span name -> (bindings that callers look up, as "module:attribute", and hook)
SITES = {
    "sim.run": (["sim:run", "cli:run", "growth:run"], on_run),
    "sim.step": (["sim:step"], None),
    "sim.grant_loan": (["sim:grant_loan"], on_grant_loan),
    "balance_sheet.Panel.from_members": (["balance_sheet:Panel.from_members"], None),
    "balance_sheet.BankSeries.from_observations":
        (["balance_sheet:BankSeries.from_observations"], None),
    "balance_sheet.filter_complete":
        (["balance_sheet:filter_complete", "network:filter_complete"], None),
    "balance_sheet.census": (["balance_sheet:census"], None),
    "balance_sheet.leverage_series":
        (["balance_sheet:leverage_series", "network:leverage_series"], None),
    "network.correlation_matrix":
        (["network:correlation_matrix", "growth:correlation_matrix"], on_correlation),
    "network.threshold_network": (["network:threshold_network"], on_threshold),
    "network.top_m_network": (["network:top_m_network"], on_top_m),
    "network.components": (["network:components"], on_components),
    "network.cluster_curve": (["network:cluster_curve"], None),
    "growth.replication_study":
        (["growth:replication_study", "cli:replication_study"], on_study),
    "growth.most_correlated_pair": (["growth:most_correlated_pair"], None),
    "growth.growth_record": (["growth:growth_record"], None),
    "cli.ingest_panel": (["cli:ingest_panel"], on_ingest),
    "cli.write_panel_csv": (["cli:write_panel_csv"], on_write_panel),
    **{f"cli.{cmd}": ([f"cli:{cmd}"], None)
       for cmd in ("cmd_ingest", "cmd_network", "cmd_curve", "cmd_simulate", "cmd_study")},
}
# every span a traced command can record; cli.process (the whole child
# process) is measured by the parent
SPAN_NAMES = ("cli.process", "cli.import", "cli.main", *SITES)


def install(tr: Tracer) -> None:
    for name, (bindings, hook) in SITES.items():
        for binding in bindings:
            module, _, path = binding.partition(":")
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(f"levnet.{module}")
            except ModuleNotFoundError:
                continue
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tr.wrap(name, raw.__func__, hook)))
            elif callable(raw):
                setattr(owner, attr, tr.wrap(name, raw, hook))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    start = perf()
    cli = importlib.import_module("levnet.cli")
    tr.record("cli.import", start, perf())
    install(tr)
    code = tr.wrap("cli.main", cli.main)(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tr.summary(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
