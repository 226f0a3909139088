"""levnet benchmark: wall clock of each CLI subcommand, as a researcher waits for it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a levnet checkout; it runs ``python -m levnet`` from
the checkout's ``src`` and refuses to start (exit 2) without one. Every
workload is a closed loop of one client: a session of six commands run
one after another, each started when the previous one has exited, repeated
for ``--seconds`` (the last session may be partial). The workloads differ
in which commands carry the weight (see README.md). Every output is
checked, and each output file's SHA-256 must repeat on every session.

``--trace 0`` prints the end-to-end metrics: the mean of each command's
wall clock and of whole sessions, the median of fresh interpreter starts
that import ``levnet.cli`` (set-up), taken before the first session and
between sessions, and the largest peak RSS of any command. ``--trace 1``
alternates plain sessions with sessions whose commands run under
``trace_child.py`` and prints the per-layer metrics from the traced ones,
plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Per-run details
(every sample, output digests, a machine and version stamp) go to
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import trace_child
import wide_panel

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
BANKS = 80            # SimConfig default: the calibrated 80 x 5,000 model
PROBE_PERIODS = 500   # size of the commands a workload is not about
PROBE_REPEAT = 3      # probes are cheap and mostly interpreter start: sample them more
SETUP_PROBES = 8      # interpreter starts timed for setup_s before the first session
HARD_LIMIT_S = 170.0  # the whole run, set-up included, ends before this


@dataclass(frozen=True)
class Workload:
    """One session's sizes. A session runs every command; in plain runs a
    command at the probe size runs ``PROBE_REPEAT`` times."""

    sim_periods: int    # simulate --n-periods
    wide_input: bool    # ingest the generated reporting panel, not simulate's
    study_runs: int
    study_periods: int
    why: str


WORKLOADS = {
    "sim_roundtrip": Workload(
        5000, False, 10, 5000,
        "the paper's model path at 80 x 5,000: a 20.6 MB panel written once and "
        "parsed by each later command, then study --runs 10; CSV I/O and the sim "
        "step loop dominate"),
    "wide_reporting_panel": Workload(
        PROBE_PERIODS, True, 2, PROBE_PERIODS,
        "a 724-bank x 60-quarter reporting panel with births, deaths, gaps and "
        "invalid banks: 204,480 pairs and a small file, so the network layer dominates"),
}

COMMANDS = ("simulate_s", "ingest_s", "network_s", "curve_s",
            "curve_absolute_s", "study_s")
END_TO_END = {"setup_s": "s", **{c: "s" for c in COMMANDS},
              "workload_s": "s", "peak_rss_mb": "MiB"}
AVERAGE = {"setup_s": statistics.median, **{c: statistics.mean for c in COMMANDS},
           "workload_s": statistics.mean}

# per-layer metric -> (unit, better)
SELF_NAMES = {"sim.run": "sim.assemble_s"}  # run's own time is output assembly
COUNTERS = {  # taken by trace_child.py hooks, or ratios of them
    "sim.loans_granted": ("count", "higher"),
    "sim.loans_failed": ("count", "lower"),
    "sim.loan_success_ratio": ("ratio", "higher"),
    "sim.interbank_links": ("count", "lower"),
    "cli.write_panel_csv.rows": ("count", "lower"),
    "cli.write_panel_csv.bytes": ("B", "lower"),
    "cli.ingest_panel.rows": ("count", "lower"),
    "cli.ingest_panel.bytes": ("B", "lower"),
    "cli.ingest_panel.valid_bank_ratio": ("ratio", "higher"),
    "network.correlation_matrix.flops_computed": ("flop", "lower"),
    "network.correlation_matrix.bytes_computed": ("B", "lower"),
    "network.threshold_network.edges_built": ("count", "lower"),
    "network.cluster_curve.useful_edge_ratio": ("ratio", "higher"),
    "network.top_m_network.pairs": ("count", "lower"),
    "growth.replications": ("count", "higher"),
}
TRACE_METRICS = {
    "trace.workload_s": ("s", "lower"),
    "trace.untraced_workload_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_time_total_s": ("s", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    out = {}
    for span in trace_child.SPAN_NAMES:
        out[f"{span}_s"] = ("s", "lower")
        out[SELF_NAMES.get(span, f"{span}.self_s")] = ("s", "lower")
        out[f"{span}.calls"] = ("count", "lower")
    return {**out, **COUNTERS, **TRACE_METRICS}


# -- one session -------------------------------------------------------------


@dataclass
class Step:
    metric: str
    args: list[str]
    outputs: list[Path]
    check: Callable[[], list[str]]
    repeat: int = 1  # samples per plain session


def session(w: Workload, seed: int, wide_csv: Path, wide_expected: dict,
            out: Path) -> list[Step]:
    sim_dir, ing_dir, net_dir = (out / d for d in ("sim", "ingest", "network"))
    curve, curve_abs, study = (out / f for f in
                               ("curve.csv", "curve_absolute.csv", "study.csv"))
    source = wide_csv if w.wide_input else sim_dir / "panel.csv"
    clean = str(ing_dir / "panel.csv")
    if w.wide_input:
        nodes = wide_expected["census"]["n_complete"]
        ingest_check = partial(checks.ingest_planted, ing_dir, wide_expected)
    else:
        nodes = BANKS
        ingest_check = partial(checks.ingest_roundtrip, ing_dir, source, BANKS)

    def repeat(periods: int) -> int:
        return PROBE_REPEAT if periods == PROBE_PERIODS else 1

    return [
        Step("simulate_s", ["simulate", "--seed", str(seed), "--n-periods",
                            str(w.sim_periods), "--out-dir", str(sim_dir)],
             [sim_dir], partial(checks.simulate, sim_dir, BANKS, w.sim_periods),
             repeat(w.sim_periods)),
        Step("ingest_s", ["ingest", "--input", str(source), "--mode", "lenient",
                          "--out-dir", str(ing_dir)], [ing_dir], ingest_check),
        # --avg-degree, so that both workloads run top_m_network
        Step("network_s", ["network", "--input", clean, "--avg-degree", "2.5",
                           "--out-dir", str(net_dir)],
             [net_dir], partial(checks.network, net_dir, nodes, avg_degree=2.5)),
        Step("curve_s", ["curve", "--input", clean, "--out", str(curve)],
             [curve], partial(checks.curve, curve)),
        Step("curve_absolute_s", ["curve", "--mode", "absolute", "--input", clean,
                                  "--out", str(curve_abs)],
             [curve_abs], partial(checks.curve, curve_abs)),
        Step("study_s", ["study", "--seed", str(seed), "--runs", str(w.study_runs),
                         "--n-periods", str(w.study_periods), "--out", str(study)],
             [study], partial(checks.study, study, w.study_runs, BANKS),
             repeat(w.study_periods)),
    ]


def spawn(argv: list[str], env: dict, deadline: float, log: Path) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in KiB).

    ``os.wait4`` gives the child's own peak RSS; RUSAGE_CHILDREN would give
    the largest over every child so far. The child is killed at ``deadline``.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def digests(paths: list[Path], base: Path) -> dict[str, str]:
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*"))
                   if f.is_file())
    return {str(f.relative_to(base)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in files}


@dataclass
class SessionResult:
    walls: dict[str, list[float]]
    peak_rss_kib: int
    problems: list[str]
    attempted: int
    traces: list[dict]


def run_session(steps: list[Step], out: Path, env: dict, traced: bool, repeat: bool,
                seen: dict[str, str], deadline: float,
                fits: Callable[[Step], bool]) -> SessionResult:
    """Run the steps in order, each ``step.repeat`` times if ``repeat``,
    skipping every run that ``fits`` rejects.

    A skipped step's outputs stay from an earlier session, so later steps
    still find their inputs; a step's own outputs are removed before it
    runs, so a command that writes nothing cannot pass on stale files.
    """
    res = SessionResult({}, 0, [], 0, [])
    for k, step in enumerate(steps):
        for _ in range(step.repeat if repeat else 1):
            if not fits(step):
                break
            problems, wall = run_step(step, k, out, env, traced, seen, deadline, res)
            if problems:
                res.problems += [f"{step.args[0]} ({step.metric}): {p}" for p in problems]
                return res
            res.walls.setdefault(step.metric, []).append(wall)
    return res


def run_step(step: Step, k: int, out: Path, env: dict, traced: bool,
             seen: dict[str, str], deadline: float,
             res: SessionResult) -> tuple[list[str], float]:
    """Run one command and check its outputs: (problems, wall seconds).

    ``seen`` maps each output file to the SHA-256 of its first run; every
    later run of the command must reproduce it.
    """
    for path in step.outputs:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)
    summary = out / f"trace-{k}.json"
    prog = [str(HERE / "trace_child.py"), str(summary)] if traced else ["-m", "levnet"]
    log = out / f"log-{k}.txt"
    res.attempted += 1
    code, wall, rss = spawn([sys.executable, *prog, *step.args], env, deadline, log)
    res.peak_rss_kib = max(res.peak_rss_kib, rss)
    if code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        return [f"exit code {code}: {' | '.join(tail)}"], wall
    try:
        problems = step.check()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    problems += [f"{name} differs from its first run"
                 for name, h in digests(step.outputs, out).items()
                 if seen.setdefault(name, h) != h]
    if traced and not problems:
        with open(summary, encoding="utf-8") as fh:
            res.traces.append({**json.load(fh), "wall_s": wall})
    return problems, wall


# -- per-layer metrics from traced sessions -----------------------------------


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Sum one traced session's command summaries into per-layer metrics."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for t in traces:
        for name, vals in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, v in t["counters"].items():
            counters[key] = counters.get(key, 0) + v
    walls = [t["wall_s"] for t in traces]
    spans["cli.process"] = [len(traces), sum(walls),
                            sum(t["wall_s"] - t["top_level_s"] for t in traces)]
    m: dict[str, float] = {}
    for span in trace_child.SPAN_NAMES:
        calls, total, own = spans.get(span, (0, 0.0, 0.0))
        m[f"{span}_s"] = total
        m[SELF_NAMES.get(span, f"{span}.self_s")] = own
        m[f"{span}.calls"] = calls
    m["trace.self_time_total_s"] = sum(
        m[SELF_NAMES.get(s, f"{s}.self_s")] for s in trace_child.SPAN_NAMES)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    granted = counters.get("sim.loans_granted", 0)
    failed = counters.get("sim.loans_failed", 0)
    derived = {
        "sim.loan_success_ratio": ratio(granted, granted + failed),
        "cli.ingest_panel.valid_bank_ratio": ratio(
            counters.get("cli.ingest_panel.banks_valid", 0),
            counters.get("cli.ingest_panel.banks_read", 0)),
        # merges that change the partition over the edges built to find them
        "network.cluster_curve.useful_edge_ratio": ratio(
            counters.get("network.cluster_curve.merges", 0),
            counters.get("network.cluster_curve.edges_built", 0)),
    }
    for key in COUNTERS:
        m[key] = derived.get(key, counters.get(key, 0))
    return m


# -- the run -------------------------------------------------------------------


def checkout_env(state: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # compiled modules are cached once per checkout, as an installed package's are
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(state / "pycache")
    return env


def check_import(env: dict, work: Path, deadline: float) -> str | None:
    """One untimed interpreter start: it compiles the bytecode cache and
    confirms that levnet comes from this checkout."""
    log = work / "setup.txt"
    code, _, _ = spawn([sys.executable, "-c",
                        "import levnet.cli, sys; sys.stdout.write(levnet.cli.__file__)"],
                       env, deadline, log)
    where = log.read_text(errors="replace").strip()
    if code != 0 or Path(where).resolve() != (ROOT / "src/levnet/cli.py").resolve():
        return f"levnet.cli does not import from this checkout: {where[-300:]}"
    return None


def time_setup(env: dict, work: Path, deadline: float,
               probes: int) -> tuple[list[float], str | None]:
    """Wall clock of ``probes`` interpreter starts that ``import levnet.cli``."""
    walls = []
    for _ in range(probes):
        code, wall, _ = spawn([sys.executable, "-c", "import levnet.cli"], env, deadline,
                              work / "setup.txt")
        if code != 0:
            return walls, f"import levnet.cli exited {code}"
        walls.append(wall)
    return walls, None


def stamp() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "not a git checkout"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref.is_file():
            commit = ref.read_text().strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "commit": commit}


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    w = WORKLOADS[name]
    work = STATE / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = checkout_env(STATE)
        wide_csv = work / "wide_reporting_panel.csv"
        wide_expected = wide_panel.generate(seed, wide_csv) if w.wide_input else {}
        error = check_import(env, work, deadline)
        setup_walls = []
        if not error:
            setup_walls, error = time_setup(env, work, deadline, SETUP_PROBES)
        result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "stamp": stamp(), "setup_s": setup_walls, "sessions": [],
                  "problems": [error] if error else [], "hook_errors": [],
                  "attempted": 0, "failed": 0}
        if error:
            return result
        # Plain runs fill the window command by command; the last session may
        # be partial. Traced runs alternate whole plain and traced sessions,
        # because per-layer metrics need every command of a session.
        out = work / "session"  # one path: census.json records its input path
        out.mkdir()
        steps = session(w, seed, wide_csv, wide_expected, out)
        first = 2 if trace else 1
        est: dict[str, float] = {}
        last: dict[bool, float] = {}
        seen: dict[str, str] = {}
        filling = False

        def fits(step: Step) -> bool:
            return not filling or est[step.metric] <= seconds - (time.monotonic() - t0)

        t0 = time.monotonic()
        for i in itertools.count():
            traced = trace and i % 2 == 1
            if i >= first:
                need = last[traced] if trace else min(est.values())
                if time.monotonic() - t0 + need > seconds or time.monotonic() + need > deadline:
                    break
            filling = not trace and i >= first
            if not trace:
                # one more set-up sample per session spreads them over the window
                walls, error = time_setup(env, work, deadline, 1)
                result["setup_s"] += walls
                if error:
                    result["problems"].append(error)
                    break
            begin = time.monotonic()
            res = run_session(steps, out, env, traced, not trace, seen, deadline, fits)
            last[traced] = time.monotonic() - begin
            if not traced:
                est.update((m, v[-1]) for m, v in res.walls.items())
            result["attempted"] += res.attempted
            result["failed"] += bool(res.problems)
            result["problems"] += res.problems
            # a counter the tracer could not take, e.g. after an API change
            result["hook_errors"] = sorted({*result["hook_errors"],
                                            *(e for t in res.traces for e in t["hook_errors"])})
            result["sessions"].append({"traced": traced, "walls": res.walls,
                                       "peak_rss_kib": res.peak_rss_kib,
                                       "layers": layer_metrics(res.traces) if traced else None})
            if res.problems or not res.walls:
                break
        result["digests"] = seen
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(result: dict) -> dict[str, tuple[float, str, int]]:
    """metric -> (value, unit, sample count)."""
    def session_s(s: dict) -> float:
        """The session as a researcher runs it: each command once."""
        return sum(v[0] for v in s["walls"].values())

    plain = [s for s in result["sessions"] if not s["traced"]]
    whole = [s for s in plain if len(s["walls"]) == len(COMMANDS)]
    if not result["trace"]:
        samples = {"setup_s": result["setup_s"],
                   **{c: [x for s in plain for x in s["walls"].get(c, ())] for c in COMMANDS},
                   "workload_s": [session_s(s) for s in whole]}
        # A run holds only a handful of samples of each command, and on a
        # shared machine their mean spreads less from run to run than their
        # median (README.md, Stability). Set-up has many short samples with
        # stray slow ones, so it takes the median.
        m = {k: (AVERAGE[k](v), END_TO_END[k], len(v)) for k, v in samples.items()}
        m["peak_rss_mb"] = (max(s["peak_rss_kib"] for s in plain) / 1024,
                            END_TO_END["peak_rss_mb"], len(plain))
        return m
    traced = [s for s in result["sessions"] if s["traced"]]
    units = per_layer_metrics()
    m = {}
    for key in units:
        vals = [s["layers"][key] for s in traced if key in s["layers"]]
        if vals:
            m[key] = (statistics.median(vals), units[key][0], len(vals))
    traced_total = statistics.median(session_s(s) for s in traced)
    plain_total = statistics.median(session_s(s) for s in whole)
    m["trace.workload_s"] = (traced_total, "s", len(traced))
    m["trace.untraced_workload_s"] = (plain_total, "s", len(whole))
    m["trace.overhead_s"] = (traced_total - plain_total, "s", len(traced))
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "levnet" / "cli.py").is_file():
        print(f"error: {ROOT} is not a levnet checkout (no src/levnet/cli.py)", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result["setup_s"]:
        print(f"error: {result['problems'][0]}", file=sys.stderr)
        return 2
    kinds = {s["traced"] for s in result["sessions"]}
    complete = not result["problems"] and kinds == {False, bool(args.trace)}
    metrics = summarize(result) if complete else {}
    result["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in metrics.items()}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"# {tag}: {result['stamp']}")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    for error in result["hook_errors"]:
        print(f"# trace counter not taken: {error}")
    for path, digest in sorted((result.get("digests") or {}).items()):
        print(f"# sha256 {digest[:16]} {path}")
    for key, (value, unit, n) in metrics.items():
        how = ("median" if args.trace or key == "setup_s" else
               "largest" if key == "peak_rss_mb" else "mean")
        print(f"{key:48s} {value:14.6g} {unit:6s} {how} of {n}")
    print(f"# error_rate {result['failed']}/{result['attempted']} commands")
    print(json.dumps({"correct": complete, "attempted": max(1, result["attempted"]),
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
