"""Command-line front end: ingest panels, build networks, simulate, study.

Exchange format is CSV throughout (JSON for summaries). Floats are written
with ``repr``, so every value round-trips bit-exactly through parse and
re-serialize, and all outputs are byte-identical for identical inputs,
flags and seeds.

Exit codes: 0 success, 2 validation/config error, 3 I/O error,
4 computation error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import sys
from array import array
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain, compress, repeat
from pathlib import Path

import numpy as np

from . import balance_sheet as bs
from . import network as net
from .growth import ReplicationStudy, replication_study
from .sim import EVENT_KINDS, ConfigError, SimConfig, SimOutput, run

__all__ = [
    "EXIT_COMPUTE", "EXIT_IO", "EXIT_OK", "EXIT_VALIDATION",
    "IngestError", "IngestResult", "IngestSpec",
    "cmd_curve", "cmd_ingest", "cmd_network", "cmd_simulate", "cmd_study",
    "format_sim_config", "ingest_panel", "main", "read_sim_config",
    "write_panel_csv",
]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_COMPUTE = 4


class IngestError(ValueError):
    """Input file cannot be accepted under the requested validation mode."""


@dataclass(frozen=True)
class IngestSpec:
    """Where and how to read a balance-sheet panel CSV.

    Dates are ISO-8601 and map to panel rows by rank among the distinct
    sorted dates of the whole file. ``strict`` mode aborts on any invalid
    bank or any bank with interior gaps (a mixed-frequency reporter);
    ``lenient`` drops invalid banks, keeps gapped ones (they simply never
    count as complete), and reports both.
    """

    path: str
    bank_col: str = "bank_id"
    date_col: str = "date"
    assets_col: str = "assets"
    liabilities_col: str = "liabilities"
    mode: str = "lenient"  # strict | lenient

    def __post_init__(self):
        cols = (self.bank_col, self.date_col, self.assets_col, self.liabilities_col)
        if len(set(cols)) != 4:
            raise IngestError(f"mapped columns must be distinct, got {cols}")
        if self.mode not in ("strict", "lenient"):
            raise IngestError(f"mode must be strict or lenient, got {self.mode!r}")


@dataclass(frozen=True)
class IngestResult:
    panel: bs.Panel            # every valid member, incomplete ones included
    complete: bs.Panel         # complete members only
    census: bs.CensusReport
    report: dict


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path: Path, chunks: Iterable[str]) -> None:
    """Write the strings ``chunks`` yields to ``path``, making its directory.
    They go to a sibling temp file that replaces ``path`` after the last
    chunk, and is removed if a chunk raises, so that ``path`` keeps its old
    bytes or has all the new ones. Lines end in LF on every platform."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_field(text: str) -> str:
    """``text`` as a csv writer emits it: quoted only when it must be."""
    csv.writer(buf := io.StringIO()).writerow([text])
    return buf.getvalue()[:-2]


# a plain file is read this many characters at a time: larger blocks read no
# faster and raise the peak resident set of the commands that ingest
_BLOCK_CHARS = 1 << 14

# ingest refuses a dense store over both limits: a sparse file (many banks,
# each on its own dates) would otherwise allocate dates x banks cells
_MAX_CELLS = 1 << 22
_MAX_CELLS_PER_ROW = 64


class _Columns:
    """Bank and date codes and float values of the rows read so far; each
    distinct date string is parsed once, in the order codes are given."""

    def __init__(self):
        self.bank_code: dict[str, int] = {}
        self.date_code: dict[str, int] = {}
        self.days: list[datetime.date] = []
        self.banks, self.dates = array("q"), array("q")
        self.assets, self.liabilities = array("d"), array("d")


def _read_rows(reader, path: Path, picks, cols: _Columns) -> None:
    """The csv row loop: continues ``reader`` past the header. It reads every
    file the block reader does not and is the only source of row errors."""
    b_col, d_col, a_col, l_col = picks
    bank_code, date_code, days = cols.bank_code, cols.date_code, cols.days
    banks, dates, assets, liabilities = cols.banks, cols.dates, cols.assets, cols.liabilities
    for row in reader:
        if not row:
            continue
        try:
            bank = row[b_col].strip()
            day = row[d_col].strip()
            if day not in date_code:
                date_code[day] = len(days)
                days.append(datetime.date.fromisoformat(day))
            a_val, l_val = float(row[a_col]), float(row[l_col])
        except (IndexError, ValueError) as exc:
            raise IngestError(f"{path}:{reader.line_num}: malformed row: {exc}") from exc
        if not bank:
            raise IngestError(f"{path}:{reader.line_num}: empty bank id")
        banks.append(bank_code.setdefault(bank, len(bank_code)))
        dates.append(date_code[day])
        assets.append(a_val)
        liabilities.append(l_val)


def _codes(code: dict[str, int], raw: list[str]) -> tuple[list[int], dict[str, int]]:
    """The code of each of ``raw``'s keys, and the keys that have none yet,
    numbered on from ``len(code)`` in order of appearance. ``code`` is left
    as it is. Its keys are stripped, so a row that hits takes one lookup; only
    a block with a miss strips, a distinct spelling at a time."""
    codes = list(map(code.get, raw, repeat(-1)))
    if -1 not in codes:
        return codes, {}
    new: dict[str, int] = {}
    found = {}
    for spelling in dict.fromkeys(compress(raw, map((-1).__eq__, codes))):
        key = spelling.strip()
        found[spelling] = code[key] if key in code else new.setdefault(key, len(code) + len(new))
    return list(map(found.get, raw, codes)), new


def _floats(strings: list[str]) -> array:
    """``array("d", map(float, strings))``, with ``float`` called once per
    distinct string. Equal strings convert to equal bits, so -0.0 and NaN
    keep theirs; a bad string raises ValueError either way."""
    distinct = set(strings)
    if len(distinct) == len(strings):
        return array("d", map(float, strings))
    value = dict(zip(distinct, map(float, distinct)))
    return array("d", map(value.__getitem__, strings))


def _read_plain(text: str, width: int, picks, cols: _Columns) -> bool:
    """Add the rows of ``text``, whole lines of the file, to ``cols`` a column
    at a time, with the work done once per distinct string of a column.
    Returns False and leaves ``cols`` as it was unless the csv row loop would
    read every line the same way and without an error: no quote, NUL or CR,
    the header's field count on every non-blank line, no line over the csv
    field size limit, no empty bank id, and every date and value converts."""
    # csv unquotes, ends lines at a CR too and, before Python 3.11, rejects NUL
    if '"' in text or "\0" in text or "\r" in text:
        return False
    lines = text.split("\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return False
    lines = list(filter(None, lines))  # a blank line is no row
    if not lines:
        return True
    # each line but the last ends in a field holding its one newline, so the
    # lines all have ``width`` fields exactly when the newlines all sit in the
    # last column and the field count is right
    fields = "\n,".join(lines).split(",")
    if (len(fields) != len(lines) * width
            or "".join(fields[width - 1::width]).count("\n") != len(lines) - 1):
        return False
    b_col, d_col, a_col, l_col = picks
    banks, new_banks = _codes(cols.bank_code, fields[b_col::width])
    dates, new_days = _codes(cols.date_code, fields[d_col::width])
    if "" in new_banks:
        return False
    try:
        parsed = list(map(datetime.date.fromisoformat, new_days))
        assets = _floats(fields[a_col::width])
        liabilities = _floats(fields[l_col::width])
    except ValueError:
        return False
    cols.bank_code.update(new_banks)
    cols.date_code.update(new_days)
    cols.days += parsed
    cols.banks += array("q", banks)
    cols.dates += array("q", dates)
    cols.assets += assets
    cols.liabilities += liabilities
    return True


def _read_blocks(fh, width: int, picks, cols: _Columns) -> bool:
    """Convert the rest of the file a block of whole lines at a time. Returns
    True when every block was plain, and False at the first that is not."""
    carry = ""
    while True:
        chunk = fh.read(_BLOCK_CHARS)
        text = carry + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        if not _read_plain(text[:cut], width, picks, cols):
            return False
        if not chunk:
            return True
        carry = text[cut:]


def _read_columns(spec: IngestSpec, path: Path, by_row: bool = False):
    """Read the file into bank and date codes and float values, then scatter
    them into (dates x banks) matrices. Returns the sorted bank ids, the
    sorted dates as ISO labels, the row count of every cell, and the assets
    and liabilities (NaN in cells no row fills). A file whose blocks are all plain is converted a
    column at a time; any other file is read again from the top with
    ``by_row``, the csv row loop alone, which is also the reference the tests
    hold the block reader to."""
    cols = _Columns()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header is None:
                    raise IngestError(f"{path}: empty file")
                try:
                    picks = [header.index(c) for c in (
                        spec.bank_col, spec.date_col, spec.assets_col, spec.liabilities_col)]
                except ValueError as exc:
                    raise IngestError(f"{path}: missing column in header {header}: {exc}") from exc
                if by_row:
                    _read_rows(reader, path, picks, cols)
                elif not _read_blocks(fh, len(header), picks, cols):
                    cols = None
            except csv.Error as exc:
                raise IngestError(f"{path}:{reader.line_num}: malformed csv: {exc}") from exc
    except UnicodeDecodeError as exc:
        if by_row:
            raise IngestError(f"{path}: not UTF-8 text: {exc}") from exc
        # block reads decode other byte chunks than the row loop's line reads:
        # the row loop alone finds and words the first error
        cols = None
    if cols is None:
        # the partial columns are already dropped: the re-read never holds two
        return _read_columns(spec, path, by_row=True)
    if not cols.banks:
        raise IngestError(f"{path}: no data rows")

    # dates rank as parsed dates, so two spellings of one day are one row
    days = sorted(set(cols.days))
    rank = {day: k for k, day in enumerate(days)}
    ids = sorted(cols.bank_code)
    column = {bank: k for k, bank in enumerate(ids)}
    shape = (len(days), len(ids))
    n_cells, n_rows = shape[0] * shape[1], len(cols.banks)
    if n_cells > max(_MAX_CELLS, _MAX_CELLS_PER_ROW * n_rows):
        raise IngestError(
            f"{path}: {shape[0]} dates x {shape[1]} banks from {n_rows} rows: "
            f"a dense panel of {n_cells} cells is over the limit of {_MAX_CELLS} cells "
            f"and {_MAX_CELLS_PER_ROW} cells per row")
    cell = np.ravel_multi_index(
        (np.array([rank[day] for day in cols.days])[np.frombuffer(cols.dates, np.int64)],
         np.array([column[bank] for bank in cols.bank_code])[np.frombuffer(cols.banks, np.int64)]),
        shape)
    count = np.bincount(cell, minlength=n_cells).reshape(shape)
    a_mat, l_mat = np.full(shape, np.nan), np.full(shape, np.nan)
    a_mat.reshape(-1)[cell] = np.frombuffer(cols.assets)
    l_mat.reshape(-1)[cell] = np.frombuffer(cols.liabilities)
    return ids, tuple(day.isoformat() for day in days), count, a_mat, l_mat


def ingest_panel(spec: IngestSpec) -> IngestResult:
    """Parse and validate a ``bank_id,date,assets,liabilities`` CSV.

    One pass of the balance-sheet rules over the (dates x banks) matrices
    decides which banks are dropped."""
    path = Path(spec.path)
    ids, dates, count, a_mat, l_mat = _read_columns(spec, path)
    seen = count > 0
    duplicate = (count > 1).any(axis=0)
    errors = bs._faults(ids, a_mat, l_mat, seen)
    first, last = seen.argmax(axis=0), len(dates) - 1 - seen[::-1].argmax(axis=0)
    gap = last - first + 1 != seen.sum(axis=0)
    valid = ~duplicate
    valid[list(errors)] = False
    dropped, gapped = [], []
    for k in np.flatnonzero(~valid | gap).tolist():
        bank = ids[k]
        if valid[k]:
            # observations skip interior dates: a sparser reporter
            if spec.mode == "strict":
                raise IngestError(
                    f"{path}: bank {bank!r} has interior gaps (mixed sampling frequency)")
            gapped.append(bank)
            continue
        reason = "duplicate dates"
        if not duplicate[k]:
            error = errors[k]
            degenerate = isinstance(error, bs.DegenerateEquityError)
            reason = f"liabilities >= assets at t={error.time_index}" if degenerate else str(error)
        if spec.mode == "strict":
            raise IngestError(f"{path}: bank {bank!r}: {reason}")
        dropped.append({"bank_id": bank, "reason": reason})

    if not valid.any():
        raise IngestError(f"{path}: no valid banks remain")
    panel = bs.Panel(path.stem, tuple(compress(ids, valid)), dates,
                     a_mat[:, valid], l_mat[:, valid])
    complete = bs.filter_complete(panel)
    report = {
        "input": path.name,
        "mode": spec.mode,
        "n_rows": int(count.sum()),
        "n_banks_read": len(ids),
        "n_banks_valid": len(panel),
        "n_banks_complete": len(complete),
        "dropped": dropped,
        "gapped_banks": gapped,
        "mixed_sampling": bool(gapped),
    }
    return IngestResult(panel, complete, bs.census(panel), report)


def write_panel_csv(panel: bs.Panel, path: Path) -> None:
    """Rows sorted by (bank_id, date), each date as the panel labels it.

    The file is written a bank at a time. A bank's balance sheet stays as it
    was in most periods, so each run of rows with the same (assets,
    liabilities) is formatted once. Runs compare bits, not values: 0.0 and
    -0.0 are equal with different reprs."""
    dates = [f",{label}," for label in panel.dates]
    assets, liabilities = panel.assets, panel.liabilities
    seen = ~np.isnan(assets)
    # a run starts at the first date and where a pair's bits change, so also
    # after every date the bank does not report: no number has the bits of NaN
    bits_a, bits_l = assets.view(np.int64), liabilities.view(np.int64)
    start = np.ones(assets.shape, dtype=bool)
    start[1:] = (bits_a[1:] != bits_a[:-1]) | (bits_l[1:] != bits_l[:-1])
    start &= seen
    # each run's pair and row count, in file order
    run_a, run_l = assets.T[start.T], liabilities.T[start.T]
    run_rows = np.diff(np.flatnonzero(start.T[seen.T]), append=np.count_nonzero(seen))

    def chunks():
        yield "bank_id,date,assets,liabilities\n"
        hi = 0
        for k, (bank, n_rows, n_runs) in enumerate(zip(
                panel.bank_ids, seen.sum(axis=0).tolist(), start.sum(axis=0).tolist())):
            lo, hi = hi, hi + n_runs
            pairs = [f"{a!r},{l!r}\n" for a, l in zip(run_a[lo:hi].tolist(), run_l[lo:hi].tolist())]
            pieces = [_csv_field(bank)] * (3 * n_rows)
            pieces[1::3] = compress(dates, seen[:, k].tolist())
            pieces[2::3] = chain.from_iterable(map(repeat, pairs, run_rows[lo:hi].tolist()))
            yield "".join(pieces)

    _write(path, chunks())


def write_curve_csv(curve: net.ClusterCurve, path: Path) -> None:
    _write(path, chain(["rho,largest_fraction\n"],
                       (f"{_fmt(rho)},{_fmt(frac)}\n" for rho, frac in curve.points)))


def write_study_csv(study: ReplicationStudy, path: Path) -> None:
    """One row per bank and run; the top pair's roles are pair1 and pair2."""
    def chunks():
        yield ("run,bank_id,role,leverage_growth,assets_growth,"
               "population_median_assets_growth,population_median_leverage_growth\n")
        for rec in study.run_records:
            roles = {rec.bank_a: "pair1", rec.bank_b: "pair2"}
            for g in rec.records:
                yield (f"{rec.run_index},{g.bank_id},{roles.get(g.bank_id, 'population')},"
                       f"{_fmt(g.leverage_growth)},{_fmt(g.assets_growth)},"
                       f"{_fmt(rec.median_assets_growth)},{_fmt(rec.median_leverage_growth)}\n")

    _write(path, chunks())


def _write_json(obj: dict, path: Path) -> None:
    _write(path, [json.dumps(obj, indent=2, sort_keys=True, allow_nan=False), "\n"])


# -- simulation config file ----------------------------------------------

def _kind(name: str) -> type:
    """int, float or tuple: the type of the SimConfig field's default."""
    return type(getattr(SimConfig, name))


def read_sim_config(path: str | Path, base: SimConfig | None = None) -> SimConfig:
    """Read a flat ``key = value`` file over SimConfig fields; '#' comments."""
    base = base or SimConfig()
    names = {f.name for f in fields(SimConfig)}
    updates = {}
    with open(path, encoding="utf-8") as fh:
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
    return replace(base, **updates)


def _parse_config_value(key: str, value: str):
    kind = _kind(key)
    try:
        if kind is tuple:
            lo, hi = (float(p) for p in value.split(","))
            return (lo, hi)
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def format_sim_config(config: SimConfig) -> str:
    lines = []
    for f in fields(SimConfig):
        v = getattr(config, f.name)
        if _kind(f.name) is tuple:
            v = f"{_fmt(v[0])}, {_fmt(v[1])}"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for f in fields(SimConfig):
        if f.name == "seed":
            continue
        flag = "--" + f.name.replace("_", "-")
        if _kind(f.name) is tuple:
            p.add_argument(flag, metavar="LOW,HIGH")
        else:
            p.add_argument(flag, type=str)
    p.add_argument("--seed", type=int, required=True,
                   help="run seed (required; no wall-clock seeding)")


def _config_from_args(args: argparse.Namespace) -> SimConfig:
    config = SimConfig()
    if args.config:
        config = read_sim_config(args.config, config)
    overrides = {}
    for f in fields(SimConfig):
        if f.name == "seed":
            continue
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = _parse_config_value(f.name, value)
    config = replace(config, seed=args.seed, **overrides)
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


def _load_matrix(path: str) -> net.CorrelationMatrix:
    result = ingest_panel(IngestSpec(path))
    if len(result.complete) < 2:
        raise IngestError(f"{path}: need at least 2 complete banks")
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IngestError, bs.DomainError, bs.DegenerateEquityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
