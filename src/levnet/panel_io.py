"""Panel files: read a balance-sheet CSV into a validated panel, and write
panels, curves and studies.

Floats are written with ``repr``, so every value round-trips bit-exactly
through parse and re-serialize. Every output goes through ``_write``, which
replaces its file only once every chunk is written.
"""

from __future__ import annotations

import codecs
import csv
import datetime
import io
import json
import os
import stat
import sys
from array import array
from collections.abc import Iterable
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, repeat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import balance_sheet as bs
from ._forked import forked, workers

if TYPE_CHECKING:  # the layers above the panel, named only in annotations
    from . import network as net
    from .growth import ReplicationStudy

__all__ = ["IngestError", "IngestResult", "IngestSpec", "ingest_panel", "write_panel_csv"]


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


def _std_fd(st: os.stat_result) -> int | None:
    """1 or 2 if ``st`` is the file open on this process's stdout or stderr."""
    for fd in (1, 2):
        try:
            other = os.fstat(fd)
        except OSError:  # the fd is closed
            continue
        if (other.st_dev, other.st_ino) == (st.st_dev, st.st_ino):
            return fd
    return None


def _write(path: Path, chunks: Iterable[str]) -> None:
    """Write the strings ``chunks`` yields to ``path``, making its directory.
    They go to a sibling temp file that replaces ``path`` after the last
    chunk, and is removed if a chunk raises, so that ``path`` keeps its old
    bytes or has all the new ones. A symlink is followed: its final target is
    replaced and the link stays. The file open on this process's stdout or
    stderr, such as ``/dev/stdout`` redirected to a file, is written through
    that open stream, after what was printed to it and before what is, as a
    pipe would take it. Any other existing file that is not a regular one,
    such as a FIFO or a terminal, cannot be replaced and is written in place.
    Lines end in LF on every platform."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    fd = st and _std_fd(st)
    if fd:
        # what was printed goes first; a new file object over the fd shares
        # its offset and O_APPEND flag, and flushes when it closes
        sys.stdout.flush()
        sys.stderr.flush()
    if fd or (st is not None and not stat.S_ISREG(st.st_mode)):
        with open(fd or path, "w", encoding="utf-8", newline="", closefd=not fd) as fh:
            fh.writelines(chunks)
        return
    path = Path(os.path.realpath(path))
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


# a plain file is read this many bytes at a time: larger blocks read no
# faster and raise the peak resident set of the commands that ingest
_BLOCK_BYTES = 1 << 14

# a plain file is split into line-aligned byte ranges, one per allowed CPU,
# each of at least this size, so a second range starts at twice this size.
# Timed as the first read of a fresh process (2-vCPU x86-64), a second range
# pays from about 256 KiB on a quarterly reporting panel, which parses at
# about 16 ns a byte while a child costs about 2 ms to fork, reap and merge.
# A panel of 5,000 dates pays from about 1 MB, because each range parses,
# sends back and merges every date
_MIN_RANGE_BYTES = 1 << 19

# ingest refuses a dense store over both limits: a sparse file (many banks,
# each on its own dates) would otherwise allocate dates x banks cells
_MAX_CELLS = 1 << 22
_MAX_CELLS_PER_ROW = 64


class _Columns:
    """Bank and date codes and float values of the rows read so far; each
    distinct date string is parsed once, in the order codes are given, and
    kept as its day's ordinal, which a child sends back far faster than a
    date object."""

    def __init__(self):
        self.bank_code: dict[str, int] = {}
        self.date_code: dict[str, int] = {}
        self.days: list[int] = []
        self.banks, self.dates = array("q"), array("q")
        self.assets, self.liabilities = array("d"), array("d")

    def extend(self, other: _Columns) -> None:
        """Append ``other``'s rows, its codes renumbered into this one's."""
        bank = np.empty(len(other.bank_code), np.int64)
        for key, code in other.bank_code.items():
            bank[code] = self.bank_code.setdefault(key, len(self.bank_code))
        date = np.empty(len(other.date_code), np.int64)
        for key, code in other.date_code.items():
            if key not in self.date_code:
                self.date_code[key] = len(self.days)
                self.days.append(other.days[code])
            date[code] = self.date_code[key]
        self.banks.frombytes(bank.take(np.frombuffer(other.banks, np.int64)).tobytes())
        self.dates.frombytes(date.take(np.frombuffer(other.dates, np.int64)).tobytes())
        self.assets += other.assets
        self.liabilities += other.liabilities


def _picks(spec: IngestSpec, header: list[str]) -> list[int]:
    """The mapped columns' positions in ``header``; ValueError if one is missing."""
    return [header.index(c) for c in (
        spec.bank_col, spec.date_col, spec.assets_col, spec.liabilities_col)]


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
                days.append(datetime.date.fromisoformat(day).toordinal())
            a_val, l_val = float(row[a_col]), float(row[l_col])
        except (IndexError, ValueError) as exc:
            raise IngestError(f"{path}:{reader.line_num}: malformed row: {exc}") from exc
        if not bank:
            raise IngestError(f"{path}:{reader.line_num}: empty bank id")
        banks.append(bank_code.setdefault(bank, len(bank_code)))
        dates.append(date_code[day])
        assets.append(a_val)
        liabilities.append(l_val)


def _read_csv(spec: IngestSpec, path: Path) -> _Columns:
    """The whole file through the csv row loop, the reference the tests hold
    the block reader to."""
    cols = _Columns()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header is None:
                    raise IngestError(f"{path}: empty file")
                try:
                    picks = _picks(spec, header)
                except ValueError as exc:
                    raise IngestError(f"{path}: missing column in header {header}: {exc}") from exc
                _read_rows(reader, path, picks, cols)
            except csv.Error as exc:
                raise IngestError(f"{path}:{reader.line_num}: malformed csv: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text: {exc}") from exc
    return cols


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
        parsed = [datetime.date.fromisoformat(day).toordinal() for day in new_days]
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


def _read_range(path: Path, start: int, stop: int, width: int, picks) -> _Columns | None:
    """The rows in bytes ``[start, stop)`` of the file, both line boundaries,
    converted a block of whole lines at a time; None at the first block that
    is not plain UTF-8. No newline byte is part of a multibyte character, so
    the blocks, cut after one, decode as the whole file does."""
    cols = _Columns()
    with open(path, "rb") as fh:
        fh.seek(start)
        carry, left = b"", stop - start
        while True:
            chunk = fh.read(min(_BLOCK_BYTES, left))
            left -= len(chunk)
            data = carry + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            try:
                text = data[:cut].decode("utf-8")
            except UnicodeDecodeError:
                return None
            if not _read_plain(text, width, picks, cols):
                return None
            if not chunk:
                return cols
            carry = data[cut:]


def _read_ranges(path: Path, ranges: list[tuple[int, int]], width: int, picks) -> _Columns | None:
    """The rows of every byte range, in file order, or None at the first range
    that is not plain, with the children still reading killed, not waited
    for. This process reads the first range, and a forked child each other
    one (see ``_forked.forked``)."""
    with closing(forked([partial(_read_range, path, lo, hi, width, picks)
                         for lo, hi in ranges])) as parts:
        if (cols := next(parts)) is None:
            return None
        for part in parts:
            if part is None:
                return None
            cols.extend(part)
    return cols


def _read_plain_file(spec: IngestSpec, path: Path) -> _Columns | None:
    """The rows of a file whose header and blocks are all plain, read in
    line-aligned byte ranges, as many as ``workers`` gives for its size;
    None for any other file, which the csv row loop reads from the top and
    words every error of."""
    with open(path, "rb") as fh:
        # one leading byte-order mark is no part of the header, as for utf-8-sig
        line = fh.readline().removeprefix(codecs.BOM_UTF8)
        start, size = fh.tell(), os.fstat(fh.fileno()).st_size
        # a header the csv reader might split otherwise is left to it
        if (not line.rstrip(b"\n") or len(line) > csv.field_size_limit()
                or any(c in line for c in (b'"', b"\r", b"\0"))):
            return None
        try:
            header = line.decode("utf-8").rstrip("\n").split(",")
            picks = _picks(spec, header)
        except ValueError:  # UnicodeDecodeError included
            return None
        # each range ends after the line that holds its share's last byte
        k = workers(size - start, _MIN_RANGE_BYTES)
        bounds = [start]
        for i in range(1, k):
            fh.seek(max(start + (size - start) * i // k - 1, bounds[-1]))
            fh.readline()
            bounds.append(fh.tell())
        bounds.append(size)
    ranges = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    return _read_ranges(path, ranges, len(header), picks) if ranges else _Columns()


def _read_columns(spec: IngestSpec, path: Path):
    """Read the file into bank and date codes and float values, then scatter
    them into (dates x banks) matrices. Returns the sorted bank ids, the
    sorted dates as ISO labels, the row count of every cell, and the assets
    and liabilities (NaN in cells no row fills). A file whose header and
    blocks are all plain is converted a column at a time; any other file is
    read from the top by ``_read_csv``, the csv row loop."""
    cols = _read_plain_file(spec, path)
    if cols is None:
        cols = _read_csv(spec, path)
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
    labels = tuple(datetime.date.fromordinal(day).isoformat() for day in days)
    return ids, labels, count, a_mat, l_mat


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


# a panel is formatted by forked workers only if each gets at least this many
# runs, net of the rows' text that a child sends back: a row counts as minus
# 1 / _SENT_ROWS_PER_RUN of a run. Timed as the write of a fresh process
# (2-vCPU x86-64): a run takes 0.4-0.5 us to format, and a second worker
# costs about 2 ms plus about 1 ns a byte to send back; on the 80 x 5,000
# simulated panel (11,574 runs in 400,080 rows of 52 bytes) two workers lost
# 17 ms, and with 40,000 runs in those rows they broke even. Reporting panels
# of 60 quarters, one run a row, broke even at 100 banks (6,000 runs) and
# gained 11 ms at 640 banks (38,400 runs)
_MIN_WRITE_RUNS = 1 << 12
_SENT_ROWS_PER_RUN = 10


def write_panel_csv(panel: bs.Panel, path: Path) -> None:
    """Rows sorted by (bank_id, date), each date as the panel labels it.

    A bank's balance sheet stays as it was in most periods, so each run of
    rows with the same (assets, liabilities) is formatted once. Runs compare
    bits, not values: 0.0 and -0.0 are equal with different reprs. The banks
    are split into contiguous blocks of about equal run counts, one per
    process that ``workers`` gives for the runs (see ``_MIN_WRITE_RUNS``).
    This process writes the first block a bank at a time, and a forked child
    formats each other one (see ``_forked.forked``); the blocks are written
    in bank order."""
    dates = [f",{label}," for label in panel.dates]
    assets, liabilities = panel.assets, panel.liabilities
    seen = ~np.isnan(assets)
    # a run starts at the first date and where a pair's bits change, so also
    # after every date the bank does not report: no number has the bits of NaN
    bits_a, bits_l = assets.view(np.int64), liabilities.view(np.int64)
    start = np.ones(assets.shape, dtype=bool)
    start[1:] = (bits_a[1:] != bits_a[:-1]) | (bits_l[1:] != bits_l[:-1])
    start &= seen
    # each run's pair and row count, in file order; bank k's runs are
    # edges[k]:edges[k + 1]
    run_a, run_l = assets.T[start.T], liabilities.T[start.T]
    n_rows = np.count_nonzero(seen)
    run_rows = np.diff(np.flatnonzero(start.T[seen.T]), append=n_rows)
    edges = [0, *np.cumsum(start.sum(axis=0)).tolist()]
    bank_rows = seen.sum(axis=0).tolist()

    def banks(first, stop):
        for k in range(first, stop):
            lo, hi = edges[k], edges[k + 1]
            pairs = [f"{a!r},{l!r}\n" for a, l in zip(run_a[lo:hi].tolist(), run_l[lo:hi].tolist())]
            pieces = [_csv_field(panel.bank_ids[k])] * (3 * bank_rows[k])
            pieces[1::3] = compress(dates, seen[:, k].tolist())
            pieces[2::3] = chain.from_iterable(map(repeat, pairs, run_rows[lo:hi].tolist()))
            yield "".join(pieces)

    header, n_banks, n_runs = "bank_id,date,assets,liabilities\n", len(bank_rows), len(run_a)
    k = workers(n_runs - n_rows // _SENT_ROWS_PER_RUN, _MIN_WRITE_RUNS)
    # block b starts at the first bank whose runs start at or after b / k of them
    cuts = [0, *np.searchsorted(edges, [n_runs * b // k for b in range(1, k)]).tolist(), n_banks]

    def block(first, stop):
        return ["".join(banks(first, stop))]
    # this process streams the first block; a child sends each other one whole
    blocks = [partial(banks, *cuts[:2]),
              *(partial(block, lo, hi) for lo, hi in zip(cuts[1:], cuts[2:]) if lo < hi)]
    with closing(forked(blocks)) as parts:
        _write(path, chain([header], chain.from_iterable(parts)))


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
