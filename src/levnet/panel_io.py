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


# a plain file is read this many bytes at a time. On a 2-vCPU x86-64 box
# one range of the 80 x 5,000 simulated panel read in 100 ms at 512 KiB and
# 1 MiB, 109 ms at 256 KiB and 136 ms at 64 KiB; a block's arrays take
# several times its bytes, and ingesting the 1.8 MB reporting panel peaked
# at 39.3 MiB resident with 1 MiB blocks and at 36.0 MiB with 512 KiB ones
_BLOCK_BYTES = 1 << 19

# a plain file is split into line-aligned byte ranges, one per allowed CPU,
# each of at least this size, so a second range starts at twice this size.
# Timed as the first read of a fresh process (2-vCPU x86-64), a second range
# pays from about 1 MB on a quarterly reporting panel, which parses at about
# 16 ns a byte while a child costs about 2 ms to fork, reap and merge, and
# at its 1.8 MB saves about 5 ms. A panel of 5,000 dates pays only from
# about 6 MB (4 ms lost at 1-4 MB, 3 ms won at 8 MB), because each range
# parses every date and the block reader takes about 5 ns a byte
_MIN_RANGE_BYTES = 1 << 19

# ingest refuses a dense store over both limits: a sparse file (many banks,
# each on its own dates) would otherwise allocate dates x banks cells
_MAX_CELLS = 1 << 22
_MAX_CELLS_PER_ROW = 64


class _Columns:
    """Bank and date codes (int64) and float values of the rows read so far,
    each column a list of arrays, one per block the block reader adds or one
    from the row loop; each distinct date string is
    parsed once, in the order codes are given, and kept as its day's
    ordinal, which a child sends back far faster than a date object."""

    def __init__(self):
        self.bank_code: dict[str, int] = {}
        self.date_code: dict[str, int] = {}
        self.days: list[int] = []
        self.banks: list[np.ndarray] = []
        self.dates: list[np.ndarray] = []
        self.assets: list[np.ndarray] = []
        self.liabilities: list[np.ndarray] = []

    def extend(self, other: _Columns) -> None:
        """Append ``other``'s rows, its codes renumbered into this one's."""
        # codes count up from 0 in the order of a dict's keys, so the keys
        # new to this one are numbered on from its count
        banks = [key for key in other.bank_code if key not in self.bank_code]
        first = len(self.bank_code)
        self.bank_code.update(zip(banks, range(first, first + len(banks))))
        days = [key for key in other.date_code if key not in self.date_code]
        first = len(self.days)
        self.date_code.update(zip(days, range(first, first + len(days))))
        self.days += map(other.days.__getitem__, map(other.date_code.__getitem__, days))
        bank = np.fromiter(map(self.bank_code.__getitem__, other.bank_code), np.int64,
                           len(other.bank_code))
        date = np.fromiter(map(self.date_code.__getitem__, other.date_code), np.int64,
                           len(other.date_code))
        # renumbered in place, so that no part is copied to stay
        for part in other.banks:
            part[:] = bank[part]
        for part in other.dates:
            part[:] = date[part]
        self.banks += other.banks
        self.dates += other.dates
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
    banks, dates, assets, liabilities = array("q"), array("q"), array("d"), array("d")
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
    if banks:
        cols.banks.append(np.frombuffer(banks, np.int64))
        cols.dates.append(np.frombuffer(dates, np.int64))
        cols.assets.append(np.frombuffer(assets))
        cols.liabilities.append(np.frombuffer(liabilities))


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


def _codes(code: dict[str, int], spellings: list[bytes]) -> tuple[list[int], dict[str, int]]:
    """The code of each of ``spellings``' keys, and the keys that have none
    yet, numbered on from ``len(code)``; ``code`` is left as it is. Its keys
    are stripped ``str``, as the row loop strips them: ``str.strip`` also
    removes U+001C-U+001F, U+0085 and U+00A0, which ``bytes.strip`` keeps.
    A spelling that hits takes one decode and one lookup; only a miss is
    stripped."""
    raw = list(map(bytes.decode, spellings))
    codes = list(map(code.get, raw, repeat(-1)))
    new: dict[str, int] = {}
    for k in compress(range(len(raw)), map((-1).__eq__, codes)):
        key = raw[k].strip()
        codes[k] = code[key] if key in code else new.setdefault(key, len(code) + len(new))
    return codes, new


def _floats(strings: list) -> array:
    """``array("d", map(float, strings))``, with ``float`` called once per
    distinct string where that at least halves the calls. Equal strings
    convert to equal bits, so -0.0 and NaN keep theirs; a bad string raises
    ValueError either way."""
    distinct = set(strings)
    if 2 * len(distinct) > len(strings):
        return array("d", map(float, strings))
    value = dict(zip(distinct, map(float, distinct)))
    return array("d", map(value.__getitem__, strings))


# _MASKS[r] keeps the first r bytes of a little-endian 8-byte word
_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], "<u8")


def _one_word(words: np.ndarray, lo: np.ndarray, size: np.ndarray):
    """Each field's key as one word, and the bytes every field holds before
    that word; None unless one word keys every field: each field has at most
    8 bytes, or all have one length of at most 16 and the same leading bytes,
    as ISO dates of one century do. ``words[i]`` is the 8 bytes from byte i,
    little-endian, and no field holds a NUL, so a masked word is exact. A key
    is the word byte-swapped, so that keys sort as their bytes do, and the
    keys of a column the file is sorted by come in ascending runs."""
    top = int(size.max())
    if top <= 8:
        return (words[lo] & _MASKS[size]).byteswap(inplace=True), b""
    if top <= 16 and size.min() == top:
        lead = words[lo] & _MASKS[top - 8]
        if (lead == lead[0]).all():
            return words[lo + (top - 8)].byteswap(inplace=True), lead[:1].tobytes()[:top - 8]
    return None


def _sorted(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in order, and the index of each key among them.
    Where at most half the keys start a run of equal consecutive keys, as
    in a column the file is sorted by, only the runs' keys are sorted. The
    sort is numpy's stable one, which takes ascending runs whole."""
    change = np.empty(len(keys), bool)
    change[0] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    if 2 * np.count_nonzero(change) <= len(keys):
        distinct, index = _sorted(keys[change])
        return distinct, index[change.cumsum() - 1]
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    first = np.empty(len(keys), bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    index = np.empty(len(keys), np.intp)
    index[order] = first.cumsum() - 1
    return ordered[first], index


def _spellings(keys: np.ndarray, head: bytes) -> list[bytes]:
    """The fields that ``_one_word``'s keys and ``head`` spell."""
    tails = keys.byteswap().view("S8").tolist()  # the masked zero bytes drop off
    return list(map(head.__add__, tails)) if head else tails


def _runs(words: np.ndarray, lo: np.ndarray, size: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """The spelling of each run of equal consecutive fields, and the index
    of each field's run."""
    change = np.zeros(len(lo), bool)
    change[0] = True
    parts = []
    for w in range(-(-int(size.max()) // 8)):
        # a word past a short field's end is masked to zero whatever it reads
        at = lo + 8 * w
        word = words[at if at[-1] < len(words) else np.minimum(at, len(words) - 1)]
        if 8 * (w + 1) > size.min():
            word &= _MASKS[np.clip(size - 8 * w, 0, 8)]
        change[1:] |= word[1:] != word[:-1]
        parts.append(word)
    keys = np.stack([word[change] for word in parts], axis=1)
    return keys.view(f"S{8 * len(parts)}").ravel().tolist(), change.cumsum() - 1


def _float_column(words: np.ndarray, lo: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The fields' values, ``float`` called once per distinct spelling. The
    row loop calls it on a ``str``: of an ASCII one, ``float`` strips only
    ASCII whitespace (not U+001C-U+001F, which ``str.strip`` removes) and
    reads only ASCII digits, as it does of bytes, so only a spelling with a
    non-ASCII character can convert otherwise. ``float`` of the bytes
    refuses every such spelling: ValueError, and the row loop then reads
    the file."""
    one = _one_word(words, lo, size)
    if one is None:
        spellings, index = _runs(words, lo, size)
    else:
        distinct, index = _sorted(one[0])
        spellings = _spellings(distinct, one[1])
    return np.frombuffer(_floats(spellings))[index]


def _code_column(code: dict[str, int], seen: dict, column: int, words: np.ndarray,
                 lo: np.ndarray, size: np.ndarray):
    """The fields' codes in ``code``, the keys new to it, and the entry of
    ``seen`` to store once the block is read. ``seen`` holds, for each column
    and each kind of one-word key, the sorted keys met before and their
    codes, so a block converts only spellings not met before."""
    one = _one_word(words, lo, size)
    if one is None:
        spellings, index = _runs(words, lo, size)
        codes, new = _codes(code, spellings)
        return np.array(codes, np.int64)[index], new, {}
    keys, head = one
    known, known_codes = seen.get((column, head), (keys[:0], np.empty(0, np.int64)))
    # a key past the last known one is clipped onto it, which it differs from
    at = known.searchsorted(keys)
    miss = known.take(at, mode="clip") != keys if len(known) else np.ones(len(keys), bool)
    new, entry = {}, {}
    if miss.any():
        fresh = _sorted(keys[miss])[0]
        codes, new = _codes(code, _spellings(fresh, head))
        at = known.searchsorted(fresh)
        known, known_codes = np.insert(known, at, fresh), np.insert(known_codes, at, codes)
        entry = {(column, head): (known, known_codes)}
        at = known.searchsorted(keys)
    return known_codes[at], new, entry


def _read_plain(block: bytes, width: int, picks, cols: _Columns, seen: dict | None = None) -> bool:
    """Add the rows of ``block``, whole lines of the file, to ``cols`` a
    column at a time, with the work done once per distinct spelling of a
    column. Returns False and leaves ``cols`` and ``seen`` (see
    ``_code_column``) as they were unless the csv row loop would read every
    line the same way and without an error: UTF-8 with no quote, NUL or CR,
    the header's field count on every non-blank line, no line over the csv
    field size limit, no empty bank id, and every date and value converts."""
    # csv unquotes, ends lines at a CR too and, before Python 3.11, rejects
    # NUL, which a masked word could not tell from the end of a field
    if b'"' in block or b"\0" in block or b"\r" in block:
        return False
    if not block:
        return True
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError:
            return False
    # zero bytes after the end, so that every byte starts a whole word
    padded = block + bytes(8)
    chars = np.frombuffer(padded, np.uint8, len(block))
    words = np.ndarray((len(block) + 1,), "<u8", padded, 0, (1,))
    ends = np.flatnonzero(chars == 10)
    if not block.endswith(b"\n"):
        ends = np.append(ends, len(block))
    starts = np.r_[0, ends[:-1] + 1]
    lines = ends > starts  # a blank line is no row
    if not lines.all():
        starts, ends = starts[lines], ends[lines]
    n = len(starts)
    if not n:
        return True
    # a line has at least as many bytes as characters
    limit = csv.field_size_limit()
    if len(block) > limit and (ends - starts).max() > limit:
        return False
    # with as many commas as the lines need, the lines all have ``width``
    # fields exactly when each line's share of the sorted commas lies in it
    commas = np.flatnonzero(chars == 44)
    if len(commas) != (width - 1) * n:
        return False
    grid = commas.reshape(n, width - 1)
    if (grid[:, 0] < starts).any() or (grid[:, -1] >= ends).any():
        return False

    def field(j):
        lo = starts if j == 0 else grid[:, j - 1] + 1
        return lo, (grid[:, j] if j < width - 1 else ends) - lo
    seen = {} if seen is None else seen
    b_col, d_col, a_col, l_col = picks
    banks, new_banks, bank_keys = _code_column(cols.bank_code, seen, 0, words, *field(b_col))
    if "" in new_banks:
        return False
    dates, new_days, date_keys = _code_column(cols.date_code, seen, 1, words, *field(d_col))
    try:
        parsed = [datetime.date.fromisoformat(day).toordinal() for day in new_days]
        assets = _float_column(words, *field(a_col))
        liabilities = _float_column(words, *field(l_col))
    except ValueError:
        return False
    seen.update(bank_keys)
    seen.update(date_keys)
    cols.bank_code.update(new_banks)
    cols.date_code.update(new_days)
    cols.days += parsed
    cols.banks.append(banks)
    cols.dates.append(dates)
    cols.assets.append(assets)
    cols.liabilities.append(liabilities)
    return True


def _read_range(path: Path, start: int, stop: int, width: int, picks) -> _Columns | None:
    """The rows in bytes ``[start, stop)`` of the file, both line boundaries,
    converted a block of whole lines at a time; None at the first block that
    is not plain. No newline byte is part of a multibyte character, so the
    blocks, cut after one, decode as the whole file does."""
    cols, seen = _Columns(), {}
    with open(path, "rb") as fh:
        fh.seek(start)
        carry, left = b"", stop - start
        while True:
            chunk = fh.read(min(_BLOCK_BYTES, left))
            left -= len(chunk)
            data = carry + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            if not _read_plain(data[:cut], width, picks, cols, seen):
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
    n_cells, n_rows = shape[0] * shape[1], sum(map(len, cols.banks))
    if n_cells > max(_MAX_CELLS, _MAX_CELLS_PER_ROW * n_rows):
        raise IngestError(
            f"{path}: {shape[0]} dates x {shape[1]} banks from {n_rows} rows: "
            f"a dense panel of {n_cells} cells is over the limit of {_MAX_CELLS} cells "
            f"and {_MAX_CELLS_PER_ROW} cells per row")
    date_row = np.array([rank[day] for day in cols.days])
    bank_column = np.array([column[bank] for bank in cols.bank_code])
    # a part at a time, so that no column is copied whole
    cell = np.empty(n_rows, np.int64)
    a_mat, l_mat = np.full(shape, np.nan), np.full(shape, np.nan)
    at = 0
    for banks, dates, assets, liabilities in zip(cols.banks, cols.dates, cols.assets,
                                                 cols.liabilities):
        part = cell[at:at + len(banks)]
        np.add(date_row[dates] * shape[1], bank_column[banks], out=part)
        a_mat.reshape(-1)[part] = assets
        l_mat.reshape(-1)[part] = liabilities
        at += len(banks)
    count = np.bincount(cell, minlength=n_cells).reshape(shape)
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
