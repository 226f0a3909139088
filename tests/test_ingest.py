"""Columnar ingest against a per-bank reference on small panels with planted
defects, and the block reader, in one byte range or in several read by forked
children, against the csv row loop on hostile files."""

import csv
import datetime
import errno
import math
import os
import pickle
import signal
import threading
import time
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from levnet import cli
from levnet._forked import workers
from levnet.cli import IngestError, IngestSpec, ingest_panel

from conftest import assert_no_child_left, bank_series, count_forks, needs_fork

DATES = ("2005-03-31", "2005-06-30", "2005-09-30", "2005-12-31", "2006-03-31", "2006-06-30")
IDS = ("a", "b", "Banco, SA", 'Caja "Rural"', "z9", "Z")
DEFECTS = ("none", "none", "none", "duplicate", "nan", "inf", "-inf",
           "zero assets", "negative assets", "negative liabilities", "insolvent", "no equity")


def reference(rows, mode):
    """The per-bank ingest loop: group rows, sort each bank, check it alone.

    Returns (dropped, gapped, census, complete) or the strict-mode message.
    """
    dates = sorted({datetime.date.fromisoformat(d) for _, d, _, _ in rows})
    rank = {d: k for k, d in enumerate(dates)}
    by_bank = {}
    for bank, day, assets, liabilities in rows:
        by_bank.setdefault(bank, []).append(
            (rank[datetime.date.fromisoformat(day)], assets, liabilities))
    members, dropped, gapped = {}, [], []
    for bank in sorted(by_bank):
        obs = sorted(by_bank[bank])
        times = [t for t, _, _ in obs]
        reason = "duplicate dates" if len(set(times)) != len(times) else series_fault(bank, obs)
        if reason is not None:
            if mode == "strict":
                return f"p.csv: bank {bank!r}: {reason}"
            dropped.append({"bank_id": bank, "reason": reason})
            continue
        if times[-1] - times[0] + 1 != len(times):
            if mode == "strict":
                return f"p.csv: bank {bank!r} has interior gaps (mixed sampling frequency)"
            gapped.append(bank)
        members[bank] = obs
    if not members:
        return "p.csv: no valid banks remain"
    end = len(dates) - 1
    firsts = [obs[0][0] for obs in members.values()]
    lasts = [obs[-1][0] for obs in members.values()]
    census = (sum(f == 0 for f in firsts), sum(last == end for last in lasts),
              sum(f > 0 for f in firsts), sum(last < end for last in lasts),
              sum(len(obs) == len(dates) for obs in members.values()))
    complete = {bank: ([a for _, a, _ in obs], [lb for _, _, lb in obs])
                for bank, obs in members.items() if len(obs) == len(dates)}
    return dropped, gapped, census, complete


def series_fault(bank, obs):
    """The balance-sheet rules in the order they are checked, one bank at a time."""
    if not all(math.isfinite(a) and math.isfinite(lb) for _, a, lb in obs):
        return f"{bank}: non-finite balance sheet values"
    for t, a, lb in obs:
        if a <= 0 or lb < 0:
            return f"{bank}: invalid assets/liabilities at t={t}"
    for t, a, lb in obs:
        if lb >= a:
            return f"liabilities >= assets at t={t}"
    return None


def columnar(path, mode):
    try:
        result = ingest_panel(IngestSpec(str(path), mode=mode))
    except IngestError as exc:
        return str(exc).replace(str(path), "p.csv")
    c = result.census
    complete = {m.bank_id: (m.assets.tolist(), m.liabilities.tolist())
                for m in bank_series(result.complete)}
    assert result.complete.bank_ids == tuple(sorted(complete))
    assert result.complete.dates == result.panel.dates
    return (result.report["dropped"], result.report["gapped_banks"],
            (c.n_start, c.n_end, c.n_birth, c.n_death, c.n_complete), complete)


@st.composite
def panels(draw):
    """Rows of a few banks, each over a run of dates, maybe gapped, maybe with one defect."""
    rows = []
    for bank in draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=5, unique=True)):
        first = draw(st.integers(0, len(DATES) - 1))
        last = draw(st.integers(first, len(DATES) - 1))
        span = list(range(first, last + 1))
        if len(span) > 2 and draw(st.booleans()):
            span.remove(draw(st.sampled_from(span[1:-1])))
        for t in span:
            liabilities = draw(st.sampled_from([0.0, 1.0, 99.5, 1e6]))
            assets = liabilities + draw(st.sampled_from([0.5, 20.0, 3e5]))
            rows.append([bank, DATES[t], assets, liabilities])
        defect = draw(st.sampled_from(DEFECTS))
        k = draw(st.integers(0, len(span) - 1))
        row = rows[len(rows) - len(span) + k]
        if defect == "duplicate":
            rows.append(list(row))
        elif defect in ("nan", "inf", "-inf"):
            row[draw(st.sampled_from([2, 3]))] = float(defect)
        elif defect == "zero assets":
            row[2] = 0.0
        elif defect == "negative assets":
            row[2] = -row[2]
        elif defect == "negative liabilities":
            row[3] = -1.0
        elif defect == "insolvent":
            row[3] = row[2] + 1.0
        elif defect == "no equity":
            row[3] = row[2]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(rows=panels(), mode=st.sampled_from(["lenient", "strict"]))
def test_columnar_ingest_matches_per_bank_reference(tmp_path_factory, rows, mode):
    path = tmp_path_factory.mktemp("panel") / "p.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bank_id", "date", "assets", "liabilities"])
        writer.writerows([bank, day, repr(a), repr(lb)] for bank, day, a, lb in rows)
    assert columnar(path, mode) == reference(rows, mode)


@pytest.mark.parametrize("spelling", ["nan", "NaN", "inf", "-Infinity"])
def test_literal_non_finite_is_never_a_missing_observation(tmp_path, spelling):
    path = tmp_path / "p.csv"
    path.write_text("bank_id,date,assets,liabilities\n"
                    "a,2005-03-31,2,1\na,2005-06-30,3,1\n"
                    f"b,2005-03-31,2,1\nb,2005-06-30,{spelling},1\n", encoding="utf-8")
    result = ingest_panel(IngestSpec(str(path)))
    assert result.report["dropped"] == [
        {"bank_id": "b", "reason": "b: non-finite balance sheet values"}]
    assert result.complete.bank_ids == ("a",)


# pieces of a panel file: plain ones, and the hostile ones edits put in
HEADERS = ("bank_id,date,assets,liabilities", "date,extra,liabilities,bank_id,assets")
FIELDS = {"bank_id": ("a", "b", "B00", " a", "b ", "é"),
          "date": ("2005-03-31", "2005-06-30", " 2005-09-30", "2005-12-31 ", "20050331")}
VALUES = ("1.5", "120.0", "3e2", "2", "0", "-1", "nan", "-Infinity", "1_0", "١٢", " 7 ")
ODD_HEADERS = ('"bank_id",date,assets,liabilities', "bank_id,date,assets", "")
LONG = "0." + "0" * 46 + "1"  # over a field size limit of 48, which plain lines are under
ODD_FIELDS = {"bank_id": ("", "  ", '"Banco, SA"', '"q"', 'x"y', "n\0"),
              "date": ("2005-13-01", "x", "", '"2005-03-31"', "2005-03-31\r")}
ODD_VALUES = ('"2"', "1e", "abc", "7\r", "1\0", LONG, LONG)
ODD_LINES = ("", "   ", ",,,", "a,2005-03-31", "a,2005-03-31,2,1,9,9")
EDITS = ("field", "field", "field", "field", "shift", "line", "short", "long", "crlf", "cr",
         "byte")


@st.composite
def hostile_files(draw):
    """The bytes of a panel file: plain rows, maybe a run long enough to span
    several 8 KiB decode chunks, with up to three hostile edits."""
    header = draw(st.sampled_from(HEADERS))
    names = header.split(",")
    rows = [[draw(st.sampled_from(FIELDS.get(name, VALUES))) for name in names]
            for _ in range(draw(st.integers(0, 12)))]
    if draw(st.sampled_from([False, False, False, True])):
        plain = {"bank_id": "{}", "date": "2006-0{}-15"}
        rows[:0] = [[plain.get(name, "{}.25").format(k % 9 + 1) for name in names]
                    for k in range(1000)]
    rows.insert(0, names)
    endings = ["\n"] * len(rows)
    byte_at = None
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=3)):
        k = draw(st.integers(0, len(rows) - 1))
        if not rows[k] and edit in ("field", "shift"):
            continue  # an earlier edit emptied the row: no field to edit or move
        if edit == "field":
            j = draw(st.integers(0, len(names) - 1))
            rows[k][j % len(rows[k])] = draw(st.sampled_from(ODD_FIELDS.get(names[j], ODD_VALUES)))
        elif edit == "shift":
            if k + 1 < len(rows):
                rows[k + 1].insert(0, rows[k].pop())  # one row short, the next long
        elif edit == "line":
            rows[k] = [draw(st.sampled_from(ODD_HEADERS if k == 0 else ODD_LINES))]
        elif edit in ("short", "long"):
            rows[k] = rows[k][:-1] if edit == "short" else rows[k] + ["9"]
        elif edit in ("crlf", "cr"):
            endings[k] = "\r\n" if edit == "crlf" else "\r"
        else:
            byte_at = draw(st.integers(0, 1 << 20))
    text = "".join(",".join(row) + end for row, end in zip(rows, endings))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if byte_at is not None:
        at = byte_at % (len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return data


def read_outcome(path, by_row):
    try:
        ids, grid_dates, count, assets, liabilities = cli._read_columns(
            IngestSpec(str(path)), path, by_row=by_row)
    except IngestError as exc:
        return str(exc)
    return (ids, grid_dates, count.shape, count.tobytes(), assets.tobytes(),
            liabilities.tobytes())


PLAIN_HEAD = b"bank_id,date,assets,liabilities\na,2005-03-31,2,1\nb,2005-03-31,3,1\n"

def in_ranges(mp, k):
    """Split every plain file's data into ``k`` ranges, whatever its size and
    however many CPUs the process may use."""
    mp.setattr(cli, "_MIN_RANGE_BYTES", 1)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


# with k ranges, the data part splits into k equal byte shares, each range
# ending after the line that holds its share's last byte
@settings(max_examples=500, deadline=None)
@example(data=PLAIN_HEAD + b'"q",2005-06-30,2,1\n', block=8, limit=None, ranges=1)
@example(data=PLAIN_HEAD + b"a,2005-06-30,7\r,1\n", block=8, limit=None, ranges=1)
@example(data=PLAIN_HEAD + b"a,2005-06-30,2,1\r\nb,2005-06-30,3,1\r\n", block=8, limit=None,
         ranges=1)
@example(data=PLAIN_HEAD + b"a,2005-06-30,2\n1,b,2005-06-30,2,1\n", block=1 << 16, limit=None,
         ranges=1)
@example(data=PLAIN_HEAD + b",2005-06-30,2,1\n", block=8, limit=None, ranges=1)
@example(data=PLAIN_HEAD + f"a,2005-06-30,{LONG},1\n".encode(), block=8, limit=48, ranges=1)
@example(data=PLAIN_HEAD + b" a,2005-06-30,2,1\n", block=8, limit=None, ranges=1)
@example(data=PLAIN_HEAD + b"a,2005-06-30,2,2.0\nb,2005-06-30,-0.0,2\nc,2005-06-30,0.0,-0.0\n",
         block=1 << 16, limit=None, ranges=1)
@example(data=PLAIN_HEAD + b"a,2005-06-30,x,1\nb,2005-06-30,x,1\n", block=1 << 16, limit=None,
         ranges=1)
@example(data=PLAIN_HEAD + b"a,2005-06-30,2,1\n,2005-06-30,3,1\n", block=8, limit=None, ranges=1)
# a quoted header field holding a comma: split at every comma, the header
# would name other columns than the csv reader does
@example(data=b'bank_id,date,"a,b",assets,liabilities\nx,2005-03-31,1,2,3,4\n', block=8,
         limit=None, ranges=1)
# a line that is not plain only in the last of three ranges
@example(data=PLAIN_HEAD + b"a,2005-06-30,2,1\nb,2005-06-30,3,1\na,2005-09-30,2,1\n"
         b'b,2005-09-30,3,1\n"q",2005-09-30,2,1\n', block=8, limit=None, ranges=3)
# a byte that is not UTF-8 only in the second range
@example(data=PLAIN_HEAD + b"a,2005-06-30,2,1\nb,2005-06-30,\xff3,1\n", block=8, limit=None,
         ranges=2)
# the second of three ranges holds only blank lines
@example(data=PLAIN_HEAD + b"\n" * 40 + b"a,2005-06-30,2,1\n", block=8, limit=None, ranges=3)
# bank c is first seen in the second range
@example(data=PLAIN_HEAD + b"a,2005-06-30,2,1\nc,2005-03-31,4,1\nc,2005-06-30,5,1\n",
         block=1 << 16, limit=None, ranges=2)
# the second range spells both days without dashes
@example(data=PLAIN_HEAD + b"a,2005-06-30,2,1\nb,20050630,3,1\nc,20050331,4,1\n",
         block=1 << 16, limit=None, ranges=2)
@given(data=hostile_files(), block=st.sampled_from([1, 2, 3, 5, 8, 13, 64, 1 << 16]),
       limit=st.sampled_from([None, 48]), ranges=st.sampled_from([1, 1, 2, 3]))
def test_block_reader_matches_the_row_loop(tmp_path_factory, data, block, limit, ranges):
    path = tmp_path_factory.mktemp("hostile") / "p.csv"
    path.write_bytes(data)
    default_limit = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        expected = read_outcome(path, by_row=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK_BYTES", block)
            in_ranges(mp, ranges)
            assert read_outcome(path, by_row=False) == expected
    finally:
        csv.field_size_limit(default_limit)


@given(st.lists(st.sampled_from(VALUES + ODD_VALUES + ("2.0", "-0.0", "0.0", "-nan")),
                max_size=40))
def test_floats_match_a_float_per_string(strings):
    def converted(convert):
        try:
            return convert(strings).tobytes()
        except ValueError:
            return ValueError
    assert converted(cli._floats) == converted(lambda s: array("d", map(float, s)))


def test_block_that_is_not_plain_leaves_the_columns_as_they_were():
    cols = cli._Columns()
    picks = (0, 1, 2, 3)
    assert cli._read_plain("a,2005-03-31,2,1\nb,2005-03-31,3,1\n", 4, picks, cols)

    def state():
        return (dict(cols.bank_code), dict(cols.date_code), list(cols.days),
                *(arr.tobytes() for arr in (cols.banks, cols.dates, cols.assets,
                                             cols.liabilities)))
    before = state()
    assert not cli._read_plain("c,2005-06-30,2,1\na,2005-06-30,x,1\n", 4, picks, cols)
    assert state() == before


def test_plain_file_never_reaches_the_row_loop(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    path.write_text("bank_id,date,assets,liabilities\n\n a ,2005-03-31,2,1\n"
                    "b,2005-03-31 ,nan,1\n\na,2005-06-30,-Infinity,1_0", encoding="utf-8")
    expected = read_outcome(path, by_row=True)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 7)
    monkeypatch.setattr(cli, "_read_rows", None)
    assert read_outcome(path, by_row=False) == expected
    assert expected[0] == ["a", "b"] and expected[2] == (2, 2)


@pytest.mark.parametrize("bad_row", [None, 40, 1500])
def test_decode_error_is_the_row_loops_in_a_long_file(tmp_path, bad_row):
    """Past the first 8 KiB the block reads decode other chunks than the
    row loop; the error, and a row error before it, are still the row loop's."""
    rows = [f"b{k % 9},2006-0{k % 9 + 1}-15,{k}.25,1.0\n" for k in range(2000)]
    if bad_row is not None:
        rows[bad_row] = "b1,2006-01-15,x,1.0\n"
    data = ("bank_id,date,assets,liabilities\n" + "".join(rows)).encode("utf-8")
    path = tmp_path / "p.csv"
    path.write_bytes(data[:30_000] + b"\xff" + data[30_000:])
    expected = read_outcome(path, by_row=True)
    assert read_outcome(path, by_row=False) == expected
    assert ("malformed row" if bad_row == 40 else "not UTF-8") in expected


def test_workers_follow_the_cpus_the_size_and_the_threads(monkeypatch):
    def ranges(n_bytes):
        return workers(n_bytes, cli._MIN_RANGE_BYTES)
    if not hasattr(os, "fork"):
        assert ranges(1 << 30) == 1
        return
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # the 80 x 5,000 simulated panel, the 724-bank reporting panel and the
    # panel that ingest writes from it
    assert ranges(20_668_729) == 2
    assert ranges(1_778_430) == 2
    assert ranges(1_649_476) == 2
    # a second range from twice the floor: the 4 x 5,000 simulated panel is one
    assert ranges(2 * cli._MIN_RANGE_BYTES - 1) == 1
    assert ranges(1_030_106) == 1
    assert ranges(2 * cli._MIN_RANGE_BYTES) == 2
    assert ranges(0) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert ranges(20_668_729) == 8
    assert ranges(1_778_430) == 3
    assert ranges(1 << 30) == 8
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(10,))
    thread.start()
    try:
        assert ranges(1 << 30) == 1
    finally:
        done.set()
        thread.join(10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert ranges(1 << 30) == 1


@needs_fork
def test_no_child_outlives_a_read(tmp_path, monkeypatch):
    in_ranges(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    rows = b"a,2005-06-30,2,1\nb,2005-06-30,3,1\na,2005-09-30,2,1\nb,2005-09-30,3,1\n"
    for name, data in [("plain", PLAIN_HEAD + rows),
                       ("late fallback", PLAIN_HEAD + rows + b'"b",2005-12-31,3,1\n'),
                       ("early fallback", PLAIN_HEAD.replace(b"\na,", b'\n"a",') + rows)]:
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        before = len(forks)
        assert read_outcome(path, by_row=False) == read_outcome(path, by_row=True), name
        assert len(forks) == before + 2, name
        assert_no_child_left()

    # three banks on a diagonal of three dates: nine cells over both caps
    monkeypatch.setattr(cli, "_MAX_CELLS", 4)
    monkeypatch.setattr(cli, "_MAX_CELLS_PER_ROW", 1)
    path = tmp_path / "dense.csv"
    path.write_bytes(b"bank_id,date,assets,liabilities\na,2005-03-31,2,1\n"
                     b"b,2005-06-30,2,1\nc,2005-09-30,2,1\n")
    before = len(forks)
    with pytest.raises(IngestError, match="over the limit"):
        cli._read_columns(IngestSpec(str(path)), path)
    assert len(forks) == before + 2
    assert_no_child_left()

    # an interrupt while the children still read: they are killed, not
    # waited for, and reaped
    parent, read_range = os.getpid(), cli._read_range

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return read_range(*args)
    monkeypatch.setattr(cli, "_read_range", interrupted)
    path = tmp_path / "plain.csv"
    before, started = len(forks), time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli._read_columns(IngestSpec(str(path)), path)
    assert time.monotonic() - started < 30
    assert len(forks) == before + 2
    assert_no_child_left()

    # a first range that is not plain sends the file to the row loop at once:
    # the children are killed, not waited for
    def slow_children(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return read_range(*args)
    monkeypatch.setattr(cli, "_read_range", slow_children)
    path = tmp_path / "early fallback.csv"
    expected = read_outcome(path, by_row=True)
    before, started = len(forks), time.monotonic()
    assert read_outcome(path, by_row=False) == expected
    assert time.monotonic() - started < 30
    assert len(forks) == before + 2
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("failure", ["raises", "exits 1", "killed", "short result",
                                     "cannot fork"])
def test_a_failed_child_reads_as_one_range(tmp_path, monkeypatch, failure):
    path = tmp_path / "p.csv"
    path.write_bytes(PLAIN_HEAD + b"a,2005-06-30,2,1\nc,2005-03-31,4,1\nb, 2005-06-30,5,1\n"
                     b"c,2005-06-30,5,1\na,2005-09-30,2,1\nb,2005-09-30,\t3,1\n")
    expected = read_outcome(path, by_row=False)
    assert expected == read_outcome(path, by_row=True)
    # the failed child's range is read again here, not the file by the row loop
    monkeypatch.setattr(cli, "_read_rows", None)
    in_ranges(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    parent, read_range, dumps = os.getpid(), cli._read_range, pickle.dumps

    def failing(*args):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("a child's own error")
            if failure == "exits 1":
                os._exit(1)
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
        return read_range(*args)
    monkeypatch.setattr(cli, "_read_range", failing)
    if failure == "short result":
        monkeypatch.setattr(pickle, "dump", lambda obj, file, *args: file.write(
            dumps(obj, *args)[:-1]))
    if failure == "cannot fork":
        def refused():
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        monkeypatch.setattr(os, "fork", refused)
    assert read_outcome(path, by_row=False) == expected
    assert len(forks) == (0 if failure == "cannot fork" else 2)
    assert_no_child_left()
