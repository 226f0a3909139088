"""The run-at-a-time panel writer, in one process or several, against the
row-at-a-time reference, and the one write path: outputs that a failed write
leaves as they were, missing directories made, symlinks followed, streams
written in place, LF line ends and no temp file left."""

import errno
import os
import pickle
import signal
import stat
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levnet import cli
from levnet.balance_sheet import Panel
from levnet.cli import EXIT_OK, _csv_field, main, write_curve_csv, write_panel_csv, write_study_csv
from levnet.growth import replication_study
from levnet.network import ClusterCurve
from levnet.sim import SimConfig, period_date

from conftest import assert_no_child_left, count_forks, needs_fork


def reference_write_panel_csv(panel, path):
    """One f-string and one write per row, each value through repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("bank_id,date,assets,liabilities\n")
        for bank, assets, liabilities in zip(panel.bank_ids, panel.assets.T, panel.liabilities.T):
            bank = _csv_field(bank)
            rows = np.flatnonzero(~np.isnan(assets))
            for t, a, l in zip(rows.tolist(), assets[rows].tolist(), liabilities[rows].tolist()):
                fh.write(f"{bank},{panel.dates[t]},{a!r},{l!r}\n")


IDS = ("B00", "B01", "Banco, SA", 'Caja "Rural"', "z", "é")
# equal values with different bits and reprs, and ones whose repr is long
VALUES = (0.0, -0.0, 1.0, 1.5, 0.1 + 0.2, 5e-324, 1e300, 28031.973111511554)
STEPS = ("same", "same", "same", "assets", "liabilities", "both")


@st.composite
def panels(draw):
    """Duck-typed panels: the writer reads only these fields, so the cells
    need not be valid balance sheets and either column can hold 0.0 and -0.0.
    Each bank reports over a run of dates, maybe with interior gaps, and
    mostly repeats its previous pair."""
    n_dates = draw(st.integers(1, 20))
    ids = sorted(draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True)))
    assets = np.full((n_dates, len(ids)), np.nan)
    liabilities = np.full_like(assets, np.nan)
    for k in range(len(ids)):
        first = draw(st.integers(0, n_dates - 1))
        last = draw(st.integers(first, n_dates - 1))
        a, l = draw(st.sampled_from(VALUES)), draw(st.sampled_from(VALUES))
        for t in range(first, last + 1):
            if first < t < last and draw(st.integers(0, 4)) == 0:
                continue  # an interior gap
            step = draw(st.sampled_from(STEPS))
            if step in ("assets", "both"):
                a = draw(st.sampled_from(VALUES))
            if step in ("liabilities", "both"):
                l = draw(st.sampled_from(VALUES))
            assets[t, k], liabilities[t, k] = a, l
    days = np.cumsum(draw(st.lists(st.integers(1, 400), min_size=n_dates, max_size=n_dates)))
    dates = draw(st.sampled_from([tuple(map(period_date, days.tolist())),
                                  tuple(f"q{t}" for t in range(n_dates))]))
    return SimpleNamespace(bank_ids=tuple(ids), dates=dates, assets=assets,
                           liabilities=liabilities)


def _panel(assets, liabilities, ids=("a",)):
    assets, liabilities = np.array(assets, float), np.array(liabilities, float)
    return SimpleNamespace(bank_ids=ids, dates=tuple(map(period_date, range(len(assets)))),
                           assets=assets, liabilities=liabilities)


def in_writers(mp, k):
    """Share every panel write among up to ``k`` processes, one block of
    banks each, whatever its runs and rows and however many CPUs the process
    may use."""
    mp.setattr(cli, "_MIN_WRITE_RUNS", 1)
    mp.setattr(cli, "_SENT_ROWS_PER_RUN", 1 << 62)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


@settings(max_examples=400, deadline=None)
@example(panel=_panel([[1.0], [1.0], [1.0], [2.0], [2.0]], [[0.0], [-0.0], [0.0], [0.0], [0.0]]),
         k=2)
@example(panel=_panel([[0.0], [-0.0], [-0.0]], [[1.0], [1.0], [1.0]]), k=1)
@example(panel=_panel([[1.0, 3.0], [np.nan, 3.0], [1.0, np.nan]],
                      [[0.5, 1.0], [np.nan, 1.0], [0.5, np.nan]], ids=("a", "Banco, SA")), k=2)
# one bank holds most runs, so a block boundary falls inside it and one
# block is empty
@example(panel=_panel([[1.0, 5.0, 9.0], [2.0, 5.0, 9.0], [3.0, 5.0, 9.0], [4.0, 5.0, 9.0]],
                      [[0.5, 1.0, 1.0]] * 4, ids=("a", "b", "z")), k=3)
@given(panel=panels(), k=st.sampled_from([1, 2, 3]))
def test_panel_writer_matches_the_row_loop(tmp_path_factory, panel, k):
    directory = tmp_path_factory.mktemp("panel")
    reference_write_panel_csv(panel, directory / "reference.csv")
    with pytest.MonkeyPatch.context() as mp:
        in_writers(mp, k)
        write_panel_csv(panel, directory / "panel.csv")
    assert (directory / "panel.csv").read_bytes() == (directory / "reference.csv").read_bytes()
    if hasattr(os, "fork"):
        assert_no_child_left()


def _four_banks() -> Panel:
    assets = np.array([[2.0, 3.0, 4.0, 5.0]] * 3)
    return Panel("p", ("a", "b", "c", "d"), tuple(map(period_date, range(3))), assets, assets / 2)


def _four_banks_csv(path):
    reference_write_panel_csv(_four_banks(), path)
    return path.read_bytes()


@needs_fork
@pytest.mark.parametrize("failure", ["raises", "exits 1", "killed", "short result",
                                     "cannot fork"])
def test_a_failed_writer_child_gives_the_same_bytes(tmp_path, monkeypatch, failure):
    expected = _four_banks_csv(tmp_path / "reference.csv")
    # four banks of one run each in three blocks: [a], [b], [c, d]
    in_writers(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    parent, field, dumps = os.getpid(), cli._csv_field, pickle.dumps

    def failing(text):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("a child's own error")
            if failure == "exits 1":
                os._exit(1)
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
        return field(text)
    monkeypatch.setattr(cli, "_csv_field", failing)
    if failure == "short result":
        monkeypatch.setattr(pickle, "dump", lambda obj, file, *args: file.write(
            dumps(obj, *args)[:-1]))
    if failure == "cannot fork":
        def refused():
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        monkeypatch.setattr(os, "fork", refused)
    write_panel_csv(_four_banks(), tmp_path / "panel.csv")
    assert (tmp_path / "panel.csv").read_bytes() == expected
    assert len(forks) == (0 if failure == "cannot fork" else 2)
    assert_no_child_left()


@needs_fork
def test_no_child_outlives_an_interrupted_write(tmp_path, monkeypatch):
    # the children are killed, not waited for, and reaped, and the old file stays
    path = tmp_path / "panel.csv"
    path.write_bytes(b"old\n")
    in_writers(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    parent = os.getpid()

    def interrupted(text):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return text
    monkeypatch.setattr(cli, "_csv_field", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        write_panel_csv(_four_banks(), path)
    assert time.monotonic() - started < 30
    assert len(forks) == 2
    assert_no_child_left()
    assert os.listdir(tmp_path) == ["panel.csv"] and path.read_bytes() == b"old\n"


def _runs_panel(n_banks, n_dates, run_length):
    """A panel whose banks change their pair every ``run_length`` dates."""
    pairs = np.random.default_rng(7).uniform(1e3, 1e5, (-(-n_dates // run_length), n_banks))
    assets = np.repeat(pairs, run_length, axis=0)[:n_dates]
    return Panel("p", tuple(f"B{k:03d}" for k in range(n_banks)),
                 tuple(map(period_date, range(n_dates))), assets, assets / 2.5)


@needs_fork
def test_one_worker_and_simulated_panels_fork_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = count_forks(monkeypatch)
    # the shape of the 80 x 5,000 simulated panel: about 11,500 runs in
    # 400,000 rows, whose text would cost more to send back than it saves
    write_panel_csv(_runs_panel(80, 5_000, 35), tmp_path / "sim.csv")
    assert forks == []
    # a reporting panel of 640 banks and 60 quarters, one run a row
    wide = _runs_panel(640, 60, 1)
    write_panel_csv(wide, tmp_path / "wide.csv")
    assert len(forks) == 1
    assert_no_child_left()
    reference_write_panel_csv(wide, tmp_path / "reference.csv")
    assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    in_writers(monkeypatch, 1)
    write_panel_csv(_four_banks(), tmp_path / "four.csv")
    assert len(forks) == 1


def _fail_in_third_bank(monkeypatch):
    calls = []

    def field(text):
        calls.append(text)
        if len(calls) == 3:
            raise OSError("no space left on device")
        return text

    monkeypatch.setattr(cli, "_csv_field", field)


@pytest.mark.parametrize("existing", [b"bank_id,date,assets,liabilities\nold,2005-03-31,2.0,1.0\n",
                                      None], ids=["over-a-file", "new-file"])
@pytest.mark.parametrize("output", ["panel", "json"])
def test_a_write_that_fails_partway_leaves_the_old_file(tmp_path, monkeypatch, existing, output):
    path = tmp_path / "out"
    if existing is not None:
        path.write_bytes(existing)
    if output == "panel":
        _fail_in_third_bank(monkeypatch)
        with pytest.raises(OSError, match="no space left"):
            write_panel_csv(_four_banks(), path)
    else:
        with pytest.raises(ValueError):  # JSON has no NaN: the dump stops at "b"
            cli._write_json({"a": [1, 2, 3], "b": float("nan")}, path)
    assert os.listdir(tmp_path) == ([] if existing is None else ["out"])
    if existing is not None:
        assert path.read_bytes() == existing


def test_a_finished_write_replaces_the_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_bytes(b"old\n")
    write_panel_csv(_four_banks(), path)
    assert os.listdir(tmp_path) == ["panel.csv"]
    assert path.read_text(encoding="utf-8").splitlines()[:2] == [
        "bank_id,date,assets,liabilities", f"a,{period_date(0)},2.0,1.0"]


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
@pytest.mark.parametrize("target", ["a file", "no file"])
def test_a_write_through_a_symlink_replaces_its_final_target(tmp_path, target):
    expected = _four_banks_csv(tmp_path / "reference.csv")
    data = tmp_path / "data"
    data.mkdir()
    if target == "a file":
        (data / "panel.csv").write_bytes(b"old\n")
    # a relative link to a link to the target
    (data / "latest.csv").symlink_to("panel.csv")
    link = tmp_path / "out.csv"
    link.symlink_to(os.path.join("data", "latest.csv"))
    write_panel_csv(_four_banks(), link)
    assert link.is_symlink() and (data / "latest.csv").is_symlink()
    assert os.readlink(link) == os.path.join("data", "latest.csv")
    assert (data / "panel.csv").read_bytes() == expected
    assert sorted(os.listdir(data)) == ["latest.csv", "panel.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_a_write_to_a_fifo_reaches_its_reader_and_keeps_the_fifo(tmp_path):
    expected = _four_banks_csv(tmp_path / "reference.csv")
    fifo = tmp_path / "out" / "panel.csv"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    got = []
    # a daemon, so that a reader left waiting for a writer cannot hold up the run
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        write_panel_csv(_four_banks(), fifo)
    finally:
        reader.join(10)
    assert not reader.is_alive()
    assert got == [expected]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(fifo.parent) == ["panel.csv"]


@pytest.mark.parametrize("writer", ["panel", "curve", "study", "json"])
def test_a_writer_makes_the_missing_directories(tmp_path, writer):
    path = tmp_path / "a" / "b" / "out"
    if writer == "panel":
        write_panel_csv(_four_banks(), path)
    elif writer == "curve":
        write_curve_csv(ClusterCurve(((0.0, 1.0), (0.5, 0.25))), path)
    elif writer == "study":
        write_study_csv(replication_study(SimConfig(n_banks=8, n_periods=40, seed=5), 1), path)
    else:
        cli._write_json({"a": 1}, path)
    assert os.listdir(path.parent) == ["out"]
    assert path.read_bytes().endswith(b"\n")


SIM = ["--seed", "5", "--n-banks", "8", "--n-periods", "120"]
COMMANDS = {
    "ingest": (["ingest", "--input", "{panel}", "--out-dir", "{out}"], ["census.json", "panel.csv"]),
    "network": (["network", "--input", "{panel}", "--avg-degree", "2", "--out-dir", "{out}"],
                ["components.csv", "edges.csv", "summary.json"]),
    "curve": (["curve", "--input", "{panel}", "--out", "{out}/curve.csv"], ["curve.csv"]),
    "simulate": (["simulate", *SIM, "--out-dir", "{out}"],
                 ["adjacency.csv", "events.csv", "panel.csv", "summary.json"]),
    "study": (["study", *SIM, "--runs", "2", "--out", "{out}/study.csv"], ["study.csv"]),
}


@pytest.fixture(scope="module")
def sim_panel(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", *SIM, "--out-dir", str(out)]) == EXIT_OK
    return out / "panel.csv"


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_writes_lf_files_under_missing_directories(tmp_path, sim_panel, command):
    argv, names = COMMANDS[command]
    out = tmp_path / "a" / "b"
    assert main([arg.format(panel=sim_panel, out=out) for arg in argv]) == EXIT_OK
    # every file, and no hidden temp file beside them
    assert sorted(os.listdir(out)) == names
    for name in names:
        data = (out / name).read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
