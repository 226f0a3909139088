"""The run-at-a-time panel writer against the row-at-a-time reference, and
the one write path: outputs that a failed write leaves as they were, missing
directories made, LF line ends and no temp file left."""

import os
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


@settings(max_examples=400, deadline=None)
@example(panel=_panel([[1.0], [1.0], [1.0], [2.0], [2.0]], [[0.0], [-0.0], [0.0], [0.0], [0.0]]))
@example(panel=_panel([[0.0], [-0.0], [-0.0]], [[1.0], [1.0], [1.0]]))
@example(panel=_panel([[1.0, 3.0], [np.nan, 3.0], [1.0, np.nan]],
                      [[0.5, 1.0], [np.nan, 1.0], [0.5, np.nan]], ids=("a", "Banco, SA")))
@given(panel=panels())
def test_panel_writer_matches_the_row_loop(tmp_path_factory, panel):
    directory = tmp_path_factory.mktemp("panel")
    reference_write_panel_csv(panel, directory / "reference.csv")
    write_panel_csv(panel, directory / "panel.csv")
    assert (directory / "panel.csv").read_bytes() == (directory / "reference.csv").read_bytes()


def _four_banks() -> Panel:
    assets = np.array([[2.0, 3.0, 4.0, 5.0]] * 3)
    return Panel("p", ("a", "b", "c", "d"), tuple(map(period_date, range(3))), assets, assets / 2)


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
