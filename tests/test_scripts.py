"""The scripts under scripts/ run end to end and agree with the CLI."""

import runpy
import sys
from pathlib import Path

from levnet.cli import EXIT_OK, main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_export_run_data_study_matches_the_cli(tmp_path, monkeypatch, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text("n_banks = 8\nn_periods = 120\nseed = 5\n", encoding="utf-8")
    out = tmp_path / "results"
    run_script(monkeypatch, "export_run_data.py", "--config", str(config),
               "--seeds", "1", "--runs", "2", "--out-dir", str(out))
    # every file complete, no temp file left beside them
    assert sorted(p.name for p in out.iterdir()) == [
        "curve_seed0.csv", "mean_traces.csv", "study.csv", "topology.csv"]
    assert len((out / "mean_traces.csv").read_text().splitlines()) == 1 + 121
    assert len((out / "topology.csv").read_text().splitlines()) == 2
    study = tmp_path / "study.csv"
    assert main(["study", "--config", str(config), "--seed", "5", "--runs", "2",
                 "--out", str(study)]) == EXIT_OK
    assert (out / "study.csv").read_bytes() == study.read_bytes()


def test_calibration_sweep_runs(monkeypatch, capsys):
    run_script(monkeypatch, "calibration_sweep.py", "--seeds", "1")
    assert capsys.readouterr().out.startswith("defaults: ")
