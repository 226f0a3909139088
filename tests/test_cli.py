import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from levnet.cli import (
    EXIT_COMPUTE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    IngestError,
    IngestSpec,
    format_sim_config,
    ingest_panel,
    main,
    read_sim_config,
    write_panel_csv,
)
from levnet.sim import ConfigError, SimConfig, period_date

from conftest import constant_series, panel_from_members, series_from_leverage

WELL_FORMED = """bank_id,date,assets,liabilities
alpha,2005-03-31,120.0,100.0
alpha,2005-06-30,125.0,100.0
alpha,2005-09-30,150.0,100.0
beta,2005-03-31,90.0,30.0
beta,2005-06-30,95.0,31.0
beta,2005-09-30,99.0,32.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestIngest:
    def test_well_formed_two_banks(self, tmp_path):
        result = ingest_panel(IngestSpec(str(write(tmp_path, "p.csv", WELL_FORMED))))
        assert len(result.panel.grid) == 3
        assert result.complete.bank_ids == ("alpha", "beta")
        assert result.census.n_complete == 2
        assert not result.report["mixed_sampling"]

    def test_missing_tail_date_is_a_death_not_a_gap(self, tmp_path):
        text = WELL_FORMED.replace("beta,2005-09-30,99.0,32.0\n", "")
        result = ingest_panel(IngestSpec(str(write(tmp_path, "p.csv", text))))
        assert result.complete.bank_ids == ("alpha",)
        assert result.census.n_death == 1
        assert result.report["gapped_banks"] == []
        # a death is fine even in strict mode
        strict = ingest_panel(IngestSpec(str(tmp_path / "p.csv"), mode="strict"))
        assert strict.complete.bank_ids == ("alpha",)

    def test_interior_gap_lenient_flags_strict_refuses(self, tmp_path):
        text = WELL_FORMED.replace("beta,2005-06-30,95.0,31.0\n", "")
        path = write(tmp_path, "p.csv", text)
        result = ingest_panel(IngestSpec(str(path)))
        assert result.report["gapped_banks"] == ["beta"]
        assert result.report["mixed_sampling"]
        assert result.complete.bank_ids == ("alpha",)
        assert result.census.n_start == 2  # gapped banks still counted
        with pytest.raises(IngestError):
            ingest_panel(IngestSpec(str(path), mode="strict"))

    def test_insolvent_bank_dropped_or_fatal(self, tmp_path):
        text = WELL_FORMED.replace("beta,2005-06-30,95.0,31.0", "beta,2005-06-30,95.0,95.0")
        path = write(tmp_path, "p.csv", text)
        result = ingest_panel(IngestSpec(str(path)))
        assert result.panel.bank_ids == ("alpha",)
        assert result.report["dropped"][0]["bank_id"] == "beta"
        with pytest.raises(IngestError):
            ingest_panel(IngestSpec(str(path), mode="strict"))

    def test_malformed_row_reports_line_number(self, tmp_path):
        text = WELL_FORMED + "gamma,not-a-date,1.0,0.5\n"
        with pytest.raises(IngestError, match=":8:"):
            ingest_panel(IngestSpec(str(write(tmp_path, "p.csv", text))))

    def test_duplicate_dates_dropped(self, tmp_path):
        text = WELL_FORMED + "alpha,2005-03-31,120.0,100.0\n"
        result = ingest_panel(IngestSpec(str(write(tmp_path, "p.csv", text))))
        assert result.panel.bank_ids == ("beta",)
        assert result.report["dropped"][0]["reason"] == "duplicate dates"

    def test_column_mapping(self, tmp_path):
        text = WELL_FORMED.replace("bank_id,date,assets,liabilities", "bk,when,tot_a,tot_l")
        path = write(tmp_path, "p.csv", text)
        result = ingest_panel(IngestSpec(str(path), bank_col="bk", date_col="when",
                                         assets_col="tot_a", liabilities_col="tot_l"))
        assert result.census.n_complete == 2

    def test_spec_validation(self):
        with pytest.raises(IngestError):
            IngestSpec("x.csv", bank_col="date")
        with pytest.raises(IngestError):
            IngestSpec("x.csv", mode="loose")


class TestIngestCommand:
    def test_argentina_census_values(self, tmp_path, argentina_panel):
        src = tmp_path / "argentina.csv"
        write_panel_csv(argentina_panel, src)
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out-dir", str(out)]) == EXIT_OK
        census = json.loads((out / "census.json").read_text())["census"]
        assert census == {"n_start": 81, "n_end": 78, "n_birth": 3,
                          "n_death": 6, "n_complete": 75}
        panel_rows = (out / "panel.csv").read_text().splitlines()
        assert len(panel_rows) == 1 + 75 * 24

    def test_missing_file_is_io_error(self, tmp_path):
        rc = main(["ingest", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert rc == EXIT_IO

    def test_invalid_file_is_validation_error(self, tmp_path):
        bad = write(tmp_path, "bad.csv", "bank_id,date,assets,liabilities\nx,2020-01-01,0,0\n")
        rc = main(["ingest", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION


class TestNetworkCommand:
    def test_identical_panel_complete_graph(self, tmp_path):
        rows = ["bank_id,date,assets,liabilities"]
        for b in ("a", "b", "c"):
            for t, (a_, l_) in enumerate([(120.0, 100.0), (125.0, 100.0), (150.0, 100.0),
                                          (130.0, 100.0)]):
                rows.append(f"{b},200{t}-01-01,{a_},{l_}")
        src = write(tmp_path, "p.csv", "\n".join(rows) + "\n")
        out = tmp_path / "net"
        assert main(["network", "--input", str(src), "--rho", "0.9",
                     "--out-dir", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["largest_fraction"] == 1.0
        assert summary["n_edges"] == 3
        edges = (out / "edges.csv").read_text().splitlines()
        assert edges[0] == "bank_a,bank_b,r"
        assert len(edges) == 4

    def test_modular_panel_isolated_count(self, tmp_path, modular_panel):
        src = tmp_path / "modular.csv"
        write_panel_csv(modular_panel, src)
        out = tmp_path / "net"
        assert main(["network", "--input", str(src), "--rho", "0.8",
                     "--out-dir", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == 75
        assert summary["n_isolated"] == 41

    def test_average_degree_target(self, tmp_path, modular_panel):
        src = tmp_path / "modular.csv"
        write_panel_csv(modular_panel, src)
        out = tmp_path / "net"
        assert main(["network", "--input", str(src), "--avg-degree", "2.5",
                     "--out-dir", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["target_edges"] == 94
        assert summary["n_edges"] == 94

    def test_absolute_mode_with_avg_degree_rejected(self, tmp_path, modular_panel):
        src = tmp_path / "modular.csv"
        write_panel_csv(modular_panel, src)
        rc = main(["network", "--input", str(src), "--avg-degree", "2.5",
                   "--mode", "absolute", "--out-dir", str(tmp_path / "x")])
        assert rc == EXIT_COMPUTE

    def test_components_file_partitions_nodes(self, tmp_path, modular_panel):
        src = tmp_path / "modular.csv"
        write_panel_csv(modular_panel, src)
        out = tmp_path / "net"
        main(["network", "--input", str(src), "--rho", "0.5", "--out-dir", str(out)])
        lines = (out / "components.csv").read_text().splitlines()[1:]
        assert len(lines) == 75
        sizes = {}
        for line in lines:
            _, comp, size = line.split(",")
            sizes.setdefault(comp, set()).add(size)
        assert all(len(s) == 1 for s in sizes.values())


    def test_planted_constant_banks_are_reported_and_isolated(self, tmp_path):
        # constant leverage at non-dyadic values, 100 / (100 + i), over 500 dates
        rng = np.random.default_rng(3)
        walks = [series_from_leverage(f"W{k}", range(500),
                                      5.0 + np.cumsum(rng.normal(scale=0.05, size=500)))
                 for k in range(5)]
        planted = [constant_series(f"C{i:02d}", range(500), assets=200.0 + i) for i in range(75)]
        src = tmp_path / "planted.csv"
        write_panel_csv(panel_from_members("planted", walks + planted), src)
        out = tmp_path / "net"
        assert main(["network", "--input", str(src), "--rho", "-1",
                     "--out-dir", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["zero_variance_banks"] == [m.bank_id for m in planted]
        assert summary["n_isolated"] == len(planted)
        assert summary["n_edges"] == 5 * 4 // 2


class TestCurveCommand:
    def test_trivial_identical_pair(self, tmp_path):
        rows = ["bank_id,date,assets,liabilities"]
        for b in ("a", "b"):
            for t, l_ in enumerate([100.0, 110.0, 95.0]):
                rows.append(f"{b},201{t}-06-30,{l_ + 50.0},{l_}")
        src = write(tmp_path, "p.csv", "\n".join(rows) + "\n")
        out = tmp_path / "curve.csv"
        assert main(["curve", "--input", str(src), "--rho-min", "0", "--rho-max", "1",
                     "--rho-step", "0.25", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,largest_fraction"
        fractions = [float(line.split(",")[1]) for line in lines[1:]]
        assert fractions == [1.0] * 5

    def test_monotone_rows(self, tmp_path, modular_panel):
        src = tmp_path / "modular.csv"
        write_panel_csv(modular_panel, src)
        out = tmp_path / "curve.csv"
        assert main(["curve", "--input", str(src), "--rho-step", "0.05",
                     "--out", str(out)]) == EXIT_OK
        fractions = [float(line.split(",")[1])
                     for line in out.read_text().splitlines()[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(fractions, fractions[1:]))

    def test_bad_grid_rejected(self, tmp_path, modular_panel):
        src = tmp_path / "modular.csv"
        write_panel_csv(modular_panel, src)
        rc = main(["curve", "--input", str(src), "--rho-min", "0.9", "--rho-max", "0.2",
                   "--out", str(tmp_path / "c.csv")])
        assert rc == EXIT_COMPUTE


SIM_ARGS = ["--n-banks", "10", "--n-periods", "40", "--seed", "5"]


class TestSimulateCommand:
    def test_zero_periods_single_grid_point(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--out-dir", str(out), "--n-banks", "6",
                     "--n-periods", "0", "--seed", "1"]) == EXIT_OK
        rows = (out / "panel.csv").read_text().splitlines()
        assert len(rows) == 1 + 6

    def test_round_trip_bitwise(self, tmp_path):
        sim_dir = tmp_path / "sim"
        main(["simulate", "--out-dir", str(sim_dir)] + SIM_ARGS)
        ingest_dir = tmp_path / "back"
        assert main(["ingest", "--input", str(sim_dir / "panel.csv"),
                     "--out-dir", str(ingest_dir), "--mode", "strict"]) == EXIT_OK
        assert (sim_dir / "panel.csv").read_bytes() == (ingest_dir / "panel.csv").read_bytes()

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--out-dir", str(a)] + SIM_ARGS)
        main(["simulate", "--out-dir", str(b)] + SIM_ARGS)
        for name in ("panel.csv", "adjacency.csv", "events.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out-dir", str(tmp_path), "--n-banks", "6"])
        assert exc.value.code == EXIT_VALIDATION
        capsys.readouterr()

    def test_summary_and_adjacency_format(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--out-dir", str(out)] + SIM_ARGS)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 5 and summary["n_banks"] == 10
        assert summary["mean_leverage_final"] > 0
        adj = (out / "adjacency.csv").read_text().splitlines()
        assert adj[0] == "period,lender_id,borrower_id,amount"
        assert summary["n_interbank_links"] == len(adj) - 1

    def test_bad_config_value_is_validation_error(self, tmp_path):
        rc = main(["simulate", "--out-dir", str(tmp_path / "x"), "--seed", "1",
                   "--n-banks", "1"])
        assert rc == EXIT_VALIDATION


class TestStudyCommand:
    def test_single_run_rows(self, tmp_path):
        out = tmp_path / "study.csv"
        assert main(["study", "--runs", "1", "--out", str(out), "--n-banks", "8",
                     "--n-periods", "60", "--seed", "3"]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("run,bank_id,role,")
        assert len(lines) == 1 + 8
        roles = [line.split(",")[2] for line in lines[1:]]
        assert roles.count("pair1") == 1 and roles.count("pair2") == 1
        assert roles.count("population") == 6

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--runs", "2", "--n-banks", "8", "--n-periods", "60", "--seed", "9"]
        main(["study", "--out", str(a)] + args)
        main(["study", "--out", str(b)] + args)
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_default_file_matches_dataclass_defaults(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
        assert read_sim_config(path) == SimConfig()

    def test_round_trip_through_format(self, tmp_path):
        cfg = SimConfig(n_banks=33, arrival_rate=0.7, assets_range=(10.0, 20.0), seed=4)
        path = write(tmp_path, "c.cfg", format_sim_config(cfg))
        assert read_sim_config(path) == cfg

    def test_flags_override_file(self, tmp_path):
        path = write(tmp_path, "c.cfg", "n_banks = 20\nn_periods = 50\n")
        out = tmp_path / "sim"
        main(["simulate", "--config", str(path), "--n-periods", "10",
              "--seed", "2", "--out-dir", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_banks"] == 20
        assert summary["n_periods"] == 10

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "c.cfg", "bank_count = 5\n")
        with pytest.raises(ConfigError):
            read_sim_config(path)

    def test_comments_and_tuples(self, tmp_path):
        path = write(tmp_path, "c.cfg",
                     "# comment\nassets_range = 100, 200  # inline\nseed = 11\n")
        cfg = read_sim_config(path)
        assert cfg.assets_range == (100.0, 200.0)
        assert cfg.seed == 11


def test_panel_csv_uses_roundtrip_float_format(tmp_path, argentina_panel):
    path = tmp_path / "p.csv"
    write_panel_csv(argentina_panel, path)
    again = ingest_panel(IngestSpec(str(path)))
    back = tmp_path / "q.csv"
    write_panel_csv(again.panel, back)
    assert path.read_bytes() == back.read_bytes()


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_zero_average_degree_summary_is_strict_json(tmp_path, modular_panel):
    src = tmp_path / "modular.csv"
    write_panel_csv(modular_panel, src)
    out = tmp_path / "net"
    assert main(["network", "--input", str(src), "--avg-degree", "0",
                 "--out-dir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    assert summary["threshold"] is None
    assert summary["target_edges"] == 0 and summary["n_edges"] == 0


def test_bank_ids_that_need_quoting_round_trip(tmp_path):
    ids = ("Banco, SA", 'Caja "Rural"', "plain")
    paths = ([1.0, 2.0, 4.0, 3.0, 5.0], [2.0, 3.0, 5.0, 4.0, 7.0], [5.0, 4.0, 2.0, 3.0, 1.0])
    panel = panel_from_members("quoted", [series_from_leverage(b, range(5), lev)
                                          for b, lev in zip(ids, paths)])
    src = tmp_path / "p.csv"
    write_panel_csv(panel, src)
    assert src.read_text().splitlines()[1].startswith('"Banco, SA",')
    assert ingest_panel(IngestSpec(str(src), mode="strict")).complete.bank_ids == ids
    back = tmp_path / "back"
    assert main(["ingest", "--input", str(src), "--out-dir", str(back)]) == EXIT_OK
    assert (back / "panel.csv").read_bytes() == src.read_bytes()
    out = tmp_path / "net"
    assert main(["network", "--input", str(back / "panel.csv"), "--rho", "-1",
                 "--out-dir", str(out)]) == EXIT_OK
    with open(out / "edges.csv", newline="", encoding="utf-8") as fh:
        edges = [(row["bank_a"], row["bank_b"]) for row in csv.DictReader(fh)]
    assert edges == [(ids[0], ids[1]), (ids[0], ids[2]), (ids[1], ids[2])]
    with open(out / "components.csv", newline="", encoding="utf-8") as fh:
        assert [row["bank_id"] for row in csv.DictReader(fh)] == list(ids)


# SHA-256 of each output on the modular fixture, recorded before the network
# layer moved to one pair extraction and one union-find sweep. They pin the
# bytes that any refactor must keep. The correlations come from a BLAS matrix
# product, so another BLAS build may round differently; these were recorded
# with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64.
GOLDEN_PANEL = "e611f274b77501fcd304148ad6d08b03423a6a79e6550469a76489ae0ab3e6cc"
GOLDEN_NETWORK = {
    ("--rho", "0.8"): {
        "edges.csv": "a69a49e5f4e9ea9db12b0e9fe2fcf53f1cd94a51b3d177434f1f6e5c63de3797",
        "components.csv": "c1e91794eb62c42dae52814267d6e1e48e5ab555d4c19c931438d96d10d712e5",
        "summary.json": "349a14a393f62c1794b23ed9ea84dd8357b8431d26ea037c6d1683d7778de0ef",
    },
    ("--rho", "0.6", "--mode", "absolute"): {
        "edges.csv": "028c0d2054e28cf36051f51669fd74d623c1250cf809995518a1331835ba9ad4",
        "components.csv": "076e264a4abd895fbf4486788a8a9b074abef16598f1023196115f78a26ba0c5",
        "summary.json": "6f7c5bf05becf84fa6512876473ea64c891daaf726eb3d978900a9d2c26d1bf7",
    },
    ("--avg-degree", "2.5"): {
        "edges.csv": "a5e6888cdd4ebec7e0960014e87bfeba0e209a5b9eb6662797270784dc61a6dc",
        "components.csv": "0bfd817f7941313b4e228b9fd2c60fc88da856f08aeeb2954169e4bb6fef553f",
        "summary.json": "c707730851babfa0fe9e7bec7b9928e97e38a8d36238351dc2b7f4da74ad1121",
    },
}
GOLDEN_CURVE = {
    "signed": "ec923795db4e85edc2c2b86cce30456a9e865376cb2743a1e83bf0ee7be8c69d",
    "absolute": "08c7743a7bf728c7782e280dbe496562a9ca5cbab527c0bea3133d2df2e2a570",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# A hostile lenient input: remapped and reordered columns plus a junk one,
# shuffled rows, blank lines, padded fields, births, deaths, an interior gap,
# an insolvent bank, nan and inf spellings, non-positive assets, negative
# liabilities, a duplicate date, a quoted id, and banks breaking several rules.
HOSTILE_COLUMNS = ["--bank-col", "bk", "--date-col", "when",
                   "--assets-col", "tot_a", "--liabilities-col", "tot_l"]
HOSTILE = """when,tot_l,bk,junk,tot_a
2005-06-30,100.0,A01,x,125.0
2005-03-31,100.0,A01,,120.0
 2005-09-30 ,100.0,A01,y, 150.5 
2005-12-31,1.0e2,A01,,1.3e2
2006-03-31,101.25,A01,,140
2006-06-30,99.5,A01,,139.75

2005-03-31,30,A02,,90
2005-06-30,31,A02,,95
2005-09-30,32,A02,,99
2005-12-31,33,A02,,98
2006-03-31,34,A02,,97.5
2006-06-30,35,A02,,101
2005-03-31,0.0,"Banco, SA",,10
2005-06-30,1.0,"Banco, SA",,11
2005-09-30,2.0,"Banco, SA",,12
2005-12-31,3.0,"Banco, SA",,13
2006-03-31,4.0,"Banco, SA",,14
2006-06-30,5.0,"Banco, SA",,15
2005-03-31,5,  spaced  ,,50
2005-06-30,5,spaced,,50
2005-09-30,5,spaced,,50
2005-12-31,5,spaced,,50
2006-03-31,5,spaced,,50
2006-06-30,5,spaced,,50
2005-12-31,10,BORN,,20
2006-03-31,11,BORN,,21
2006-06-30,12,BORN,,22
2005-03-31,10,DEAD,,20
2005-06-30,11,DEAD,,21
2005-09-30,12,DEAD,,22
2005-03-31,10,GAP,,20
2005-06-30,11,GAP,,21
2005-12-31,12,GAP,,22
2006-03-31,13,GAP,,23
2005-03-31,10,INSOLV,,20
2005-06-30,21,INSOLV,,21
2005-09-30,23,INSOLV,,22
2005-03-31,10,NANB,,20
2005-06-30,nan,NANB,,21
2005-03-31,10,INFB,,20
2005-06-30,inf,INFB,,21
2005-03-31,10,NINF,,-Infinity
2005-06-30,10,NINF,,21
2005-03-31,10,ZERO,,20
2005-06-30,0,ZERO,,0.0
2005-03-31,-5,NEGL,,20
2005-06-30,10,NEGL,,20
2005-03-31,10,DUP,,20
2005-06-30,10,DUP,,20
2005-06-30,11,DUP,,21
2005-03-31,10,MULTI,,-1
2005-06-30,10,MULTI,,NaN
2005-03-31,30,DEGINV,,20
2005-06-30,10,DEGINV,,0
2005-03-31,10,DUPNAN,,nan
2005-03-31,10,DUPNAN,,20
2006-06-30,13,GAP,,24

2005-06-30,100.0,A03,,125.0
2005-03-31,100.0,A03,,120.0
2005-09-30,100.0,A03,,150.0
2005-12-31,100.0,A03,,130.0
2006-03-31,100.0,A03,,140.0
2006-06-30,100.0,A03,,135.0
"""
HOSTILE_CENSUS = {"n_start": 7, "n_end": 7, "n_birth": 1, "n_death": 1, "n_complete": 5}
HOSTILE_DROPPED = [
    {"bank_id": "DEGINV", "reason": "DEGINV: invalid assets/liabilities at t=1"},
    {"bank_id": "DUP", "reason": "duplicate dates"},
    {"bank_id": "DUPNAN", "reason": "duplicate dates"},
    {"bank_id": "INFB", "reason": "INFB: non-finite balance sheet values"},
    {"bank_id": "INSOLV", "reason": "liabilities >= assets at t=1"},
    {"bank_id": "MULTI", "reason": "MULTI: non-finite balance sheet values"},
    {"bank_id": "NANB", "reason": "NANB: non-finite balance sheet values"},
    {"bank_id": "NEGL", "reason": "NEGL: invalid assets/liabilities at t=0"},
    {"bank_id": "NINF", "reason": "NINF: non-finite balance sheet values"},
    {"bank_id": "ZERO", "reason": "ZERO: invalid assets/liabilities at t=1"},
]
GOLDEN_HOSTILE = {
    "panel.csv": "a6c82fe536b53f1c181f7163399cd9b5010cdd6eb9835ee1abfbf83a1eb7db61",
    "census.json": "dd91f1efe01e3593bff678fc5834372ce39b72a7d4d044cd5272cea865fe868e",
}

STRICT_HEADER = "bank_id,date,assets,liabilities\n"
STRICT_OK = "ok,2005-03-31,120.0,100.0\nok,2005-06-30,125.0,100.0\nok,2005-09-30,130.0,100.0\n"
STRICT_DEFECTS = {
    name: (STRICT_HEADER + body, message) for name, (body, message) in {
        "duplicate": (STRICT_OK + "x,2005-03-31,2,1\nx,2005-03-31,3,1\n",
                      "p.csv: bank 'x': duplicate dates"),
        "nan": (STRICT_OK + "x,2005-03-31,nan,1\n",
                "p.csv: bank 'x': x: non-finite balance sheet values"),
        "inf": (STRICT_OK + "x,2005-03-31,2,inf\n",
                "p.csv: bank 'x': x: non-finite balance sheet values"),
        "zero assets": (STRICT_OK + "x,2005-03-31,2,1\nx,2005-06-30,0,0\n",
                        "p.csv: bank 'x': x: invalid assets/liabilities at t=1"),
        "negative liabilities": (STRICT_OK + "x,2005-09-30,2,-1\n",
                                 "p.csv: bank 'x': x: invalid assets/liabilities at t=2"),
        "insolvent": (STRICT_OK + "x,2005-03-31,2,1\nx,2005-09-30,2,2\n",
                      "p.csv: bank 'x': liabilities >= assets at t=2"),
        "interior gap": (STRICT_OK + "x,2005-03-31,2,1\nx,2005-09-30,3,1\n",
                         "p.csv: bank 'x' has interior gaps (mixed sampling frequency)"),
        "first bad bank in id order": (
            STRICT_OK + "z,2005-03-31,nan,1\nb,2005-03-31,2,1\nb,2005-09-30,3,1\n"
            "c,2005-03-31,2,3\n",
            "p.csv: bank 'b' has interior gaps (mixed sampling frequency)"),
        "rule order within a bank": (STRICT_OK + "x,2005-03-31,2,3\nx,2005-06-30,-2,1\n",
                                     "p.csv: bank 'x': x: invalid assets/liabilities at t=1"),
        "malformed date": (STRICT_OK + "x,2005-13-01,2,1\n",
                           "p.csv:5: malformed row: month must be in 1..12"),
        "malformed number": (STRICT_OK + "\nx,2005-03-31,2,one\n",
                             "p.csv:6: malformed row: could not convert string to float: 'one'"),
        "short row": (STRICT_OK + "x,2005-03-31,2\n",
                      "p.csv:5: malformed row: list index out of range"),
        "empty bank id": (STRICT_OK + " ,2005-03-31,2,1\n", "p.csv:5: empty bank id"),
        "no data rows": ("\n", "p.csv: no data rows"),
        "no valid banks": ("x,2005-03-31,2,3\n", "p.csv: bank 'x': liabilities >= assets at t=0"),
    }.items()}
STRICT_DEFECTS["missing column"] = (
    "bank,date,assets,liabilities\n" + STRICT_OK,
    "p.csv: missing column in header ['bank', 'date', 'assets', 'liabilities']: "
    "'bank_id' is not in list")
STRICT_DEFECTS["empty file"] = ("", "p.csv: empty file")

TWO_SPELLINGS = """bank_id,date,assets,liabilities
a,2005-03-31,120.0,100.0
b,2005-03-31,120.0,100.0
a,20050331,120.0,100.0
b,2005-06-30,125.0,100.0
"""

GOLDEN_SIMULATE = {
    ("--n-banks", "10", "--n-periods", "40", "--seed", "5"): {
        "panel.csv": "ea0cecd65b586a2e7a98074543032160eb2abfa695efc6813bae0d030ca0c58f",
        "adjacency.csv": "06da4638b2825170c07ebdde21f0d903f56bec93fa2558f2c39d0c5ccd6bb58a",
        "events.csv": "59b2198fb09ca1d83d0254ac0a558fbca667c081d6df0c4982584a2b406561bc",
        "summary.json": "3de91ca13d5238c25a853711c8e942e6f0ca92c159b7a90d79178440f4e3c733",
    },
    ("--n-banks", "12", "--n-periods", "150", "--seed", "2", "--shock-probability", "0.5",
     "--deposit-bank-count", "3", "--maturity", "20"): {
        "panel.csv": "1f8adf2c8b3d2c4da9d35c5a04ae33174051011593eaaa100f07ccb8997b1948",
        "adjacency.csv": "3ba57341fcb86fa4a5bf0f53a44aac2dfe671c19667621d2917a30ddfc73229e",
        "events.csv": "f722a41e457a9e7d1ce93ca99df38bd959b6da4fb4d40f6ad333c24708e7cc39",
        "summary.json": "6314fb7bd4ee7f8456e1c2e5d2ebbc1bf206fccfe063daab813b61af9cf2b431",
    },
}
STUDY_FLAGS = ["--n-banks", "8", "--n-periods", "60", "--seed", "9"]
GOLDEN_STUDY = "1871dc91e09806d7c6e4340d93f8ae2f8a07042143b2fcf1187526e012616899"


class TestGoldenDigests:
    @pytest.fixture()
    def modular_csv(self, tmp_path, modular_panel):
        src = tmp_path / "modular.csv"
        write_panel_csv(modular_panel, src)
        return src

    def test_panel(self, modular_csv):
        assert sha256(modular_csv) == GOLDEN_PANEL

    @pytest.mark.parametrize("flags", list(GOLDEN_NETWORK), ids=" ".join)
    def test_network(self, tmp_path, modular_csv, flags):
        out = tmp_path / "net"
        assert main(["network", "--input", str(modular_csv), *flags,
                     "--out-dir", str(out)]) == EXIT_OK
        assert {name: sha256(out / name) for name in GOLDEN_NETWORK[flags]} == GOLDEN_NETWORK[flags]

    @pytest.mark.parametrize("mode", list(GOLDEN_CURVE))
    def test_curve(self, tmp_path, modular_csv, mode):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--input", str(modular_csv), "--mode", mode,
                     "--out", str(out)]) == EXIT_OK
        assert sha256(out) == GOLDEN_CURVE[mode]

    # -- ingest, simulate and study, recorded before the panel went columnar --

    def test_ingest_lenient_hostile(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("hostile.csv").write_text(HOSTILE, encoding="utf-8")
        assert main(["ingest", "--input", "hostile.csv", "--out-dir", "out",
                     *HOSTILE_COLUMNS]) == EXIT_OK
        assert {name: sha256(Path("out") / name) for name in GOLDEN_HOSTILE} == GOLDEN_HOSTILE

    def test_ingest_lenient_hostile_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("hostile.csv").write_text(HOSTILE, encoding="utf-8")
        assert main(["ingest", "--input", "hostile.csv", "--out-dir", "out",
                     *HOSTILE_COLUMNS]) == EXIT_OK
        report = json.loads(Path("out/census.json").read_text())
        assert report["census"] == HOSTILE_CENSUS
        assert report["validation"]["dropped"] == HOSTILE_DROPPED
        assert report["validation"]["gapped_banks"] == ["GAP"]

    @pytest.mark.parametrize("defect", list(STRICT_DEFECTS))
    def test_ingest_strict_messages(self, tmp_path, monkeypatch, defect):
        monkeypatch.chdir(tmp_path)
        text, message = STRICT_DEFECTS[defect]
        Path("p.csv").write_text(text, encoding="utf-8")
        with pytest.raises(IngestError) as exc:
            ingest_panel(IngestSpec("p.csv", mode="strict"))
        assert str(exc.value) == message

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="fromisoformat reads the basic format from Python 3.11")
    def test_two_spellings_of_one_date_are_a_duplicate(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("p.csv").write_text(TWO_SPELLINGS, encoding="utf-8")
        result = ingest_panel(IngestSpec("p.csv"))
        assert result.report["dropped"] == [{"bank_id": "a", "reason": "duplicate dates"}]
        assert result.panel.grid_labels == ("2005-03-31", "2005-06-30")
        assert main(["ingest", "--input", "p.csv", "--out-dir", "out"]) == EXIT_OK
        assert Path("out/panel.csv").read_text() == (
            "bank_id,date,assets,liabilities\n"
            "b,2005-03-31,120.0,100.0\nb,2005-06-30,125.0,100.0\n")
        with pytest.raises(IngestError) as exc:
            ingest_panel(IngestSpec("p.csv", mode="strict"))
        assert str(exc.value) == "p.csv: bank 'a': duplicate dates"

    @pytest.mark.parametrize("flags", list(GOLDEN_SIMULATE), ids=" ".join)
    def test_simulate(self, tmp_path, flags):
        out = tmp_path / "sim"
        assert main(["simulate", "--out-dir", str(out), *flags]) == EXIT_OK
        assert {name: sha256(out / name) for name in GOLDEN_SIMULATE[flags]} == \
            GOLDEN_SIMULATE[flags]

    def test_study(self, tmp_path):
        out = tmp_path / "study.csv"
        assert main(["study", "--runs", "3", "--out", str(out), *STUDY_FLAGS]) == EXIT_OK
        assert sha256(out) == GOLDEN_STUDY


class TestHostileFiles:
    def test_oversized_field_is_a_validation_error(self, tmp_path, capsys):
        src = write(tmp_path, "big.csv", "bank_id,date,assets,liabilities\n"
                    "a,2005-03-31,120.0,100.0\n" + "b" * 200_000 + ",2005-03-31,1.0,0.5\n")
        assert main(["ingest", "--input", str(src), "--out-dir", str(tmp_path / "o")]) == \
            EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{src}:3:" in err and "field larger than field limit" in err

    def test_non_utf8_byte_is_a_validation_error(self, tmp_path, capsys):
        src = tmp_path / "latin1.csv"
        src.write_bytes(WELL_FORMED.replace("beta", "b\xe9ta").encode("latin-1"))
        assert main(["ingest", "--input", str(src), "--out-dir", str(tmp_path / "o")]) == \
            EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(src) in err and "utf-8" in err and "computation error" not in err

    def test_non_utf8_byte_in_network_input(self, tmp_path, capsys):
        src = tmp_path / "latin1.csv"
        src.write_bytes(WELL_FORMED.replace("beta", "b\xe9ta").encode("latin-1"))
        assert main(["network", "--input", str(src), "--rho", "0.5",
                     "--out-dir", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert str(src) in capsys.readouterr().err

    def test_sparse_file_over_the_dense_memory_limit_is_a_validation_error(self, tmp_path,
                                                                             capsys):
        # 3,000 banks, each on its own date: 9,000,000 cells from 3,000 rows
        rows = "".join(f"b{k},{period_date(k)},2.0,1.0\n" for k in range(3000))
        src = write(tmp_path, "sparse.csv", "bank_id,date,assets,liabilities\n" + rows)
        assert main(["ingest", "--input", str(src), "--out-dir", str(tmp_path / "o")]) == \
            EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(src) in err and "3000 dates x 3000 banks from 3000 rows" in err
        assert not (tmp_path / "o").exists()

    def test_date_only_a_dropped_bank_reports_is_still_a_grid_point(self, tmp_path):
        text = WELL_FORMED + "gamma,2005-12-31,nan,1.0\n"
        result = ingest_panel(IngestSpec(str(write(tmp_path, "p.csv", text))))
        assert result.report["dropped"] == [
            {"bank_id": "gamma", "reason": "gamma: non-finite balance sheet values"}]
        assert result.panel.grid_labels == ("2005-03-31", "2005-06-30", "2005-09-30",
                                             "2005-12-31")
        assert result.panel.bank_ids == ("alpha", "beta")
        assert result.complete.bank_ids == ()
        assert (result.census.n_end, result.census.n_death) == (0, 2)
