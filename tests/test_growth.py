import errno
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levnet import _forked, growth
from levnet.cli import EXIT_COMPUTE, EXIT_OK, main
from levnet.growth import (
    NoDefinedPairsError,
    ReplicationStudy,
    ZeroInitialLeverageError,
    growth_records,
    most_correlated_pair,
    replication_study,
)
from levnet.network import CorrelationMatrix
from levnet.panel_io import write_study_csv
from levnet.sim import SimConfig

from conftest import (
    BankSeries,
    assert_no_child_left,
    count_forks,
    from_observations,
    needs_fork,
    panel_from_members,
    random_correlation_matrix,
)

STUDY_CFG = SimConfig(n_banks=10, n_periods=150, seed=21)


class TestMostCorrelatedPair:
    def test_six_bank_example(self, six_bank_matrix):
        assert most_correlated_pair(six_bank_matrix) == ("C", "D", 0.84)

    def test_all_equal_takes_lexicographic_first(self):
        vals = np.full((4, 4), 0.5)
        np.fill_diagonal(vals, 1.0)
        m = CorrelationMatrix(("a", "b", "c", "d"), vals)
        assert most_correlated_pair(m) == ("a", "b", 0.5)

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = random_correlation_matrix(rng, int(rng.integers(2, 30)))
            got = most_correlated_pair(m)
            best = None
            for i in range(m.n):
                for j in range(i + 1, m.n):
                    r = m.entry(i, j)
                    if not math.isnan(r) and (best is None or r > best[2]):
                        best = (m.bank_ids[i], m.bank_ids[j], r)
            assert got == best

    def test_no_defined_pairs(self):
        vals = np.full((3, 3), math.nan)
        np.fill_diagonal(vals, 1.0)
        with pytest.raises(NoDefinedPairsError):
            most_correlated_pair(CorrelationMatrix(("a", "b", "c"), vals))

    def test_single_defined_pair_wins(self):
        vals = np.full((3, 3), math.nan)
        np.fill_diagonal(vals, 1.0)
        vals[1, 2] = vals[2, 1] = -0.4
        m = CorrelationMatrix(("a", "b", "c"), vals)
        assert most_correlated_pair(m) == ("b", "c", -0.4)


def growth_record(series):
    (record,) = growth_records(panel_from_members("p", [series]))
    return record


def scalar_growth_records(panel):
    """Bank by bank in Python floats, from the first and last grid points."""
    records = []
    for k, bank in enumerate(panel.bank_ids):
        a0, a1 = float(panel.assets[0, k]), float(panel.assets[-1, k])
        l0, l1 = float(panel.liabilities[0, k]), float(panel.liabilities[-1, k])
        lev0, lev1 = l0 / (a0 - l0), l1 / (a1 - l1)
        if lev0 == 0.0:
            raise ZeroInitialLeverageError(
                f"{bank}: initial leverage is zero, growth undefined")
        records.append((bank, lev1 / lev0, a1 / a0))
    return records


class TestGrowthRecord:
    def test_constant_series(self):
        s = from_observations("k", [(t, 150.0, 100.0) for t in range(5)])
        rec = growth_record(s)
        assert rec.leverage_growth == 1.0
        assert rec.assets_growth == 1.0

    def test_assets_growth_example(self):
        s = from_observations(
            "k", [(0, 10_000.0, 5_000.0), (1, 20_000.0, 9_000.0), (2, 45_000.0, 22_500.0)])
        assert growth_record(s).assets_growth == 4.5

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            assets = rng.uniform(100.0, 1e6, n)
            liabilities = assets * rng.uniform(0.05, 0.9, n)
            rec = growth_record(BankSeries("r", np.arange(n), assets, liabilities))
            lev = liabilities / (assets - liabilities)
            assert rec.assets_growth == pytest.approx(assets[-1] / assets[0], rel=1e-12)
            assert rec.leverage_growth == pytest.approx(lev[-1] / lev[0], rel=1e-12)

    def test_zero_initial_leverage(self):
        s = from_observations("k", [(0, 100.0, 0.0), (1, 100.0, 50.0)])
        with pytest.raises(ZeroInitialLeverageError,
                           match="^k: initial leverage is zero, growth undefined$"):
            growth_record(s)

    def test_growth_past_the_float_range_is_inf_without_a_warning(self):
        # leverage 1e-300 at the start and about 1e16 at the end
        s = from_observations("k", [(0, 1.0, 1e-300), (1, 1.0, 1.0 - 1e-16)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = growth_record(s)
        assert rec.leverage_growth == math.inf
        assert scalar_growth_records(panel_from_members("p", [s])) == [("k", math.inf, 1.0)]

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_currency_scale_invariance(self, scale):
        rows = [(0, 1_000.0, 400.0), (1, 1_600.0, 900.0), (2, 2_500.0, 1_200.0)]
        base = growth_record(from_observations("k", rows))
        scaled = growth_record(from_observations(
            "k", [(t, a * scale, l * scale) for t, a, l in rows]))
        assert scaled.assets_growth == pytest.approx(base.assets_growth, rel=1e-12)
        assert scaled.leverage_growth == pytest.approx(base.leverage_growth, rel=1e-12)


@st.composite
def growth_panels(draw):
    """A few complete banks over a short grid with random balance sheets;
    some start or end with zero debt."""
    n_dates = draw(st.integers(min_value=1, max_value=6))
    banks = []
    for k in range(draw(st.integers(min_value=1, max_value=6))):
        rows = []
        for t in range(n_dates):
            assets = draw(st.floats(min_value=1e-3, max_value=1e12))
            share = draw(st.sampled_from([0.0, 0.5]) | st.floats(min_value=0.0, max_value=0.99))
            rows.append((t, assets, assets * share))
        banks.append(from_observations(f"b{k}", rows))
    return panel_from_members("p", banks)


@settings(max_examples=200, deadline=None)
@given(growth_panels())
def test_growth_records_match_the_scalar_loop(panel):
    try:
        expected = scalar_growth_records(panel)
    except ZeroInitialLeverageError as exc:
        with pytest.raises(ZeroInitialLeverageError, match=f"^{exc}$"):
            growth_records(panel)
        return
    assert [(g.bank_id, g.leverage_growth, g.assets_growth)
            for g in growth_records(panel)] == expected


class TestReplicationStudy:
    def test_single_run_shape(self):
        study = replication_study(STUDY_CFG, 1)
        assert study.runs == 1
        rec = study.run_records[0]
        assert rec.run_index == 0
        assert rec.bank_a != rec.bank_b
        ids = {g.bank_id for g in rec.records}
        assert rec.bank_a in ids and rec.bank_b in ids
        assert len(rec.records) == STUDY_CFG.n_banks

    def test_deterministic(self):
        a = replication_study(STUDY_CFG, 3)
        b = replication_study(STUDY_CFG, 3)
        assert a == b

    def test_runs_are_independent_streams(self):
        # records for run r depend only on (seed, r), not on how many runs execute
        few = replication_study(STUDY_CFG, 1)
        many = replication_study(STUDY_CFG, 3)
        assert many.run_records[0] == few.run_records[0]
        assert many.run_records[0] != many.run_records[1]

    def test_medians_cover_population(self):
        rec = replication_study(STUDY_CFG, 1).run_records[0]
        ast = sorted(g.assets_growth for g in rec.records)
        assert rec.median_assets_growth == pytest.approx(float(np.median(ast)))

    def test_rejects_bad_runs(self):
        with pytest.raises(ValueError):
            replication_study(STUDY_CFG, 0)


# values whose order, sum or sign of zero could set a median apart
MEDIAN_VALUES = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e308, -1e308,
                 5e-324, -5e-324)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(MEDIAN_VALUES), st.floats()), min_size=1,
                max_size=12))
def test_median_is_numpys_to_the_bit(values):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 + 1e308
        expected = np.median(values)
        got = growth._median(values)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def test_a_small_study_does_not_import_numpy_ma(tmp_path):
    """np.median's NaN check imports numpy.ma, several ms of a study process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(growth.__file__).parents[1]), os.environ.get("PYTHONPATH")])))

    def loads_numpy_ma(code):
        out = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\n"
                              "print('numpy.ma' in sys.modules)"],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        return out.stdout.split()[-1] == "True"
    if loads_numpy_ma("import numpy"):
        pytest.skip("importing numpy loads numpy.ma")
    argv = ["study", "--seed", "1", "--runs", "2", "--n-periods", "500",
            "--out", str(tmp_path / "study.csv")]
    assert not loads_numpy_ma(f"from levnet.cli import main\nassert main({argv!r}) == 0")


# the pool runs where this process can fork and set OpenBLAS's thread count
with _forked.one_blas_thread(2) as _k:
    POOL = hasattr(os, "fork") and _k == 2
needs_pool = pytest.mark.skipif(not POOL, reason="the study runs in one process")
# STUDY_CFG on the command line
STUDY_FLAGS = ["--n-banks", "10", "--n-periods", "150", "--seed", "21"]


def in_workers(mp, k):
    """Share every study among ``k`` processes, whatever its size and however
    many CPUs the process may use."""
    mp.setattr(growth, "_MIN_STUDY_WORK", 1)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def serial_csv(path, runs):
    """The study CSV from the runs one after another in this process."""
    write_study_csv(ReplicationStudy(runs, STUDY_CFG.seed, tuple(
        growth._study_run(STUDY_CFG, r) for r in range(runs))), path)
    return path.read_bytes()


def study_csv(path, runs):
    assert main(["study", "--runs", str(runs), "--out", str(path), *STUDY_FLAGS]) == EXIT_OK
    return path.read_bytes()


@needs_fork
@pytest.mark.parametrize("k", [1, 2, 3])
def test_study_csv_is_the_same_for_every_worker_count(tmp_path, monkeypatch, k):
    expected = serial_csv(tmp_path / "serial.csv", 5)
    in_workers(monkeypatch, k)
    forks = count_forks(monkeypatch)
    assert study_csv(tmp_path / "study.csv", 5) == expected
    assert len(forks) == (k - 1 if POOL else 0)
    assert_no_child_left()


@needs_fork
def test_without_thread_control_a_study_runs_in_one_process(tmp_path, monkeypatch):
    expected = serial_csv(tmp_path / "serial.csv", 5)
    in_workers(monkeypatch, 3)
    monkeypatch.setattr(_forked, "_openblas_threads", lambda: None)
    forks = count_forks(monkeypatch)
    assert study_csv(tmp_path / "study.csv", 5) == expected
    assert forks == []


@needs_fork
def test_a_small_study_forks_nothing(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # 4 and 10 runs at 80 x 5,000 are shared, 2 runs at 80 x 500 are not
    assert _forked.workers(4 * 80 * 5_000, growth._MIN_STUDY_WORK) == 2
    assert _forked.workers(10 * 80 * 5_000, growth._MIN_STUDY_WORK) == 2
    # no fork, and no lookup of OpenBLAS's thread control
    monkeypatch.setattr(_forked, "_openblas_threads", None)
    forks = count_forks(monkeypatch)
    replication_study(SimConfig(n_banks=80, n_periods=500, seed=3), 2)
    assert forks == []


@needs_pool
@pytest.mark.parametrize("failure", ["raises", "exits 1", "killed", "short result",
                                     "cannot fork"])
def test_a_failed_worker_gives_the_same_csv(tmp_path, monkeypatch, failure):
    expected = serial_csv(tmp_path / "serial.csv", 5)
    in_workers(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    parent, study_run, dumps = os.getpid(), growth._study_run, pickle.dumps

    def failing(config, run_index):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("a worker's own error")
            if failure == "exits 1":
                os._exit(1)
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
        return study_run(config, run_index)
    monkeypatch.setattr(growth, "_study_run", failing)
    if failure == "short result":
        monkeypatch.setattr(pickle, "dump", lambda obj, file, *args: file.write(
            dumps(obj, *args)[:-1]))
    if failure == "cannot fork":
        def refused():
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        monkeypatch.setattr(os, "fork", refused)
    assert study_csv(tmp_path / "study.csv", 5) == expected
    assert len(forks) == (0 if failure == "cannot fork" else 2)
    assert_no_child_left()


@needs_fork
def test_a_failing_run_in_a_worker_gives_the_serial_error(tmp_path, monkeypatch, capsys):
    study_run = growth._study_run

    def failing(config, run_index):
        # runs 2 and 4 fail; with 3 workers the blocks are [0], [1, 2], [3, 4]
        if run_index in (2, 4):
            raise ZeroInitialLeverageError(f"B{run_index}: initial leverage is zero")
        return study_run(config, run_index)
    monkeypatch.setattr(growth, "_study_run", failing)
    outcomes = []
    for k in (1, 3):
        in_workers(monkeypatch, k)
        out = tmp_path / f"study-{k}.csv"
        code = main(["study", "--runs", "5", "--out", str(out), *STUDY_FLAGS])
        outcomes.append((code, capsys.readouterr().err, out.exists()))
        assert_no_child_left()
    assert outcomes[0] == outcomes[1] == (
        EXIT_COMPUTE, "computation error: B2: initial leverage is zero\n", False)


@needs_pool
def test_no_child_outlives_an_interrupted_study(monkeypatch):
    # the workers are killed, not waited for, and reaped
    in_workers(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    parent = os.getpid()

    def interrupted(config, run_index):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
    monkeypatch.setattr(growth, "_study_run", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        replication_study(STUDY_CFG, 5)
    assert time.monotonic() - started < 30
    assert len(forks) == 2
    assert_no_child_left()


@needs_pool
def test_a_study_holds_openblas_to_one_thread_and_restores_its_count(monkeypatch):
    get, set_ = _forked._openblas_threads()
    old = get()
    set_(2)
    try:
        before = get()
        in_workers(monkeypatch, 3)
        parent, study_run = os.getpid(), growth._study_run
        ran_here = []

        def checked(config, run_index):
            if get() != 1:
                raise AssertionError(f"{get()} OpenBLAS threads")
            if os.getpid() == parent:
                ran_here.append(run_index)
            if run_index == fail_at:
                raise ZeroInitialLeverageError("B0: initial leverage is zero")
            return study_run(config, run_index)
        monkeypatch.setattr(growth, "_study_run", checked)
        fail_at = None
        assert len(replication_study(STUDY_CFG, 5).run_records) == 5
        # a worker that saw more than one thread would have failed, and its
        # block been run again here
        assert ran_here == [0]
        assert get() == before
        fail_at = 3
        with pytest.raises(ZeroInitialLeverageError):
            replication_study(STUDY_CFG, 5)
        assert get() == before
    finally:
        set_(old)
