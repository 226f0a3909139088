"""Columnar ingest against a per-bank reference on small panels with planted defects."""

import csv
import datetime
import math

import pytest
from hypothesis import given, settings, strategies as st

from levnet.cli import IngestError, IngestSpec, ingest_panel

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
                for m in result.complete.members}
    assert result.complete.bank_ids == tuple(sorted(complete))
    assert result.complete.grid_labels == result.panel.grid_labels
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
