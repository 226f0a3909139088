"""Seeded generator of a reporting-shaped balance-sheet panel.

The panel looks like a supervisory extract: quarterly dates, rows sorted by
date, amounts rounded to one decimal, and a population that changes over
the window. It plants every case lenient ingest has to sort out:

- complete reporters, observed at every quarter end;
- births (first report after the first quarter) and deaths (last report
  before the last quarter), and banks that are both;
- annual reporters, observed only at year ends, so their dates skip
  interior grid points (ingest flags them as gapped);
- invalid banks whose liabilities reach their assets at one planted
  quarter (ingest drops them).

Log leverage follows a factor model (a market factor plus one of 16 group
factors, from stationary AR(1) paths made orthonormal, plus noise), so the correlation matrix has
a block structure, most pairs are weakly correlated, and the cluster curve
has a real transition. ``generate`` writes the CSV and
returns what ingest must report for it, derived from the plan alone.
"""

from __future__ import annotations

import datetime
from pathlib import Path

import numpy as np

N_DATES = 60
FIRST_YEAR = 2005
N_GROUPS = 16
# bank counts per planted kind; 640 complete banks give 204,480 pairs
PLAN = {"complete": 640, "birth": 24, "death": 24, "birth_death": 8,
        "annual": 16, "invalid": 12}


def quarter_ends(n: int = N_DATES) -> list[str]:
    out = []
    for q in range(n):
        year, month = FIRST_YEAR + q // 4, 3 * (q % 4) + 3
        nxt = datetime.date(year + month // 12, month % 12 + 1, 1)
        out.append((nxt - datetime.timedelta(days=1)).isoformat())
    return out


def _ar1(rng: np.random.Generator, shape: tuple[int, ...], phi: float = 0.7,
         sd: float = 0.1) -> np.ndarray:
    """Stationary AR(1) paths along the last axis."""
    shocks = rng.normal(0.0, sd, shape)
    x = np.empty(shape)
    x[..., 0] = shocks[..., 0] / np.sqrt(1.0 - phi * phi)
    for k in range(1, shape[-1]):
        x[..., k] = phi * x[..., k - 1] + shocks[..., k]
    return x


def _observed(kind: str, rng: np.random.Generator) -> list[int]:
    """Grid indices at which a bank of this kind reports."""
    last = N_DATES - 1
    if kind == "birth":
        return list(range(int(rng.integers(1, 41)), N_DATES))
    if kind == "death":
        return list(range(0, int(rng.integers(20, last))))
    if kind == "birth_death":
        first = int(rng.integers(1, 25))
        return list(range(first, int(rng.integers(first + 12, last))))
    if kind == "annual":
        return list(range(3, N_DATES, 4))
    return list(range(N_DATES))


def _census(observed: dict[str, list[int]]) -> dict:
    """The census definitions of the README, applied to the plan."""
    firsts = [t[0] for t in observed.values()]
    lasts = [t[-1] for t in observed.values()]
    last = N_DATES - 1
    return {"n_start": sum(f == 0 for f in firsts),
            "n_end": sum(x == last for x in lasts),
            "n_birth": sum(f > 0 for f in firsts),
            "n_death": sum(x < last for x in lasts),
            "n_complete": sum(len(t) == N_DATES for t in observed.values())}


def generate(seed: int, path: Path) -> dict:
    """Write the panel for ``seed`` to ``path``; return the expected ingest report."""
    rng = np.random.default_rng(seed)
    kinds = [k for k, count in PLAN.items() for _ in range(count)]
    n = len(kinds)
    ids = [f"RSSD{x}" for x in rng.choice(900_000, size=n, replace=False) + 100_000]

    t = N_DATES
    # orthonormal factor paths: how strongly groups co-move is set by the
    # loadings, not by chance correlations between 60-point paths
    paths = _ar1(rng, (N_GROUPS + 1, t))
    q, _ = np.linalg.qr((paths - paths.mean(axis=1, keepdims=True)).T)
    market, *groups = q.T * (0.14 * np.sqrt(t))
    groups = np.array(groups)
    # evenly spread parameters, dealt out by the seed: every seed has the same mix
    group = rng.permutation(np.arange(n) % N_GROUPS)
    log_lev = (np.log(rng.permutation(np.linspace(4.0, 14.0, n)))[:, None]
               + rng.permutation(np.linspace(0.0, 0.4, n))[:, None] * market
               + rng.permutation(np.linspace(0.3, 1.2, n))[:, None] * groups[group]
               + rng.permutation(np.linspace(0.04, 0.1, n))[:, None] * rng.normal(size=(n, t)))
    lev = np.exp(log_lev)
    assets = (np.exp(rng.uniform(np.log(1e5), np.log(5e8), n))[:, None]
              * np.exp(np.cumsum(rng.normal(0.01, 0.03, (n, t)), axis=1)))
    assets = np.round(assets, 1)
    liabilities = np.round(assets * lev / (1.0 + lev), 1)

    observed, invalid_at = {}, {}
    for k, (bank, kind) in enumerate(zip(ids, kinds)):
        observed[bank] = _observed(kind, rng)
        if kind == "invalid":
            q = int(rng.integers(N_DATES))
            liabilities[k, q] = np.round(assets[k, q] * 1.02, 1)
            invalid_at[bank] = q

    dates = quarter_ends()
    by_date: list[list[int]] = [[] for _ in range(N_DATES)]
    for k, bank in enumerate(ids):
        for q in observed[bank]:
            by_date[q].append(k)
    n_rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("bank_id,date,assets,liabilities\n")
        for q, banks in enumerate(by_date):
            for k in sorted(banks, key=ids.__getitem__):
                # repr(np.float64) is "np.float64(...)" under numpy 2; ingest rejects it
                fh.write(f"{ids[k]},{dates[q]},{float(assets[k, q])!r},"
                         f"{float(liabilities[k, q])!r}\n")
                n_rows += 1

    valid = {b: t for b, t in observed.items() if b not in invalid_at}
    return {"n_rows": n_rows,
            "n_banks_read": n,
            "n_banks_valid": len(valid),
            "census": _census(valid),
            "dropped": sorted(invalid_at),
            "gapped_banks": sorted(b for b, k in zip(ids, kinds) if k == "annual")}
