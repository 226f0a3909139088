"""Discrete-time simulator of corporate and interbank lending.

N banks hold liquidity L, illiquid assets I, corporate loans C and
interbank claims B_L against deposits D, interbank debt B_D and equity E,
with L + I + C + B_L = D + B_D + E at all times. Each period, in order:

1. Loans that mature this period are repaid with interest. The originator
   collects loan_size * (1 + r_corporate) from the (always productive)
   corporate sector, repays any interbank borrowing at r_interbank, and
   books the net interest as equity; the lender books its interest too.
2. A Poisson(arrival_rate) number of corporate loan requests arrive. Each
   request picks a uniform-random originator, which puts up its entire
   liquidity and borrows any shortfall, all or nothing, from a single
   other bank (candidates tried in uniform random order); if nobody can
   cover the shortfall the request fails and nothing changes. A granted
   loan immediately returns to the system as household deposits:
   ``deposit_bank_count`` banks are drawn and receive shares of loan_size
   proportional to their fixed deposit weights.
3. With probability shock_probability one uniform-random bank loses up to
   shock_factor * loan_size of deposits and liquidity (clipped so neither
   goes negative; equity is untouched).

Equity only ever grows (interest income), deposits grow by loan_size per
granted loan, and every interbank loan is recorded as a dated directed
lender -> borrower link. All randomness flows through a single
``numpy.random.Generator``; a run is bit-reproducible from its seed, and
replication ``r`` of a study uses ``default_rng([seed, r])``.
"""

from __future__ import annotations

import datetime
import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .balance_sheet import Panel

__all__ = [
    "EVENT_KINDS",
    "ConfigError",
    "EventLog",
    "LinkLog",
    "SimConfig",
    "SimOutput",
    "run",
]


class ConfigError(ValueError):
    """A simulation parameter violates its constraints."""


# a run may expect at most this many loan requests, arrival_rate * n_periods
# (one period at least), each a Python iteration: minutes at the bound, and a
# rate far below the about 9.2e18 that Generator.poisson takes
_MAX_REQUESTS = 1 << 24
# a run's panel may hold at most this many cells, n_banks * (n_periods + 1);
# the forward fill alone holds four 8-byte arrays of that shape, 2 GiB at the bound
_MAX_CELLS = 1 << 26


@dataclass(frozen=True)
class SimConfig:
    """Model parameters.

    Defaults are calibrated so that an 80-bank, 5,000-period run plateaus
    near mean leverage 6, grows mean assets by roughly 4.5x, and yields
    leverage networks whose largest cluster jumps from ~0.4 to >0.8 of the
    banks as the threshold crosses ~0.5 (see configs/default.cfg).
    """

    n_banks: int = 80
    n_periods: int = 5000
    assets_range: tuple[float, float] = (5_000.0, 50_000.0)
    equity_ratio_range: tuple[float, float] = (0.10, 0.35)
    liquidity_share: float = 0.20
    arrival_rate: float = 0.40
    loan_size: float = 12_000.0
    r_corporate: float = 0.037
    r_interbank: float = 0.02
    maturity: int = 150
    deposit_bank_count: int = 2
    shock_probability: float = 1.0
    shock_factor: float = 0.36
    seed: int = 0

    def validate(self) -> None:
        c = self
        if not isinstance(c.n_banks, int) or c.n_banks < 2:
            raise ConfigError(f"n_banks must be an integer >= 2, got {c.n_banks}")
        if not isinstance(c.n_periods, int) or c.n_periods < 0:
            raise ConfigError(f"n_periods must be a nonnegative integer, got {c.n_periods}")
        lo, hi = c.assets_range
        if not (0 < lo <= hi) or not np.isfinite([lo, hi]).all():
            raise ConfigError(f"assets_range must satisfy 0 < low <= high, got {c.assets_range}")
        rlo, rhi = c.equity_ratio_range
        if not (0 < rlo <= rhi < 1):
            raise ConfigError(
                f"equity_ratio_range must lie within (0, 1), got {c.equity_ratio_range}")
        if not 0 < c.liquidity_share < 1:
            raise ConfigError(f"liquidity_share must lie in (0, 1), got {c.liquidity_share}")
        if not (np.isfinite(c.arrival_rate) and c.arrival_rate >= 0):
            raise ConfigError(f"arrival_rate must be finite and >= 0, got {c.arrival_rate}")
        num, den = float(c.arrival_rate).as_integer_ratio()  # exact for any period count
        if num * max(c.n_periods, 1) > _MAX_REQUESTS * den:
            raise ConfigError(f"a run's expected loan requests, arrival_rate * max(n_periods, 1), "
                              f"must be at most 2**24 = {_MAX_REQUESTS}, got "
                              f"{c.arrival_rate!r} * {max(c.n_periods, 1)}")
        if c.n_banks * (c.n_periods + 1) > _MAX_CELLS:
            raise ConfigError(f"a run's panel, n_banks * (n_periods + 1) cells, must hold at "
                              f"most 2**26 = {_MAX_CELLS}, got {c.n_banks} * {c.n_periods + 1}")
        if not (np.isfinite(c.loan_size) and c.loan_size > 0):
            raise ConfigError(f"loan_size must be finite and > 0, got {c.loan_size}")
        if not (np.isfinite(c.r_corporate) and np.isfinite(c.r_interbank)):
            raise ConfigError("interest rates must be finite")
        if not c.r_corporate > c.r_interbank >= 0:
            raise ConfigError(
                f"need r_corporate > r_interbank >= 0, got {c.r_corporate} vs {c.r_interbank}")
        if not isinstance(c.maturity, int) or c.maturity < 1:
            raise ConfigError(f"maturity must be an integer >= 1, got {c.maturity}")
        if not isinstance(c.deposit_bank_count, int) or not 1 <= c.deposit_bank_count < c.n_banks:
            raise ConfigError(
                f"deposit_bank_count must satisfy 1 <= count < n_banks, got {c.deposit_bank_count}")
        if not 0 <= c.shock_probability <= 1:
            raise ConfigError(f"shock_probability must lie in [0, 1], got {c.shock_probability}")
        if not (np.isfinite(c.shock_factor) and c.shock_factor >= 0):
            raise ConfigError(f"shock_factor must be finite and >= 0, got {c.shock_factor}")
        if not isinstance(c.seed, int) or c.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {c.seed}")


EVENT_KINDS = ("loan", "loan_failed", "shock", "repayment")
_LOAN, _LOAN_FAILED, _SHOCK, _REPAYMENT = range(len(EVENT_KINDS))


@dataclass(frozen=True)
class EventLog:
    """Every event of a run, one column per field, in the order they happened.

    ``kind`` indexes ``EVENT_KINDS``. ``counterparty`` is the interbank
    lender of a loan or repayment and -1 where there is none. ``amount`` is
    the loan size, or the shock's drain after clipping.
    """

    period: array
    kind: array
    bank: array
    counterparty: array
    amount: array

    def count(self, kind: str) -> int:
        return self.kind.count(EVENT_KINDS.index(kind))


@dataclass(frozen=True)
class LinkLog:
    """Directed interbank links in period order: ``lender`` lent ``amount``
    to ``borrower`` in ``period``."""

    period: array
    lender: array
    borrower: array
    amount: array

    @property
    def total_links(self) -> int:
        return len(self.period)


def bank_label(i: int, n_banks: int) -> str:
    width = max(2, len(str(n_banks - 1)))
    return f"B{i:0{width}d}"


@dataclass(frozen=True, eq=False)
class SimOutput:
    """Everything a run produces.

    The panel holds the balance sheets: one row per period, row t the state
    after period t and row 0 the initial system, dated by ``period_date``.
    ``leverage`` has the panel's shape; it is liabilities over the model's
    equity and feeds only the mean-leverage traces. Networks and growth
    records take leverage from the panel, as they do for a file.
    """

    config: SimConfig
    leverage: np.ndarray
    panel: Panel
    adjacency: LinkLog
    events: EventLog

    @property
    def mean_leverage(self) -> np.ndarray:
        return self.leverage.mean(axis=1)

    @property
    def mean_assets(self) -> np.ndarray:
        return self.panel.assets.mean(axis=1)

    @property
    def assets_growth(self) -> float:
        return float(self.mean_assets[-1] / self.mean_assets[0])


def period_date(t: int) -> str:
    """ISO date label for period t (day t after 2000-01-01)."""
    return (datetime.date(2000, 1, 1) + datetime.timedelta(days=int(t))).isoformat()


@functools.cache
def _period_labels(n_periods: int) -> tuple[str, ...]:
    """``period_date`` of periods 0 to ``n_periods``, formatted once per length."""
    return tuple(period_date(t) for t in range(n_periods + 1))


def run(config: SimConfig, rng: np.random.Generator | None = None) -> SimOutput:
    """Simulate ``n_periods`` periods and assemble the output panel.

    With the default ``rng=None`` the stream is ``default_rng(config.seed)``,
    so identical configs give bit-identical outputs.

    The balance sheet lives in Python lists of floats during the run. Each
    period appends the banks it touched, with their assets, liabilities and
    equity, to a change log; at the end one forward fill over the log gives
    every bank's row for every period. Draw order: initial assets, equity
    ratios and deposit weights (``uniform``); then per period the arrival
    count (``poisson``), per request its originator (``integers``), the
    order of candidate lenders if it needs one (``permutation``) and, once
    granted, the deposit recipients (``choice`` without replacement); then
    the shock draw (``random``) and, if it hits, its bank (``integers``).
    ``uniform`` and ``permutation`` are Generator calls; ``integers``,
    ``choice``, ``random`` and ``poisson`` come from ``_draws``, which runs
    numpy's algorithms for them on the bit generator, so each returns what
    the Generator method would. The recipients' deposit shares divide by
    their total weight, summed as numpy sums ``weights[recipients]``: one
    term after another for fewer than 8 recipients, as numpy adds them too,
    and by numpy itself from 8 on, where it adds in pairwise blocks.
    """
    config.validate()
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n, t_max = config.n_banks, config.n_periods
    # per bank: assets uniform over assets_range, equity a uniform share of
    # them, a fixed liquidity share and the rest illiquid, deposits for the
    # rest of the liability side, and a fixed deposit weight on (0, 1)
    assets0 = rng.uniform(config.assets_range[0], config.assets_range[1], n)
    ratios = rng.uniform(config.equity_ratio_range[0], config.equity_ratio_range[1], n)
    weights = rng.uniform(0.0, 1.0, n)
    equity0 = ratios * assets0
    liquidity0 = config.liquidity_share * assets0
    liq, ill = liquidity0.tolist(), (assets0 - liquidity0).tolist()
    dep, eq = (assets0 - equity0).tolist(), equity0.tolist()
    corp, claims, debt = [0.0] * n, [0.0] * n, [0.0] * n
    n_corp, n_claims, n_debts = [0] * n, [0] * n, [0] * n
    weight = weights.tolist()

    # the change log: period t left bank b with assets a, liabilities l and
    # equity e; it opens with every bank's initial balance sheet
    log = []
    for b in range(n):
        log += 0, b, liq[b] + ill[b] + corp[b] + claims[b], dep[b] + debt[b], eq[b]
    events, links = [], []
    log_extend, event, link = log.extend, events.extend, links.extend

    loan, r_ib, maturity = config.loan_size, config.r_interbank, config.maturity
    repaid = loan * (1.0 + config.r_corporate)
    interest = loan * config.r_corporate
    ib_factor = 1.0 + r_ib
    drain = config.shock_factor * loan
    k_deposit = config.deposit_bank_count
    shock_probability = config.shock_probability
    integers, uniform01, choice, poisson = _draws(rng)
    arrivals, permutation = poisson(config.arrival_rate), rng.permutation
    due: dict[int, list[tuple[int, int, float]]] = {}

    for t in range(1, t_max + 1):
        touched = []
        # 1. repayments, in origination order
        for i, j, b in due.pop(t, ()):
            liq[i] += repaid
            corp[i] -= loan
            n_corp[i] -= 1
            if n_corp[i] == 0:
                corp[i] = 0.0  # clear float residue once nothing is outstanding
            if j >= 0:
                payback = b * ib_factor
                liq[i] -= payback
                debt[i] -= b
                n_debts[i] -= 1
                if n_debts[i] == 0:
                    debt[i] = 0.0
                eq[i] += interest - b * r_ib
                liq[j] += payback
                claims[j] -= b
                n_claims[j] -= 1
                if n_claims[j] == 0:
                    claims[j] = 0.0
                eq[j] += b * r_ib
                touched.append(j)
            else:
                eq[i] += interest
            touched.append(i)
            event((t, _REPAYMENT, i, j, loan))

        # 2. loan requests
        for _ in range(arrivals()):
            i = integers(n)
            j, borrowed = -1, 0.0
            own = liq[i]
            if own >= loan:
                liq[i] = own - loan
            else:
                shortfall = loan - own
                for c in permutation(n - 1).tolist():
                    c = c if c < i else c + 1
                    if liq[c] >= shortfall:
                        j = c
                        break
                else:
                    event((t, _LOAN_FAILED, i, -1, loan))
                    continue
                borrowed = shortfall
                liq[i] = 0.0
                liq[j] -= borrowed
                claims[j] += borrowed
                n_claims[j] += 1
                debt[i] += borrowed
                n_debts[i] += 1
                touched.append(j)
                link((t, j, i, borrowed))
            corp[i] += loan
            n_corp[i] += 1
            touched.append(i)

            # the loan returns to the system as deposits, split over a few banks
            recipients = choice(n, k_deposit)
            if k_deposit < 8:
                # numpy adds fewer than 8 terms in order from the first, as this does
                total = sum(map(weight.__getitem__, recipients), 0.0)
            else:
                total = float(weights[recipients].sum())
            for r in recipients:
                inflow = loan * (weight[r] / total)
                liq[r] += inflow
                dep[r] += inflow
            touched += recipients
            due.setdefault(t + maturity, []).append((i, j, borrowed))
            event((t, _LOAN, i, j, loan))

        # 3. a shock, clipped so neither liquidity nor deposits go negative
        if uniform01() < shock_probability:
            s = integers(n)
            amount = min(drain, liq[s], dep[s])
            liq[s] -= amount
            dep[s] -= amount
            touched.append(s)
            event((t, _SHOCK, s, -1, amount))

        for b in set(touched):
            log_extend((t, b, liq[b] + ill[b] + corp[b] + claims[b], dep[b] + debt[b], eq[b]))

    # forward fill: each cell takes the bank's latest log entry at or before
    # its period, found by a running maximum of log positions down each column;
    # the copy makes each of the five columns contiguous for the gathers
    log_t, log_b, log_a, log_l, log_e = (
        np.fromiter(log, np.float64, len(log)).reshape(-1, 5).T.copy())
    latest = np.zeros((t_max + 1, n), dtype=np.int64)
    latest[log_t.astype(np.int64), log_b.astype(np.int64)] = np.arange(log_t.size)
    np.maximum.accumulate(latest, axis=0, out=latest)
    assets = log_a[latest]
    liab = log_l[latest]
    leverage = log_e[latest]
    np.divide(liab, leverage, out=leverage)

    panel = Panel(f"sim-seed{config.seed}", tuple(bank_label(i, n) for i in range(n)),
                  _period_labels(t_max), assets, liab)
    return SimOutput(config, leverage, panel,
                     LinkLog(*_columns(links, "qqqd")), EventLog(*_columns(events, "qbqqd")))


def _draws(rng: np.random.Generator):
    """``integers``, ``random``, ``choice`` and ``poisson`` on ``rng``'s stream.

    Each follows numpy's algorithm for the Generator method of that name,
    drawing through the bit generator's ``ctypes`` interface. That interface
    shares the Generator's state and its buffered half of a 64-bit output,
    so these draws and Generator calls mix in any order, and each returns
    what the Generator call would, for any bit generator, at a fraction of
    a Generator call's overhead. NumPy does not promise its streams across
    versions (NEP 19); the tests compare these draws with the installed
    numpy's Generator. The callables reach the state by its address, so
    ``rng`` must outlive them.

    - ``integers(high)``, 2 <= high <= 2**32: ``Generator.integers(high)``,
      Lemire's method on 32-bit outputs.
    - ``random()``: ``Generator.random()``.
    - ``choice(n, k)``, 0 <= k <= n <= 2**32: ``Generator.choice(n, k,
      replace=False)`` as a list; Floyd's algorithm and a shuffle of the
      picks, or the Generator call where numpy shuffles a whole range.
    - ``poisson(lam)``, 0 <= lam <= numpy's limit: a callable that returns
      ``int(Generator.poisson(lam))`` at each call. Below 10 it runs numpy's
      multiplication method on ``random`` with exp(-lam) taken once; lam 0
      and lam 10 or more (numpy's PTRS method) are Generator calls.
    """
    bits = rng.bit_generator.ctypes
    state, next_uint32 = bits.state_address, bits.next_uint32
    random = functools.partial(bits.next_double, state)

    def integers(high: int) -> int:
        # numpy's buffered_bounded_lemire_uint32: reject the low 32 bits
        # below 2**32 mod high, tested only when they are below high
        m = next_uint32(state) * high
        if m & 0xFFFFFFFF < high:
            threshold = (0x100000000 - high) % high
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * high
        return m >> 32

    def choice(n: int, k: int) -> list[int]:
        if n > 10_000 and k > n // 50:
            # numpy shuffles the tail of a whole range here
            return rng.choice(n, k, replace=False).tolist()
        # Floyd's algorithm: for each j from n - k up, a draw from [0, j],
        # or j itself when the draw is already picked ([0, 0] takes no
        # draw); then numpy's shuffle of the picks from the top
        picks, seen = [], set()
        for j in range(n - k, n):
            v = integers(j + 1) if j else 0
            if v in seen:
                v = j
            seen.add(v)
            picks.append(v)
        for i in range(k - 1, 0, -1):
            j = integers(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks

    def poisson(lam: float):
        if not 0 < lam < 10:
            return lambda: int(rng.poisson(lam))
        # numpy's random_poisson_mult: the count of uniforms whose running
        # product stays above exp(-lam)
        limit = math.exp(-lam)

        def draw() -> int:
            count, product = 0, random()
            while product > limit:
                count += 1
                product *= random()
            return count
        return draw

    return integers, random, choice, poisson


def _columns(flat: list, codes: str) -> list[array]:
    """Split a flat list of fixed-width records into one array per field."""
    width = len(codes)
    return [array(code, flat[k::width]) for k, code in enumerate(codes)]
