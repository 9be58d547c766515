"""Seeded forward simulation of game play under a fixed equilibrium.

This is the statistical oracle for the closed-form welfare and belief
computations. Reproducibility contract:

* ``simulate`` partitions the draws into fixed blocks of ``BLOCK_SIZE``;
  block ``i`` uses the PCG64 generator seeded by
  ``SeedSequence(entropy=seed, spawn_key=(i,))``. Blocks may be evaluated
  in parallel (``REFORMLAB_THREADS``); each block returns an integer count
  table and the tables are summed exactly, so identical (seed, config)
  gives bit-identical statistics regardless of scheduling.
* ``convergence_sweep`` consumes one sequential PCG64 stream seeded by
  ``SeedSequence(seed)`` and reports cumulative statistics at each
  checkpoint.

Within a draw the generator is consumed in a fixed order: type, state,
signal, outcome (one uniform each, drawn for every draw even when the
policy is the status quo). A block of ``n`` draws takes its four rows in
stream order, ``CHUNK`` uniforms at a time into one chunk buffer, which
consumes the generator exactly as one ``random((4, n))`` call, or four
sequential ``random(n)`` calls, would. Each chunk is reduced to its
block-length mask while it is in cache. The chunk buffer and the masks are
per-worker scratch, allocated by the worker's first block and reused by
every later one.

A block's count table holds the draws per (type, signal) cell and the
good-state successes per cell; status-quo cells have none, and every other
draw of a reform cell fails. The payoff takes only the values 1, 0 and d,
so every statistic, the mean payoff and its standard error included, is
computed once from the summed table.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .equilibrium import (
    CONGRUENT,
    FAILURE,
    NONCONGRUENT,
    REFORM,
    REGIMES,
    SQ_OUTCOME,
    SUCCESS,
    TYPES,
    Equilibrium,
)
from .model_core import Params, Record, require_integer

BLOCK_SIZE = 1 << 18
#: uniforms per ``random`` call in a block: a 256 KiB chunk, reduced to its
#: mask while it is still in cache
CHUNK = 1 << 15
#: most draws one run may ask for (hours of compute); far below 2**53, so
#: every count converts to float exactly
MAX_DRAWS = 10**12


@dataclass(frozen=True)
class SimConfig:
    """One run: ``n_draws`` in [1, MAX_DRAWS], ``seed`` an unsigned 64-bit integer, ``regime``
    one of ``REGIMES``."""

    n_draws: int
    seed: int
    regime: str
    params: Params

    def __post_init__(self):
        require_integer("n_draws", self.n_draws, 1, MAX_DRAWS)
        require_integer("seed", self.seed, 0, 2**64 - 1)
        if self.regime not in REGIMES:
            raise DomainError(f"unknown regime {self.regime!r}")


@dataclass(frozen=True)
class SimStats(Record):
    """Accumulated statistics from one simulation run."""

    n_draws: int
    seed: int
    mean_payoff: float
    payoff_se: Optional[float]
    retention_rate_by_type: dict[str, Optional[float]]
    p_congruent_given_retained: Optional[float]
    outcome_freqs: dict[str, float]
    q_hat: float
    counts: dict[str, int]

    def format_table(self) -> str:
        fmt = lambda v: "NA" if v is None else f"{v:.6f}"
        lines = [
            f"{'seed':<28} {self.seed}",
            f"{'n_draws':<28} {self.n_draws}",
            f"{'mean_payoff':<28} {fmt(self.mean_payoff)}",
            f"{'payoff_se':<28} {fmt(self.payoff_se)}",
            f"{'q_hat':<28} {fmt(self.q_hat)}",
            f"{'P(congruent | retained)':<28} {fmt(self.p_congruent_given_retained)}",
        ]
        for t in TYPES:
            lines.append(f"{'retention[' + t + ']':<28} {fmt(self.retention_rate_by_type[t])}")
        for o in (SUCCESS, FAILURE, SQ_OUTCOME):
            lines.append(f"{'freq[' + o + ']':<28} {fmt(self.outcome_freqs[o])}")
        return "\n".join(lines)


_OUTCOMES = (SUCCESS, FAILURE, SQ_OUTCOME)


def _cell_tables(config: SimConfig, eq: Equilibrium):
    """Per-cell policy/effort arrays and the 4x3 retention table D[cell, outcome] of ``eq``,
    refused where ``eq`` is of another regime than ``config``: a run's one regime check."""
    if eq.regime != config.regime:
        raise DomainError(f"equilibrium regime {eq.regime!r} != config regime {config.regime!r}")
    reform = np.zeros(4, dtype=bool)
    effort = np.zeros(4)
    retain = np.zeros((4, 3), dtype=bool)
    for i, act in enumerate(eq.profile.actions()):
        reform[i] = act.policy == REFORM
        effort[i] = act.effort
        for outcome in (SUCCESS, FAILURE) if act.policy == REFORM else (SQ_OUTCOME,):
            retain[i, _OUTCOMES.index(outcome)] = eq.retains(act, outcome)
    return reform, effort, retain


def _run_block(
    rng: np.random.Generator, n: int, params: Params, tables, scratch: dict
) -> np.ndarray:
    """Count table of one block: the draws in each cell of :func:`_cell_tables`
    (2*noncongruent + bad_signal), then the good-state draws in each reform
    cell whose outcome uniform is below the cell's effort (8 int64 entries).

    ``scratch`` is the calling worker's, empty before its first block, which
    fills it with the chunk buffer and the masks that later blocks reuse."""
    if not scratch:
        scratch.update(u=np.empty(CHUNK), below=np.empty(CHUNK, dtype=bool),
                       masks=np.empty((4, BLOCK_SIZE), dtype=bool))
    reform, effort, _ = tables
    nc, good, bad, both = scratch["masks"][:, :n]

    def row():  # the next row's uniforms in stream order, as (draw slice, chunk)
        for a in range(0, n, CHUNK):
            u = scratch["u"][:min(CHUNK, n - a)]
            rng.random(out=u)
            yield slice(a, a + len(u)), u

    for s, u in row():  # type
        np.greater_equal(u, params.pi, out=nc[s])
    for s, u in row():  # state
        np.less(u, params.phi, out=good[s])
    for s, u in row():  # signal
        np.less(u, params.p, out=bad[s])
    bad ^= good  # signal b iff it missed the state
    np.logical_and(nc, bad, out=both)
    n_nc, n_bad, n_both = (np.count_nonzero(m) for m in (nc, bad, both))
    counts = np.zeros(8, dtype=np.int64)
    counts[:4] = n - n_nc - n_bad + n_both, n_bad - n_both, n_nc - n_both, n_both
    # each mask becomes the good-state draws of one cell, in place
    both &= good  # cell 3
    bad &= good
    bad ^= both  # cell 1: the good bad-signal draws, less cell 3's
    nc &= good
    nc ^= both  # cell 2: the good noncongruent draws, less cell 3's
    good ^= bad
    good ^= nc
    good ^= both  # cell 0: the good draws, less those of cells 1-3
    cell_good = (good, bad, nc, both)
    cells = np.flatnonzero(reform & (effort > 0))
    interior = [c for c in cells if effort[c] < 1]  # others: every good draw succeeds
    for s, u in row():  # outcome
        below = scratch["below"][:len(u)]
        for c in interior:
            hits = cell_good[c][s]
            np.logical_and(hits, np.less(u, effort[c], out=below), out=hits)
    for c in cells:
        counts[4 + c] = np.count_nonzero(cell_good[c])
    return counts


def _stats_from_counts(counts: np.ndarray, seed: int, params: Params, tables) -> SimStats:
    """Every statistic from a sum of :func:`_run_block` count tables."""
    reform_tab, _, retain_tab = tables
    n_cell, success = counts[:4], counts[4:]
    failure = np.where(reform_tab, n_cell - success, 0)
    by_outcome = np.stack([success, failure, n_cell - success - failure], axis=1)
    retained_cell = (by_outcome * retain_tab).sum(axis=1)

    n = int(n_cell.sum())
    n_congruent = int(n_cell[:2].sum())
    retained = int(retained_cell.sum())
    retained_congruent = int(retained_cell[:2].sum())
    n_success, n_failure, n_status_quo = (int(k) for k in by_outcome.sum(axis=0))
    sum_v = n_success + n_status_quo * params.d
    sum_v2 = n_success + n_status_quo * (params.d * params.d)
    mean = sum_v / n
    if n >= 2:
        var = max(0.0, (sum_v2 - sum_v * sum_v / n) / (n - 1))
        se = math.sqrt(var / n)
    else:
        se = None
    n_noncongruent = n - n_congruent
    rate_c = retained_congruent / n_congruent if n_congruent else None
    rate_n = (retained - retained_congruent) / n_noncongruent if n_noncongruent else None
    p_c_ret = retained_congruent / retained if retained else None
    q_hat = (retained_congruent + (n - retained) * params.pi) / n
    return SimStats(
        n_draws=n,
        seed=seed,
        mean_payoff=mean,
        payoff_se=se,
        retention_rate_by_type={CONGRUENT: rate_c, NONCONGRUENT: rate_n},
        p_congruent_given_retained=p_c_ret,
        outcome_freqs={
            SUCCESS: n_success / n,
            FAILURE: n_failure / n,
            SQ_OUTCOME: n_status_quo / n,
        },
        q_hat=q_hat,
        counts={
            "congruent": n_congruent,
            "retained": retained,
            "retained_congruent": retained_congruent,
            "success": n_success,
            "failure": n_failure,
            "status_quo": n_status_quo,
        },
    )


def _thread_count() -> int:
    """Worker threads from ``REFORMLAB_THREADS`` (default 1), capped at the
    CPU count; anything but an integer >= 1 is a :class:`DomainError`."""
    raw = os.environ.get("REFORMLAB_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise DomainError(f"REFORMLAB_THREADS must be an integer >= 1, got {raw!r}")
    return min(threads, os.cpu_count() or 1)


def simulate(config: SimConfig, eq: Equilibrium) -> SimStats:
    """Simulate ``n_draws`` plays of the game under ``eq``.

    Per draw: nature picks (type, state, signal), the profile fixes the
    action, a good reform succeeds with probability equal to the effort,
    and the retention rule is applied to the regime's observables.

    With ``threads`` workers, worker ``w`` sums blocks ``w, w + threads, ...``
    through its own scratch, so memory is ``threads`` scratches whatever
    ``n_draws`` is. The sums are of integers, hence exact in any order.
    """
    params = config.params
    tables = _cell_tables(config, eq)
    n_blocks = -(-config.n_draws // BLOCK_SIZE)

    def block(i, scratch):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=config.seed, spawn_key=(i,)))
        )
        return _run_block(rng, min(BLOCK_SIZE, config.n_draws - i * BLOCK_SIZE), params, tables,
                          scratch)

    threads = min(_thread_count(), n_blocks)

    def worker(w):
        scratch = {}
        return sum(block(i, scratch) for i in range(w, n_blocks, threads))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = sum(pool.map(worker, range(threads)))
    else:
        counts = worker(0)
    return _stats_from_counts(counts, config.seed, params, tables)


def convergence_sweep(
    config: SimConfig, eq: Equilibrium, checkpoints: list[int]
) -> list[SimStats]:
    """Cumulative statistics at each checkpoint along a single stream."""
    tables = _cell_tables(config, eq)  # the regime is checked before the checkpoints
    checkpoints = [require_integer("checkpoints", c, 1, MAX_DRAWS) for c in checkpoints or ()]
    if not checkpoints or any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise DomainError("checkpoints must be strictly increasing and nonempty")
    params = config.params
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    counts = np.zeros(8, dtype=np.int64)
    scratch = {}
    done = 0
    out = []
    for target in checkpoints:
        remaining = target - done
        while remaining > 0:
            take = min(BLOCK_SIZE, remaining)
            counts += _run_block(rng, take, params, tables, scratch)
            remaining -= take
        done = target
        out.append(_stats_from_counts(counts, config.seed, params, tables))
    return out
