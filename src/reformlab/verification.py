"""Independent numerical checks of equilibrium claims.

Every check here re-derives its target from game primitives rather than
trusting the equilibrium constructors: expected utilities are integrated
from the payoff table (any number of cells in one vectorised call), deviations
are sought on a dense effort grid (each run of constant retention evaluated
near its utility's vertex only, all runs packed into shared blocks), beliefs
are recomputed by enumerating the joint distribution, and news
classifications come from the same enumeration. The primitives are the
policy payoff of :func:`_policy_payoff`, the effort cost e^2/(2 lambda) and
the office rent R paid on retention.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import DomainError
from .equilibrium import (
    CELLS,
    CONGRUENT,
    FAILURE,
    OPAQUE,
    REFORM,
    SQ_OUTCOME,
    STATUS_QUO,
    SUCCESS,
    AgentAction,
    Equilibrium,
    Observation,
    StrategyProfile,
    observe,
)
from .model_core import Params, Record, posteriors, require_integer

#: classification band for neutral news (posterior within this of the prior)
NEUTRAL_BAND = 1e-9
#: largest gap between a recomputed and a stored belief that still passes
BAYES_TOL = 1e-9
#: largest deviation-scan grid; a check's memory is constant, and this bounds its time where
#: huge rents widen the scan's windows to whole runs (~0.15 s; under 0.4 ms otherwise)
MAX_GRID_SIZE = 10_000_001
#: most efforts per deviation-scan block, so that one block's (10, B) work buffers stay in cache
SCAN_BLOCK = 1 << 13


def _policy_payoff(agent_type: str, outcome: str, params: Params) -> float:
    """A congruent agent values success/status quo/failure at 1/d/0, a
    noncongruent agent at 0/d/0."""
    if outcome == SQ_OUTCOME:
        return params.d
    if outcome == SUCCESS:
        return 1.0 if agent_type == CONGRUENT else 0.0
    if outcome == FAILURE:
        return 0.0
    raise DomainError(f"bad outcome {outcome!r}")


def _retention_runs(eq: Equilibrium, grid_size: int, step: float, eps: float) -> list:
    """(lo, hi, retained) runs of constant reform retention over the grid indices [0, G);
    point i is ``i * step``, the last one 1.0. An effort piece's run starts at the first
    index whose effort reaches its exact start, found by arithmetic and confirmed by exact
    comparison; pieces with no grid point drop out, and neighbours kept alike join."""
    effort, firsts = lambda i: 1.0 if i == grid_size - 1 else i * step, []
    for start, pair in zip(*eq.retention_pieces(eps)):
        i = math.ceil(min(max(start, 0.0), 1.0) * (grid_size - 1))
        while i > 0 and effort(i - 1) >= start:
            i -= 1
        while i < grid_size and effort(i) < start:
            i += 1
        if firsts and firsts[-1][0] == i:  # the piece before has no grid point
            firsts.pop()
        if i < grid_size and (not firsts or firsts[-1][1] != pair):
            firsts.append((i, pair))
    return [(lo, hi, pair) for (lo, pair), (hi, _) in zip(firsts, firsts[1:] + [(grid_size, 0)])]


def _reform_utility(mu, effort, payoffs: tuple, retained: tuple, params: Params, out: tuple):
    """Expected utility of reforming at the 1-D array ``effort`` with state
    posterior ``mu``, given the policy payoffs of success and of failure and
    the retention after each, broadcast into the buffers ``out`` = (success
    term, failure term, cost); the first one is returned holding the sum."""
    pay_succ, pay_fail = payoffs
    kept_succ, kept_fail = retained
    p_succ, p_fail, cost = out
    np.multiply(mu, effort, out=p_succ)
    np.subtract(1.0, p_succ, out=p_fail)
    np.multiply(p_fail, pay_fail + params.R * kept_fail, out=p_fail)
    np.multiply(p_succ, pay_succ + params.R * kept_succ, out=p_succ)
    np.multiply(effort, effort, out=cost)
    np.divide(cost, 2.0 * params.lam, out=cost)
    np.subtract(p_succ, cost, out=p_succ)  # -cost + success term, bit for bit
    p_succ += p_fail
    return p_succ


def _cell_utilities(cells, params: Params, eq: Equilibrium) -> list:
    """Exact expected utilities of the (type, signal, action) ``cells`` in one
    :func:`_reform_utility` call on 1-D arrays, a reform's retention looked up in the
    equilibrium's effort pieces. The status quo is a reform at effort 0 whose outcomes
    both pay d and keep its retention, so 0 * x = 0 and 1 * x = x make it
    d + R * retained, bit for bit."""
    post, rows, (starts, kept) = posteriors(params), [], eq.retention_pieces(params.eps_tol)
    for t, s, action in cells:
        if action.policy == REFORM:
            outcomes, pair = (SUCCESS, FAILURE), kept[bisect_right(starts, action.effort) - 1]
        else:
            outcomes = (SQ_OUTCOME,) * 2
            pair = (eq.retains(action, SQ_OUTCOME, params.eps_tol),) * 2
        pay = [_policy_payoff(t, o, params) for o in outcomes]
        rows.append((post.mu(s), action.effort, *pay, *pair))
    mu, e, *columns = np.array(rows).T
    return _reform_utility(mu, e, columns[:2], columns[2:], params, np.empty((3, len(e)))).tolist()


def expected_utility(
    agent_type: str, signal: str, action: AgentAction, eq: Equilibrium, params: Params
) -> float:
    """Agent's exact expected utility from ``action`` after ``signal``.

    Integrates over the state given the signal and the outcome given the
    state and action, applying the equilibrium's retention rule to each
    induced observation.
    """
    return _cell_utilities([(agent_type, signal, action)], params, eq)[0]


@dataclass(frozen=True)
class DeviationCell(Record):
    """Best deviation found for one (type, signal) cell."""

    eq_action: AgentAction
    eq_utility: float
    best_action: AgentAction
    best_utility: float
    gain: float
    verdict: str  # "pass" | "fail" | "fail (documented)"


@dataclass(frozen=True)
class DeviationReport:
    regime: str
    grid_size: int
    dev_tol: float
    cells: dict[tuple[str, str], DeviationCell]

    @property
    def passed(self) -> bool:
        """True when no cell has an unexplained profitable deviation."""
        return all(c.verdict != "fail" for c in self.cells.values())

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "fail (documented)": 0}
        for c in self.cells.values():
            out[c.verdict] += 1
        return out

    def to_json(self) -> dict:
        return {
            "regime": self.regime,
            "grid_size": self.grid_size,
            "dev_tol": self.dev_tol,
            "cells": [
                {"type": t, "signal": s, **cell.to_json()}
                for (t, s), cell in self.cells.items()
            ],
            "passed": self.passed,
        }

    def format_table(self) -> str:
        rows = [
            f"{'type':<13} {'sig':<3} {'eq_utility':>12} {'best_gain':>12} "
            f"{'best_deviation':<26} verdict"
        ]
        for (t, s), c in self.cells.items():
            dev = f"({c.best_action.policy}, {c.best_action.effort:.6f})"
            rows.append(
                f"{t:<13} {s:<3} {c.eq_utility:>12.8f} {c.gain:>12.3e} {dev:<26} {c.verdict}"
            )
        return "\n".join(rows)


def documented_opaque_gap(params: Params) -> float:
    """Status-quo payoff minus the bad-signal congruent reform payoff under
    outcome-pivotal retention; positive values mark the known parameter
    region where that cell profitably deviates."""
    post = posteriors(params)
    return params.d - 0.5 * params.lam * ((1 + params.R) * post.mu_minus) ** 2


def default_dev_tol(params: Params, grid_size: int) -> float:
    """1e-9 plus the grid-resolution bound on the missed gain; the utility's
    effort derivative is bounded by 1 + R + 1/lambda."""
    return 1e-9 + (1.0 + params.R + 1.0 / params.lam) / (2.0 * grid_size)


def deviation_check(eq: Equilibrium, params: Params, grid_size: int = 100_001) -> DeviationReport:
    """Grid no-profitable-deviation check at tolerance :func:`default_dev_tol`.

    For each (type, signal) cell, finds the best of the status quo and the
    reforms on ``np.linspace(0, 1, grid_size)`` and on the sorted extras
    (candidate optima, equilibrium efforts, retention breakpoints), all four
    cells per block. On a run of constant retention, with success and failure
    worth a and b, the reform utility m e a + (1 - m e) b - e^2/(2 lambda) is
    a concave quadratic with vertex lambda m (a - b), computed to within
    delta = 16 * 2^-53 * (|a| + |b| + 1/(2 lambda)). Points over h steps from
    the run's point nearest the vertex trail it by h (h + 1) step^2/(2 lambda)
    or more; where that exceeds 2 delta they cannot hold or tie the computed
    maximum. So a run is evaluated only on its cells' merged windows of h + 1
    points either side (one for rounding), and the report equals a full-grid
    scan's bit for bit. Runs are cut where the grid reaches the exact starts of
    the equilibrium's effort pieces, with no rounding argument. All runs'
    windows are packed into blocks of up to ``SCAN_BLOCK`` efforts, the extras
    sorted into the last; equal efforts have equal retention, so a plain sort
    will do, and one lookup of a block's efforts in the pieces gives its
    retention (two floats where one run fills a block). Every reform
    equilibrium effort is an extra, so the cells' equilibrium utilities are
    read off that block; the status quo is worth d + R * retained, as
    :func:`_cell_utilities` gives it. Rents over about 7e13 / lambda widen
    windows to whole runs. A cell's best moves on a greater utility, or an
    equal one at a smaller effort: the first merged, sorted maximum.
    """
    grid_size = require_integer("grid_size", grid_size)
    if not 2 <= grid_size <= MAX_GRID_SIZE:
        raise DomainError(f"grid_size must be in [2, {MAX_GRID_SIZE}], got {grid_size}")
    dev_tol = default_dev_tol(params, grid_size)
    post = posteriors(params)
    lam, R, eps = params.lam, params.R, params.eps_tol

    extras = {0.0, 1.0}
    for mu in (post.mu_plus, post.mu_minus):
        for w in (1.0, R, 1 + R):
            extras.add(min(1.0, max(0.0, lam * w * mu)))
    extras.update(act.effort for act in eq.profile.actions() if act.policy == REFORM)
    if eq.pooling_effort is not None:
        extras.add(eq.pooling_effort)
    extras.update(v for p, _ in eq.retention if (v := p.effort_value) is not None and 0 <= v <= 1)
    extra = np.array(list(extras), dtype=float)
    step = 1.0 / (grid_size - 1)
    mu = np.array([[post.mu(s)] for _, s in CELLS])
    pay = np.array([[_policy_payoff(t, o, params) for o in (SUCCESS, FAILURE)] for t, _ in CELLS])

    # retention does not depend on the deviator's cell: one decision per run, and the
    # cells' windows on it merged into (start, stop, retained) spans, each index once
    spans = []
    for lo, hi, kept in _retention_runs(eq, grid_size, step, eps):
        windows = []
        for m, (pay_succ, pay_fail) in zip(mu[:, 0].tolist(), pay.tolist()):
            # points over h - 1 steps from the one nearest the vertex trail it by
            # over 2 delta; one more step covers the rounding of the vertex
            a, b = pay_succ + R * kept[0], pay_fail + R * kept[1]
            delta = 16 * 2.0 ** -53 * (abs(a) + abs(b) + 0.5 / lam)
            h = int(min(2 * math.sqrt(lam * delta) * (grid_size - 1), grid_size)) + 2
            c = round(min(max(lam * m * (a - b) * (grid_size - 1), lo), hi - 1))
            windows.append((max(c - h, lo), min(c + h + 1, hi)))
        done = lo
        for w_lo, w_hi in sorted(windows):
            if w_hi > done:
                spans.append((max(w_lo, done), w_hi, kept))
                done = w_hi
    width = min(SCAN_BLOCK, sum(stop - start for start, stop, _ in spans))
    index = np.arange(width, dtype=float)
    starts, kept_at = (np.array(x, dtype=float) for x in eq.retention_pieces(eps))  # (P,), (P, 2)
    # a block's efforts; its 4 success and 4 failure terms and its cost are laid out (9, n)
    # in ``terms``, C-contiguous for argmax
    pack, terms = np.empty(width + extra.size), np.empty(9 * (width + extra.size))

    def blocks():
        # the spans packed ``width`` points at a time; the last block takes the extras too,
        # sorted in. A block gets its retention in one lookup of its efforts in the pieces
        n = 0
        for start, stop, kept in spans:
            while start < stop:
                k = min(width - n, stop - start)
                np.add(index[:k], start, out=pack[n:n + k])
                start, n = start + k, n + k
                last = start == spans[-1][1]
                if n == width or last:
                    e = np.multiply(pack[:n], step, out=pack[:n])
                    if start == grid_size:
                        e[-1] = 1.0  # as linspace: i * step, then the exact endpoint
                    if last:  # equal efforts have equal retention: no stable sort is needed
                        pack[n:n + extra.size] = extra
                        e = pack[:n + extra.size]
                        e.sort()
                    # a block one run fills gets two floats, which build no (4, n) temporaries
                    yield e, kept if n == k == width and not last else kept_at[
                        np.searchsorted(starts, e, side="right") - 1].T
                    n = 0

    rows = np.arange(len(CELLS))
    scan_u, scan_e = np.full(len(CELLS), -np.inf), np.zeros(len(CELLS))
    for e, kept in blocks():
        out = terms[:9 * len(e)].reshape(9, len(e))
        u = _reform_utility(mu, e, (pay[:, :1], pay[:, 1:]), kept, params,
                            (out[:4], out[4:8], out[8]))
        i = np.argmax(u, axis=1)
        u_max, e_max = u[rows, i], e[i]
        better = (u_max > scan_u) | ((u_max == scan_u) & (e_max < scan_e))
        scan_u[better] = u_max[better]
        scan_e[better] = e_max[better]

    sq = AgentAction(STATUS_QUO)  # d + R * retained in every cell, as _cell_utilities gives it
    sq_u = float(params.d) + float(R) * eq.retains(sq, SQ_OUTCOME, eps)
    cells: dict[tuple[str, str], DeviationCell] = {}
    for k, (t, s, eq_action) in enumerate(eq.profile.cells()):
        # a reform equilibrium effort is an extra: the last block's last point at that effort
        eq_u = sq_u if eq_action.policy == STATUS_QUO else float(
            u[k, np.searchsorted(e, eq_action.effort, side="right") - 1])
        if sq_u >= scan_u[k]:
            best_action, best_u = sq, sq_u
        else:
            best_action = AgentAction(REFORM, float(scan_e[k]))
            best_u = float(scan_u[k])
        if best_u <= eq_u:
            # no improving deviation: the equilibrium action is best
            best_action, best_u = eq_action, eq_u
        gain = best_u - eq_u
        if gain <= dev_tol:
            verdict = "pass"
        elif (
            eq.regime == OPAQUE
            and (t, s) == (CONGRUENT, "b")
            and documented_opaque_gap(params) > 0
        ):
            verdict = "fail (documented)"
        else:
            verdict = "fail"
        cells[(t, s)] = DeviationCell(eq_action, eq_u, best_action, best_u, gain, verdict)
    return DeviationReport(eq.regime, grid_size, dev_tol, cells)


def joint_outcome_distribution(
    profile: StrategyProfile, params: Params
) -> Iterator[tuple[str, str, AgentAction, str, float]]:
    """Enumerate (type, signal, action, outcome, probability) over the full
    joint distribution of (type, signal, state, outcome) under ``profile``."""
    p, phi = params.p, params.phi
    signal_state = {
        "g": ((True, phi * p), (False, (1 - phi) * (1 - p))),
        "b": ((True, phi * (1 - p)), (False, (1 - phi) * p)),
    }
    for (t, s), act in zip(CELLS, profile.actions()):
        pt = params.pi if t == CONGRUENT else 1 - params.pi
        for good, p_sw in signal_state[s]:
            mass = pt * p_sw
            if mass == 0.0:
                continue
            if act.policy == STATUS_QUO:
                yield t, s, act, SQ_OUTCOME, mass
            else:
                p_succ = act.effort if good else 0.0
                if p_succ > 0.0:
                    yield t, s, act, SUCCESS, mass * p_succ
                if p_succ < 1.0:
                    yield t, s, act, FAILURE, mass * (1.0 - p_succ)


@dataclass(frozen=True)
class BayesEntry(Record):
    observation: Observation
    probability: float
    recomputed: float
    stored: float
    passed: bool


@dataclass(frozen=True)
class BayesReport:
    entries: tuple[BayesEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> dict:
        return {"entries": [e.to_json() for e in self.entries], "passed": self.passed}


def bayes_consistency(eq: Equilibrium, params: Params) -> BayesReport:
    """Recompute P(congruent | observation) for every positive-probability
    observation under the profile and compare with the stored beliefs, to
    within ``BAYES_TOL``."""
    if not eq.beliefs:
        return BayesReport(entries=())  # no belief system (benchmark)
    acc: dict[Observation, tuple[float, float]] = {}
    for t, _s, act, outcome, mass in joint_outcome_distribution(eq.profile, params):
        obs = observe(eq.regime, act, outcome)
        tot, cong = acc.get(obs, (0.0, 0.0))
        acc[obs] = (tot + mass, cong + (mass if t == CONGRUENT else 0.0))
    entries = []
    for obs, (tot, cong) in sorted(acc.items(), key=lambda kv: -kv[1][0]):
        recomputed = cong / tot
        stored = eq.belief(obs, params.eps_tol)
        entries.append(
            BayesEntry(obs, tot, recomputed, stored, passed=abs(recomputed - stored) <= BAYES_TOL)
        )
    return BayesReport(entries=tuple(entries))


@dataclass(frozen=True)
class NewsEntry(Record):
    event: str
    probability: float
    posterior: float
    classification: str  # "good" | "bad" | "neutral"


@dataclass(frozen=True)
class NewsReport(Record):
    entries: dict[str, NewsEntry] = field(default_factory=dict)
    total_probability: float = 0.0


def news_classification(profile: StrategyProfile, params: Params) -> NewsReport:
    """Classify each outcome event as good/bad/neutral news about congruence
    by brute-force enumeration of the joint distribution."""
    band = max(NEUTRAL_BAND, params.eps_tol)
    acc: dict[str, tuple[float, float]] = {}
    total = 0.0
    for t, _s, _act, outcome, mass in joint_outcome_distribution(profile, params):
        tot, cong = acc.get(outcome, (0.0, 0.0))
        acc[outcome] = (tot + mass, cong + (mass if t == CONGRUENT else 0.0))
        total += mass
    entries = {}
    for event, (tot, cong) in acc.items():
        posterior = cong / tot
        if abs(posterior - params.pi) <= band:
            cls = "neutral"
        elif posterior > params.pi:
            cls = "good"
        else:
            cls = "bad"
        entries[event] = NewsEntry(event, tot, posterior, cls)
    return NewsReport(entries=entries, total_probability=total)


@dataclass(frozen=True)
class BreakEvenReport:
    """Break-even retention probabilities that leave each cell indifferent
    between a deviation and its equilibrium payoff; values may fall outside
    [0, 1] and are reported raw."""

    deviation: AgentAction
    p_bar: dict[tuple[str, str], float]
    ordering: tuple[tuple[str, str], ...]  # descending by p_bar

    def to_json(self) -> dict:
        return {
            "deviation": self.deviation.to_json(),
            "p_bar": [
                {"type": t, "signal": s, "value": v} for (t, s), v in self.p_bar.items()
            ],
            "ordering": [list(cell) for cell in self.ordering],
        }


def divinity_breakeven(
    eq: Equilibrium, deviation: AgentAction, params: Params
) -> BreakEvenReport:
    """Solve p * R + (deviation policy payoff) = equilibrium utility per cell.

    Higher break-evens mark types with less to gain from the deviation; the
    refinement attributes the deviation to the lowest break-even type(s).
    """
    post = posteriors(params)
    e = deviation.effort
    p_bar: dict[tuple[str, str], float] = {}
    eq_us = _cell_utilities(eq.profile.cells(), params, eq)
    for (t, s, _), eq_u in zip(eq.profile.cells(), eq_us):
        if deviation.policy == STATUS_QUO:
            dev_policy = params.d
        else:
            weight = post.mu(s) if t == CONGRUENT else 0.0
            dev_policy = weight * e - e * e / (2.0 * params.lam)
        p_bar[(t, s)] = (eq_u - dev_policy) / params.R
    ordering = tuple(sorted(p_bar, key=lambda cell: -p_bar[cell]))
    return BreakEvenReport(deviation=deviation, p_bar=p_bar, ordering=ordering)
