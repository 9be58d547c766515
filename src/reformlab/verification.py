"""Independent numerical checks of equilibrium claims.

Every check here re-derives its target from game primitives rather than
trusting the equilibrium constructors: expected utilities are integrated
from the payoff table, deviations are scanned over a dense effort grid,
beliefs are recomputed by enumerating the joint distribution, and news
classifications come from the same enumeration. The primitives are the
policy payoff of :func:`_policy_payoff`, the effort cost e^2/(2 lambda) and
the office rent R paid on retention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import DomainError
from .equilibrium import (
    CELLS,
    CONGRUENT,
    FAILURE,
    NONCONGRUENT,
    OPAQUE,
    REFORM,
    SIGNALS,
    SQ_OUTCOME,
    STATUS_QUO,
    SUCCESS,
    AgentAction,
    Equilibrium,
    Observation,
    StrategyProfile,
    observe,
)
from .model_core import Params, Record, posteriors

#: classification band for neutral news (posterior within this of the prior)
NEUTRAL_BAND = 1e-9
#: largest gap between a recomputed and a stored belief that still passes
BAYES_TOL = 1e-9
#: largest deviation-scan grid; a check's memory is constant, so this bounds its time (~0.25 s)
MAX_GRID_SIZE = 10_000_001
#: efforts per deviation-scan block, so that one block's (10, B) work buffer stays in cache
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


def _reform_retention(eq: Equilibrium, effort, eps: float) -> tuple:
    """Retention after a successful and after a failed reform at ``effort``."""
    action = AgentAction(REFORM, effort)
    return eq.retains(action, SUCCESS, eps), eq.retains(action, FAILURE, eps)


def _retention_runs(eq: Equilibrium, grid_size: int, step: float, eps: float) -> list:
    """(lo, hi, retained) runs of constant reform retention over the grid
    indices [0, G); point i is ``i * step``, the last one 1.0. Retention
    flips only at a pattern's v - eps, v or v + eps; ``i * step`` and the
    comparisons round by under 1e-15, far below a spacing for G <=
    MAX_GRID_SIZE, so a flip at t lies between i and i + 1 with i within
    one of floor(t (G - 1)): decisions are taken at that index -1 ... +2."""
    near: set[int] = set()
    for v in {pattern.effort_value for pattern, _ in eq.retention} - {None}:
        for t in (v - eps, v, v + eps):
            k = int(min(max(t, 0.0), 1.0) * (grid_size - 1))
            near.update(range(max(k - 1, 0), min(k + 3, grid_size)))
    points = {i: 1.0 if i == grid_size - 1 else i * step for i in near | {0}}
    kept = {i: _reform_retention(eq, e, eps) for i, e in points.items()}
    cuts = [i for i in sorted(near) if i - 1 in kept and kept[i - 1] != kept[i]]
    bounds = [0, *cuts, grid_size]
    return [(lo, hi, kept[lo]) for lo, hi in zip(bounds, bounds[1:])]


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


def expected_utility(
    agent_type: str, signal: str, action: AgentAction, eq: Equilibrium, params: Params
) -> float:
    """Agent's exact expected utility from ``action`` after ``signal``.

    Integrates over the state given the signal and the outcome given the
    state and action, applying the equilibrium's retention rule to each
    induced observation.
    """
    eps = params.eps_tol
    if action.policy == STATUS_QUO:
        return (_policy_payoff(agent_type, SQ_OUTCOME, params)
                + params.R * eq.retains(action, SQ_OUTCOME, eps))
    payoffs = tuple(_policy_payoff(agent_type, o, params) for o in (SUCCESS, FAILURE))
    retained = _reform_retention(eq, action.effort, eps)
    return float(_reform_utility(posteriors(params).mu(signal), np.array([action.effort]),
                                 payoffs, retained, params, np.empty((3, 1)))[0])


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
    """Brute-force no-profitable-deviation check at tolerance
    :func:`default_dev_tol`.

    For each (type, signal) cell, scans the status quo plus reforms on
    ``np.linspace(0, 1, grid_size)``, built ``SCAN_BLOCK`` efforts at a time
    within runs of constant retention, then on the sorted extras (candidate
    optima, equilibrium efforts, retention breakpoints) as one more block,
    all four cells per block in preallocated buffers. A cell's best moves on
    a greater utility, or an equal one at a smaller effort: the first
    merged, sorted maximum.
    """
    if not 2 <= grid_size <= MAX_GRID_SIZE:
        raise DomainError(f"grid_size must be in [2, {MAX_GRID_SIZE}], got {grid_size}")
    dev_tol = default_dev_tol(params, grid_size)
    post = posteriors(params)
    lam, R, eps = params.lam, params.R, params.eps_tol

    extras = {0.0, 1.0}
    for mu in (post.mu_plus, post.mu_minus):
        for w in (1.0, R, 1 + R):
            extras.add(min(1.0, max(0.0, lam * w * mu)))
    for _, _, act in eq.profile.cells():
        if act.policy == REFORM:
            extras.add(act.effort)
    if eq.pooling_effort is not None:
        extras.add(eq.pooling_effort)
    for pattern, _ in eq.retention:
        if pattern.effort_value is not None and 0.0 <= pattern.effort_value <= 1.0:
            extras.add(pattern.effort_value)
    extra = np.array(sorted(extras))
    extra_kept = np.array([_reform_retention(eq, float(x), eps) for x in extra])
    step = 1.0 / (grid_size - 1)
    index = np.arange(SCAN_BLOCK, dtype=float)
    # 4 success terms, 4 failure terms, cost, grid efforts; wide enough for the extras' block
    work = np.empty((10, max(SCAN_BLOCK, len(extra))))

    def blocks():
        # retention does not depend on the deviator's cell: one decision per run
        for lo, hi, kept in _retention_runs(eq, grid_size, step, eps):
            for start in range(lo, hi, SCAN_BLOCK):
                n = min(SCAN_BLOCK, hi - start)
                e = np.add(index[:n], start, out=work[9, :n])
                e *= step
                if start + n == grid_size:
                    e[-1] = 1.0  # as linspace: i * step, then the exact endpoint
                yield e, kept
        yield extra, tuple(extra_kept.T)

    mu = np.array([[post.mu(s)] for _, s in CELLS])
    pay = np.array([[_policy_payoff(t, o, params) for o in (SUCCESS, FAILURE)] for t, _ in CELLS])
    rows = np.arange(len(CELLS))
    scan_u, scan_e = np.full(len(CELLS), -np.inf), np.zeros(len(CELLS))
    for e, kept in blocks():
        n = len(e)
        u = _reform_utility(mu, e, (pay[:, :1], pay[:, 1:]), kept, params,
                            (work[:4, :n], work[4:8, :n], work[8, :n]))
        i = np.argmax(u, axis=1)
        u_max, e_max = u[rows, i], e[i]
        better = (u_max > scan_u) | ((u_max == scan_u) & (e_max < scan_e))
        scan_u[better] = u_max[better]
        scan_e[better] = e_max[better]

    cells: dict[tuple[str, str], DeviationCell] = {}
    for k, (t, s) in enumerate(CELLS):
        eq_action = eq.profile.action(t, s)
        eq_u = expected_utility(t, s, eq_action, eq, params)
        sq_u = expected_utility(t, s, AgentAction(STATUS_QUO), eq, params)
        if sq_u >= scan_u[k]:
            best_action, best_u = AgentAction(STATUS_QUO), sq_u
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
    type_probs = ((CONGRUENT, params.pi), (NONCONGRUENT, 1 - params.pi))
    signal_state = {
        "g": ((True, phi * p), (False, (1 - phi) * (1 - p))),
        "b": ((True, phi * (1 - p)), (False, (1 - phi) * p)),
    }
    for t, pt in type_probs:
        for s in SIGNALS:
            act = profile.action(t, s)
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
    for t, s in CELLS:
        eq_u = expected_utility(t, s, eq.profile.action(t, s), eq, params)
        if deviation.policy == STATUS_QUO:
            dev_policy = params.d
        else:
            weight = post.mu(s) if t == CONGRUENT else 0.0
            dev_policy = weight * e - e * e / (2.0 * params.lam)
        p_bar[(t, s)] = (eq_u - dev_policy) / params.R
    ordering = tuple(sorted(p_bar, key=lambda cell: -p_bar[cell]))
    return BreakEvenReport(deviation=deviation, p_bar=p_bar, ordering=ordering)
