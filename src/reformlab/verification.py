"""Independent numerical checks of equilibrium claims.

Every check here re-derives its target from game primitives rather than
trusting the equilibrium constructors: expected utilities are integrated
from the payoff table (one expression on Python floats per scored effort), the
best deviation is found exactly on each effort piece of constant retention, where
the reform utility is a concave quadratic, beliefs are recomputed by
enumerating the joint distribution, and news classifications come from the
same enumeration. The primitives are the policy payoff of
:func:`_policy_payoff`, the effort cost e^2/(2 lambda) and the office rent R
paid on retention.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator

from .errors import DomainError
from .equilibrium import (
    CELLS,
    CONGRUENT,
    FAILURE,
    OPAQUE,
    REFORM,
    REGIMES,
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
#: largest ``grid_size`` whose resolution sets the deviation tolerance
MAX_GRID_SIZE = 10_000_001
#: whether each regime sees a reform's effort and its outcome, read once off :func:`observe`
_SEES = {r: (o.effort is not None, o.outcome is not None)
         for r in REGIMES for o in [observe(r, AgentAction(REFORM), SUCCESS)]}
#: the status quo, worth d + R * retained in every cell
_SQ_ACTION = AgentAction(STATUS_QUO)


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


def _reform_utility(mu, effort, payoffs: tuple, retained: tuple, params: Params):
    """Expected utility of reforming at ``effort`` with state posterior ``mu``, given
    the policy payoffs of success and of failure and the retention after each, in one
    expression that floats and numpy arrays evaluate alike, operation for operation."""
    (pay_succ, pay_fail), (kept_succ, kept_fail) = payoffs, retained
    p_succ = mu * effort
    return (p_succ * (pay_succ + params.R * kept_succ) - effort * effort / (2.0 * params.lam)
            + (1.0 - p_succ) * (pay_fail + params.R * kept_fail))


def _cell_utilities(cells, params: Params, eq: Equilibrium) -> list:
    """Exact expected utilities of the (type, signal, action) ``cells``, one
    :func:`_reform_utility` call on floats a cell, a reform's retention looked up in the
    equilibrium's effort pieces. The status quo is a reform at effort 0 whose outcomes
    both pay d and keep its retention, so 0 * x = 0 and 1 * x = x make it
    d + R * retained, bit for bit."""
    post, out, (starts, kept) = posteriors(params), [], eq.retention_pieces(params.eps_tol)
    for t, s, action in cells:
        if action.policy == REFORM:
            payoffs = _policy_payoff(t, SUCCESS, params), _policy_payoff(t, FAILURE, params)
            pair = kept[bisect_right(starts, action.effort) - 1]
        else:
            payoffs = (_policy_payoff(t, SQ_OUTCOME, params),) * 2
            pair = (eq.retains(action, SQ_OUTCOME, params.eps_tol),) * 2
        out.append(_reform_utility(post.mu(s), action.effort, payoffs, pair, params))
    return out


def expected_utility(
    agent_type: str, signal: str, action: AgentAction, eq: Equilibrium, params: Params
) -> float:
    """Agent's exact expected utility from ``action`` after ``signal``.

    Integrates over the state given the signal and the outcome given the
    state and action, applying the equilibrium's retention rule to each
    induced observation.
    """
    if (agent_type, signal) not in CELLS:
        raise DomainError(f"unknown cell ({agent_type!r}, {signal!r})")
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
    """1e-9 plus the bound on the gain that an effort grid of ``grid_size`` points can
    miss; the utility's effort derivative is bounded by 1 + R + 1/lambda."""
    return 1e-9 + (1.0 + params.R + 1.0 / params.lam) / (2.0 * grid_size)


def deviation_check(eq: Equilibrium, params: Params, grid_size: int = 100_001) -> DeviationReport:
    """Exact no-profitable-deviation check at tolerance :func:`default_dev_tol`, the
    only thing ``grid_size`` sets.

    For each (type, signal) cell, finds the best of the status quo and every reform
    effort in [0, 1]. Reform retention is constant on each of the equilibrium's
    effort pieces. On a piece, with success and failure worth a and b (the policy
    payoff, plus R where kept), the reform utility m e a + (1 - m e) b - e^2/(2 lambda)
    is a concave quadratic with vertex lambda m (a - b). So its supremum over the piece's
    floats in [0, 1], from lo to hi (the float below the next start), is attained at lo,
    at hi or at the vertex clamped to them, and the report needs no open end. Each of
    these three candidates of every piece and cell, and each cell's reform equilibrium
    effort, is scored by one :func:`_reform_utility` call on floats. The candidates never
    decrease in piece order, so a cell's best reform is its first maximum, the smaller
    effort on a tie. The status quo is worth d + R * retained, as
    :func:`_cell_utilities` gives it, and wins a tie with a reform.
    """
    grid_size = require_integer("grid_size", grid_size)
    if not 2 <= grid_size <= MAX_GRID_SIZE:
        raise DomainError(f"grid_size must be in [2, {MAX_GRID_SIZE}], got {grid_size}")
    dev_tol = default_dev_tol(params, grid_size)
    post, lam, R, eps = posteriors(params), params.lam, params.R, params.eps_tol
    starts, kept = eq.retention_pieces(eps)
    pieces = [(max(0.0, start), min(math.nextafter(end, -math.inf), 1.0), pair)
              for start, end, pair in zip(starts, starts[1:] + [math.inf], kept)
              if start <= 1.0 and end > 0.0]  # each piece that meets [0, 1], as float ranges
    sq_u = float(params.d) + float(R) * eq.retains(_SQ_ACTION, SQ_OUTCOME, eps)
    cells: dict[tuple[str, str], DeviationCell] = {}
    for (t, s), eq_action in zip(CELLS, eq.profile.actions()):
        pay_succ, pay_fail = _policy_payoff(t, SUCCESS, params), _policy_payoff(t, FAILURE, params)
        mu, payoffs, efforts, us = post.mu(s), (pay_succ, pay_fail), [], []
        for lo, hi, pair in pieces:  # three candidates a piece: its ends and its clamped vertex
            top = lam * mu * (pay_succ + R * pair[0] - (pay_fail + R * pair[1]))
            for e in (lo, min(max(top, lo), hi), hi):
                efforts.append(e)
                us.append(_reform_utility(mu, e, payoffs, pair, params))
        if eq_action.policy == REFORM:
            eq_pair = kept[bisect_right(starts, eq_action.effort) - 1]
            eq_u = _reform_utility(mu, eq_action.effort, payoffs, eq_pair, params)
        else:
            eq_u = sq_u
        i = us.index(reform_u := max(us))  # the first maximum
        if sq_u >= reform_u:
            best_action, best_u = _SQ_ACTION, sq_u
        else:
            best_action, best_u = AgentAction(REFORM, efforts[i]), reform_u
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
    within ``BAYES_TOL``. Masses are tallied by observed class: the policy, plus
    the effort and the outcome where :func:`observe` shows them to the regime."""
    if not eq.beliefs:
        return BayesReport(entries=())  # no belief system (benchmark)
    sees_effort, sees_outcome = _SEES[eq.regime]
    acc: dict[tuple, tuple[float, float]] = {}
    for t, _s, act, outcome, mass in joint_outcome_distribution(eq.profile, params):
        key = act.policy, act.effort if sees_effort else None, outcome if sees_outcome else None
        tot, cong = acc.get(key, (0.0, 0.0))
        acc[key] = (tot + mass, cong + (mass if t == CONGRUENT else 0.0))
    entries = []
    for key, (tot, cong) in sorted(acc.items(), key=lambda kv: -kv[1][0]):
        if tot == 0.0:  # every mass of the class underflowed: not a positive-probability class
            continue
        obs = Observation(*key)
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
        if tot == 0.0:  # every mass of the event underflowed: not a positive-probability event
            continue
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
    post, e, cells = posteriors(params), deviation.effort, tuple(eq.profile.cells())
    p_bar: dict[tuple[str, str], float] = {}
    for (t, s, _), eq_u in zip(cells, _cell_utilities(cells, params, eq)):
        if deviation.policy == STATUS_QUO:
            dev_policy = params.d
        else:
            weight = post.mu(s) if t == CONGRUENT else 0.0
            dev_policy = weight * e - e * e / (2.0 * params.lam)
        p_bar[(t, s)] = (eq_u - dev_policy) / params.R
    ordering = tuple(sorted(p_bar, key=lambda cell: -p_bar[cell]))
    return BreakEvenReport(deviation=deviation, p_bar=p_bar, ordering=ordering)
