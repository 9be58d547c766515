"""Equilibrium objects for each disclosure regime.

A regime fixes what the principal observes before the retention vote:

* ``nontransparent``: policy choice only
* ``opaque``: policy choice and reform outcome
* ``transparent``: policy choice, implementation effort, and outcome

plus a no-accountability ``benchmark`` with no retention stage.
:func:`solve` returns each regime's :class:`Equilibrium`, bundling the pure
strategy profile, a pure retention rule, and a belief system over observables.
Retention and beliefs are serialized as ordered pattern lists (first match
wins). One first-match reader serves both lists: it compiles each (list,
observation shape) row on first read, and ``decide``, ``retains`` and
``belief`` read those rows. Efforts are scalars: an ``AgentAction`` or an
``Observation`` whose effort is not a real number in [0, 1] is refused.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .errors import (
    AssumptionError, DomainError, InformativenessError, UnderflowError, UnresolvedObservationError,
)
from .model_core import (
    ASSUMPTION_CHECKS, Params, Posteriors, Record, RentMode, assumption_values, posteriors,
    check_assumptions, require_rent_mode,  # check_assumptions: re-exported, not called here
)

CONGRUENT = "congruent"
NONCONGRUENT = "noncongruent"
TYPES = (CONGRUENT, NONCONGRUENT)
SIGNALS = ("g", "b")
#: the four (type, signal) cells, in the one order every table and report uses
CELLS = tuple((t, s) for t in TYPES for s in SIGNALS)

REFORM = "reform"
STATUS_QUO = "status_quo"

SUCCESS = "success"
FAILURE = "failure"
SQ_OUTCOME = "status_quo"

BENCHMARK = "benchmark"
NONTRANSPARENT = "nontransparent"
OPAQUE = "opaque"
TRANSPARENT_SEPARATING = "transparent_separating"
TRANSPARENT_POOLING = "transparent_pooling"
REGIMES = (BENCHMARK, NONTRANSPARENT, OPAQUE, TRANSPARENT_SEPARATING, TRANSPARENT_POOLING)

RETAIN = "retain"
REMOVE = "remove"

#: the classes of observation retention is decided on, as (policy, outcome)
OBSERVATION_CLASSES = ((REFORM, SUCCESS), (REFORM, FAILURE), (STATUS_QUO, SQ_OUTCOME))


def _check_effort(effort) -> None:
    """Refuse an effort that is not a real number in [0, 1]: an array, NaN or None among them."""
    # float first: it passes without the slower ABC check that admits numpy scalars
    if not (isinstance(effort, (float, numbers.Real)) and 0.0 <= effort <= 1.0):
        raise DomainError(f"effort must be a real number in [0, 1], got {effort!r}")


@dataclass(frozen=True)
class AgentAction(Record):
    """A policy choice plus implementation effort (zero under the status quo)."""

    policy: str
    effort: float = 0.0

    def __post_init__(self):
        if self.policy not in (REFORM, STATUS_QUO):
            raise DomainError(f"policy must be 'reform' or 'status_quo', got {self.policy!r}")
        _check_effort(self.effort)
        if self.policy == STATUS_QUO and self.effort != 0.0:
            raise DomainError("status quo carries zero effort")


@dataclass(frozen=True)
class StrategyProfile:
    """Pure action for each of the four (type, signal) cells."""

    congruent_g: AgentAction
    congruent_b: AgentAction
    noncongruent_g: AgentAction
    noncongruent_b: AgentAction

    def action(self, agent_type: str, signal: str) -> AgentAction:
        if (agent_type, signal) not in CELLS:
            raise DomainError(f"unknown cell ({agent_type!r}, {signal!r})")
        return getattr(self, f"{agent_type}_{signal}")

    def actions(self) -> tuple[AgentAction, AgentAction, AgentAction, AgentAction]:
        """The four cells' actions in ``CELLS`` order (the field order), no name checked."""
        return self.congruent_g, self.congruent_b, self.noncongruent_g, self.noncongruent_b

    def cells(self) -> Iterator[tuple[str, str, AgentAction]]:
        for (t, s), act in zip(CELLS, self.actions()):
            yield t, s, act

    def to_json(self) -> list[dict]:
        return [
            {"type": t, "signal": s, **a.to_json()} for t, s, a in self.cells()
        ]


@dataclass(frozen=True)
class Observation:
    """What the principal sees; unobserved coordinates are None."""

    policy: str
    effort: Optional[float] = None
    outcome: Optional[str] = None

    def __post_init__(self):
        if self.policy not in (REFORM, STATUS_QUO):
            raise DomainError(f"bad policy {self.policy!r}")
        if self.effort is not None:
            _check_effort(self.effort)
        if self.outcome is not None:
            if self.outcome not in (SUCCESS, FAILURE, SQ_OUTCOME):
                raise DomainError(f"bad outcome {self.outcome!r}")
            # perfect invertibility: the status-quo outcome identifies the policy
            if (self.outcome == SQ_OUTCOME) != (self.policy == STATUS_QUO):
                raise DomainError(
                    f"outcome {self.outcome!r} inconsistent with policy {self.policy!r}"
                )


def observe(regime: str, action: AgentAction, outcome: str) -> Observation:
    """Project a realized (action, outcome) onto the regime's observables."""
    if regime in (BENCHMARK, NONTRANSPARENT):
        return Observation(policy=action.policy)
    if regime == OPAQUE:
        return Observation(policy=action.policy, outcome=outcome)
    if regime in (TRANSPARENT_SEPARATING, TRANSPARENT_POOLING):
        return Observation(policy=action.policy, effort=action.effort, outcome=outcome)
    raise DomainError(f"unknown regime {regime!r}")


def _shape(obs: Observation) -> tuple:
    """The first-match table's shape of ``obs``: (policy, outcome, whether effort is seen)."""
    return obs.policy, obs.outcome, obs.effort is not None


#: each regime's retention row key for each observation class, through :func:`observe`'s projection
_CLASS_VIEWS = {r: {c: ("retention", _shape(observe(r, AgentAction(c[0]), c[1])))
                    for c in OBSERVATION_CLASSES} for r in REGIMES}

#: a pattern's eps-buffered effort tests, (effort, value, eps) -> bool
_EFFORT_TESTS = {"eq": lambda e, v, eps: abs(e - v) <= eps, "ge": lambda e, v, eps: e >= v - eps,
                 "gt": lambda e, v, eps: e > v + eps}


@dataclass(frozen=True)
class ObservationPattern:
    """Matcher for a set of observations.

    ``outcome=None`` matches any outcome. ``effort_op`` is one of
    None (any), "eq", "ge", "gt"; comparisons are eps-buffered.
    """

    policy: str
    outcome: Optional[str] = None
    effort_op: Optional[str] = None
    effort_value: Optional[float] = None

    def __post_init__(self):
        if self.effort_op is not None and self.effort_op not in _EFFORT_TESTS:
            raise DomainError(f"bad effort_op {self.effort_op!r}")
        if (self.effort_op is None) != (self.effort_value is None):
            raise DomainError("effort_op and effort_value must come together")

    def to_json(self) -> dict:
        out: dict = {"policy": self.policy}
        if self.outcome is not None:
            out["outcome"] = self.outcome
        if self.effort_op is not None:
            out["effort"] = {"op": self.effort_op, "value": self.effort_value}
        return out


#: the effort-free patterns and the status-quo action :func:`solve` shares among equilibria
_ANY_REFORM, _ANY_STATUS_QUO = ObservationPattern(REFORM), ObservationPattern(STATUS_QUO)
_REFORM_SUCCESS = ObservationPattern(REFORM, outcome=SUCCESS)
_REFORM_FAILURE = ObservationPattern(REFORM, outcome=FAILURE)
_SQ_ACTION = AgentAction(STATUS_QUO)


@dataclass(frozen=True)
class Equilibrium:
    """A strategy profile, a pure retention rule, and a belief system.

    ``retention`` and ``beliefs`` are ordered (pattern, value) lists, first match
    wins. An empty retention list means no retention stage (benchmark): the agent
    keeps office regardless of play, so the office term is constant across actions.
    """

    regime: str
    profile: StrategyProfile
    retention: tuple[tuple[ObservationPattern, str], ...]
    beliefs: tuple[tuple[ObservationPattern, float], ...]
    pooling_effort: Optional[float] = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise DomainError(f"unknown regime {self.regime!r}")
        for _, decision in self.retention:
            if decision not in (RETAIN, REMOVE):
                raise DomainError(f"bad retention decision {decision!r}")
        object.__setattr__(self, "_rows", {})  # first-match rows by (list, shape), built when read

    def decide(self, obs: Observation, eps: float = 1e-12) -> bool:
        """True iff retained after ``obs``."""
        return self._first_match(("retention", _shape(obs)), obs.effort, eps) == RETAIN

    def retains(self, action: AgentAction, outcome: str, eps: float = 1e-12) -> bool:
        """``decide(observe(regime, action, outcome), eps)`` without building the observation;
        (``action.policy``, ``outcome``) is one of ``OBSERVATION_CLASSES``."""
        key = _CLASS_VIEWS[self.regime][action.policy, outcome]
        return self._first_match(key, action.effort, eps) == RETAIN

    def belief(self, obs: Observation, eps: float = 1e-12) -> float:
        """Posterior probability the agent is congruent after ``obs``."""
        return self._first_match(("beliefs", _shape(obs)), obs.effort, eps)

    def _first_match(self, key: tuple, effort: Optional[float], eps: float):
        """The value of the first entry of list ``key[0]`` ("retention" or "beliefs") whose
        pattern matches an observation of shape ``key[1]`` carrying ``effort``."""
        row = self._rows.get(key)
        if row is None:  # (effort_op, effort_value, value) of the entries that can match the shape
            rules, (policy, outcome, seen) = key
            entries = getattr(self, rules)
            if rules == "retention" and not entries:  # no retention stage: the agent keeps office
                entries = ((ObservationPattern(policy), RETAIN),)
            row = self._rows[key] = [
                (p.effort_op, p.effort_value, value) for p, value in entries
                if p.policy == policy and p.outcome in (None, outcome)
                and (p.effort_op is None or seen)]
        for op, v, value in row:
            if op is None or _EFFORT_TESTS[op](effort, v, eps):
                return value
        raise UnresolvedObservationError(f"no {key[0]} entry matches {key[1]}, effort {effort}")

    def to_json(self) -> dict:
        return {
            "regime": self.regime,
            "profile": self.profile.to_json(),
            "retention": [
                {"observation": pat.to_json(), "decision": dec}
                for pat, dec in self.retention
            ],
            "beliefs": [
                {"observation": pat.to_json(), "p_congruent": val}
                for pat, val in self.beliefs
            ],
            "pooling_effort": self.pooling_effort,
        }


def interior_effort(mu: float, reward_weight: float, params: Params) -> float:
    """Maximizer of mu*e*reward_weight - e^2/(2 lambda) on [0, 1].

    ``reward_weight`` is the agent's stake in a success: 1 with no retention
    incentive, 1+R when success also secures office for a congruent type,
    R for a noncongruent type.
    """
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"mu must be in [0, 1], got {mu}")
    if reward_weight < 0.0:
        raise DomainError(f"reward_weight must be >= 0, got {reward_weight}")
    return min(1.0, max(0.0, params.lam * reward_weight * mu))


def separation_effort(params: Params) -> float:
    """Effort cost bar sqrt(2 lambda (R-d)) that makes mimicry unprofitable
    for a noncongruent type; zero when office is worth less than the status
    quo (separation is free)."""
    return math.sqrt(max(0.0, 2.0 * params.lam * (params.R - params.d)))


def raw_profile(regime: str, params: Params, post: Posteriors) -> tuple[tuple[str, float], ...]:
    """Closed-form (policy, effort) of the four (type, signal) cells, in
    ``TYPES x SIGNALS`` order, with efforts left unclamped.

    This is the one statement of each regime's strategy: :func:`solve`
    clamps the efforts to [0, 1], and
    :func:`~reformlab.welfare.formula_welfare` uses them raw.
    """
    lam, R = params.lam, params.R
    mu_g, mu_b = post.mu_plus, post.mu_minus
    sq = (STATUS_QUO, 0.0)
    if regime == BENCHMARK:
        return (REFORM, lam * mu_g), sq, sq, sq
    if regime == NONTRANSPARENT:
        return (REFORM, lam * mu_g), (REFORM, lam * mu_b), (REFORM, 0.0), (REFORM, 0.0)
    if regime == OPAQUE:
        return (
            (REFORM, lam * (1 + R) * mu_g), (REFORM, lam * (1 + R) * mu_b),
            (REFORM, lam * R * mu_g), sq,
        )
    if regime == TRANSPARENT_SEPARATING:
        bar = separation_effort(params)
        return (REFORM, max(bar, lam * mu_g)), (REFORM, max(bar, lam * mu_b)), sq, sq
    raise DomainError(f"no closed-form profile for regime {regime!r}")


def _opaque_success_beliefs(params: Params) -> tuple[float, float]:
    """Posterior congruence after a successful / failed reform under the
    outcome-accountable profile, by Bayes from the on-path distribution."""
    post = posteriors(params)
    lam, R, p, phi, pi = params.lam, params.R, params.p, params.phi, params.pi
    succ_c = phi * lam * (1 + R) * (p * post.mu_plus + (1 - p) * post.mu_minus)
    succ_n = phi * p * lam * R * post.mu_plus
    fail_c = 1.0 - succ_c
    fail_n = phi * p * (1 - lam * R * post.mu_plus) + (1 - phi) * (1 - p)
    mass_succ = pi * succ_c + (1 - pi) * succ_n
    mass_fail = pi * fail_c + (1 - pi) * fail_n
    if mass_succ == 0.0 or mass_fail == 0.0:
        raise UnderflowError("opaque: the probability of an on-path reform outcome underflows to 0")
    return pi * succ_c / mass_succ, pi * fail_c / mass_fail


def transparent_pooling_family(params: Params) -> Optional[tuple[float, float]]:
    """Effort interval [lambda mu+, sqrt(2 lambda (R-d))] supporting pooling
    on reform in the transparent regime, or None when lambda mu+^2 is not
    strictly below 2(R-d) (no pooling equilibrium survives refinement)."""
    post = posteriors(params)
    if params.lam * post.mu_plus**2 < 2 * (params.R - params.d) - params.eps_tol:
        return (params.lam * post.mu_plus, separation_effort(params))
    return None


#: the refusal of ``transparent_pooling`` where its family is empty, as (exception class, args)
_NO_POOLING = AssumptionError, ("pooling_family_nonempty", "no pooling equilibrium survives")


@lru_cache(maxsize=64)
def gate_refusals(params: Params, rent_mode: RentMode) -> dict[str, tuple[type, tuple]]:
    """Each regime's refusal by gated :func:`solve` at ``params``, as (exception class,
    args); a regime that is built has no entry. A failed core gate (signal, rent in its
    ``rent_mode`` form, effort bound) refuses all; past them each regime's own condition
    decides. One bounded memo entry per (params, rent_mode); readers build fresh exceptions."""
    passed = {name: ok for name, (ok, _) in zip(ASSUMPTION_CHECKS, assumption_values(params))}
    for name in ("signal_informative", f"moderate_rent_{rent_mode}", "effort_bound"):
        if not passed[name]:
            return dict.fromkeys(REGIMES, (AssumptionError, (name,)))
    refusals = {}
    if not passed["informativeness"]:
        refusals[OPAQUE] = InformativenessError, ()
    bar = separation_effort(params)
    if bar > 1.0 + params.eps_tol:  # no feasible effort deters mimicry
        refusals[TRANSPARENT_SEPARATING] = AssumptionError, (
            "separation_feasible", f"separating effort sqrt(2 lambda (R-d)) = {bar:.6g} exceeds 1")
    if transparent_pooling_family(params) is None:
        refusals[TRANSPARENT_POOLING] = _NO_POOLING
    return refusals


def solve(
    params: Params, regime: str, *, rent_mode: RentMode = "relaxed", check: bool = True,
    pooling_effort: Optional[float] = None,
) -> Equilibrium:
    """Construct the named regime's equilibrium.

    * ``benchmark`` (no accountability): each type plays its policy
      favorite. Only the congruent type reforms, and only on a good signal,
      with the career-blind effort lambda*mu+. There is no retention stage.
    * ``nontransparent`` (policy observed), the unique pure equilibrium:
      both types pool on reform (neutral news, retained); the congruent type
      implements at the career-blind level, the noncongruent type shirks
      entirely. An off-path status quo reveals noncongruence and removal.
    * ``opaque`` (policy and outcome observed), the unique pure equilibrium:
      retention is pivotal on a successful reform, so reformers internalize
      the office rent. The congruent type reforms on both signals at
      lambda(1+R)mu, the noncongruent type gambles for resurrection only on
      a good signal at lambda*R*mu+. Requires the informativeness condition
      (otherwise a failed reform need not be bad news and the retention rule
      unravels).
    * ``transparent_separating`` (policy, effort and outcome observed), the
      least-cost separating equilibrium: the congruent type reforms with
      effort e_H = max{sqrt(2 lambda (R-d)), lambda mu+} on a good signal
      and e_L = max{sqrt(2 lambda (R-d)), lambda mu-} on a bad one; the
      noncongruent type always keeps the status quo. Retention rewards
      reforms at or above the separating bar (or at exactly e_L); any other
      effort is attributed to a noncongruent deviator. Requires the bar to
      be a feasible effort.
    * ``transparent_pooling``: everyone reforms at ``pooling_effort`` (by
      default the lower end of :func:`transparent_pooling_family`) and is
      retained; efforts below the pool (or the status quo) are attributed to
      the noncongruent type, efforts above to a good-signal congruent type.

    A ``rent_mode`` other than "strict" or "relaxed" is refused first. With
    ``check`` the core assumptions (rent in its ``rent_mode`` form) and the
    regime's own condition must hold, as read from :func:`gate_refusals`,
    and a pooled effort must lie in the family. Either way the closed-form
    efforts are clamped to [0, 1], and a pooled effort outside [0, 1], or
    given for another regime, is refused.
    """
    require_rent_mode(rent_mode)
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    if pooling_effort is not None and regime != TRANSPARENT_POOLING:
        raise DomainError(f"a pooling effort applies only to transparent_pooling, not {regime}")
    if regime == TRANSPARENT_POOLING and pooling_effort is None:
        family = transparent_pooling_family(params)
        if family is None:
            raise AssumptionError(*_NO_POOLING[1])
        pooling_effort = family[0]
    if check:
        refusal = gate_refusals(params, rent_mode).get(regime)
        if refusal is not None:
            cls, args = refusal
            raise cls(*args)
        if regime == TRANSPARENT_POOLING:
            lo, hi = transparent_pooling_family(params)
            if not (lo - params.eps_tol <= pooling_effort <= hi + params.eps_tol):
                raise DomainError(f"e_star {pooling_effort} outside pooling family [{lo}, {hi}]")
    if regime == TRANSPARENT_POOLING:
        if not 0.0 <= pooling_effort <= 1.0:
            raise DomainError(f"pooled effort must be feasible, got {pooling_effort}")
        act = AgentAction(REFORM, pooling_effort)
        retention = (
            (_ANY_STATUS_QUO, REMOVE),
            (ObservationPattern(REFORM, effort_op="ge", effort_value=pooling_effort), RETAIN),
            (_ANY_REFORM, REMOVE),
        )
        beliefs = (
            (_ANY_STATUS_QUO, 0.0),
            (ObservationPattern(REFORM, effort_op="eq", effort_value=pooling_effort), params.pi),
            (ObservationPattern(REFORM, effort_op="gt", effort_value=pooling_effort), 1.0),
            (_ANY_REFORM, 0.0),
        )
        return Equilibrium(regime, StrategyProfile(act, act, act, act), retention, beliefs,
                           pooling_effort)
    profile = StrategyProfile(*(
        _SQ_ACTION if policy == STATUS_QUO else AgentAction(policy, min(1.0, max(0.0, effort)))
        for policy, effort in raw_profile(regime, params, posteriors(params))
    ))
    rules: tuple = ()  # (pattern, retention decision, belief), first match wins
    if regime == NONTRANSPARENT:
        rules = (
            (_ANY_REFORM, RETAIN, params.pi),
            (_ANY_STATUS_QUO, REMOVE, 0.0),
        )
    elif regime == OPAQUE:
        b_succ, b_fail = _opaque_success_beliefs(params)
        rules = (
            (_REFORM_SUCCESS, RETAIN, b_succ),
            (_REFORM_FAILURE, REMOVE, b_fail),
            (_ANY_STATUS_QUO, REMOVE, 0.0),
        )
    elif regime == TRANSPARENT_SEPARATING:
        e_h, e_l = profile.congruent_g.effort, profile.congruent_b.effort
        rules = (
            (_ANY_STATUS_QUO, REMOVE, 0.0),
            (ObservationPattern(REFORM, effort_op="eq", effort_value=e_h), RETAIN, 1.0),
            (ObservationPattern(REFORM, effort_op="eq", effort_value=e_l), RETAIN, 1.0),
            (ObservationPattern(REFORM, effort_op="gt", effort_value=e_h), RETAIN, 1.0),
            (_ANY_REFORM, REMOVE, 0.0),
        )
    return Equilibrium(regime, profile, tuple((pat, dec) for pat, dec, _ in rules),
                       tuple((pat, belief) for pat, _, belief in rules))
