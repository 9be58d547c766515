"""Equilibrium objects for each disclosure regime.

A regime fixes what the principal observes before the retention vote, as ``SEES`` states it:

* ``nontransparent``: policy choice only
* ``opaque``: policy choice and reform outcome
* ``transparent``: policy choice, implementation effort, and outcome

plus a no-accountability ``benchmark`` with no retention stage.
:func:`solve` returns each regime's :class:`Equilibrium`, bundling the pure strategy
profile, a pure retention rule, and a belief system over observables. Retention and beliefs
are per-class effort-piece tables: tuples with one pair of tuples, sorted piece starts from
-inf and one value per piece, for each observation class of the regime's ``TABLE_CLASSES``
(the policy, and the outcome where the regime sees it), in that order. Immutable by
construction, they are checked and stored as given. A class whose effort the regime does not
see has one piece. ``solve`` writes each start as the exact float where one of its
eps-buffered effort tests turns: fl(v - eps), or the float after fl(v + eps). ``retains``
and ``belief`` are a class-position lookup and a ``bisect_right``; an observation that lacks
a coordinate the regime sees has no belief. The pooled effort is the profile's, read off it.
An ``AgentAction`` or ``Observation`` effort that is not a real number in [0, 1], or is a
bool, is refused.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import (
    AssumptionError, DomainError, InformativenessError, UnderflowError, UnresolvedObservationError,
)
from .model_core import (
    ASSUMPTION_CHECKS, Params, Posteriors, Record, RentMode, assumption_values,
    posteriors, require_real, require_rent_mode,
    check_assumptions,  # not called here; perfbench reads it
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


#: the domain of an effort, a success probability, and of a belief: [0, 1]
UNIT_INTERVAL = (0.0, 1.0, False, False)


@dataclass(frozen=True)
class AgentAction(Record):
    """A policy choice plus implementation effort (zero under the status quo)."""

    policy: str
    effort: float = 0.0

    def __post_init__(self):
        if self.policy not in (REFORM, STATUS_QUO):
            raise DomainError(f"policy must be 'reform' or 'status_quo', got {self.policy!r}")
        require_real("effort", self.effort, UNIT_INTERVAL)
        if self.policy == STATUS_QUO and self.effort != 0.0:
            raise DomainError("status quo carries zero effort")


@dataclass(frozen=True)
class StrategyProfile:
    """Pure action for each of the four (type, signal) cells; a cell that is not an
    ``AgentAction`` is refused."""

    congruent_g: AgentAction
    congruent_b: AgentAction
    noncongruent_g: AgentAction
    noncongruent_b: AgentAction

    def __post_init__(self):
        if not (isinstance(self.congruent_g, AgentAction)
                and isinstance(self.congruent_b, AgentAction)
                and isinstance(self.noncongruent_g, AgentAction)
                and isinstance(self.noncongruent_b, AgentAction)):
            raise DomainError(f"each cell must be an AgentAction, got {self!r:.200}")

    def actions(self) -> tuple[AgentAction, AgentAction, AgentAction, AgentAction]:
        """The four cells' actions in ``CELLS`` order (the field order), no name checked."""
        return self.congruent_g, self.congruent_b, self.noncongruent_g, self.noncongruent_b

    def to_json(self) -> list[dict]:
        return [
            {"type": t, "signal": s, **a.to_json()} for (t, s), a in zip(CELLS, self.actions())
        ]


@dataclass(frozen=True)
class Observation:
    """What the principal sees; unobserved coordinates are None. An unknown policy or outcome,
    an outcome the policy cannot produce and an effort outside [0, 1] are refused."""

    policy: str
    effort: Optional[float] = None
    outcome: Optional[str] = None

    def __post_init__(self):
        if self.policy not in (REFORM, STATUS_QUO):
            raise DomainError(f"bad policy {self.policy!r}")
        if self.outcome is not None:
            if self.outcome not in (SUCCESS, FAILURE, SQ_OUTCOME):
                raise DomainError(f"bad outcome {self.outcome!r}")
            # perfect invertibility: the status-quo outcome identifies the policy
            if (self.outcome == SQ_OUTCOME) != (self.policy == STATUS_QUO):
                raise DomainError(
                    f"outcome {self.outcome!r} inconsistent with policy {self.policy!r}")
        if self.effort is not None:
            require_real("effort", self.effort, UNIT_INTERVAL)


#: what each regime observes of a reform besides the policy: (sees the effort, sees the outcome)
SEES = {BENCHMARK: (False, False), NONTRANSPARENT: (False, False), OPAQUE: (False, True),
        TRANSPARENT_SEPARATING: (True, True), TRANSPARENT_POOLING: (True, True)}


def observe(regime: str, action: AgentAction, outcome: str) -> Observation:
    """Project a realized (action, outcome) onto what ``SEES`` says the regime observes."""
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    sees_effort, sees_outcome = SEES[regime]
    return Observation(action.policy, action.effort if sees_effort else None,
                       outcome if sees_outcome else None)


#: the classes each regime's retention and belief tables hold, in ``OBSERVATION_CLASSES``
#: order, each as (policy, outcome) with the outcome None where the regime does not see it;
#: the benchmark has no retention stage, so its tables are empty
TABLE_CLASSES = {r: () if r == BENCHMARK else tuple(dict.fromkeys(
                     (policy, outcome if SEES[r][1] else None)
                     for policy, outcome in OBSERVATION_CLASSES)) for r in REGIMES}
#: each regime's table position of each of ``OBSERVATION_CLASSES``; None in the benchmark
_CLASS_INDEX = {r: {(policy, outcome): classes.index((policy, outcome if SEES[r][1] else None))
                    if classes else None for policy, outcome in OBSERVATION_CLASSES}
                for r, classes in TABLE_CLASSES.items()}
#: the same, and each of the regime's ``TABLE_CLASSES``: the keys an observation resolves on
_OBSERVED_INDEX = {r: {**index, **{c: i for i, c in enumerate(TABLE_CLASSES[r])}}
                   for r, index in _CLASS_INDEX.items()}

#: the one start of a class whose effort the regime does not see
_BLIND = (-math.inf,)
#: the effort-blind table entries and the status-quo action :func:`solve` shares
_KEPT, _REMOVED, _DISBELIEVED = (_BLIND, (True,)), (_BLIND, (False,)), (_BLIND, (0.0,))
_SQ_ACTION = AgentAction(STATUS_QUO)


def _check_table(name: str, table, regime: str) -> None:
    """Refuse ``table`` unless it is a tuple of one (starts, values) pair of tuples per class
    of the regime's ``TABLE_CLASSES``, in that order, the two of one length, the starts real
    numbers that rise strictly from -inf (-inf alone where the regime does not see effort),
    each value a bool in ``retention`` and a real number in [0, 1] in ``beliefs``. An entry
    that is the one before it is read once, and a float start or belief costs no call; a
    refusal names the entry's class."""
    classes = TABLE_CLASSES[regime]
    if type(table) is not tuple or len(table) != len(classes):
        raise DomainError(f"{regime} {name} must be a tuple of one (starts, values) per class "
                          f"of {classes}, got {table!r:.200}")
    sees_effort, decisions, checked = SEES[regime][0], name == "retention", None
    for entry in table:
        if entry is checked and entry is not None:  # the entry before, read once
            continue
        try:
            if not (type(entry) is tuple and len(entry) == 2
                    and type(entry[0]) is tuple and type(entry[1]) is tuple):
                raise DomainError(f"not a tuple (starts, values) of two tuples, got {entry!r:.200}")
            starts, values = entry
            n = len(starts)
            if n != len(values):
                raise DomainError(f"{n} starts for {len(values)} values")
            for start in starts:
                if type(start) is not float:
                    require_real("a start", start, (-math.inf, math.inf, False, False))
            if not (n and starts[0] == -math.inf
                    and (n == 1 or all(map(operator.lt, starts, starts[1:])))):
                raise DomainError(f"starts must rise strictly from -inf, got {starts!r:.200}")
            if n > 1 and not sees_effort:
                raise DomainError(f"{regime} sees no effort, so -inf is its one start, "
                                  f"got {starts!r:.200}")
            for value in values:
                if decisions:
                    if type(value) is not bool:
                        raise DomainError(f"a decision must be a bool, got {value!r}")
                elif not (type(value) is float and 0.0 <= value <= 1.0):
                    require_real("a belief", value, UNIT_INTERVAL)
        except DomainError as exc:  # the class is looked up, by identity, only to refuse
            key = classes[[e is entry for e in table].index(True)]
            raise DomainError(f"{name} {key}: {exc}") from None
        checked = entry


@dataclass(frozen=True)
class Equilibrium:
    """A strategy profile, a pure retention rule, and a belief system.

    ``retention`` and ``beliefs`` are per-class effort-piece tables: each is a tuple with
    one ``(starts, values)`` pair of tuples for each class of ``TABLE_CLASSES[regime]`` (the
    policy, and the outcome where the regime sees it), in that order, ``values[i]`` holding
    for efforts from ``starts[i]`` up to the next start. ``starts[0]`` is -inf, and a class
    whose effort the regime does not see has that start only. Retention values are bools
    (True: retained), belief values the posterior probability that the agent is congruent.
    ``dict(zip(TABLE_CLASSES[eq.regime], eq.retention))`` is a table keyed by class. The
    benchmark has no retention stage, so both its tables are ``()``: the agent keeps office
    regardless of play, and the office term is constant across actions. :func:`solve`
    writes the starts with its eps buffer baked in. The tables are stored as given, immutable
    by construction; a malformed table and a profile that is not a ``StrategyProfile`` are
    refused with ``DomainError``. ``pooling_effort`` is read off the profile, so it cannot
    disagree with the efforts played.
    """

    regime: str
    profile: StrategyProfile
    retention: tuple[tuple[tuple[float, ...], tuple[bool, ...]], ...]
    beliefs: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]

    def __post_init__(self):
        regime = self.regime
        if regime not in REGIMES:
            raise DomainError(f"unknown regime {regime!r}")
        if not isinstance(self.profile, StrategyProfile):
            raise DomainError(f"profile must be a StrategyProfile, got {self.profile!r:.200}")
        _check_table("retention", self.retention, regime)
        _check_table("beliefs", self.beliefs, regime)

    @property
    def pooling_effort(self) -> Optional[float]:
        """The effort every cell pools at under ``transparent_pooling``, else None."""
        return self.profile.congruent_g.effort if self.regime == TRANSPARENT_POOLING else None

    def retains(self, action: AgentAction, outcome: str) -> bool:
        """True iff retained after ``action`` and ``outcome``, read as the regime observes
        them; a (policy, outcome) that is none of ``OBSERVATION_CLASSES`` is refused."""
        try:
            i = _CLASS_INDEX[self.regime][action.policy, outcome]
        except (KeyError, TypeError):  # TypeError: an unhashable outcome
            raise DomainError(f"({action.policy!r}, {outcome!r}) is no observation class") from None
        if i is None:  # the benchmark: no retention stage
            return True
        starts, kept = self.retention[i]
        return kept[bisect_right(starts, action.effort) - 1]

    def belief(self, obs: Observation) -> float:
        """Posterior probability the agent is congruent after ``obs``, which must carry every
        coordinate the regime sees; a coordinate it does not see is not read."""
        i = _OBSERVED_INDEX[self.regime].get((obs.policy, obs.outcome))
        if i is None or SEES[self.regime][0] and obs.effort is None:
            raise UnresolvedObservationError(f"{self.regime} has no beliefs entry for {obs}")
        starts, values = self.beliefs[i]
        return values[bisect_right(starts, obs.effort or 0.0) - 1]

    def retention_pieces(self) -> tuple[list, list]:
        """Reform retention by effort: the sorted starts of the two reform classes' retention
        tables, from -inf, and each piece's (kept after success, kept after failure), looked
        up in each table. :func:`solve` gives both classes one start list, so the pieces are
        the two tables zipped; nothing is stored."""
        if not self.retention:
            return [-math.inf], [(True, True)]
        index = _CLASS_INDEX[self.regime]
        tables = [self.retention[index[REFORM, o]] for o in (SUCCESS, FAILURE)]
        (starts, kept_s), (starts_f, kept_f) = tables
        if starts_f != starts:  # tables that start apart: each read at the union's starts
            starts = sorted({*starts, *starts_f})
            kept_s, kept_f = ([kept[bisect_right(table_starts, s) - 1] for s in starts]
                              for table_starts, kept in tables)
        return list(starts), list(zip(kept_s, kept_f))

    def to_json(self) -> dict:
        """The profile, and each table as one object per piece: the class, the piece's
        ``effort_from`` (left out where it is -inf) and its value."""
        def pieces(table, label, value):
            return [{"policy": policy, **({"outcome": outcome} if outcome else {}),
                     **({"effort_from": s} if s != -math.inf else {}), label: value(v)}
                    for (policy, outcome), entry in zip(TABLE_CLASSES[self.regime], table)
                    for s, v in zip(*entry)]
        return {
            "regime": self.regime,
            "profile": self.profile.to_json(),
            "retention": pieces(self.retention, "decision", lambda v: RETAIN if v else REMOVE),
            "beliefs": pieces(self.beliefs, "p_congruent", lambda v: v),
            "pooling_effort": self.pooling_effort,
        }


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


def _opaque_success_beliefs(params: Params, profile: StrategyProfile) -> tuple[float, float]:
    """Posterior congruence after a successful / failed reform, by Bayes from the on-path
    distribution of the clamped outcome-accountable ``profile`` that :func:`solve` built."""
    p, phi, pi = params.p, params.phi, params.pi
    e_g, e_b, e_n, _ = (act.effort for act in profile.actions())  # noncongruent_b: status quo
    succ_c = phi * (p * e_g + (1 - p) * e_b)
    succ_n = phi * p * e_n
    fail_c = 1.0 - succ_c
    fail_n = phi * p * (1 - e_n) + (1 - phi) * (1 - p)
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


def _transparent(reform: tuple, status_quo: tuple) -> tuple:
    """A transparent regime's table: both reform classes read ``reform``."""
    return reform, reform, status_quo


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
    elif params.R * posteriors(params).mu_plus <= params.effort_root + params.eps_tol:
        refusals[OPAQUE] = AssumptionError, ("gamble_participation", "R mu+ <= sqrt(2d/lambda)")
    bar = separation_effort(params)
    if bar > 1.0 + params.eps_tol:  # no feasible effort deters mimicry
        refusals[TRANSPARENT_SEPARATING] = AssumptionError, (
            "separation_feasible", f"separating effort sqrt(2 lambda (R-d)) = {bar:.6g} exceeds 1")
    if transparent_pooling_family(params) is None:
        refusals[TRANSPARENT_POOLING] = _NO_POOLING
    return refusals


def solve(
    params: Params, regime: str, *, rent_mode: RentMode = "relaxed", check: bool = True,
    pooling_effort: float | None = None,
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
      a good signal at lambda*R*mu+. Requires informativeness (else a failed
      reform need not be bad news and the retention rule unravels) and R*mu+
      above the effort root sqrt(2d/lambda) (else the gamble does not pay).
    * ``transparent_separating`` (policy, effort and outcome observed), the
      least-cost separating equilibrium: the congruent type reforms with
      effort e_H = max{sqrt(2 lambda (R-d)), lambda mu+} on a good signal
      and e_L = max{sqrt(2 lambda (R-d)), lambda mu-} on a bad one; the
      noncongruent type always keeps the status quo. Retention rewards a
      reform at exactly e_H, at exactly e_L, or strictly above e_H (each
      eps-buffered); any other effort, such as one between e_L and e_H or
      at a bar below e_L, is attributed to a noncongruent deviator.
      Requires the bar to be a feasible effort.
    * ``transparent_pooling``: everyone reforms at ``pooling_effort`` (by
      default the lower end of :func:`transparent_pooling_family`) and is
      retained; efforts below the pool (or the status quo) are attributed to
      the noncongruent type, efforts above to a good-signal congruent type.

    A ``rent_mode`` other than "strict" or "relaxed" is refused first, and a
    pooled effort that is not a real number in [0, 1], or given for another
    regime, is refused before any gate. With ``check`` the core assumptions
    (rent in its ``rent_mode`` form) and the regime's own condition must
    hold, as read from :func:`gate_refusals`, and a pooled effort must lie
    in the family. Either way the closed-form efforts are clamped to [0, 1], and the
    opaque beliefs are Bayes posteriors over that clamped profile.
    """
    require_rent_mode(rent_mode)
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    if regime == TRANSPARENT_POOLING:
        family = transparent_pooling_family(params) if check or pooling_effort is None else None
        if pooling_effort is None:
            if family is None:
                raise AssumptionError(*_NO_POOLING[1])
            pooling_effort = family[0]
        require_real("pooled effort", pooling_effort, UNIT_INTERVAL)  # before any gate
    elif pooling_effort is not None:
        raise DomainError(f"a pooling effort applies only to transparent_pooling, not {regime}")
    if check:
        refusal = gate_refusals(params, rent_mode).get(regime)
        if refusal is not None:
            cls, args = refusal
            raise cls(*args)
        if regime == TRANSPARENT_POOLING:
            lo, hi = family  # the gate has refused an empty family
            if not (lo - params.eps_tol <= pooling_effort <= hi + params.eps_tol):
                raise DomainError(f"e_star {pooling_effort} outside pooling family [{lo}, {hi}]")
    eps = params.eps_tol
    if regime == TRANSPARENT_POOLING:
        # kept from fl(e - eps); believed the prior up to fl(e + eps), a good-signal congruent
        # type above it, and a noncongruent type below the pool
        act, lo = AgentAction(REFORM, pooling_effort), pooling_effort - eps
        believed = (-math.inf, lo, math.nextafter(pooling_effort + eps, math.inf))
        return Equilibrium(regime, StrategyProfile(act, act, act, act),
                           _transparent(((-math.inf, lo), (False, True)), _REMOVED),
                           _transparent((believed, (0.0, params.pi, 1.0)), _DISBELIEVED))
    profile = StrategyProfile(*(
        _SQ_ACTION if policy == STATUS_QUO else AgentAction(policy, min(1.0, max(0.0, effort)))
        for policy, effort in raw_profile(regime, params, posteriors(params))
    ))
    retention, beliefs = (), ()  # the benchmark's: no retention stage
    if regime == NONTRANSPARENT:
        retention, beliefs = (_KEPT, _REMOVED), ((_BLIND, (params.pi,)), _DISBELIEVED)
    elif regime == OPAQUE:
        b_succ, b_fail = _opaque_success_beliefs(params, profile)
        retention = _KEPT, _REMOVED, _REMOVED
        beliefs = (_BLIND, (b_succ,)), (_BLIND, (b_fail,)), _DISBELIEVED
    elif regime == TRANSPARENT_SEPARATING:
        # kept within [fl(e - eps), fl(e + eps)] of e_H or of e_L, and above fl(e_H + eps)
        e_h, e_l = profile.congruent_g.effort, profile.congruent_b.effort
        lo_h, lo_l, hi_l = e_h - eps, e_l - eps, e_l + eps
        starts = tuple(sorted({-math.inf, lo_h, math.nextafter(e_h + eps, math.inf),
                               lo_l, math.nextafter(hi_l, math.inf)}))
        kept = tuple(bool(s >= lo_h or lo_l <= s <= hi_l) for s in starts)
        retention = _transparent((starts, kept), _REMOVED)
        beliefs = _transparent((starts, tuple(1.0 if k else 0.0 for k in kept)), _DISBELIEVED)
    return Equilibrium(regime, profile, retention, beliefs)
