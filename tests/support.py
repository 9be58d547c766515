"""Shared test oracles and the seeded parameter sampler.

Everything here is deliberately independent of the library's solution path:
grid maximizers instead of first-order conditions, joint-distribution
enumeration instead of stored beliefs, dense scans instead of closed-form
roots and of the deviation oracle's exact per-piece candidates, the ordered
pattern lists ``solve`` once built, read by a pattern-by-pattern interpreter,
instead of the per-class effort-piece tables and their effort pieces, one
scalar utility per cell instead of the cells scored
in one call, one observation per joint mass instead of one per observed
class, and assumption reports and ``solve`` gates evaluated afresh on every
call instead of read from one memoized refusal table. The deviation oracle's
three-candidate scan, which scored a piece's clamped vertex even where it
repeats an end, is kept as the reference for the distinct candidates it now
scores.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from reformlab import (
    AssumptionError, DomainError, InformativenessError, Params, UnresolvedObservationError,
    informativeness_condition, posteriors, separation_effort, solve, transparent_pooling_family,
)
from reformlab.equilibrium import (
    CELLS, CONGRUENT, FAILURE, NONTRANSPARENT, OPAQUE, REFORM, REGIMES, REMOVE, RETAIN,
    SQ_OUTCOME, STATUS_QUO, SUCCESS, TRANSPARENT_POOLING, TRANSPARENT_SEPARATING, AgentAction,
    Equilibrium, UNIT_INTERVAL, Observation, _opaque_success_beliefs, observe,
)
from reformlab.model_core import AssumptionReport, CheckResult, require_integer, require_real
from reformlab.verification import (
    BAYES_TOL, MAX_GRID_SIZE, BayesEntry, BayesReport, BreakEvenReport,
    DeviationCell, DeviationReport, _policy_payoff, _reform_utility, default_dev_tol,
    documented_opaque_gap, joint_outcome_distribution,
)

DOMAINS = {
    "p": (0.5, 1.0),
    "phi": (0.005, 0.995),
    "d": (0.001, 0.999),
    "lam": (0.01, 1.0),
    "R": (0.01, 3.0),
    "pi": (0.01, 0.99),
}


def grid_argmax_effort(mu: float, weight: float, lam: float, n: int = 1_000_001):
    """Brute-force maximizer of mu*e*weight - e^2/(2 lam) over [0, 1]."""
    e = np.linspace(0.0, 1.0, n)
    u = mu * e * weight - e * e / (2.0 * lam)
    i = int(np.argmax(u))
    return float(e[i]), float(u[i])


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# The first-match interpreter that read retention and beliefs while an equilibrium
# stored ordered pattern lists, copied verbatim but for reading the buffer from the
# lists' ``eps_tol`` and for stating "eq" as the closed range [fl(v - eps), fl(v + eps)],
# as its readers came to do: ``_matches`` was ``ObservationPattern.matches``,
# ``_interpreted_decide`` and ``_interpreted_belief`` were ``Equilibrium.decide`` and
# ``Equilibrium.belief``. ``self`` is the ``reference_rules`` of an equilibrium. ``obs`` is
# anything with ``policy``, ``effort`` and ``outcome``; ``_interpreted_decide`` also takes
# an array of efforts and then returns a bool array, the retention of
# ``dense_deviation_check``'s grid blocks.
def _matches(self, obs, eps):
    if obs.policy != self.policy:
        return False
    if self.outcome is not None and obs.outcome != self.outcome:
        return False
    if self.effort_op is None:
        return True
    if obs.effort is None:
        return False
    e, v = obs.effort, self.effort_value
    if self.effort_op == "eq":
        return (v - eps <= e) & (e <= v + eps)
    if self.effort_op == "ge":
        return e >= v - eps
    return e > v + eps  # "gt"


def _interpreted_decide(self, obs):
    if not self.retention:
        return True  # no retention stage
    retained, unset = False, True
    for pattern, decision in self.retention:
        hit = unset & _matches(pattern, obs, self.eps_tol)
        if decision == RETAIN:
            retained = retained | hit
        unset = unset ^ hit
        if unset is False:  # a scalar decision is final at its first match
            return retained
    if np.any(unset):
        raise UnresolvedObservationError(f"no retention rule matches {obs}")
    return retained


def _interpreted_belief(self, obs):
    for pattern, value in self.beliefs:
        if _matches(pattern, obs, self.eps_tol):
            return value
    raise UnresolvedObservationError(f"no belief entry matches {obs}")


# ``ObservationPattern``, the effort-free patterns and the rule blocks of ``solve`` as they
# were while an equilibrium stored ordered pattern lists, copied verbatim but for building
# the lists from an equilibrium's profile and pooling effort and the point's ``params``
# after ``solve`` has run, and for the pattern's input checks, which ``Observation`` states:
# the reference that the library's per-class tables must read as, through the interpreter
# above.
@dataclass(frozen=True)
class ObservationPattern:
    """Matcher for a set of observations.

    ``outcome=None`` matches any outcome. ``effort_op`` is None (any effort), "eq" (the
    closed range fl(v - eps) <= e <= fl(v + eps)), "ge" (e >= fl(v - eps)) or "gt"
    (e > fl(v + eps)), for v ``effort_value`` and eps the reading equilibrium's ``eps_tol``.
    """

    policy: str
    outcome: Optional[str] = None
    effort_op: Optional[str] = None
    effort_value: Optional[float] = None


_ANY_REFORM, _ANY_STATUS_QUO = ObservationPattern(REFORM), ObservationPattern(STATUS_QUO)
_REFORM_SUCCESS = ObservationPattern(REFORM, outcome=SUCCESS)
_REFORM_FAILURE = ObservationPattern(REFORM, outcome=FAILURE)


def reference_rules(eq: Equilibrium, params: Params) -> SimpleNamespace:
    """The ``regime``, ordered ``retention`` and ``beliefs`` pattern lists and ``eps_tol``
    that ``solve`` stated for ``eq`` at ``params``."""
    regime, profile, pooling_effort = eq.regime, eq.profile, eq.pooling_effort
    if regime == TRANSPARENT_POOLING:
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
        return SimpleNamespace(regime=regime, retention=retention, beliefs=beliefs,
                               eps_tol=params.eps_tol)
    rules: tuple = ()  # (pattern, retention decision, belief), first match wins
    if regime == NONTRANSPARENT:
        rules = (
            (_ANY_REFORM, RETAIN, params.pi),
            (_ANY_STATUS_QUO, REMOVE, 0.0),
        )
    elif regime == OPAQUE:
        b_succ, b_fail = _opaque_success_beliefs(params, profile)
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
    return SimpleNamespace(regime=regime, retention=tuple((pat, dec) for pat, dec, _ in rules),
                           beliefs=tuple((pat, belief) for pat, _, belief in rules),
                           eps_tol=params.eps_tol)


def class_view(regime: str, policy: str, effort: float, outcome: str) -> SimpleNamespace:
    """What ``regime`` observes of a (policy, outcome) class at ``effort``, any float: the
    coordinates that :func:`observe` leaves None stay None."""
    obs = observe(regime, AgentAction(policy), outcome)
    return SimpleNamespace(policy=policy, outcome=obs.outcome,
                           effort=None if obs.effort is None else effort)


# ``Equilibrium.retention_pieces`` as it derived its starts from a pattern list and
# labelled each piece through the first-match reader at its start, copied verbatim but for
# taking the list and reading through the interpreter above: the reference for every table's
# starts and for the pieces, bit for bit.
def reference_starts(patterns: tuple, eps: float) -> list[float]:
    """Sorted piece starts from -inf: fl(v - eps) where an "eq" or "ge" test starts to
    pass, and the float after fl(v + eps) where "eq" stops and "gt" starts to pass."""
    starts = {-math.inf}
    for op, v in {(p.effort_op, p.effort_value) for p, _ in patterns if p.effort_op}:
        if op != "gt":
            starts.add(v - eps)
        if op != "ge":
            starts.add(math.nextafter(v + eps, math.inf))
    return sorted(starts)


def reference_pieces(rules: SimpleNamespace) -> tuple[list, list]:
    """Reform retention by effort: :func:`reference_starts` of the retention list and each
    piece's (kept after success, kept after failure), read at its start."""
    starts = reference_starts(rules.retention, rules.eps_tol)
    return starts, [tuple(_interpreted_decide(rules, class_view(rules.regime, REFORM, s, o))
                          for o in (SUCCESS, FAILURE)) for s in starts]


# ``welfare._welfare_and_selection`` copied verbatim but for its name: one
# ``retains`` per joint-distribution mass. The reference for W and Q, bit for bit.
_OUTCOME_VALUE = {SUCCESS: 1.0, FAILURE: 0.0}


def per_mass_welfare_and_selection(eq: Equilibrium, params: Params) -> tuple[float, float]:
    """Exact W and Q under ``eq`` from the joint on-path distribution.

    W weighs outcomes 1 / d / 0; Q is the expected congruence of tomorrow's
    office-holder, counting the incumbent's posterior when retained and the
    replacement prior when removed.
    """
    w = 0.0
    q = 0.0
    for t, _s, act, outcome, mass in joint_outcome_distribution(eq.profile, params):
        w += mass * (params.d if outcome == SQ_OUTCOME else _OUTCOME_VALUE[outcome])
        if eq.retains(act, outcome):
            q += mass if t == CONGRUENT else 0.0
        else:
            q += mass * params.pi
    return w, q


# ``verification.bayes_consistency`` as it was before masses were tallied by observed
# class, copied verbatim but for its name: one ``observe`` and one hashed
# ``Observation`` per joint-distribution mass. The reference for every Bayes report,
# bit for bit, wherever no class's mass underflows to 0.
def per_mass_bayes_consistency(eq: Equilibrium, params: Params) -> BayesReport:
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
        stored = eq.belief(obs)
        entries.append(
            BayesEntry(obs, tot, recomputed, stored, passed=abs(recomputed - stored) <= BAYES_TOL)
        )
    return BayesReport(entries=tuple(entries))


# ``verification._reform_retention``, ``expected_utility`` and ``divinity_breakeven``
# as they were before a check scored its cells in one call, copied verbatim but for
# the last two names: one retention read and one one-element ``_reform_utility`` call
# per reform, the status quo as a scalar sum. The reference for every cell utility
# and break-even, bit for bit.
def _reform_retention(eq: Equilibrium, effort) -> tuple:
    """Retention after a successful and after a failed reform at ``effort``."""
    action = AgentAction(REFORM, effort)
    return eq.retains(action, SUCCESS), eq.retains(action, FAILURE)


def scalar_expected_utility(
    agent_type: str, signal: str, action: AgentAction, eq: Equilibrium, params: Params
) -> float:
    """Agent's exact expected utility from ``action`` after ``signal``.

    Integrates over the state given the signal and the outcome given the
    state and action, applying the equilibrium's retention rule to each
    induced observation.
    """
    if action.policy == STATUS_QUO:
        return (_policy_payoff(agent_type, SQ_OUTCOME, params)
                + params.R * eq.retains(action, SQ_OUTCOME))
    payoffs = tuple(_policy_payoff(agent_type, o, params) for o in (SUCCESS, FAILURE))
    retained = _reform_retention(eq, action.effort)
    return float(_reform_utility(posteriors(params).mu(signal), np.array([action.effort]),
                                 payoffs, retained, params)[0])


def scalar_divinity_breakeven(
    eq: Equilibrium, deviation: AgentAction, params: Params
) -> BreakEvenReport:
    """Solve p * R + (deviation policy payoff) = equilibrium utility per cell.

    Higher break-evens mark types with less to gain from the deviation; the
    refinement attributes the deviation to the lowest break-even type(s).
    """
    post = posteriors(params)
    e = deviation.effort
    p_bar: dict[tuple[str, str], float] = {}
    for t, s, act in eq.profile.cells():
        eq_u = scalar_expected_utility(t, s, act, eq, params)
        if deviation.policy == STATUS_QUO:
            dev_policy = params.d
        else:
            weight = post.mu(s) if t == CONGRUENT else 0.0
            dev_policy = weight * e - e * e / (2.0 * params.lam)
        p_bar[(t, s)] = (eq_u - dev_policy) / params.R
    ordering = tuple(sorted(p_bar, key=lambda cell: -p_bar[cell]))
    return BreakEvenReport(deviation=deviation, p_bar=p_bar, ordering=ordering)


#: most efforts per block of the dense scan
SCAN_BLOCK = 1 << 13


# ``verification.deviation_check`` as it was while it scanned a grid, before it
# scored each retention piece's exact candidates: every point of the grid is
# evaluated, scored with ``scalar_expected_utility`` for the cells, and a grid
# block's retention is decided point by point by the verbatim interpreter above, over
# the pattern lists of ``reference_rules``. The independent reference that the exact
# oracle must match to within the grid's resolution, and never fall below.
def dense_deviation_check(eq: Equilibrium, params: Params, grid_size: int = 100_001,
                          rules=None) -> DeviationReport:
    """Brute-force no-profitable-deviation check at tolerance
    :func:`default_dev_tol`, reading retention from the pattern lists ``rules``: by
    default the :func:`reference_rules` of ``eq``.

    For each (type, signal) cell, scans the status quo plus reforms on
    ``np.linspace(0, 1, grid_size)``, built ``SCAN_BLOCK`` efforts at a time,
    then on the sorted extras (candidate optima, equilibrium efforts,
    retention breakpoints) as one more block, all four cells per block. A
    cell's best moves on a greater utility, or an equal one at a smaller
    effort: the first merged, sorted maximum.
    """
    if not 2 <= grid_size <= MAX_GRID_SIZE:
        raise DomainError(f"grid_size must be in [2, {MAX_GRID_SIZE}], got {grid_size}")
    dev_tol = default_dev_tol(params, grid_size)
    post = posteriors(params)
    lam, R = params.lam, params.R

    extras = {0.0, 1.0}
    for mu in (post.mu_plus, post.mu_minus):
        for w in (1.0, R, 1 + R):
            extras.add(min(1.0, max(0.0, lam * w * mu)))
    for act in eq.profile.actions():
        if act.policy == REFORM:
            extras.add(act.effort)
    if eq.pooling_effort is not None:
        extras.add(eq.pooling_effort)
    rules = rules or reference_rules(eq, params)
    for pattern, _ in rules.retention:
        if pattern.effort_value is not None and 0.0 <= pattern.effort_value <= 1.0:
            extras.add(pattern.effort_value)
    step = 1.0 / (grid_size - 1)

    def blocks():
        for start in range(0, grid_size, SCAN_BLOCK):
            e = np.arange(start, min(start + SCAN_BLOCK, grid_size), dtype=float) * step
            if start + e.size == grid_size:
                e[-1] = 1.0  # as linspace: i * step, then the exact endpoint
            yield e
        yield np.array(sorted(extras))

    mu = np.array([[post.mu(s)] for _, s in CELLS])
    pay = np.array([[_policy_payoff(t, o, params) for o in (SUCCESS, FAILURE)] for t, _ in CELLS])
    rows = np.arange(len(CELLS))
    scan_u, scan_e = np.full(len(CELLS), -np.inf), np.zeros(len(CELLS))
    for e in blocks():
        # an Observation refuses an array of efforts; the interpreter reads any object
        kept = [np.broadcast_to(_interpreted_decide(rules, SimpleNamespace(
            policy=REFORM, effort=e, outcome=o)), e.shape) for o in (SUCCESS, FAILURE)]
        u = _reform_utility(mu, e, (pay[:, :1], pay[:, 1:]), kept, params)
        i = np.argmax(u, axis=1)
        u_max, e_max = u[rows, i], e[i]
        better = (u_max > scan_u) | ((u_max == scan_u) & (e_max < scan_e))
        scan_u[better] = u_max[better]
        scan_e[better] = e_max[better]

    cells: dict[tuple[str, str], DeviationCell] = {}
    for k, (t, s, eq_action) in enumerate(eq.profile.cells()):
        eq_u = scalar_expected_utility(t, s, eq_action, eq, params)
        sq_u = scalar_expected_utility(t, s, AgentAction(STATUS_QUO), eq, params)
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


# ``verification.deviation_check`` as it was before it scored each distinct candidate
# once, copied verbatim but for the name, the docstring and the status-quo action built
# in place: three candidates a piece (its ends and its clamped vertex), every one
# scored, the first maximum taken from the lists of efforts and utilities, and the best
# reform built as an ``AgentAction`` wherever it beats the status quo. The reference
# that the oracle's reports must match, bit for bit.
def three_candidate_deviation_check(eq: Equilibrium, params: Params,
                                    grid_size: int = 100_001) -> DeviationReport:
    """Exact no-profitable-deviation check, scoring three candidates on each
    effort piece of constant retention: its two ends and its clamped vertex."""
    grid_size = require_integer("grid_size", grid_size, -math.inf, math.inf)
    if not 2 <= grid_size <= MAX_GRID_SIZE:
        raise DomainError(f"grid_size must be in [2, {MAX_GRID_SIZE}], got {grid_size}")
    dev_tol = default_dev_tol(params, grid_size)
    post, lam, R = posteriors(params), params.lam, params.R
    starts, kept = eq.retention_pieces()
    pieces = [(max(0.0, start), min(math.nextafter(end, -math.inf), 1.0), pair)
              for start, end, pair in zip(starts, starts[1:] + [math.inf], kept)
              if start <= 1.0 and end > 0.0]  # each piece that meets [0, 1], as float ranges
    sq_u = float(params.d) + float(R) * eq.retains(AgentAction(STATUS_QUO), SQ_OUTCOME)
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
            best_action, best_u = AgentAction(STATUS_QUO), sq_u
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


def reference_block_counts(rng: np.random.Generator, n: int, params: Params, tables) -> np.ndarray:
    """The Monte Carlo block as one 16-bin table, indexed by 8*noncongruent +
    4*bad_signal + 2*good_state + (outcome uniform < effort): a per-draw
    effort gather and a ``bincount``, the kernel ``montecarlo._run_block``
    replaced, kept as the reference its per-cell counts must match."""
    effort_tab = tables[1]
    u = rng.random((4, n))  # rows: type, state, signal, outcome
    good = u[1] < params.phi
    key = (u[0] >= params.pi).view(np.uint8) << 1
    key |= good ^ (u[2] < params.p)  # signal b iff it missed the state
    hit = u[3] < effort_tab[key]
    key <<= 1
    key |= good
    key <<= 1
    key |= hit
    return np.bincount(key, minlength=16)


def _raw_batch(rng: np.random.Generator, size: int) -> dict[str, np.ndarray]:
    return {k: rng.uniform(lo, hi, size) for k, (lo, hi) in DOMAINS.items()}


def _masks(b: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    p, phi, d, lam, R = b["p"], b["phi"], b["d"], b["lam"], b["R"]
    mu_p = phi * p / (phi * p + (1 - phi) * (1 - p))
    mu_m = phi * (1 - p) / (phi * (1 - p) + (1 - phi) * p)
    root = np.sqrt(2 * d / lam)
    g = (1 - p) / np.maximum(p, 1e-300)
    z = (1 - phi) / phi
    lhs = z - lam / (1 + g * z)
    rhs = g * (lam * (1 + R) * g / (g + z) - 1)
    return {
        "signal": (mu_p > root + 1e-9) & (root > mu_m + 1e-9),
        "rent_strict": (np.minimum((1 + R) * mu_m, R * mu_p) > root + 1e-9)
        & (root > R * mu_m + 1e-9),
        "rent_relaxed": (np.maximum((1 + R) * mu_m, R * mu_p) > root + 1e-9)
        & (root > R * mu_m + 1e-9),
        "rent_mu_plus": R * mu_p > root + 1e-9,
        "effort": lam * (1 + R) <= 1.0,
        "informativeness": lhs <= rhs,
        "rent_2d": R > 2 * d + 1e-9,
        "separation": 2 * lam * (R - d) <= 1.0,
    }


#: named predicates over the mask set
PREDICATES = {
    # parameters the constructors accept under the default relaxed rent gate,
    # with the extra restrictions that keep every regime's no-deviation
    # argument intact (see decisions notes): Rmu+ above the reform root,
    # R > 2d, and a feasible separating effort
    "acceptance": ("signal", "rent_relaxed", "rent_mu_plus", "effort",
                   "informativeness", "rent_2d", "separation"),
    # conditions under which the rent must exceed twice the status-quo payoff
    "rent_strict_set": ("signal", "rent_strict", "effort"),
    # baseline validity without constraining informativeness either way
    "news": ("signal", "rent_relaxed", "rent_mu_plus", "effort", "rent_2d"),
    "base": ("signal", "rent_relaxed", "effort", "rent_2d"),
    # the whole declared domain, every assumption free to fail
    "domain": (),
}


def sample_params(seed: int, n: int, predicate: str = "acceptance",
                  batch: int = 200_000, max_batches: int = 400) -> list[Params]:
    """Rejection-sample ``n`` parameter vectors satisfying ``predicate``.

    Uniform proposals over the declared domains; fully seeded.
    """
    names = PREDICATES[predicate]
    rng = np.random.default_rng(seed)
    out: list[Params] = []
    for _ in range(max_batches):
        b = _raw_batch(rng, batch)
        m = _masks(b)
        keep = np.ones(batch, dtype=bool)
        for name in names:
            keep &= m[name]
        idx = np.nonzero(keep)[0]
        for i in idx:
            out.append(Params(
                p=float(b["p"][i]), phi=float(b["phi"][i]), d=float(b["d"][i]),
                lam=float(b["lam"][i]), R=float(b["R"][i]), pi=float(b["pi"][i]),
            ))
            if len(out) >= n:
                return out
    raise RuntimeError(
        f"sampler exhausted after {max_batches} batches: {len(out)}/{n} "
        f"points for predicate {predicate!r}"
    )


def sample_mon_pairs(seed: int, n: int) -> list[tuple[Params, Params]]:
    """Pairs (v, v') with v' >= v componentwise in (lambda, R, phi, p),
    informativeness holding at v, and the effort bound holding at v'."""
    rng = np.random.default_rng(seed)
    pairs: list[tuple[Params, Params]] = []
    while len(pairs) < n:
        b = _raw_batch(rng, 200_000)
        m = _masks(b)
        keep = m["informativeness"] & m["effort"]
        idx = np.nonzero(keep)[0]
        for i in idx:
            base = Params(
                p=float(b["p"][i]), phi=float(b["phi"][i]), d=float(b["d"][i]),
                lam=float(b["lam"][i]), R=float(b["R"][i]), pi=float(b["pi"][i]),
            )
            u = rng.uniform(0.0, 1.0, 4)
            lam2 = min(1.0, base.lam + u[0] * (1.0 - base.lam))
            r2 = base.R + u[1] * base.R
            phi2 = min(0.999999, base.phi + u[2] * (0.999999 - base.phi))
            p2 = min(1.0, base.p + u[3] * (1.0 - base.p))
            if lam2 * (1 + r2) > 1.0:
                continue
            pairs.append((base, base.replace(lam=lam2, R=r2, phi=phi2, p=p2)))
            if len(pairs) >= n:
                break
    return pairs


# ``check_assumptions``, ``_pooling_family``, ``_require`` and the gate block of
# ``solve`` as they were before the gates read one refusal table per point, kept
# verbatim (``_require`` read a memo of ``check_assumptions``; here it calls the
# copy) as the reference that the table must refuse exactly as; the opaque
# gamble-participation gate was added to both later.


def reference_check_assumptions(params: Params) -> AssumptionReport:
    """Evaluate every assumption with signed margins; nothing short-circuits."""
    eps = params.eps_tol
    post = posteriors(params)
    root = params.effort_root
    R = params.R

    signal = CheckResult(
        passed=(post.mu_plus > root + eps) and (root > post.mu_minus + eps),
        detail={
            "mu_plus_minus_root": post.mu_plus - root,
            "root_minus_mu_minus": root - post.mu_minus,
        },
    )
    lo_strict = min((1 + R) * post.mu_minus, R * post.mu_plus)
    lo_relaxed = max((1 + R) * post.mu_minus, R * post.mu_plus)
    rent_common = root > R * post.mu_minus + eps
    strict = CheckResult(
        passed=(lo_strict > root + eps) and rent_common,
        detail={"lower_bound": lo_strict, "root": root, "R_mu_minus": R * post.mu_minus},
    )
    relaxed = CheckResult(
        passed=(lo_relaxed > root + eps) and rent_common,
        detail={"lower_bound": lo_relaxed, "root": root, "R_mu_minus": R * post.mu_minus},
    )
    effort = CheckResult(
        passed=params.lam * (1 + R) <= 1.0 + eps,
        detail={"lambda_times_one_plus_R": params.lam * (1 + R)},
    )
    holds, lhs, rhs = informativeness_condition(params)
    info = CheckResult(passed=holds, detail={"lhs": lhs, "rhs": rhs})
    rent2d = CheckResult(
        passed=R > 2 * params.d + eps,
        detail={"R": R, "two_d": 2 * params.d},
    )
    return AssumptionReport(
        signal_informative=signal,
        moderate_rent_strict=strict,
        moderate_rent_relaxed=relaxed,
        effort_bound=effort,
        informativeness=info,
        rent_exceeds_2d=rent2d,
    )


def _pooling_family(params: Params) -> tuple[float, float]:
    """:func:`transparent_pooling_family`, refused by name when it is empty."""
    family = transparent_pooling_family(params)
    if family is None:
        raise AssumptionError("pooling_family_nonempty", "no pooling equilibrium survives")
    return family


_CORE_GATES = ("signal_informative", "moderate_rent", "effort_bound")


def _require(params: Params, rent_mode) -> AssumptionReport:
    """The assumption report of ``params``, once each of ``_CORE_GATES`` holds."""
    report = reference_check_assumptions(params)
    for name in _CORE_GATES:
        result = report.rent(rent_mode) if name == "moderate_rent" else report.check(name)
        if not result.passed:
            label = f"moderate_rent_{rent_mode}" if name == "moderate_rent" else name
            raise AssumptionError(label)
    return report


def reference_solve(params: Params, regime: str, *, rent_mode="relaxed", check: bool = True,
                    pooling_effort=None) -> Equilibrium:
    """``solve`` with the verbatim gate block in front of its ungated construction."""
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    if pooling_effort is not None and regime != TRANSPARENT_POOLING:
        raise DomainError(f"a pooling effort applies only to transparent_pooling, not {regime}")
    if regime == TRANSPARENT_POOLING:
        if pooling_effort is None:
            pooling_effort = _pooling_family(params)[0]
        # added later: a pooled effort that is not a real number in [0, 1] is refused first
        require_real("pooled effort", pooling_effort, UNIT_INTERVAL)
    if check:
        report = _require(params, rent_mode)
        if regime == OPAQUE and not report.informativeness.passed:
            raise InformativenessError()
        # added with the gate: the noncongruent good-signal gamble must beat the status quo
        if regime == OPAQUE and (params.R * posteriors(params).mu_plus
                                 <= params.effort_root + params.eps_tol):
            raise AssumptionError(
                "gamble_participation",
                "R mu+ <= sqrt(2d/lambda)",
            )
        if regime == TRANSPARENT_SEPARATING:
            bar = separation_effort(params)
            if bar > 1.0 + params.eps_tol:  # no feasible effort deters mimicry
                raise AssumptionError(
                    "separation_feasible",
                    f"separating effort sqrt(2 lambda (R-d)) = {bar:.6g} exceeds 1",
                )
        if regime == TRANSPARENT_POOLING:
            lo, hi = _pooling_family(params)
            if not (lo - params.eps_tol <= pooling_effort <= hi + params.eps_tol):
                raise DomainError(f"e_star {pooling_effort} outside pooling family [{lo}, {hi}]")
    return solve(params, regime, rent_mode=rent_mode, check=False, pooling_effort=pooling_effort)


def reference_excluded(params: Params, rent_mode="relaxed") -> dict[str, str]:
    """``optimal_regime(strict=True).excluded`` as it was: each welfare regime's
    reference ``solve``, its ``AssumptionError`` caught and named."""
    excluded = {}
    for regime in (NONTRANSPARENT, OPAQUE, TRANSPARENT_SEPARATING):
        try:
            reference_solve(params, regime, rent_mode=rent_mode)
        except AssumptionError as exc:
            excluded[regime] = exc.check
    return excluded


# ``Params.__post_init__`` and ``cli._AXIS_DOMAINS`` as they were before one table in
# ``model_core`` stated each parameter's domain, kept verbatim but for the function's name and
# for ``self`` being any object with the eight attributes: the reference that the table must
# accept and refuse exactly as, and the ranges a sweep axis accepted. An axis was refused
# where ``min < lo or max > hi``.
def reference_params_checks(self):
    checks = (  # a message is formatted only for a failed condition
        (0.5 <= self.p <= 1.0, "p must be in [1/2, 1], got {0.p}"),
        (0.0 < self.phi < 1.0, "phi must be in (0, 1), got {0.phi}"),
        (0.0 < self.d < 1.0, "d must be in (0, 1), got {0.d}"),
        (0.0 < self.lam <= 1.0, "lambda must be in (0, 1], got {0.lam}"),
        (0.0 < self.R < math.inf, "R must be finite and > 0, got {0.R}"),
        (0.0 < self.pi < 1.0, "pi must be in (0, 1), got {0.pi}"),
        (0.0 <= self.M < math.inf, "M must be finite and >= 0, got {0.M}"),
        (0.0 <= self.eps_tol < math.inf, "eps_tol must be finite and >= 0, got {0.eps_tol}"),
    )
    for ok, msg in checks:
        if not ok:
            raise DomainError(msg.format(self))


REFERENCE_AXIS_DOMAINS = {
    "p": (0.5, 1.0), "phi": (0.0, 1.0), "d": (0.0, 1.0),
    "lambda": (0.0, 1.0), "R": (0.0, math.inf), "pi": (0.0, 1.0),
}
