"""Shared test oracles and the seeded parameter sampler.

Everything here is deliberately independent of the library's solution path:
grid maximizers instead of first-order conditions, joint-distribution
enumeration instead of stored beliefs, dense scans instead of closed-form
roots and of the deviation scan's vertex windows, a pattern-by-pattern
interpreter instead of the compiled first-match table, and one scalar utility
per cell instead of the cells scored in one call.
"""

from __future__ import annotations

import numpy as np

from reformlab import DomainError, Params, UnresolvedObservationError, posteriors
from reformlab.equilibrium import (
    CELLS, CONGRUENT, FAILURE, OPAQUE, REFORM, RETAIN, SQ_OUTCOME, STATUS_QUO, SUCCESS,
    AgentAction, Equilibrium,
)
from reformlab.verification import (
    MAX_GRID_SIZE, SCAN_BLOCK, BreakEvenReport, DeviationCell, DeviationReport, _policy_payoff,
    _reform_utility, _retention_runs, default_dev_tol, documented_opaque_gap,
    joint_outcome_distribution,
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


def opaque_failure_mass(params: Params) -> float:
    """Probability of a failed reform as the opaque beliefs compute it, from the
    closed-form efforts left unclamped. Where it is exactly 0 (only outside the
    effort bound) ungated opaque ``solve`` has no belief after a failure and
    raises ``UnderflowError``; a copy of that formula, so that a test can tell
    this documented refusal from any other."""
    lam, R, p, phi, pi = params.lam, params.R, params.p, params.phi, params.pi
    post = posteriors(params)
    fail_c = 1.0 - phi * lam * (1 + R) * (p * post.mu_plus + (1 - p) * post.mu_minus)
    fail_n = phi * p * (1 - lam * R * post.mu_plus) + (1 - phi) * (1 - p)
    return pi * fail_c + (1 - pi) * fail_n


# The first-match interpreter that read retention and beliefs before the
# compiled table, copied verbatim: ``_matches`` was ``ObservationPattern.matches``,
# ``_interpreted_decide`` and ``_interpreted_belief`` were ``Equilibrium.decide``
# and ``Equilibrium.belief``. ``obs`` is anything with ``policy``, ``effort`` and
# ``outcome``; ``_interpreted_decide`` also takes an array of efforts and then
# returns a bool array, the reference for the deviation scan's retention runs.
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
        return abs(e - v) <= eps
    if self.effort_op == "ge":
        return e >= v - eps
    return e > v + eps  # "gt"


def _interpreted_decide(self, obs, eps=1e-12):
    if not self.retention:
        return True  # no retention stage
    retained, unset = False, True
    for pattern, decision in self.retention:
        hit = unset & _matches(pattern, obs, eps)
        if decision == RETAIN:
            retained = retained | hit
        unset = unset ^ hit
        if unset is False:  # a scalar decision is final at its first match
            return retained
    if np.any(unset):
        raise UnresolvedObservationError(f"no retention rule matches {obs}")
    return retained


def _interpreted_belief(self, obs, eps=1e-12):
    for pattern, value in self.beliefs:
        if _matches(pattern, obs, eps):
            return value
    raise UnresolvedObservationError(f"no belief entry matches {obs}")


# ``welfare._welfare_and_selection`` as it was before it read retention once per
# (action, outcome), copied verbatim but for its name: one ``retains`` per
# joint-distribution mass. The reference for W and Q, bit for bit.
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
        if eq.retains(act, outcome, params.eps_tol):
            q += mass if t == CONGRUENT else 0.0
        else:
            q += mass * params.pi
    return w, q


# ``verification._reform_retention``, ``expected_utility`` and ``divinity_breakeven``
# as they were before a check scored its cells in one call, copied verbatim but for
# the last two names: one retention read and one one-element ``_reform_utility`` call
# per reform, the status quo as a scalar sum. The reference for every cell utility
# and break-even, bit for bit.
def _reform_retention(eq: Equilibrium, effort, eps: float) -> tuple:
    """Retention after a successful and after a failed reform at ``effort``."""
    action = AgentAction(REFORM, effort)
    return eq.retains(action, SUCCESS, eps), eq.retains(action, FAILURE, eps)


def scalar_expected_utility(
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


# ``verification.deviation_check`` as it was before it scanned each retention run
# only near its utility vertex, copied verbatim but for its name and for scoring
# its cells with ``scalar_expected_utility``: every point of the grid is evaluated.
# The reference for the windowed scan's reports, bit for bit.
def dense_deviation_check(eq: Equilibrium, params: Params, grid_size: int = 100_001) -> DeviationReport:
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
    for act in eq.profile.actions():
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
