"""Shared test oracles and the seeded parameter sampler.

Everything here is deliberately independent of the library's solution path:
grid maximizers instead of first-order conditions, joint-distribution
enumeration instead of stored beliefs, dense scans instead of closed-form
roots, and a pattern-by-pattern interpreter instead of the compiled
first-match table.
"""

from __future__ import annotations

import numpy as np

from reformlab import Params, UnresolvedObservationError, posteriors
from reformlab.equilibrium import CONGRUENT, FAILURE, RETAIN, SQ_OUTCOME, SUCCESS, Equilibrium
from reformlab.verification import joint_outcome_distribution

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
