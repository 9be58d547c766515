"""Principal welfare per regime, optimal-regime selection, and the
office-rent roots of :func:`H`.

Two welfare surfaces are exposed deliberately:

* :func:`regime_welfare` integrates the principal's policy payoff over an
  actual :class:`~reformlab.equilibrium.Equilibrium` (efforts are feasible
  probabilities). This is the surface the Monte Carlo oracle must match.
* :func:`formula_welfare` evaluates the same closed forms on the raw effort
  expressions of :func:`~reformlab.equilibrium.raw_profile` (``lambda (1+R)
  mu`` etc.) without feasibility clamping or assumption gating. The
  rent-threshold analysis lives on this algebraic surface: the upper switch
  point R_high sits where the raw efforts exceed one, so gated welfare
  cannot reach it. Sweeps take their welfare columns from
  ``optimal_regime(params, strict=False)``, which ranks this surface, and
  report them next to the assumption flags so consumers can see where the
  model's restrictions stop holding.

The rent thresholds are the closed-form roots of :func:`H`; the test suite
checks them against bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    AssumptionError, DomainError, NonFiniteError, PreconditionLossError, UnderflowError,
)
from .equilibrium import (
    CONGRUENT,
    FAILURE,
    NONTRANSPARENT,
    OPAQUE,
    REFORM,
    SQ_OUTCOME,
    SUCCESS,
    TRANSPARENT_SEPARATING,
    Equilibrium,
    raw_profile,
    solve,
)
from .model_core import Params, Record, RentMode, posteriors
from .verification import joint_outcome_distribution

WELFARE_REGIMES = (NONTRANSPARENT, OPAQUE, TRANSPARENT_SEPARATING)

_OUTCOME_VALUE = {SUCCESS: 1.0, FAILURE: 0.0}


@dataclass(frozen=True)
class WelfareEntry(Record):
    """Per-regime welfare: expected policy payoff W, selection term Q, and
    the total W + M*Q."""

    regime: str
    W: float
    Q: float
    total: float


@dataclass(frozen=True)
class WelfareReport(Record):
    entries: dict[str, WelfareEntry]
    excluded: dict[str, str]  # regime -> failed check
    optimal: Optional[str]
    margin: Optional[float]  # optimal total minus runner-up total

    def to_csv_rows(self) -> list[str]:
        rows = ["regime,W,Q,total,optimal_flag"]
        for regime, e in self.entries.items():
            flag = "true" if regime == self.optimal else "false"
            rows.append(f"{regime},{e.W!r},{e.Q!r},{e.total!r},{flag}")
        return rows


def _welfare_and_selection(eq: Equilibrium, params: Params) -> tuple[float, float]:
    """Exact W and Q under ``eq`` from the joint on-path distribution.

    W weighs outcomes 1 / d / 0; Q is the expected congruence of tomorrow's
    office-holder, counting the incumbent's posterior when retained and the
    replacement prior when removed; retention is read once per (action, outcome).
    """
    w = 0.0
    q = 0.0
    kept = {}
    for t, _s, act, outcome, mass in joint_outcome_distribution(eq.profile, params):
        w += mass * (params.d if outcome == SQ_OUTCOME else _OUTCOME_VALUE[outcome])
        key = act.policy, act.effort, outcome
        retained = kept.get(key)
        if retained is None:
            retained = kept[key] = eq.retains(act, outcome, params.eps_tol)
        if retained:
            q += mass if t == CONGRUENT else 0.0
        else:
            q += mass * params.pi
    return w, q


def regime_welfare(params: Params, regime: str, eq: Equilibrium) -> WelfareEntry:
    """Welfare entry for ``regime`` evaluated on its equilibrium object."""
    if eq.regime != regime:
        raise DomainError(f"equilibrium regime {eq.regime!r} does not match {regime!r}")
    w, q = _welfare_and_selection(eq, params)
    return WelfareEntry(regime=regime, W=w, Q=q, total=w + params.M * q)


def formula_welfare(params: Params, regime: str) -> float:
    """Closed-form W on raw (unclamped) effort expressions; see module note."""
    if regime not in WELFARE_REGIMES:
        raise DomainError(f"no closed-form welfare for regime {regime!r}")
    post = posteriors(params)
    pi = params.pi
    p_g = params.phi * params.p + (1 - params.phi) * (1 - params.p)
    masses = (pi * p_g, pi * (1 - p_g), (1 - pi) * p_g, (1 - pi) * (1 - p_g))
    mus = (post.mu_plus, post.mu_minus) * 2
    w = 0.0
    for mass, mu, (policy, effort) in zip(masses, mus, raw_profile(regime, params, post)):
        w += mass * (effort * mu if policy == REFORM else params.d)
    return w


def optimal_regime(
    params: Params, *, rent_mode: RentMode = "relaxed", strict: bool = True
) -> WelfareReport:
    """Welfare table over the three retention regimes with the optimum.

    With ``strict=True`` each regime is constructed under its assumption
    gates and excluded (with the failed check noted) when they do not hold.
    With ``strict=False`` the gates are skipped and all three W values come
    from the raw closed forms, extending the comparison across the whole
    rent axis; Q is always read from the constructed equilibrium. A total
    that overflows is refused with :class:`NonFiniteError`, never ranked.
    """
    entries: dict[str, WelfareEntry] = {}
    excluded: dict[str, str] = {}
    for regime in WELFARE_REGIMES:
        try:
            eq = solve(params, regime, rent_mode=rent_mode, check=strict)
        except AssumptionError as exc:
            excluded[regime] = exc.check
            continue
        w, q = _welfare_and_selection(eq, params)
        if not strict:
            w = formula_welfare(params, regime)
        total = w + params.M * q
        if not math.isfinite(total):
            raise NonFiniteError(f"{regime}: the welfare total W + M*Q = {total} is not finite")
        entries[regime] = WelfareEntry(regime=regime, W=w, Q=q, total=total)
    if not entries:
        return WelfareReport(entries={}, excluded=excluded, optimal=None, margin=None)
    ranked = sorted(entries.values(), key=lambda e: -e.total)
    margin = ranked[0].total - ranked[1].total if len(ranked) > 1 else None
    return WelfareReport(
        entries=entries, excluded=excluded, optimal=ranked[0].regime, margin=margin
    )


def H(R: float, lambda_hat: float, d: float) -> float:
    """Nonpositive exactly where the separating bar sqrt(2 lambda (R-d)) reaches the
    opaque good-signal congruent effort lambda (1+R) mu+, at lambda_hat = lambda mu+^2."""
    return lambda_hat * (1 + R) ** 2 - 2 * (R - d)


@dataclass(frozen=True)
class Thresholds(Record):
    """Roots of H: the rents where the separating bar meets the opaque good-signal
    congruent effort. Welfare weighs more, so the optimal regime can switch elsewhere."""

    lambda_hat: float
    exists: bool
    R_low: Optional[float]
    R_high: Optional[float]


def thresholds_from_lambda_hat(lambda_hat: float, d: float) -> Thresholds:
    """Closed-form roots of H (the test suite checks them against bisection)."""
    if lambda_hat <= 0:
        raise DomainError(f"lambda_hat must be > 0, got {lambda_hat}")
    disc = 1.0 - 2.0 * (1.0 + d) * lambda_hat
    if disc < 0:
        return Thresholds(lambda_hat=lambda_hat, exists=False, R_low=None, R_high=None)
    s = math.sqrt(disc)
    r_low = (1.0 - lambda_hat - s) / lambda_hat
    r_high = (1.0 - lambda_hat + s) / lambda_hat
    return Thresholds(lambda_hat=lambda_hat, exists=True, R_low=r_low, R_high=r_high)


def thresholds(params: Params) -> Thresholds:
    """:class:`Thresholds` at lambda_hat = lambda * mu_plus^2 for the given params."""
    lambda_hat = params.lam * posteriors(params).mu_plus**2
    if lambda_hat == 0.0:
        raise UnderflowError("lambda_hat = lambda * mu_plus^2 underflows to 0")
    return thresholds_from_lambda_hat(lambda_hat, params.d)


_BUMP_ATTR = {"phi": "phi", "lambda": "lam", "p": "p", "R": "R"}


@dataclass(frozen=True)
class ComparativeStaticsReport(Record):
    which: str
    delta: float
    baseline: WelfareReport
    bumped: WelfareReport
    welfare_deltas: dict[str, float]
    persisted: bool  # did the optimal regime survive the bump


def comparative_statics(
    params: Params, which: str, delta: float, *,
    rent_mode: RentMode = "relaxed", strict: bool = True,
) -> ComparativeStaticsReport:
    """Recompute the welfare table after bumping one parameter.

    Raises :class:`PreconditionLossError` when the bump leaves the parameter
    domain or (in strict mode) knocks out a regime present at baseline.
    """
    if which not in _BUMP_ATTR:
        raise DomainError(f"which must be one of {sorted(_BUMP_ATTR)}, got {which!r}")
    attr = _BUMP_ATTR[which]
    try:
        bumped_params = params.replace(**{attr: getattr(params, attr) + delta})
    except DomainError as exc:
        raise PreconditionLossError(f"params.{which}", str(exc)) from exc
    baseline = optimal_regime(params, rent_mode=rent_mode, strict=strict)
    bumped = optimal_regime(bumped_params, rent_mode=rent_mode, strict=strict)
    lost = set(baseline.entries) - set(bumped.entries)
    if lost:
        regime = sorted(lost)[0]
        raise PreconditionLossError(
            bumped.excluded.get(regime, regime),
            f"regime {regime} no longer constructible after bumping {which} "
            f"by {delta} (failed check: {bumped.excluded.get(regime)})",
        )
    deltas = {
        regime: bumped.entries[regime].W - baseline.entries[regime].W
        for regime in baseline.entries
    }
    return ComparativeStaticsReport(
        which=which, delta=delta, baseline=baseline, bumped=bumped,
        welfare_deltas=deltas, persisted=baseline.optimal == bumped.optimal,
    )
