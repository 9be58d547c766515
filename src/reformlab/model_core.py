"""Model primitives: parameters, Bayesian posteriors, and assumption checks.

The game has a principal delegating a reform decision to an agent. Nature
draws a state (good/bad for reform), the agent's congruence type, and a
private signal of accuracy ``p``. All downstream modules consume the
``Params`` vector defined here and the posterior beliefs computed by
:func:`posteriors`.

Every inequality check is eps-buffered: a strict ``a > b`` in the model is
evaluated as ``a > b + eps_tol`` so float-boundary points do not flap.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import asdict, dataclass, field, fields, replace as _replace
from functools import lru_cache
from typing import Literal

import numpy as np

from .errors import DomainError

RentMode = Literal["strict", "relaxed"]

#: JSON keys for Params, in canonical order. ``lambda`` is a Python keyword,
#: so the attribute is named ``lam``.
PARAM_KEYS = ("p", "phi", "d", "lambda", "R", "pi", "M", "eps_tol")
_MAX = sys.float_info.max  # the largest finite float


def require_integer(name: str, value) -> int:
    """``value`` as an int; a count or seed that is not an integer (1.5, say) is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def require_number(name: str, value) -> float:
    """``value`` as a float; all but a finite int or float (a string or a bool, say) is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _MAX:
        raise DomainError(f"{name} must be a finite number, got {value!r:.40}")
    return float(value)


class Record:
    """Base of the dataclass reports whose JSON object is their fields in
    declaration order, nested records and dicts included."""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Params:
    """Primitive parameter vector.

    p:    signal accuracy, in [1/2, 1]
    phi:  prior probability the reform is good, in (0, 1)
    d:    status-quo payoff, in (0, 1)
    lam:  cost sensitivity (higher = cheaper effort), in (0, 1]
    R:    office rent, > 0
    pi:   prior probability the agent is congruent, in (0, 1)
    M:    principal's selection weight, >= 0 (0 = pure policy motive)
    eps_tol: buffer for strict-inequality comparisons
    """

    p: float
    phi: float
    d: float
    lam: float
    R: float
    pi: float
    M: float = 0.0
    eps_tol: float = 1e-12

    def __post_init__(self):
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

    def replace(self, **kwargs) -> "Params":
        return _replace(self, **kwargs)

    def to_json(self) -> dict:
        """Flat JSON object with keys exactly ``PARAM_KEYS``."""
        return {
            "p": self.p, "phi": self.phi, "d": self.d, "lambda": self.lam,
            "R": self.R, "pi": self.pi, "M": self.M, "eps_tol": self.eps_tol,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Params":
        """Parse the flat JSON object. Missing M defaults to 0, missing
        eps_tol to 1e-12; unknown keys are rejected."""
        if not isinstance(obj, dict):
            raise DomainError(f"params JSON must be an object, got {type(obj).__name__}")
        unknown = set(obj) - set(PARAM_KEYS)
        if unknown:
            raise DomainError(f"unknown params keys: {sorted(unknown)}")
        missing = {"p", "phi", "d", "lambda", "R", "pi"} - set(obj)
        if missing:
            raise DomainError(f"missing params keys: {sorted(missing)}")
        vals = {k: require_number(f"params {k!r}", v) for k, v in obj.items()}
        return cls(
            p=vals["p"], phi=vals["phi"], d=vals["d"], lam=vals["lambda"],
            R=vals["R"], pi=vals["pi"], M=vals.get("M", 0.0),
            eps_tol=vals.get("eps_tol", 1e-12),
        )

    @classmethod
    def load(cls, path) -> "Params":
        with open(path) as f:
            return cls.from_json(json.load(f))

    @property
    def effort_root(self) -> float:
        """sqrt(2d/lambda): the reform-payoff indifference threshold for
        posterior beliefs."""
        return math.sqrt(2.0 * self.d / self.lam)


@dataclass(frozen=True)
class Posteriors:
    """State posteriors after each signal, plus the odds reparameterization.

    mu_plus  = P(good | signal g),  mu_minus = P(good | signal b),
    gamma = (1-p)/p, z = (1-phi)/phi. Algebraically
    mu_plus = 1/(1 + gamma z) and mu_minus = gamma/(gamma + z).
    """

    mu_plus: float
    mu_minus: float
    gamma: float
    z: float

    def mu(self, signal: str) -> float:
        if signal == "g":
            return self.mu_plus
        if signal == "b":
            return self.mu_minus
        raise DomainError(f"signal must be 'g' or 'b', got {signal!r}")


def posteriors(params: Params) -> Posteriors:
    """Exact Bayes posteriors that the reform is good, by signal; one per (p, phi), memoized."""
    return _posteriors(params.p, params.phi)


@lru_cache(maxsize=64, typed=True)  # typed: a numpy or int p gets no float's entry, nor it theirs
def _posteriors(p: float, phi: float) -> Posteriors:
    mu_plus = phi * p / (phi * p + (1 - phi) * (1 - p))
    mu_minus = phi * (1 - p) / (phi * (1 - p) + (1 - phi) * p)
    return Posteriors(
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        gamma=(1 - p) / p,
        z=(1 - phi) / phi,
    )


@dataclass(frozen=True)
class CheckResult(Record):
    """One assumption check: pass/fail plus the signed quantities behind it."""

    passed: bool
    detail: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class AssumptionReport(Record):
    """All parameter-assumption checks, evaluated independently.

    The moderate-rent restriction appears in two forms. The ``strict`` form
    requires min{(1+R)mu-, R mu+} above the effort root; the ``relaxed`` form
    requires only the max. Both are reported; downstream gates pick one via a
    ``rent_mode`` flag (default relaxed).
    """

    signal_informative: CheckResult
    moderate_rent_strict: CheckResult
    moderate_rent_relaxed: CheckResult
    effort_bound: CheckResult
    informativeness: CheckResult
    rent_exceeds_2d: CheckResult

    def check(self, name: str) -> CheckResult:
        if name not in ASSUMPTION_CHECKS:
            raise DomainError(f"unknown assumption check: {name!r}")
        return getattr(self, name)

    def rent(self, mode: RentMode) -> CheckResult:
        return getattr(self, f"moderate_rent_{require_rent_mode(mode)}")


#: the assumption checks of :class:`AssumptionReport`, in report and sweep-column order
ASSUMPTION_CHECKS = tuple(f.name for f in fields(AssumptionReport))


def require_rent_mode(mode) -> RentMode:
    """``mode`` if it names a form of the moderate-rent restriction, else a refusal."""
    if mode not in ("strict", "relaxed"):
        raise DomainError(f"rent_mode must be 'strict' or 'relaxed', got {mode!r}")
    return mode


def check_assumptions(params: Params) -> AssumptionReport:
    """Evaluate every assumption with signed margins; nothing short-circuits. The report
    is built fresh from :func:`assumption_values` on each call, so it may be mutated."""
    return AssumptionReport(*[CheckResult(ok, detail.copy())
                              for ok, detail in assumption_values(params)])


def assumption_values(params: Params) -> tuple[tuple[bool, dict[str, float]], ...]:
    """Each assumption's (passed, detail), in ``ASSUMPTION_CHECKS`` order, from one bounded
    memo that the report and the gates of :func:`~reformlab.equilibrium.solve` read; a
    reader copies a detail before handing it out."""
    # the fields the checks read are typed key parts: an int or numpy field gets no float's entry
    return _assumption_values(params, params.p, params.phi, params.d, params.lam, params.R,
                              params.eps_tol)


@lru_cache(maxsize=64, typed=True)
def _assumption_values(params: Params, *_fields) -> tuple:
    eps = params.eps_tol
    post = posteriors(params)
    root = params.effort_root
    R = params.R
    lo_strict = min((1 + R) * post.mu_minus, R * post.mu_plus)
    lo_relaxed = max((1 + R) * post.mu_minus, R * post.mu_plus)
    rent_common = root > R * post.mu_minus + eps
    holds, lhs, rhs = informativeness_condition(params)
    return (
        ((post.mu_plus > root + eps) and (root > post.mu_minus + eps),
         {"mu_plus_minus_root": post.mu_plus - root, "root_minus_mu_minus": root - post.mu_minus}),
        ((lo_strict > root + eps) and rent_common,
         {"lower_bound": lo_strict, "root": root, "R_mu_minus": R * post.mu_minus}),
        ((lo_relaxed > root + eps) and rent_common,
         {"lower_bound": lo_relaxed, "root": root, "R_mu_minus": R * post.mu_minus}),
        (params.lam * (1 + R) <= 1.0 + eps, {"lambda_times_one_plus_R": params.lam * (1 + R)}),
        (holds, {"lhs": lhs, "rhs": rhs}),
        (R > 2 * params.d + eps, {"R": R, "two_d": 2 * params.d}),
    )


def informativeness_condition(params: Params) -> tuple[bool, float, float]:
    """Inequality guaranteeing a failed reform is bad news about congruence.

    In the odds reparameterization gamma = (1-p)/p, z = (1-phi)/phi the
    condition reads

        z - lambda/(1 + gamma z)  <=  gamma [lambda (1+R) gamma/(gamma+z) - 1]

    Returns (holds, lhs, rhs) with holds = lhs <= rhs + eps_tol.
    """
    return _informativeness(params, params.p)


def _informativeness(params: Params, p):
    """(holds, lhs, rhs) at accuracy ``p`` (a float or an ndarray)."""
    g = (1 - p) / p
    z = (1 - params.phi) / params.phi
    lhs = z - params.lam / (1 + g * z)
    rhs = g * (params.lam * (1 + params.R) * g / (g + z) - 1)
    return lhs <= rhs + params.eps_tol, lhs, rhs


def find_p_bar(params: Params, tol: float = 1e-9) -> float | None:
    """Smallest signal accuracy from which the informativeness condition
    holds for all sampled larger accuracies, other parameters fixed.

    Returns None when z >= lambda, in which case no such threshold is
    guaranteed to exist (the condition can fail even at p = 1). The result
    is located by a scan for the start of the trailing all-hold run followed
    by bisection on that boundary, then re-verified on a finer grid above
    the returned value; if the re-scan exposes non-monotone behavior (only
    possible when lambda(1+R) > 1), the search repeats on the finer grid.
    ``tol`` (in (0, 1/2), so that ``1/2 + tol`` is an accuracy) bounds the
    final bisection bracket's width.
    """
    if not 0.0 < tol < 0.5:
        raise DomainError(f"tol must be in (0, 0.5), got {tol}")
    if posteriors(params).z >= params.lam:
        return None

    def locate(n: int) -> float:
        grid = 0.5 + 0.5 * np.arange(n) / (n - 1)
        # the last grid point's own flag is not read
        fails = np.flatnonzero(~_informativeness(params, grid)[0][:-1])
        if len(fails) == 0:
            return 0.5 + tol  # holds on the whole open interval
        lo, hi = float(grid[fails[-1]]), float(grid[fails[-1] + 1])
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # adjacent floats: no narrower bracket exists
            if _informativeness(params, mid)[0]:
                hi = mid
            else:
                lo = mid
        return hi

    p_bar = locate(4097)
    recheck = np.minimum(p_bar + (1.0 - p_bar) * np.arange(257) / 256, 1.0)
    if not _informativeness(params, recheck)[0].all():
        return locate(65_537)
    return p_bar
