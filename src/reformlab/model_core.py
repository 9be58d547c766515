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
import numbers
import operator
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from typing import Literal

from .errors import DomainError

RentMode = Literal["strict", "relaxed"]

#: the parameter vector's one format: each JSON key, in canonical order, maps to its ``Params``
#: attribute and domain as (attribute, (low, high, low end open, high end open)), the domain in
#: the form :func:`require_real` reads. ``lambda`` is a Python keyword, so its attribute is
#: ``lam``. The game's six primitives come first.
PARAM_FIELDS = {
    "p": ("p", (0.5, 1.0, False, False)),  # signal accuracy
    "phi": ("phi", (0.0, 1.0, True, True)),  # prior probability the reform is good
    "d": ("d", (0.0, 1.0, True, True)),  # status-quo payoff
    "lambda": ("lam", (0.0, 1.0, True, False)),  # cost sensitivity (higher = cheaper effort)
    "R": ("R", (0.0, math.inf, True, True)),  # office rent
    "pi": ("pi", (0.0, 1.0, True, True)),  # prior probability the agent is congruent
    "M": ("M", (0.0, math.inf, False, True)),  # principal's selection weight (0 = policy only)
    "eps_tol": ("eps_tol", (0.0, math.inf, False, True)),  # buffer for strict inequalities
}
PARAM_KEYS = tuple(PARAM_FIELDS)
GAME_KEYS = PARAM_KEYS[:6]  # the keys a params object must hold and a sweep may vary
_MAX = sys.float_info.max  # the largest finite float
#: :func:`find_p_bar`'s return where the condition holds on all of (1/2, 1]: 1/2 + P_BAR_TOL
P_BAR_TOL = 1e-9


def require_real(name: str, value, domain: tuple[float, float, bool, bool]) -> None:
    """Refuse ``value`` unless it is a real number, not a bool, in ``domain``, an interval stated
    as (low, high, low end open, high end open). A value that is no float is judged as the float
    its readers convert it to: NaN, a string, an array and a number past the largest float are
    refused."""
    lo, hi, lo_open, hi_open = domain
    x = value
    if type(value) is not float:  # a float is judged as it is, with no call
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        try:
            x = float(value) if real else math.nan  # NaN is refused below
        except OverflowError:
            x = None
        if x is None or math.isinf(x) and value != x:  # a finite number made infinite
            raise DomainError(f"{name} is past the largest float, got {value!r:.40}")
    if not ((lo < x or not lo_open and lo == x) and (x < hi or not hi_open and x == hi)):
        raise DomainError(f"{name} must be a real number in {'(' if lo_open else '['}{lo:g}, "
                          f"{hi:g}{')' if hi_open else ']'}, got {value!r:.40}")


def require_integer(name: str, value, lo: int, hi: int) -> int:
    """``value`` as an int in [lo, hi]; a count or seed that is not an integer (1.5 or True,
    say) is refused, and so is one outside the range."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not lo <= n <= hi:
        raise DomainError(f"{name} must be in [{lo}, {hi}], got {n}")
    return n


def require_number(name: str, value) -> float:
    """``value`` as a float; all but a finite int or float (a string or a bool, say) is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _MAX:
        raise DomainError(f"{name} must be a finite number, got {value!r:.40}")
    return float(value)


def read_object(obj, what: str, required, allowed) -> dict:
    """``obj`` if it is a JSON object that holds every key in ``required`` and no key outside
    ``allowed``; anything else is refused, the message naming the object as ``what``."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise DomainError(f"unknown {what} keys: {sorted(unknown, key=str)}")  # keys of any type
    missing = set(required) - set(obj)
    if missing:
        raise DomainError(f"missing {what} keys: {sorted(missing)}")
    return obj


def read_json(path, invalid: str):
    """The JSON document in ``path``; undecodable, non-UTF-8 or too deeply
    nested text, or an integer of more digits than ``int`` parses, raises
    ``DomainError`` prefixed with ``invalid``."""
    try:
        with open(path) as f:
            return json.load(f)
    except (ValueError, RecursionError) as exc:  # decode errors are ValueErrors
        raise DomainError(f"{invalid}: {exc}") from None


class Record:
    """Base of the dataclass reports whose JSON object is their fields in
    declaration order, nested records and dicts included."""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Params:
    """Primitive parameter vector: each field a real number, not a bool, in the domain
    that ``PARAM_FIELDS`` gives it under its JSON key."""

    p: float
    phi: float
    d: float
    lam: float
    R: float
    pi: float
    M: float = 0.0
    eps_tol: float = 1e-12

    def __post_init__(self):
        for key, (attr, domain) in PARAM_FIELDS.items():
            # not vars(self): a built __dict__ slows every attribute read
            require_real(key, getattr(self, attr), domain)

    def replace(self, **kwargs) -> "Params":
        """``dataclasses.replace(self, **kwargs)``: every field is an init field, so the
        new ``Params`` is built from the instance dict plus the changes."""
        return type(self)(**{**vars(self), **kwargs})

    def to_json(self) -> dict:
        """Flat JSON object with keys exactly ``PARAM_KEYS``."""
        return {key: getattr(self, attr) for key, (attr, _) in PARAM_FIELDS.items()}

    @classmethod
    def from_json(cls, obj: dict) -> "Params":
        """Parse the flat JSON object. Missing M and eps_tol take the field
        defaults; unknown keys are rejected."""
        return cls(**{PARAM_FIELDS[k][0]: require_number(f"params {k!r}", v)
                      for k, v in read_object(obj, "params", GAME_KEYS, PARAM_KEYS).items()})

    @classmethod
    def load(cls, path) -> "Params":
        """Parse the params file at ``path``, read by :func:`read_json`."""
        return cls.from_json(read_json(path, f"invalid params JSON in {path}"))

    @property
    def effort_root(self) -> float:
        """sqrt(2d/lambda): the reform-payoff indifference threshold for
        posterior beliefs."""
        return math.sqrt(2.0 * self.d / self.lam)


@dataclass(frozen=True)
class Posteriors:
    """State posteriors after each signal: mu_plus = P(good | signal g) and
    mu_minus = P(good | signal b). In the odds gamma = (1-p)/p and z = (1-phi)/phi, which
    :func:`informativeness_condition` reads, mu_plus = 1/(1 + gamma z) and
    mu_minus = gamma/(gamma + z).
    """

    mu_plus: float
    mu_minus: float

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
    """Evaluate every assumption with signed margins; nothing short-circuits."""
    return AssumptionReport(*[CheckResult(ok, detail) for ok, detail in assumption_values(params)])


def assumption_values(params: Params) -> tuple[tuple[bool, dict[str, float]], ...]:
    """Each assumption's (passed, detail), in ``ASSUMPTION_CHECKS`` order, computed on each
    call: the report, the sweep's flags and the gates of :func:`~reformlab.equilibrium.solve`
    read it."""
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


def _informativeness(params: Params, p: float) -> tuple[bool, float, float]:
    """(holds, lhs, rhs) at accuracy ``p``."""
    g = (1 - p) / p
    z = (1 - params.phi) / params.phi
    lhs = z - params.lam / (1 + g * z)
    rhs = g * (params.lam * (1 + params.R) * g / (g + z) - 1)
    return lhs <= rhs + params.eps_tol, lhs, rhs


def find_p_bar(params: Params) -> float | None:
    """Smallest signal accuracy from which the informativeness condition, as
    :func:`informativeness_condition` evaluates it, holds at every larger accuracy, other
    parameters fixed.

    Returns None when z >= lambda: the condition can then fail even at p = 1. Otherwise, times
    (1 + gamma z)(gamma + z) > 0, it reads F(gamma) <= 0 for a cubic in gamma = (1-p)/p,
    F = (z - eps + gamma)(1 + gamma z)(gamma + z) - lambda (gamma + z) - lambda (1+R) gamma^2
    (1 + gamma z), with F(0) < 0. The real roots of F' split gamma in [0, 1] into pieces where F
    is monotone. On the first piece at whose end the condition fails, it is bisected to adjacent
    floats, so it holds at p-bar and fails at the float below. If it holds at every piece end,
    it holds on all of (1/2, 1] and the result is ``1/2 + P_BAR_TOL``.
    """
    lam, z = params.lam, (1 - params.phi) / params.phi
    if z >= lam:
        return None
    L, a = lam * (1 + params.R), z - params.eps_tol
    # F' = qa g^2 + qb g + qc, its roots by the cancellation-free formula; where it has no real
    # root, the formula's clamped points are extra piece ends, which split no piece wrongly
    qa, qb, qc = 3 * z * (1 - L), 2 * (1 + z * z + a * z - L), z + a * (1 + z * z) - lam
    q = -0.5 * (qb + math.copysign(math.sqrt(max(qb * qb - 4 * qa * qc, 0.0)), qb))
    hi = 1.0  # the condition holds at p = 1, gamma = 0
    for g in (*sorted(g for g in (q / qa if qa else 1, qc / q if q else 1) if 0 < g < 1), 1.0):
        lo = 1 / (1 + g)
        if not _informativeness(params, lo)[0]:
            break
        hi = lo
    else:
        return 0.5 + P_BAR_TOL
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):  # it holds at hi and fails at lo
        lo, hi = (lo, mid) if _informativeness(params, mid)[0] else (mid, hi)
    return hi
