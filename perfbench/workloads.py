"""The four benchmark workloads: inputs from a seed, one timed pass, and the
check of every output.

A pass is the unit the run repeats. Each pass returns its outputs, one
latency per operation and its work in items; the outputs are checked after
the pass, outside every timed region. After each operation a pass calls
``pacer.tick()``, which may pause the clock to recalibrate (see ``run.py``).
Library functions are looked up on the ``reformlab`` package at call time,
so the traced run's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from time import perf_counter

import numpy as np

import reformlab
from reformlab import verification

#: sha256 of the sweep-2d CSV (header + 10 000 rows, LF endings), captured
#: from the sweep engine as first released; the CSV is pinned byte-stable.
SWEEP_SHA256 = "cec27f3971e180e4e626ff8ac048772431bb5937db1087e3a5f95dec000ff89f"
SWEEP_STEPS = 100

MC_DRAWS = 10_000_000
MC_REGIME = "opaque"
MC_SE_BOUND = 4.0

VERIFY_POINTS = 50
VERIFY_GRID = 100_001
VERIFY_REGIMES = ("benchmark", "nontransparent", "opaque", "transparent_separating")
SEPARATING = "transparent_separating"

QUERY_POINTS = 2000
#: find_p_bar runs on every K-th point of each stratum (p_bar possible or
#: not), so the number of costly calls per pass barely moves with the seed.
FIND_P_BAR_K = 50
QUERY_REGIMES = (
    "benchmark", "nontransparent", "opaque", "transparent_separating", "transparent_pooling",
)
WQ_TOL = 1e-12

#: the test suite's parameter domains (``lam`` is lambda)
DOMAINS = {
    "p": (0.5, 1.0),
    "phi": (0.005, 0.995),
    "d": (0.001, 0.999),
    "lam": (0.01, 1.0),
    "R": (0.01, 3.0),
    "pi": (0.01, 0.99),
}

_NO_CALL = object()


def _sanity():
    return reformlab.Params.load(reformlab.fixture_path("sanity"))


def _uniform_batch(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    return {k: rng.uniform(lo, hi, n) for k, (lo, hi) in DOMAINS.items()}


def _params_at(b: dict[str, np.ndarray], i: int):
    return reformlab.Params(
        p=float(b["p"][i]), phi=float(b["phi"][i]), d=float(b["d"][i]),
        lam=float(b["lam"][i]), R=float(b["R"][i]), pi=float(b["pi"][i]),
    )


def _acceptance(b: dict[str, np.ndarray]) -> np.ndarray:
    """The test suite's acceptance predicate: every constructor's gates hold
    with a 1e-9 margin, R mu+ clears the reform root, R > 2d, and the
    separating effort is feasible."""
    p, phi, d, lam, R = b["p"], b["phi"], b["d"], b["lam"], b["R"]
    mu_p = phi * p / (phi * p + (1 - phi) * (1 - p))
    mu_m = phi * (1 - p) / (phi * (1 - p) + (1 - phi) * p)
    root = np.sqrt(2 * d / lam)
    g = (1 - p) / np.maximum(p, 1e-300)
    z = (1 - phi) / phi
    tol = 1e-9
    return (
        (mu_p > root + tol) & (root > mu_m + tol)
        & (np.maximum((1 + R) * mu_m, R * mu_p) > root + tol) & (root > R * mu_m + tol)
        & (R * mu_p > root + tol)
        & (lam * (1 + R) <= 1.0)
        & (z - lam / (1 + g * z) <= g * (lam * (1 + R) * g / (g + z) - 1))
        & (R > 2 * d + tol)
        & (2 * lam * (R - d) <= 1.0)
    )


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@dataclasses.dataclass
class PassResult:
    outputs: list | None
    latencies: list[float]
    items: int
    digest: str = ""
    counts: dict = dataclasses.field(default_factory=dict)


class Sweep2D:
    """``run_sweep`` on the sanity base over R x lambda, 100 x 100 steps."""

    name = "sweep-2d"
    item = "sweep rows"
    op = "row"
    tail_percentile = 99.0  # p99.9 rows are OS scheduling jitter, not the sweep

    def __init__(self, seed: int):
        # the sweep takes no seed: its CSV is the same for every workload seed
        self.spec = reformlab.SweepSpec.from_json({
            "base": _sanity().to_json(),
            "axes": [
                {"param": "R", "min": 0.05, "max": 5.0, "steps": SWEEP_STEPS},
                {"param": "lambda", "min": 0.01, "max": 1.0, "steps": SWEEP_STEPS},
            ],
            "outputs": ["welfare", "assumptions", "thresholds"],
        })

    def inputs_digest(self) -> str:
        return _digest(self.spec)

    def warm_up(self) -> None:
        lines = reformlab.run_sweep(self.spec)
        for _ in range(200):
            next(lines)
        lines.close()

    def run_pass(self, pacer, tracer=None) -> PassResult:
        h = hashlib.sha256()
        na = 0
        latencies = []
        lines = reformlab.run_sweep(self.spec)
        h.update(next(lines).encode() + b"\n")  # header
        if tracer is None:
            prev = perf_counter()
            for line in lines:
                now = perf_counter()
                latencies.append(now - prev)
                h.update(line.encode() + b"\n")
                na += line.count("NA")
                pacer.tick()
                prev = perf_counter()
        else:
            row = 0
            while True:
                tracer.item = row
                span = tracer.open("cli.run_sweep")
                try:
                    line = next(lines)
                except StopIteration:
                    break
                finally:
                    tracer.close(span)
                h.update(line.encode() + b"\n")
                na += line.count("NA")
                row += 1
                pacer.tick()
        rows = len(latencies) if tracer is None else row
        return PassResult([(h.hexdigest(), rows, na)], latencies, rows)

    def check(self, out) -> bool:
        sha, rows, _ = out
        return sha == SWEEP_SHA256 and rows == SWEEP_STEPS * SWEEP_STEPS

    def digest(self, outputs) -> str:
        return _digest(outputs)

    def layer_counts(self, outputs) -> dict[str, float]:
        (_, rows, na), = outputs
        return {"cli.rows": rows, "cli.na_cells": na}


class Simulate1e7:
    """``simulate`` with 1e7 draws, opaque regime, sanity, seed = workload seed."""

    name = "simulate-1e7"
    item = "MC draws"
    op = "simulate call"
    tail_percentile = 100.0  # about ten calls per run: only the maximum exists

    def __init__(self, seed: int):
        self.params = _sanity()
        self.config = reformlab.SimConfig(
            n_draws=MC_DRAWS, seed=seed, regime=MC_REGIME, params=self.params
        )
        eq = reformlab.solve(self.params, MC_REGIME)
        self.expected_w = reformlab.regime_welfare(self.params, MC_REGIME, eq).W
        freqs = {"success": 0.0, "failure": 0.0, "status_quo": 0.0}
        for _t, _s, _a, outcome, mass in verification.joint_outcome_distribution(
            eq.profile, self.params
        ):
            freqs[outcome] += mass
        self.expected_freqs = freqs

    def inputs_digest(self) -> str:
        return _digest((self.config.seed, self.config.n_draws))

    def warm_up(self) -> None:
        config = dataclasses.replace(self.config, n_draws=1 << 18)
        reformlab.simulate(config, reformlab.solve(self.params, MC_REGIME))

    def run_pass(self, pacer, tracer=None) -> PassResult:
        t0 = perf_counter()
        eq = reformlab.solve(self.params, MC_REGIME)
        stats = reformlab.simulate(self.config, eq)
        latency = perf_counter() - t0
        pacer.tick()
        return PassResult([stats], [latency], self.config.n_draws)

    def check(self, stats) -> bool:
        n = self.config.n_draws
        c = stats.counts
        if stats.n_draws != n or c["success"] + c["failure"] + c["status_quo"] != n:
            return False
        if not (0 <= c["retained_congruent"] <= c["retained"] <= n and c["congruent"] <= n):
            return False
        if abs(stats.mean_payoff - self.expected_w) > MC_SE_BOUND * stats.payoff_se:
            return False
        for outcome, prob in self.expected_freqs.items():
            se = math.sqrt(prob * (1.0 - prob) / n)
            if abs(stats.outcome_freqs[outcome] - prob) > MC_SE_BOUND * se:
                return False
        return True

    def digest(self, outputs) -> str:
        return _digest([json.dumps(s.to_json(), sort_keys=True) for s in outputs])

    def layer_counts(self, outputs) -> dict[str, float]:
        return {}


class VerifyOracle:
    """The ``reformlab verify`` pipeline on seeded acceptance-domain points,
    for each regime with a deviation oracle."""

    name = "verify-oracle"
    item = "verify checks"
    op = "check"
    tail_percentile = 95.0  # p98 spread up to 0.23 between runs on a shared host

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        points = []
        while len(points) < VERIFY_POINTS:
            b = _uniform_batch(rng, 8192)
            for i in np.flatnonzero(_acceptance(b))[: VERIFY_POINTS - len(points)]:
                points.append(_params_at(b, int(i)))
        self.points = points
        self.ops = [(p, r) for p in points for r in VERIFY_REGIMES]
        self.status_quo = reformlab.AgentAction("status_quo")

    def inputs_digest(self) -> str:
        return _digest(self.points)

    def warm_up(self) -> None:
        self._one(*self.ops[0])

    def _one(self, params, regime):
        eq = reformlab.solve(params, regime)
        dev = reformlab.deviation_check(eq, params, grid_size=VERIFY_GRID)
        bayes = reformlab.bayes_consistency(eq, params)
        news = reformlab.news_classification(eq.profile, params)
        breakeven = reformlab.divinity_breakeven(eq, self.status_quo, params)
        return dev, bayes, news, breakeven

    def run_pass(self, pacer, tracer=None) -> PassResult:
        outputs, latencies = [], []
        for k, (params, regime) in enumerate(self.ops):
            if tracer is not None:
                tracer.item = k
            t0 = perf_counter()
            try:
                out = self._one(params, regime)
            except reformlab.ReformLabError as exc:
                out = exc
            latencies.append(perf_counter() - t0)
            outputs.append(out)
            pacer.tick()
        return PassResult(outputs, latencies, len(self.ops))

    def check(self, out) -> bool:
        if isinstance(out, Exception):
            return False
        dev, bayes, _news, _breakeven = out
        return dev.counts()["fail"] == 0 and bayes.passed

    def digest(self, outputs) -> str:
        return _digest([
            repr(out) if isinstance(out, Exception) else (
                out[0].counts(), [c.gain for c in out[0].cells.values()], out[1].passed,
                out[2].total_probability, out[3].ordering,
            )
            for out in outputs
        ])

    def layer_counts(self, outputs) -> dict[str, float]:
        verdicts = {"pass": 0, "fail": 0, "fail (documented)": 0}
        grid_points = 0
        for out in outputs:
            if isinstance(out, Exception):
                continue
            for verdict, n in out[0].counts().items():
                verdicts[verdict] += n
            grid_points += len(out[0].cells) * out[0].grid_size
        return {
            "verification.verdict_pass": verdicts["pass"],
            "verification.verdict_fail": verdicts["fail"],
            "verification.verdict_documented": verdicts["fail (documented)"],
            "verification.grid_points": grid_points,
        }

    def separating_items(self) -> set[int]:
        return {k for k, (_, r) in enumerate(self.ops) if r == SEPARATING}


class PointQueries:
    """Scalar queries at seeded points drawn uniformly over the test domains."""

    name = "point-queries"
    item = "query points"
    op = "point"
    tail_percentile = 99.5

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        b = _uniform_batch(rng, QUERY_POINTS)
        self.points = [_params_at(b, i) for i in range(QUERY_POINTS)]
        possible = (1 - b["phi"]) / b["phi"] < b["lam"]  # find_p_bar may find a root
        subset = set()
        for stratum in (np.flatnonzero(possible), np.flatnonzero(~possible)):
            subset.update(int(i) for i in stratum[::FIND_P_BAR_K])
        self.find_p_bar_at = subset

    def inputs_digest(self) -> str:
        return _digest((self.points, sorted(self.find_p_bar_at)))

    def warm_up(self) -> None:
        for params in self.points[:20]:
            self._one(params, False)

    def _one(self, params, with_p_bar: bool):
        reformlab.check_assumptions(params)
        refusals = 0
        for regime in QUERY_REGIMES:
            try:
                reformlab.solve(params, regime)
            except reformlab.AssumptionError:
                refusals += 1
        strict = reformlab.optimal_regime(params)
        loose = reformlab.optimal_regime(params, strict=False)
        th = reformlab.thresholds(params)
        p_bar = reformlab.find_p_bar(params) if with_p_bar else _NO_CALL
        return params, refusals, strict, loose, th, p_bar

    def run_pass(self, pacer, tracer=None) -> PassResult:
        outputs, latencies = [], []
        for k, params in enumerate(self.points):
            if tracer is not None:
                tracer.item = k
            t0 = perf_counter()
            try:
                out = self._one(params, k in self.find_p_bar_at)
            except reformlab.ReformLabError as exc:
                out = exc
            latencies.append(perf_counter() - t0)
            outputs.append(out)
            pacer.tick()
        return PassResult(outputs, latencies, len(self.points))

    def check(self, out) -> bool:
        if isinstance(out, Exception):
            return False
        params, _refusals, strict, loose, th, p_bar = out
        if p_bar is not _NO_CALL and p_bar is not None:
            at = dataclasses.replace(params, p=p_bar)
            if not reformlab.informativeness_condition(at)[0]:
                return False
        if th.exists:
            for r in (th.R_low, th.R_high):
                h = th.lambda_hat * (1 + r) ** 2 - 2 * (r - params.d)
                scale = max(1.0, th.lambda_hat * (1 + r) ** 2, 2 * abs(r))
                if abs(h) > 1e-9 * scale:
                    return False
        for regime, entry in strict.entries.items():
            other = loose.entries[regime]
            if abs(entry.W - other.W) > WQ_TOL or abs(entry.Q - other.Q) > WQ_TOL:
                return False
        return True

    def digest(self, outputs) -> str:
        return _digest([
            repr(out) if isinstance(out, Exception) else (
                out[1], out[2].to_json(), out[3].to_json(), out[4].to_json(),
                None if out[5] is _NO_CALL else out[5],
            )
            for out in outputs
        ])

    def layer_counts(self, outputs) -> dict[str, float]:
        refusals = sum(out[1] for out in outputs if not isinstance(out, Exception))
        return {"equilibrium.refusals": refusals}


WORKLOADS = {w.name: w for w in (Sweep2D, Simulate1e7, VerifyOracle, PointQueries)}
