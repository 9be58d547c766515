"""Byte-level pins on CLI stdout and on the library reports no other golden
covers exactly: strict and loose welfare, break-even, news, Bayes,
Monte Carlo and comparative-statics JSON.

``cli_golden.json`` holds, for each of 33 fixture commands (``check``,
``solve`` and ``verify --grid 5001`` for every regime, ``welfare`` as
json/csv and strict/loose, at ``sanity`` and ``part3``, and three seeded
``simulate --format json`` runs), the sha256 of stdout and the exit code.
It also holds one sha256 per library surface over the seeded acceptance
points: ``optimal_regime(p, strict=s).to_json()`` for both modes and
``divinity_breakeven(solve(p, r), status quo, p).to_json()`` for the four
non-pooling regimes. A point where a call raises contributes the
exception's class name instead of JSON. Last, it holds the sha256 of
``comparative_statics(...).to_json()`` for the non-raising cases of
``test_welfare.py``, and one sha256 over the ``solve`` sweep of
:func:`solve_calls`: each call's equilibrium JSON, or ``class:check:message``
when it is refused.

Regenerate (only after deciding that an output change is intended) with
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import contextlib
import hashlib
import io
import json
import re
from functools import lru_cache
from pathlib import Path

import pytest

from reformlab import (
    AgentAction, Params, ReformLabError, comparative_statics, divinity_breakeven, fixture_path,
    optimal_regime, solve, thresholds, transparent_pooling_family,
)
from reformlab.cli import run
from reformlab.equilibrium import REGIMES

from support import sample_params

GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
NONPOOLING_REGIMES = ("benchmark", "nontransparent", "opaque", "transparent_separating")


def cli_commands() -> list[list[str]]:
    cmds = []
    for fixture in ("sanity", "part3"):
        cmds.append(["check", "--params", fixture])
        for regime in REGIMES:
            cmds.append(["solve", "--params", fixture, "--regime", regime])
            cmds.append(["verify", "--params", fixture, "--regime", regime, "--grid", "5001"])
        for fmt in ("json", "csv"):
            for loose in (False, True):
                cmds.append(["welfare", "--params", fixture, "--format", fmt]
                            + (["--no-strict"] if loose else []))
    for fixture, regime in (("sanity", "opaque"), ("sanity", "transparent_separating"),
                            ("part3", "transparent_pooling")):
        cmds.append(["simulate", "--params", fixture, "--regime", regime, "--seed", "7",
                     "--n", "100000", "--format", "json"])
    return cmds


def run_command(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _surface_sha(call, points) -> str:
    h = hashlib.sha256()
    for params in points:
        try:
            text = json.dumps(call(params).to_json())
        except ReformLabError as exc:
            text = type(exc).__name__
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def library_surfaces() -> dict:
    """Name -> one-argument call returning a report with ``to_json``."""
    status_quo = AgentAction("status_quo")
    surfaces = {
        f"optimal_regime_strict_{s}": (lambda p, s=s: optimal_regime(p, strict=s))
        for s in (True, False)
    }
    for r in NONPOOLING_REGIMES:
        surfaces[f"divinity_breakeven_{r}"] = (
            lambda p, r=r: divinity_breakeven(solve(p, r), status_quo, p)
        )
    return surfaces


def comparative_statics_cases() -> dict:
    """Name -> zero-argument call: the cases ``test_welfare.py`` runs that do not raise."""
    sanity, part3 = (Params.load(fixture_path(f)) for f in ("sanity", "part3"))
    part2 = Params(p=0.999, phi=0.75, d=0.01, lam=0.5, R=0.22, pi=0.9)
    near_r_high = part3.replace(R=thresholds(part3).R_high - 0.02)
    return {
        "sanity_phi": lambda: comparative_statics(sanity, "phi", 0.01),
        "part2_lambda": lambda: comparative_statics(part2, "lambda", 0.02),
        "part2_p": lambda: comparative_statics(part2, "p", 0.0005),
        "part3_R_loose": lambda: comparative_statics(near_r_high, "R", 0.04, strict=False),
    }


def solve_calls() -> list[tuple[Params, str, dict]]:
    """(params, regime, keywords) of the pinned ``solve`` sweep: every regime
    under both ``check`` values and both rent modes, at 1 000 seeded
    domain-uniform points and the refusal witnesses of
    ``test_equilibrium.py``; pooling runs at the default effort, 0.4, 1.5 and
    its family's ends and midpoint."""
    sanity, part3 = (Params.load(fixture_path(f)) for f in ("sanity", "part3"))
    witnesses = [
        sanity, part3,
        Params(p=0.5, phi=0.3, d=0.1, lam=0.5, R=1.0, pi=0.5),     # signal uninformative
        Params(p=0.6, phi=0.4, d=0.03, lam=0.5, R=0.9, pi=0.5),    # informativeness fails
        Params(p=0.99, phi=0.3, d=0.01, lam=0.2, R=3.0, pi=0.5),   # separation infeasible
        Params(p=0.999, phi=0.999, d=0.05, lam=0.3, R=0.5, pi=0.9),  # pooling family
        Params(p=0.99, phi=0.75, d=0.3, lam=0.5, R=0.2, pi=0.5),   # empty pooling family
        Params(p=0.99, phi=0.75, d=0.05, lam=0.5, R=0.05, pi=0.5),  # free separation
        sanity.replace(phi=1e-200),                                # opaque beliefs underflow
    ]
    calls = [(sanity, "bogus", {})]
    for params in sample_params(13, 1000, "domain") + witnesses:
        family = transparent_pooling_family(params)
        efforts = [None, 0.4, 1.5] + ([] if family is None else
                                      [family[0], (family[0] + family[1]) / 2, family[1]])
        for regime in REGIMES:
            for check in (True, False):
                for rent_mode in ("strict", "relaxed"):
                    kw = {"check": check, "rent_mode": rent_mode}
                    if regime == "transparent_pooling":
                        calls += [(params, regime, {**kw, "pooling_effort": e}) for e in efforts]
                    else:
                        calls.append((params, regime, kw))
    return calls


@lru_cache(maxsize=1)
def solve_records() -> tuple[str, ...]:
    """One line per :func:`solve_calls` call: the equilibrium JSON, or
    ``class:check:message`` of the refusal."""
    records = []
    for params, regime, kw in solve_calls():
        try:
            records.append(json.dumps(solve(params, regime, **kw).to_json()))
        except ReformLabError as exc:
            records.append(f"{type(exc).__name__}:{getattr(exc, 'check', '')}:{exc}")
    return tuple(records)


def _solve_sha() -> dict:
    text = "".join(r + "\n" for r in solve_records())
    return {"calls": len(solve_records()), "sha256": hashlib.sha256(text.encode()).hexdigest()}


#: every way ``solve`` refuses, as a pattern over its refusal records
REFUSAL_KINDS = {
    "signal_informative": r"AssumptionError:signal_informative:",
    "moderate_rent_strict": r"AssumptionError:moderate_rent_strict:",
    "moderate_rent_relaxed": r"AssumptionError:moderate_rent_relaxed:",
    "effort_bound": r"AssumptionError:effort_bound:",
    "informativeness": r"InformativenessError:informativeness:",
    "gamble_participation": r"AssumptionError:gamble_participation:R mu\+ <= sqrt",
    "separation_feasible": r"AssumptionError:separation_feasible:separating effort",
    "pooling_family_nonempty": r"AssumptionError:pooling_family_nonempty:no pooling",
    "outside_family": r"DomainError::e_star .* outside pooling family",
    "infeasible_pooled_effort": r"DomainError::pooled effort must be a real number in \[0, 1\]",
    "unknown_regime": r"DomainError::unknown regime",
    "underflow": r"UnderflowError::opaque: the probability of an on-path reform outcome",
}


def _json_sha(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json()).encode()).hexdigest()


def capture() -> dict:
    points = sample_params(11, 40, "acceptance")
    return {
        "cli": {" ".join(argv): run_command(argv) for argv in cli_commands()},
        "library": {
            name: _surface_sha(call, points) for name, call in library_surfaces().items()
        },
        "comparative_statics": {
            name: _json_sha(call()) for name, call in comparative_statics_cases().items()
        },
        "solve": _solve_sha(),
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_command():
    assert sorted(GOLDEN["cli"]) == sorted(" ".join(argv) for argv in cli_commands())
    assert len(GOLDEN["cli"]) == 33
    assert sorted(GOLDEN["library"]) == sorted(library_surfaces())
    assert sorted(GOLDEN["comparative_statics"]) == sorted(comparative_statics_cases())


@pytest.mark.parametrize("argv", cli_commands(), ids=" ".join)
def test_cli_stdout(argv):
    assert run_command(argv) == GOLDEN["cli"][" ".join(argv)]


@pytest.mark.parametrize("name", sorted(library_surfaces()))
def test_library_json(name):
    points = sample_params(11, 40, "acceptance")
    assert _surface_sha(library_surfaces()[name], points) == GOLDEN["library"][name]


@pytest.mark.parametrize("name", sorted(comparative_statics_cases()))
def test_comparative_statics_json(name):
    report = comparative_statics_cases()[name]()
    assert _json_sha(report) == GOLDEN["comparative_statics"][name]


def test_solve_sweep():
    assert _solve_sha() == GOLDEN["solve"]


def test_solve_sweep_meets_every_refusal_kind():
    refusals = [r for r in solve_records() if not r.startswith("{")]
    kinds = {name: [r for r in refusals if re.match(pattern, r)]
             for name, pattern in REFUSAL_KINDS.items()}
    assert [name for name, hits in kinds.items() if not hits] == []
    assert len(refusals) == sum(len(hits) for hits in kinds.values())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2) + "\n")
