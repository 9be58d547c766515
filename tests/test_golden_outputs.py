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
``test_welfare.py``.

Regenerate (only after deciding that an output change is intended) with
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from reformlab import (
    AgentAction, Params, ReformLabError, comparative_statics, divinity_breakeven, fixture_path,
    optimal_regime, solve, thresholds,
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


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2) + "\n")
