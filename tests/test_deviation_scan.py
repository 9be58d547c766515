"""Tests for the deviation oracle's effort scan: reports pinned before the
scan was blocked, the blocked first-maximum reduction, and the grid cap.

``deviation_golden.json`` was captured with the single-pass scan (one
``np.unique`` grid and one full-grid ``np.argmax`` per cell). It holds the
full report JSON for every regime at the ``sanity`` and ``part3`` fixtures
(``transparent_pooling`` at both ends of its family where it exists) on
grids of 2, 3, 5 001 and 100 001 points, the tampered and documented opaque
reports of ``test_verification.py``, and one sha256 per report for seeded
acceptance points. ``run_sizes`` straddle one and two scan blocks of 2^13
efforts: the merged grid is longer than ``grid_size`` by the number of
extras that are not linspace points. Comparisons are exact, on the dumped
JSON text.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from reformlab import (
    AgentAction, DomainError, Params, deviation_check, opaque_equilibrium, posteriors, solve,
    transparent_pooling_family,
)
from reformlab import verification
from reformlab.cli import run
from reformlab.equilibrium import REFORM

GOLDEN = json.loads(Path(__file__).with_name("deviation_golden.json").read_text())
NONPOOLING_REGIMES = ("benchmark", "nontransparent", "opaque", "transparent_separating")


def _dump(report) -> str:
    return json.dumps(report.to_json())


def _sha(report) -> str:
    return hashlib.sha256(_dump(report).encode()).hexdigest()


def _equilibria(params: Params) -> list:
    eqs = [solve(params, r) for r in NONPOOLING_REGIMES]
    family = transparent_pooling_family(params)
    if family is not None:
        eqs += [solve(params, "transparent_pooling", pooling_effort=e) for e in family]
    return eqs


class TestDeviationGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN["fixtures"]))
    def test_fixtures(self, name, request):
        params = request.getfixturevalue(name)
        for case in GOLDEN["fixtures"][name]:
            eq = solve(params, case["regime"], pooling_effort=case["pooling_effort"])
            full = [_dump(deviation_check(eq, params, n)) for n in GOLDEN["full_sizes"]]
            assert full == [json.dumps(r) for r in case["full"]], case["regime"]
            run_shas = [_sha(deviation_check(eq, params, n)) for n in GOLDEN["run_sizes"]]
            assert run_shas == case["run"], case["regime"]

    def test_tampered_and_documented_opaque(self, sanity):
        eq = opaque_equilibrium(sanity)
        effort = sanity.lam * posteriors(sanity).mu_plus
        tampered = dataclasses.replace(eq, profile=dataclasses.replace(
            eq.profile, congruent_g=AgentAction(REFORM, effort)))
        want = GOLDEN["tampered"]
        assert _dump(deviation_check(eq, sanity, 20_001)) == json.dumps(want["documented"])
        assert _dump(deviation_check(tampered, sanity, 20_001)) == json.dumps(want["tampered"])

    @pytest.mark.parametrize("i", range(len(GOLDEN["points"])))
    def test_points(self, i):
        point = GOLDEN["points"][i]
        params = Params.from_json(point["params"])
        for case in point["cases"]:
            eq = solve(params, case["regime"], pooling_effort=case["pooling_effort"])
            sizes = (GOLDEN["full_sizes"] + GOLDEN["run_sizes"])[:len(case["sha256"])]
            assert [_sha(deviation_check(eq, params, n)) for n in sizes] == case["sha256"]


class TestScanBlocks:
    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("plateau", [False, True], ids=["exact", "rounded"])
    def test_matches_single_block(self, sanity, part3, monkeypatch, block, plateau):
        if plateau:
            # scan utilities rounded up to 0.01 tie at their maximum across many
            # blocks and exceed the exact equilibrium utility, so the reported
            # deviation is the scan's pick
            exact = verification._reform_utility

            def rounded(*args):
                u = exact(*args)
                return np.ceil(u * 100) / 100 if np.ndim(u) == 2 else u

            monkeypatch.setattr(verification, "_reform_utility", rounded)
        cases = [(params, eq) for params in (sanity, part3) for eq in _equilibria(params)]
        want = [_dump(deviation_check(eq, params, 2001)) for params, eq in cases]
        monkeypatch.setattr(verification, "SCAN_BLOCK", block)
        assert [_dump(deviation_check(eq, params, 2001)) for params, eq in cases] == want


class TestGridCap:
    def test_library_rejects_above_cap(self, sanity):
        eq = opaque_equilibrium(sanity)
        with pytest.raises(DomainError, match="grid_size"):
            deviation_check(eq, sanity, grid_size=verification.MAX_GRID_SIZE + 1)

    def test_cli_exits_2_above_cap(self, capsys):
        grid = str(verification.MAX_GRID_SIZE + 1)
        assert run(["verify", "--regime", "opaque", "--params", "sanity", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --grid") and captured.err.count("\n") == 1
