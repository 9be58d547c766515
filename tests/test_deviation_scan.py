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

The block-built scan is also checked piece by piece: its retention runs
against ``Equilibrium.decide`` on the whole linspace, its efforts against
``np.linspace`` element for element, and its memory against a bound that
does not grow with the grid.
"""

import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reformlab import (
    AgentAction, DomainError, Params, UnderflowError, deviation_check, posteriors, solve,
    transparent_pooling_family,
)
from reformlab import verification
from reformlab.cli import run
from reformlab.equilibrium import FAILURE, REFORM, SUCCESS, Observation
from support import DOMAINS, opaque_failure_mass

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
        eq = solve(sanity, "opaque")
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
        eq = solve(sanity, "opaque")
        with pytest.raises(DomainError, match="grid_size"):
            deviation_check(eq, sanity, grid_size=verification.MAX_GRID_SIZE + 1)

    def test_cli_exits_2_above_cap(self, capsys):
        grid = str(verification.MAX_GRID_SIZE + 1)
        assert run(["verify", "--regime", "opaque", "--params", "sanity", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --grid") and captured.err.count("\n") == 1


PARAMS = st.builds(
    Params, **{k: st.floats(lo, hi) for k, (lo, hi) in DOMAINS.items()},
    eps_tol=st.floats(-15.0, -1.0).map(lambda x: 10.0 ** x),
)
#: pooling at each end of its family, and a pool placed on a grid point
RUN_REGIMES = NONPOOLING_REGIMES + ("pooling_lo", "pooling_hi", "pooling_on_grid")


class TestRetentionRuns:
    @given(params=PARAMS, regime=st.sampled_from(RUN_REGIMES),
           grid_size=st.sampled_from([2, 3, 2001, verification.SCAN_BLOCK - 1,
                                      verification.SCAN_BLOCK + 1]),
           j=st.integers(0, 10**7))
    @example(params=Params(p=0.8, phi=0.6, d=0.3, lam=1.0, R=0.9, pi=0.5, eps_tol=0.0),
             regime="pooling_on_grid", grid_size=2001, j=700)
    # the opaque failed-reform mass is exactly 0 here, so ungated solve refuses the point
    @example(params=Params(p=1.0, phi=0.5, d=0.5, lam=1.0, R=1.0, pi=0.5, eps_tol=0.1),
             regime="opaque", grid_size=2, j=0)
    @settings(max_examples=300, deadline=None)
    def test_runs_match_array_decide(self, params, regime, grid_size, j):
        lin = np.linspace(0.0, 1.0, grid_size)
        if regime == "opaque" and opaque_failure_mass(params) == 0.0:
            with pytest.raises(UnderflowError):  # no belief after a failure: refused
                solve(params, regime, check=False)
            assume(False)
        if regime in NONPOOLING_REGIMES:
            eq = solve(params, regime, check=False)
        else:
            family = transparent_pooling_family(params)
            e_star = {"pooling_lo": family and family[0], "pooling_hi": family and family[1],
                      "pooling_on_grid": float(lin[j % grid_size])}[regime]
            if e_star is None or not 0.0 <= e_star <= 1.0:
                return
            eq = solve(params, "transparent_pooling", pooling_effort=e_star, check=False)
        runs = verification._retention_runs(eq, grid_size, 1.0 / (grid_size - 1), params.eps_tol)
        assert [lo for lo, _, _ in runs] == [0] + [hi for _, hi, _ in runs[:-1]]
        assert runs[-1][1] == grid_size and all(lo < hi for lo, hi, _ in runs)
        for k, outcome in enumerate((SUCCESS, FAILURE)):
            got = np.concatenate([np.full(hi - lo, kept[k]) for lo, hi, kept in runs])
            want = eq.decide(Observation(REFORM, lin, outcome), params.eps_tol)
            np.testing.assert_array_equal(got, np.broadcast_to(want, lin.shape))


class TestGridBlocks:
    # at 50 points (G - 1) * step rounds below 1.0, so the endpoint is set apart
    @pytest.mark.parametrize("grid_size", [2, 3, 50, 8191, 8192, 8193, 100_001, 1_000_003])
    def test_efforts_equal_linspace(self, sanity, monkeypatch, grid_size):
        # the scan's 2-D utility calls see the grid blocks in order, then the extras
        exact, seen = verification._reform_utility, []

        def spy(mu, effort, *rest):
            if np.ndim(mu) == 2:
                seen.append(effort.copy())
            return exact(mu, effort, *rest)

        monkeypatch.setattr(verification, "_reform_utility", spy)
        deviation_check(solve(sanity, "transparent_separating"), sanity, grid_size)
        scanned = np.concatenate(seen)
        assert scanned.size > grid_size
        np.testing.assert_array_equal(scanned[:grid_size], np.linspace(0.0, 1.0, grid_size))

    def test_tie_goes_to_the_smaller_effort(self, sanity, monkeypatch):
        # a step utility ties every effort from e_h up; e_h is an extra that lies
        # below the 3-point grid's 0.5, so the first maximum over the merged,
        # sorted efforts is e_h although the grid reaches the maximum first
        eq = solve(sanity, "transparent_separating")
        e_h = eq.profile.congruent_g.effort
        exact = verification._reform_utility

        def step(mu, effort, *rest):
            u = exact(mu, effort, *rest)
            return np.where(effort >= e_h, 1e6, 0.0) + 0 * u if np.ndim(u) == 2 else u

        monkeypatch.setattr(verification, "_reform_utility", step)
        assert 0.0 < e_h < 0.5
        report = deviation_check(eq, sanity, 3)
        assert all(c.best_action == AgentAction(REFORM, e_h) for c in report.cells.values())


class TestScanMemory:
    @pytest.mark.parametrize("regime", ["opaque", "transparent_separating"])
    def test_peak_independent_of_grid(self, sanity, regime):
        eq = solve(sanity, regime)
        tracemalloc.start()
        try:
            deviation_check(eq, sanity, verification.MAX_GRID_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
