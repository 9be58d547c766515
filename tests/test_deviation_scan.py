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
against the verbatim pattern interpreter of ``support``, which decides a
whole linspace as one array, and against the runs ``support`` keeps from
before they were cut at exact effort-piece starts, on grids of up to
``MAX_GRID_SIZE`` points; its efforts against
``np.linspace`` element for element, and its memory against a bound that
does not grow with the grid.

The scan evaluates each run only near its utility's vertex. The full-grid
scan it replaced is kept verbatim as ``support.dense_deviation_check``, the
reference that every report must equal bit for bit, and whose first grid
maximum per cell must lie among the points the windowed scan evaluates.

The windows of all runs are packed into shared blocks, the extras sorted
into the last one, and a check reads its cell utilities off that pass. The
scalar one-cell utility and break-even are kept verbatim in ``support`` as
the references for every cell utility, and the packed scan's shape (one
block and one utility call at the fixtures) and its peak memory are pinned.
"""

import dataclasses
import hashlib
import json
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

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
from reformlab.equilibrium import FAILURE, REFORM, STATUS_QUO, SUCCESS
import support
from support import (
    DOMAINS, _interpreted_decide, dense_deviation_check, opaque_failure_mass,
    scalar_divinity_breakeven, scalar_expected_utility,
)

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
        cases = [(params, eq) for params in (sanity, part3) for eq in _equilibria(params)]
        if plateau:
            # scan utilities rounded up to 0.01 tie at their maximum across many
            # blocks and exceed the exact equilibrium utility, read off the same
            # pass at the equilibrium efforts, so the reported deviation is the scan's pick
            exact = verification._reform_utility
            eq_efforts = [a.effort for _, eq in cases for a in eq.profile.actions()
                          if a.policy == REFORM]

            def rounded(mu, effort, *rest):
                u = exact(mu, effort, *rest)
                if np.ndim(u) < 2:
                    return u
                return np.where(np.isin(effort, eq_efforts), u, np.ceil(u * 100) / 100)

            monkeypatch.setattr(verification, "_reform_utility", rounded)
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
            # an Observation refuses an array of efforts; the interpreter reads any object
            obs = SimpleNamespace(policy=REFORM, effort=lin, outcome=outcome)
            want = _interpreted_decide(eq, obs, params.eps_tol)
            np.testing.assert_array_equal(got, np.broadcast_to(want, lin.shape))


#: lambda and R log-uniform over wide ranges, so that the rounding bound sets the windows
WIDE_PARAMS = st.builds(
    Params, **{k: st.floats(lo, hi) for k, (lo, hi) in DOMAINS.items() if k not in ("lam", "R")},
    lam=st.floats(-6.0, 0.0).map(lambda x: 10.0 ** x),
    R=st.floats(-2.0, 12.0).map(lambda x: 10.0 ** x),
    eps_tol=st.one_of(st.just(0.0), st.floats(-15.0, -1.0).map(lambda x: 10.0 ** x)),
)


def _run_regime(params: Params, regime: str, grid_size: int, j: int):
    """The equilibrium a ``RUN_REGIMES`` name stands for, or None where there is
    none: opaque without failed-reform mass, or a pool outside [0, 1]."""
    if regime in NONPOOLING_REGIMES:
        if regime == "opaque" and opaque_failure_mass(params) == 0.0:
            return None
        return solve(params, regime, check=False)
    family = transparent_pooling_family(params)
    e_star = {"pooling_lo": family and family[0], "pooling_hi": family and family[1],
              "pooling_on_grid": float(np.linspace(0.0, 1.0, grid_size)[j])}[regime]
    if e_star is None or not 0.0 <= e_star <= 1.0:
        return None
    return solve(params, "transparent_pooling", pooling_effort=e_star, check=False)


class TestRunsAtPieceStarts:
    # runs cut where the grid reaches each exact piece start equal the runs found by
    # probing grid indices around each v - eps, v and v + eps, as they were before
    @given(params=WIDE_PARAMS, regime=st.sampled_from(RUN_REGIMES),
           grid_size=st.integers(2, verification.MAX_GRID_SIZE), j=st.integers(0, 10**7))
    @example(params=Params(p=0.8, phi=0.6, d=0.3, lam=1.0, R=0.9, pi=0.5, eps_tol=0.0),
             regime="pooling_on_grid", grid_size=verification.MAX_GRID_SIZE, j=7_000_000)
    @example(params=Params(p=0.9, phi=0.75, d=0.05, lam=0.3, R=0.5, pi=0.9, eps_tol=0.1),
             regime="transparent_separating", grid_size=verification.MAX_GRID_SIZE, j=0)
    @settings(max_examples=300, deadline=None)
    def test_runs_equal_probed_runs(self, params, regime, grid_size, j):
        step = 1.0 / (grid_size - 1)
        if regime == "pooling_on_grid":  # grid point j, as the scan computes it
            j %= grid_size
            eq = solve(params, "transparent_pooling", check=False,
                       pooling_effort=1.0 if j == grid_size - 1 else j * step)
        else:
            eq = _run_regime(params, regime, 2, 0)
        assume(eq is not None)
        want = support._retention_runs(eq, grid_size, step, params.eps_tol)
        assert verification._retention_runs(eq, grid_size, step, params.eps_tol) == want


def _scan(check, eq, params: Params, grid_size: int):
    """The report of ``check`` and the (efforts, utilities) of each of its 2-D
    utility calls: the grid blocks in order, then the extras. The dense
    reference scans the extras as one more block; the windowed scan sorts them
    into its last grid block."""
    exact, seen = verification._reform_utility, []

    def spy(mu, effort, *rest):
        u = exact(mu, effort, *rest)
        if np.ndim(mu) == 2:
            seen.append((effort.copy(), u.copy()))
        return u

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "_reform_utility", spy)
        patch.setattr(support, "_reform_utility", spy)
        return check(eq, params, grid_size), seen


def _assert_windows_hold_argmax(dense: list, windowed: list, grid_size: int) -> None:
    """Each block of the windowed scan is sorted by effort, so that its first
    maximum lies at its smallest effort, and the blocks scan every extra (the
    dense scan's last block). Less one copy of each extra, told apart from a
    grid point of equal effort by count, the scanned efforts are distinct
    linspace points, among them each cell's first grid maximum in the dense scan."""
    argmax = np.argmax(np.concatenate([u for _, u in dense[:-1]], axis=1), axis=1)
    assert all(np.all(e[:-1] <= e[1:]) for e, _ in windowed)
    left = Counter(np.concatenate([e for e, _ in windowed]).tolist())
    left.subtract(dense[-1][0].tolist())
    assert min(left.values()) >= 0
    grid = np.array(sorted(left.elements()))
    index = np.rint(grid * (grid_size - 1)).astype(int)
    np.testing.assert_array_equal(grid, np.linspace(0.0, 1.0, grid_size)[index])
    assert np.unique(index).size == index.size
    assert set(argmax.tolist()) <= set(index.tolist())


class TestWindowedScan:
    @given(params=WIDE_PARAMS, regime=st.sampled_from(RUN_REGIMES),
           grid_size=st.sampled_from([2, 3, 50, 2001, verification.SCAN_BLOCK - 1,
                                      verification.SCAN_BLOCK + 1, 100_001]),
           j=st.integers(0, 10**7))
    # at these rents rounding ties the utility over many grid points near the
    # vertex, and the smallest effort that reaches the maximum beats the equilibrium
    @example(params=Params(p=0.6867, phi=0.8382, d=0.8857, lam=0.06719370578398318,
                           R=662676210132.4282, pi=0.5209, eps_tol=0.0),
             regime="nontransparent", grid_size=100_001, j=0)
    @example(params=Params(p=0.6065, phi=0.7783, d=0.6523, lam=0.19229034064021353,
                           R=100443778387.53697, pi=0.6829, eps_tol=0.0),
             regime="nontransparent", grid_size=verification.SCAN_BLOCK + 1, j=0)
    # the vertex 101.5 / 2000 lies midway between two grid points, which tie: the
    # first grid maximum is the lower one, while the vertex rounds to the upper
    @example(params=Params(p=1.0, phi=0.5, d=0.5, lam=101.5 / 2000, R=1.0, pi=0.5, eps_tol=0.0),
             regime="benchmark", grid_size=2001, j=0)
    @settings(max_examples=300, deadline=None)
    def test_reports_match_dense_scan(self, params, regime, grid_size, j):
        eq = _run_regime(params, regime, grid_size, j % grid_size)
        assume(eq is not None)
        want, dense = _scan(dense_deviation_check, eq, params, grid_size)
        got, windowed = _scan(deviation_check, eq, params, grid_size)
        assert _dump(got) == _dump(want)
        _assert_windows_hold_argmax(dense, windowed, grid_size)


class TestGridBlocks:
    # at 50 points (G - 1) * step rounds below 1.0, so the endpoint is set apart
    @pytest.mark.parametrize("grid_size", [2, 3, 50, 8191, 8192, 8193, 100_001, 1_000_003])
    def test_efforts_equal_linspace(self, sanity, grid_size):
        # the dense reference's grid blocks cover the linspace, then come the extras
        eq = solve(sanity, "transparent_separating")
        _, dense = _scan(dense_deviation_check, eq, sanity, grid_size)
        scanned = np.concatenate([e for e, _ in dense])
        assert scanned.size > grid_size
        np.testing.assert_array_equal(scanned[:grid_size], np.linspace(0.0, 1.0, grid_size))
        _, windowed = _scan(deviation_check, eq, sanity, grid_size)
        _assert_windows_hold_argmax(dense, windowed, grid_size)

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

    @pytest.mark.parametrize("regime", ["benchmark", "opaque"])
    def test_whole_run_windows_match_dense_scan(self, sanity, monkeypatch, regime):
        # at R = 1e15 the rounding bound outgrows the grid: every window is its
        # whole run, scanned block by block as the dense reference scans it; these
        # equilibria have one retention piece, so every block, the last with the
        # extras too, gets its retention as two floats
        params, grid_size = sanity.replace(R=1e15), verification.MAX_GRID_SIZE
        eq = solve(params, regime, check=False)
        want = _dump(dense_deviation_check(eq, params, grid_size))
        extras = _scan(dense_deviation_check, eq, params, 2)[1][-1][0]  # grid-free
        exact, sizes = verification._reform_utility, []

        def spy(mu, effort, payoffs, retained, *rest):
            if np.ndim(mu) == 2:
                sizes.append((effort.size, np.ndim(retained[0])))
            return exact(mu, effort, payoffs, retained, *rest)

        monkeypatch.setattr(verification, "_reform_utility", spy)
        tracemalloc.start()
        try:
            got = _dump(deviation_check(eq, params, grid_size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(size for size, _ in sizes) == grid_size + extras.size
        assert [ndim for _, ndim in sizes] == [0] * len(sizes)
        assert got == want
        assert peak < 2_000_000


class TestGridSizeInteger:
    @pytest.mark.parametrize("grid_size", [2.5, 101.0])
    def test_non_integer_refused(self, sanity, grid_size):
        with pytest.raises(DomainError, match="grid_size must be an integer"):
            deviation_check(solve(sanity, "opaque"), sanity, grid_size)

    def test_numpy_integer_stored_as_int(self, sanity):
        eq = solve(sanity, "opaque")
        report = deviation_check(eq, sanity, np.int64(101))
        assert type(report.grid_size) is int
        assert '"grid_size": 101,' in _dump(report)
        assert _dump(report) == _dump(deviation_check(eq, sanity, 101))


#: the test domains, with the tolerance 0 or log-uniform over [1e-15, 0.1]
CELL_PARAMS = st.builds(
    Params, **{k: st.floats(lo, hi) for k, (lo, hi) in DOMAINS.items()},
    eps_tol=st.one_of(st.just(0.0), st.floats(-15.0, -1.0).map(lambda x: 10.0 ** x)),
)


def _bits(x: float) -> str:
    return float(x).hex()  # tells -0.0 from 0.0, as == does not


class TestCellUtilities:
    # every cell utility the library reports equals the scalar one-cell reference:
    # at the equilibrium action, the status quo, and each retention threshold +-1 ulp
    @given(params=CELL_PARAMS, regime=st.sampled_from(NONPOOLING_REGIMES + ("pooling_lo",
                                                                          "pooling_hi")),
           effort=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_match_scalar_reference(self, params, regime, effort):
        eq = _run_regime(params, regime, 2, 0)
        assume(eq is not None)
        eps = params.eps_tol
        values = {v for pattern, _ in eq.retention if (v := pattern.effort_value) is not None}
        efforts = {min(max(float(x), 0.0), 1.0) for v in values for t in (v - eps, v, v + eps)
                   for x in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf))}
        probes = [AgentAction(STATUS_QUO), *(AgentAction(REFORM, e) for e in sorted(efforts))]
        for t, s, act in eq.profile.cells():
            for action in (act, *probes):
                got = verification.expected_utility(t, s, action, eq, params)
                assert _bits(got) == _bits(scalar_expected_utility(t, s, action, eq, params))
        report = deviation_check(eq, params, 2001)
        for (t, s), cell in report.cells.items():
            want = scalar_expected_utility(t, s, cell.eq_action, eq, params)
            assert _bits(cell.eq_utility) == _bits(want)
        for deviation in (AgentAction(STATUS_QUO), AgentAction(REFORM, effort)):
            got = json.dumps(verification.divinity_breakeven(eq, deviation, params).to_json())
            assert got == json.dumps(scalar_divinity_breakeven(eq, deviation, params).to_json())

    @given(params=CELL_PARAMS, regime=st.sampled_from(NONPOOLING_REGIMES + ("pooling_lo",
                                                                          "pooling_hi")))
    @settings(max_examples=100, deadline=None)
    def test_status_quo_matches_scalar_reference(self, params, regime):
        # with every scanned reform sunk to -inf, each cell's best is the status quo,
        # scored as d + R * retained outside the pass: the scalar reference, bit for bit
        eq = _run_regime(params, regime, 2, 0)
        assume(eq is not None)
        exact = verification._reform_utility

        def sunk(mu, effort, *rest):
            u = exact(mu, effort, *rest)
            return u - np.inf if np.ndim(u) == 2 else u

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verification, "_reform_utility", sunk)
            report = deviation_check(eq, params, 2001)
        for (t, s), cell in report.cells.items():
            assert cell.best_action == AgentAction(STATUS_QUO)
            want = scalar_expected_utility(t, s, AgentAction(STATUS_QUO), eq, params)
            assert _bits(cell.best_utility) == _bits(want)


class TestScanShape:
    @pytest.mark.parametrize("name", ["sanity", "part3"])
    def test_one_grid_block_and_small_peak(self, name, request):
        # at the fixtures every regime's windows and extras fit one packed block, scored
        # in one 2-D utility call that also gives the cell utilities, in buffers sized
        # to the work
        params = request.getfixturevalue(name)
        for eq in _equilibria(params):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verification, "_cell_utilities", None)  # not called
                _, seen = _scan(deviation_check, eq, params, 100_001)
            assert len(seen) == 1, eq.regime
            tracemalloc.start()
            try:
                deviation_check(eq, params, 100_001)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, eq.regime
