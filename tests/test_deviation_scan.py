"""Tests for the exact deviation oracle: reports pinned in a golden file, the
cross-checks against the dense grid reference and the three-candidate scan,
the tie rule, the grid cap and the cell utilities.

``deviation_golden.json`` holds the full report JSON for every regime at the
``sanity`` and ``part3`` fixtures (``transparent_pooling`` at both ends of its
family where it exists) at ``grid_size`` 2, 3, 5 001 and 100 001, the
tampered and documented opaque reports of ``test_verification.py``, and one
sha256 per report for seeded acceptance points. ``grid_size`` sets only the
tolerance. Comparisons are exact, on the dumped JSON text. Regenerate (only
after deciding that a report change is intended) with
``PYTHONPATH=src python tests/test_deviation_scan.py``, which recomputes every
report on the file's own inputs.

The grid scan that the oracle replaced is kept as
``support.dense_deviation_check``, an independent reference that decides
retention with the verbatim pattern interpreter. The exact gain must reach
the dense gain, less rounding, and exceed it by no more than the grid's
resolution bound: the argument behind ``default_dev_tol``. The scan that
scored three candidates a piece, repeats included, is kept as
``support.three_candidate_deviation_check``, and every report must match it
bit for bit. The scalar one-cell utility and break-even are kept verbatim in
``support`` as the references for every cell utility, and a check's utility
calls (one per distinct candidate, on Python floats), the actions it builds
and its peak memory are pinned.
"""

import dataclasses
import hashlib
import itertools
import json
import tracemalloc
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reformlab import (
    AgentAction, DomainError, Params, ReformLabError, deviation_check, fixture_path, posteriors,
    solve, transparent_pooling_family,
)
from reformlab import verification
from reformlab.cli import run
from reformlab.equilibrium import CELLS, REFORM, STATUS_QUO
import support
from support import (
    DOMAINS, dense_deviation_check, reference_rules, sample_params, scalar_divinity_breakeven,
    scalar_expected_utility, three_candidate_deviation_check,
)

GOLDEN_PATH = Path(__file__).with_name("deviation_golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())
NONPOOLING_REGIMES = ("benchmark", "nontransparent", "opaque", "transparent_separating")
#: every regime, pooling at each end of its family
REGIMES = NONPOOLING_REGIMES + ("pooling_lo", "pooling_hi")


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


def _tampered_and_documented(sanity: Params) -> dict:
    eq = solve(sanity, "opaque")
    effort = sanity.lam * posteriors(sanity).mu_plus
    tampered = dataclasses.replace(eq, profile=dataclasses.replace(
        eq.profile, congruent_g=AgentAction(REFORM, effort)))
    return {"documented": deviation_check(eq, sanity, 20_001),
            "tampered": deviation_check(tampered, sanity, 20_001)}


class TestDeviationGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN["fixtures"]))
    def test_fixtures(self, name, request):
        params = request.getfixturevalue(name)
        for case in GOLDEN["fixtures"][name]:
            eq = solve(params, case["regime"], pooling_effort=case["pooling_effort"])
            full = [_dump(deviation_check(eq, params, n)) for n in GOLDEN["full_sizes"]]
            assert full == [json.dumps(r) for r in case["full"]], case["regime"]

    def test_tampered_and_documented_opaque(self, sanity):
        got = _tampered_and_documented(sanity)
        for key in ("documented", "tampered"):
            assert _dump(got[key]) == json.dumps(GOLDEN["tampered"][key])

    @pytest.mark.parametrize("i", range(len(GOLDEN["points"])))
    def test_points(self, i):
        point = GOLDEN["points"][i]
        params = Params.from_json(point["params"])
        for case in point["cases"]:
            eq = solve(params, case["regime"], pooling_effort=case["pooling_effort"])
            assert [_sha(deviation_check(eq, params, n)) for n in GOLDEN["full_sizes"]] == \
                case["sha256"]


def capture() -> dict:
    """The golden file with every report recomputed on its own inputs: the
    fixtures' cases, the grid sizes and the points' parameters and cases."""
    sizes = GOLDEN["full_sizes"]
    fixtures = {}
    for name, cases in GOLDEN["fixtures"].items():
        params = Params.load(fixture_path(name))
        fixtures[name] = [{
            "regime": case["regime"], "pooling_effort": case["pooling_effort"],
            "full": [deviation_check(solve(params, case["regime"],
                                           pooling_effort=case["pooling_effort"]),
                                     params, n).to_json() for n in sizes],
        } for case in cases]
    points = []
    for point in GOLDEN["points"]:
        params = Params.from_json(point["params"])
        points.append({"params": point["params"], "cases": [{
            "regime": case["regime"], "pooling_effort": case["pooling_effort"],
            "sha256": [_sha(deviation_check(solve(params, case["regime"],
                                                  pooling_effort=case["pooling_effort"]),
                                            params, n)) for n in sizes],
        } for case in point["cases"]]})
    tampered = _tampered_and_documented(Params.load(fixture_path("sanity")))
    return {"full_sizes": sizes, "fixtures": fixtures,
            "tampered": {key: report.to_json() for key, report in tampered.items()},
            "points": points}


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


def _regime_eq(params: Params, regime: str, check: bool = False):
    """The equilibrium a ``REGIMES`` name stands for, or None where there is none:
    a pool outside [0, 1]."""
    if regime in NONPOOLING_REGIMES:
        return solve(params, regime, check=check)
    family = transparent_pooling_family(params)
    e_star = family and family[1 if regime == "pooling_hi" else 0]
    if e_star is None or not 0.0 <= e_star <= 1.0:
        return None
    return solve(params, "transparent_pooling", pooling_effort=e_star, check=check)


def _or_none(params: Params, regime: str, check: bool):
    """:func:`_regime_eq`, or None where ``solve`` refuses it by name."""
    try:
        return _regime_eq(params, regime, check)
    except ReformLabError:
        return None


#: equilibria of every regime, gated (the census) and ungated (profiles that may
#: deviate), at seeded acceptance points and the census's base, news and domain draws
CROSS_CHECK_CASES = [
    (params, regime, eq)
    for params in (sample_params(7, 40, "acceptance") + sample_params(6, 40, "base")
                   + sample_params(6, 40, "news") + sample_params(5, 40, "domain"))
    for regime in REGIMES for check in (True, False)
    if (eq := _or_none(params, regime, check)) is not None
]


#: a cell and the reform effort it is moved to, or None for the equilibrium as built
MOVED = st.none() | st.tuples(st.sampled_from(CELLS), st.floats(0.0, 1.0))


def _moved(eq, moved):
    """``eq`` with the cell of ``moved`` playing a reform at its effort."""
    if moved is None:
        return eq
    (t, s), effort = moved
    return dataclasses.replace(eq, profile=dataclasses.replace(
        eq.profile, **{f"{t}_{s}": AgentAction(REFORM, effort)}))


class TestExactAgainstDense:
    # the exact supremum reaches every grid maximum, less rounding, and exceeds it by at
    # most the grid's resolution bound, which default_dev_tol adds: the verdicts agree.
    # Ungated profiles, and a cell moved to another effort, deviate to reforms away
    # from the equilibrium efforts
    @given(case=st.sampled_from(CROSS_CHECK_CASES),
           grid_size=st.sampled_from([2, 3, 5001, 100_001]), moved=MOVED)
    @settings(max_examples=250, deadline=None)
    def test_gain_within_the_grid_bound(self, case, grid_size, moved):
        params, _, solved = case
        eq = _moved(solved, moved)
        exact = deviation_check(eq, params, grid_size)
        # the dense scan reads the pattern lists solve stated for the equilibrium as built
        dense = dense_deviation_check(eq, params, grid_size, reference_rules(solved, params))
        bound = (1.0 + params.R + 1.0 / params.lam) / (2.0 * (grid_size - 1))
        for key, cell in exact.cells.items():
            ref = dense.cells[key]
            assert cell.verdict == ref.verdict, (key, cell, ref)
            assert cell.gain >= ref.gain - 1e-12, (key, cell, ref)
            assert cell.gain - ref.gain <= bound, (key, cell, ref)

    def test_cases_cover_every_regime_and_deviations(self):
        assert {regime for _, regime, _ in CROSS_CHECK_CASES} == set(REGIMES)
        gains = [cell.gain for params, _, eq in CROSS_CHECK_CASES
                 for cell in deviation_check(eq, params).cells.values()]
        assert sum(gain > 1e-3 for gain in gains) > 50


def _hexed(obj):
    """``obj``, a report's JSON, with every float written as its ``float.hex``."""
    if isinstance(obj, dict):
        return {key: _hexed(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_hexed(value) for value in obj]
    return obj.hex() if isinstance(obj, float) else obj


class TestMatchesThreeCandidateScan:
    # scoring each distinct candidate of a piece once, and building only the reported
    # action, leaves every report as the three-candidate scan gave it, bit for bit
    @given(case=st.sampled_from(CROSS_CHECK_CASES),
           grid_size=st.sampled_from([2, 3, 5001, 100_001]), moved=MOVED)
    @settings(max_examples=250, deadline=None)
    def test_report_bit_for_bit(self, case, grid_size, moved):
        params, _, eq = case
        eq = _moved(eq, moved)
        got = deviation_check(eq, params, grid_size).to_json()
        want = three_candidate_deviation_check(eq, params, grid_size).to_json()
        assert _hexed(got) == _hexed(want)


class TestTieRule:
    def test_tie_goes_to_the_smaller_effort(self, sanity, monkeypatch):
        # a step utility ties every candidate of the top piece (its start, its vertex
        # where that lies inside, and 1.0) and nothing below it, and no equilibrium
        # effort reaches it: each cell's best is the first maximum, the top piece's start
        eq = solve(sanity, "transparent_separating")
        top = eq.retention_pieces()[0][-1]
        assert max(a.effort for a in eq.profile.actions()) < top < 1.0

        def step(mu, effort, *rest):
            return np.where(effort >= top, 1e6, 0.0)

        monkeypatch.setattr(verification, "_reform_utility", step)
        report = deviation_check(eq, sanity, 3)
        assert all(c.best_action == AgentAction(REFORM, top) for c in report.cells.values())


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
    @given(params=CELL_PARAMS, regime=st.sampled_from(REGIMES), effort=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_match_scalar_reference(self, params, regime, effort):
        eq = _regime_eq(params, regime)
        assume(eq is not None)
        eps = params.eps_tol
        values = {v for pattern, _ in reference_rules(eq, params).retention
                  if (v := pattern.effort_value) is not None}
        efforts = {min(max(float(x), 0.0), 1.0) for v in values for t in (v - eps, v, v + eps)
                   for x in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf))}
        probes = [AgentAction(STATUS_QUO), *(AgentAction(REFORM, e) for e in sorted(efforts))]
        for (t, s), act in zip(CELLS, eq.profile.actions()):
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

    @given(params=CELL_PARAMS, regime=st.sampled_from(REGIMES))
    @settings(max_examples=100, deadline=None)
    def test_status_quo_matches_scalar_reference(self, params, regime):
        # with every scored reform sunk to -inf, each cell's best is the status quo,
        # scored as d + R * retained outside the call: the scalar reference, bit for bit
        eq = _regime_eq(params, regime)
        assume(eq is not None)
        exact = verification._reform_utility
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verification, "_reform_utility", lambda *args: exact(*args) - np.inf)
            report = deviation_check(eq, params, 2001)
        for (t, s), cell in report.cells.items():
            assert cell.best_action == AgentAction(STATUS_QUO)
            want = scalar_expected_utility(t, s, AgentAction(STATUS_QUO), eq, params)
            assert _bits(cell.best_utility) == _bits(want)


def _utility_calls(module, check, eq, params) -> list:
    """The arguments, less ``params``, of each ``_reform_utility`` call that ``check``
    makes through ``module``, grouped by cell in ``CELLS`` order."""
    exact, calls = verification._reform_utility, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "_cell_utilities", None)  # not called
        patch.setattr(module, "_reform_utility",
                      lambda *args: calls.append(args[:-1]) or exact(*args))
        check(eq, params, 100_001)
    # consecutive cells differ in the posterior (signal) or the payoffs (type)
    return [list(cell) for _, cell in itertools.groupby(calls, key=lambda a: (a[0], a[2]))]


class TestActionsBuilt:
    @pytest.mark.parametrize("name", ["sanity", "part3"])
    def test_only_a_reported_reform_is_built(self, name, request):
        # a check builds one AgentAction for each cell whose reported best is a reform
        # other than the equilibrium action, and none for a reform that loses
        params = request.getfixturevalue(name)
        total = 0
        for eq in _equilibria(params):
            built = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verification, "AgentAction",
                              lambda *args: built.append(args) or AgentAction(*args))
                report = deviation_check(eq, params)
            reported = [c for c in report.cells.values()
                        if c.best_action.policy == REFORM and c.best_action != c.eq_action]
            assert len(built) == len(reported), eq.regime
            total += len(built)
        assert total > 0  # the reader sees built actions


class TestScanShape:
    @pytest.mark.parametrize("name", ["sanity", "part3"])
    def test_one_utility_call_and_small_peak(self, name, request):
        # a check scores each distinct candidate once, in one utility call on Python
        # floats and bools: per cell, the three-candidate scan's candidates less the
        # repeats within a piece (one to three a piece that meets [0, 1]), then one call
        # for its reform equilibrium effort; it calls no other scorer, and its memory is
        # small
        params = request.getfixturevalue(name)
        for eq in _equilibria(params):
            got = _utility_calls(verification, deviation_check, eq, params)
            want = _utility_calls(support, three_candidate_deviation_check, eq, params)
            starts = eq.retention_pieces()[0]
            met = [i for i, (start, end) in enumerate(zip(starts, starts[1:] + [np.inf]))
                   if start <= 1.0 and end > 0.0]
            for mu, effort, payoffs, retained in itertools.chain(*got):
                assert {type(x) for x in (mu, effort, *payoffs)} <= {float}, eq.regime
                assert {type(x) for x in retained} <= {bool}, eq.regime
            assert len(got) == len(want) == len(CELLS), eq.regime
            for cell, ref, action in zip(got, want, eq.profile.actions()):
                if action.policy == REFORM:  # the cell's last call scores its equilibrium effort
                    last = cell.pop()
                    assert last == ref.pop() and last[1] == action.effort, eq.regime
                # the scan's candidates in its order, each scored once (a piece's efforts
                # are its own, so a repeat can only be within a piece)
                assert cell == list(dict.fromkeys(ref)), eq.regime
                per_piece = Counter(bisect_right(starts, effort) - 1 for _, effort, *_ in cell)
                assert sorted(per_piece) == met, eq.regime
                assert set(per_piece.values()) <= {1, 2, 3}, eq.regime
            tracemalloc.start()
            try:
                deviation_check(eq, params, 100_001)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, eq.regime


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
