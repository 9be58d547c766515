"""Tests for the deviation oracle, Bayes consistency, news classification,
and break-even orderings."""

import dataclasses

import pytest

from reformlab import (
    AgentAction,
    Params,
    UnresolvedObservationError,
    bayes_consistency,
    deviation_check,
    divinity_breakeven,
    expected_utility,
    informativeness_condition,
    news_classification,
    posteriors,
    solve,
    transparent_pooling_family,
)
from reformlab.equilibrium import CONGRUENT, NONCONGRUENT, REFORM, STATUS_QUO
from reformlab.verification import documented_opaque_gap
from support import grid_argmax_effort, sample_params

EQ_UTILITY_CG_OPAQUE = 0.38800775443673713  # (lambda/2)(1+R)^2 mu+^2 at sanity
PBAR_NONTRANSPARENT = {
    (CONGRUENT, "g"): 1.943299851358047,
    (CONGRUENT, "b"): 0.9508650519031141,
    (NONCONGRUENT, "g"): 0.95,
    (NONCONGRUENT, "b"): 0.95,
}

POOLING_PARAMS = Params(p=0.999, phi=0.999, d=0.05, lam=0.3, R=0.5, pi=0.9)


class TestExpectedUtility:
    def test_noncongruent_reform_formula(self, sanity):
        eq = solve(sanity, "opaque")
        mu = posteriors(sanity).mu_plus
        for e in (0.0, 0.1, 0.5, 1.0):
            u = expected_utility(NONCONGRUENT, "g", AgentAction(REFORM, e), eq, sanity)
            assert u == pytest.approx(mu * e * sanity.R - e**2 / (2 * sanity.lam), abs=1e-12)

    def test_status_quo_with_removal_pays_d(self, sanity):
        eq = solve(sanity, "opaque")
        for t in (CONGRUENT, NONCONGRUENT):
            for s in ("g", "b"):
                assert expected_utility(t, s, AgentAction(STATUS_QUO), eq, sanity) == sanity.d

    def test_congruent_equilibrium_action_value(self, sanity):
        eq = solve(sanity, "opaque")
        act = eq.profile.congruent_g
        u = expected_utility(CONGRUENT, "g", act, eq, sanity)
        assert u == pytest.approx(EQ_UTILITY_CG_OPAQUE, abs=1e-12)
        # cross-check: the grid maximum of (1+R)-weighted reform utility
        mu = posteriors(sanity).mu_plus
        _, u_grid = grid_argmax_effort(mu, 1 + sanity.R, sanity.lam)
        assert u == pytest.approx(u_grid, abs=1e-9)

    def test_benchmark_office_term_constant(self, sanity):
        # no retention stage: office rent accrues no matter the action
        eq = solve(sanity, "benchmark")
        u_q = expected_utility(NONCONGRUENT, "b", AgentAction(STATUS_QUO), eq, sanity)
        assert u_q == pytest.approx(sanity.d + sanity.R)

    def test_unresolvable_observation(self, sanity):
        eq = solve(sanity, "opaque")
        partial = dataclasses.replace(eq, retention=eq.retention[:1])
        with pytest.raises(UnresolvedObservationError):
            expected_utility(CONGRUENT, "g", AgentAction(REFORM, 0.5), partial, sanity)


class TestDeviationCheck:
    def test_nontransparent_sanity_all_pass(self, sanity):
        report = deviation_check(solve(sanity, "nontransparent"), sanity, grid_size=100_001)
        assert all(c.verdict == "pass" for c in report.cells.values())

    def test_gain_nonnegative_and_zero_at_equilibrium(self, sanity):
        eq = solve(sanity, "nontransparent")
        report = deviation_check(eq, sanity, grid_size=5001)
        for (t, s), cell in report.cells.items():
            assert cell.gain >= 0.0
            u_again = expected_utility(t, s, eq.profile.action(t, s), eq, sanity)
            assert u_again - cell.eq_utility == 0.0

    def test_tampered_opaque_effort_fails(self, sanity):
        eq = solve(sanity, "opaque")
        post = posteriors(sanity)
        lam, R = sanity.lam, sanity.R
        tampered_profile = dataclasses.replace(
            eq.profile, congruent_g=AgentAction(REFORM, lam * post.mu_plus))
        tampered = dataclasses.replace(eq, profile=tampered_profile)
        report = deviation_check(tampered, sanity, grid_size=20_001)
        cell = report.cells[(CONGRUENT, "g")]
        assert cell.verdict == "fail"
        # gap between the (1+R)-weighted optimum and the career-blind effort
        expected_gain = (lam / 2) * post.mu_plus**2 * R**2
        assert cell.gain == pytest.approx(expected_gain, abs=1e-9)

    def test_documented_congruent_b_case(self, sanity):
        report = deviation_check(solve(sanity, "opaque"), sanity, grid_size=20_001)
        cell = report.cells[(CONGRUENT, "b")]
        assert cell.verdict == "fail (documented)"
        assert cell.gain == pytest.approx(documented_opaque_gap(sanity), abs=1e-9)
        assert cell.best_action.policy == STATUS_QUO
        assert report.passed  # documented failures do not trip the suite
        assert report.counts() == {"pass": 3, "fail": 0, "fail (documented)": 1}

    def test_separating_mimicry_never_profitable(self, part3):
        eq = solve(part3, "transparent_separating")
        e_h = eq.profile.congruent_g.effort
        for s in ("g", "b"):
            eq_u = expected_utility(NONCONGRUENT, s, eq.profile.action(NONCONGRUENT, s), eq, part3)
            mimic_u = expected_utility(NONCONGRUENT, s, AgentAction(REFORM, e_h), eq, part3)
            gain = mimic_u - eq_u
            assert gain <= 1e-12
            # e_H equals the separation bar at these parameters: exact indifference
            assert gain == pytest.approx(0.0, abs=1e-12)

    def test_all_regimes_pass_at_sampled_points(self):
        for params in sample_params(53, 30, "acceptance"):
            for regime in ("benchmark", "nontransparent", "opaque", "transparent_separating"):
                report = deviation_check(solve(params, regime), params, grid_size=4001)
                for (t, s), cell in report.cells.items():
                    assert cell.verdict != "fail", (regime, t, s, cell.gain, params)

    def test_grid_size_validation(self, sanity):
        with pytest.raises(Exception):
            deviation_check(solve(sanity, "nontransparent"), sanity, grid_size=1)


class TestBayesConsistency:
    def test_opaque_sanity(self, sanity):
        report = bayes_consistency(solve(sanity, "opaque"), sanity)
        assert report.passed
        by_outcome = {e.observation.outcome: e for e in report.entries}
        assert by_outcome["success"].recomputed == pytest.approx(0.9782672070353847, abs=1e-12)
        assert by_outcome["failure"].recomputed == pytest.approx(0.8811198190360197, abs=1e-12)
        assert by_outcome["status_quo"].recomputed == 0.0
        total = sum(e.probability for e in report.entries)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_nontransparent_pools_to_prior(self, sanity):
        report = bayes_consistency(solve(sanity, "nontransparent"), sanity)
        assert report.passed
        assert len(report.entries) == 1  # only reform on path
        assert report.entries[0].recomputed == sanity.pi

    def test_transparent_separating(self, sanity):
        report = bayes_consistency(solve(sanity, "transparent_separating"), sanity)
        assert report.passed
        for e in report.entries:
            assert e.stored in (0.0, 1.0)

    def test_benchmark_vacuous(self, sanity):
        report = bayes_consistency(solve(sanity, "benchmark"), sanity)
        assert report.passed and report.entries == ()

    def test_sampled_equilibria_consistent(self):
        for params in sample_params(59, 60, "acceptance"):
            for regime in ("nontransparent", "opaque", "transparent_separating"):
                assert bayes_consistency(solve(params, regime), params).passed


class TestNewsClassification:
    def test_opaque_profile_at_sanity(self, sanity):
        report = news_classification(solve(sanity, "opaque").profile, sanity)
        assert report.entries["success"].classification == "good"
        assert report.entries["failure"].classification == "bad"
        assert report.entries["status_quo"].classification == "bad"
        assert report.total_probability == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_prior_is_neutral(self, sanity):
        params = sanity.replace(pi=1 - 1e-9, eps_tol=1e-8)
        profile = solve(params, "nontransparent").profile
        report = news_classification(profile, params)
        assert report.entries  # success and failure both on path
        for entry in report.entries.values():
            assert entry.classification == "neutral", entry

    def test_failure_bad_iff_informative(self):
        for params in sample_params(61, 200, "news"):
            profile = solve(params, "opaque", check=False).profile
            cls = news_classification(profile, params).entries["failure"].classification
            holds = informativeness_condition(params)[0]
            if cls == "neutral":
                continue
            assert (cls == "bad") == holds, params


class TestDivinityBreakeven:
    def test_nontransparent_status_quo_deviation(self, sanity):
        eq = solve(sanity, "nontransparent")
        report = divinity_breakeven(eq, AgentAction(STATUS_QUO), sanity)
        for cell, expected in PBAR_NONTRANSPARENT.items():
            assert report.p_bar[cell] == pytest.approx(expected, abs=1e-12)
        # congruent types tolerate more retention risk than the noncongruent
        assert report.p_bar[(CONGRUENT, "g")] > report.p_bar[(CONGRUENT, "b")]
        assert report.p_bar[(CONGRUENT, "b")] > report.p_bar[(NONCONGRUENT, "g")]
        assert report.ordering[0] == (CONGRUENT, "g")

    def test_pooling_status_quo_ordering(self):
        lo, hi = transparent_pooling_family(POOLING_PARAMS)
        eq = solve(POOLING_PARAMS, "transparent_pooling", pooling_effort=0.4)
        report = divinity_breakeven(eq, AgentAction(STATUS_QUO), POOLING_PARAMS)
        cg, cb = report.p_bar[(CONGRUENT, "g")], report.p_bar[(CONGRUENT, "b")]
        ng, nb = report.p_bar[(NONCONGRUENT, "g")], report.p_bar[(NONCONGRUENT, "b")]
        assert cg > cb > ng == nb

    def test_pooling_low_effort_deviation_ordering(self):
        eq = solve(POOLING_PARAMS, "transparent_pooling", pooling_effort=0.4)
        report = divinity_breakeven(eq, AgentAction(REFORM, 0.2), POOLING_PARAMS)
        cg, cb = report.p_bar[(CONGRUENT, "g")], report.p_bar[(CONGRUENT, "b")]
        ng = report.p_bar[(NONCONGRUENT, "g")]
        assert cg > cb > ng

    def test_indifferent_deviation_gives_unit_breakeven(self, sanity):
        # deviating to one's own equilibrium action under full retention
        eq = solve(sanity, "nontransparent")
        act = eq.profile.congruent_g
        report = divinity_breakeven(eq, act, sanity)
        assert report.p_bar[(CONGRUENT, "g")] == pytest.approx(1.0, abs=1e-15)

    def test_sampled_sob_ordering(self):
        for params in sample_params(67, 200, "base"):
            eq = solve(params, "nontransparent")
            report = divinity_breakeven(eq, AgentAction(STATUS_QUO), params)
            assert report.p_bar[(CONGRUENT, "g")] > report.p_bar[(NONCONGRUENT, "g")]
            assert report.p_bar[(CONGRUENT, "b")] > report.p_bar[(NONCONGRUENT, "b")]
