"""Tests for the deviation oracle, Bayes consistency, news classification,
and break-even orderings."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from reformlab import (
    AgentAction,
    AssumptionError,
    DomainError,
    Params,
    ReformLabError,
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
from reformlab.equilibrium import (
    CELLS, CONGRUENT, FAILURE, NONCONGRUENT, REFORM, REGIMES, SQ_OUTCOME, STATUS_QUO, SUCCESS,
    Observation, observe,
)
from reformlab.model_core import ASSUMPTION_CHECKS
from reformlab.verification import documented_opaque_gap, joint_outcome_distribution
from support import (
    DOMAINS, grid_argmax_effort, in_class_order, keyed, per_mass_bayes_consistency, sample_params,
)

EQ_UTILITY_CG_OPAQUE = 0.38800775443673713  # (lambda/2)(1+R)^2 mu+^2 at sanity
PBAR_NONTRANSPARENT = {
    (CONGRUENT, "g"): 1.943299851358047,
    (CONGRUENT, "b"): 0.9508650519031141,
    (NONCONGRUENT, "g"): 0.95,
    (NONCONGRUENT, "b"): 0.95,
}

POOLING_PARAMS = Params(p=0.999, phi=0.999, d=0.05, lam=0.3, R=0.5, pi=0.9)

#: the test domains, with the tolerance 0 or log-uniform over [1e-15, 0.1]
BAYES_PARAMS = st.builds(
    Params, **{k: st.floats(lo, hi) for k, (lo, hi) in DOMAINS.items()},
    eps_tol=st.one_of(st.just(0.0), st.floats(-15.0, -1.0).map(lambda x: 10.0 ** x)),
)
#: (params, check): ungated solve on the whole test domain, gated solve on points it
#: accepts, so that the gated draws are not mostly refused
SOLVES = st.one_of(st.tuples(BAYES_PARAMS, st.just(False)),
                   st.tuples(st.sampled_from(sample_params(73, 40, "acceptance")), st.just(True)))
#: every regime, pooling at each end of its family
BAYES_REGIMES = REGIMES[:-1] + ("pooling_lo", "pooling_hi")


def _entry_bits(entry) -> tuple:
    """A Bayes entry with each float as its hex bits, which tell -0.0 from 0.0."""
    return (entry.observation, float(entry.probability).hex(), float(entry.recomputed).hex(),
            float(entry.stored).hex(), entry.passed)


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
        # a retention table that lacks the failure and status-quo classes is refused when it
        # is built, so an expected utility always resolves: a reform is kept after success
        # only; an observation that lacks what the regime sees, the outcome, is unresolved
        eq = solve(sanity, "opaque")
        with pytest.raises(DomainError, match="retention"):
            dataclasses.replace(eq, retention=in_class_order(
                eq.regime, {(REFORM, SUCCESS): keyed(eq.regime, eq.retention)[REFORM, SUCCESS]}))
        u = expected_utility(CONGRUENT, "g", AgentAction(REFORM, 0.5), eq, sanity)
        mu = posteriors(sanity).mu_plus
        assert u == pytest.approx(mu * 0.5 * (1 + sanity.R) - 0.25 / (2 * sanity.lam), abs=1e-15)
        with pytest.raises(UnresolvedObservationError):
            eq.belief(Observation(REFORM))

    @pytest.mark.parametrize("cell", [("nobody", "g"), ("Congruent", "b"), (CONGRUENT, "x"),
                                      (NONCONGRUENT, None)])
    @pytest.mark.parametrize("action", [AgentAction(REFORM, 0.5), AgentAction(STATUS_QUO)])
    def test_unknown_cell_is_refused(self, sanity, cell, action):
        # an unknown type is not scored as noncongruent, nor a bad signal as anything
        eq = solve(sanity, "opaque")
        with pytest.raises(DomainError, match=r"^unknown cell \("):
            expected_utility(*cell, action, eq, sanity)


class TestDeviationCheck:
    def test_nontransparent_sanity_all_pass(self, sanity):
        report = deviation_check(solve(sanity, "nontransparent"), sanity, grid_size=100_001)
        assert all(c.verdict == "pass" for c in report.cells.values())

    def test_gain_nonnegative_and_zero_at_equilibrium(self, sanity):
        eq = solve(sanity, "nontransparent")
        report = deviation_check(eq, sanity, grid_size=5001)
        played = dict(zip(CELLS, eq.profile.actions()))
        for (t, s), cell in report.cells.items():
            assert cell.gain >= 0.0
            u_again = expected_utility(t, s, played[t, s], eq, sanity)
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
            played = getattr(eq.profile, f"{NONCONGRUENT}_{s}")
            eq_u = expected_utility(NONCONGRUENT, s, played, eq, part3)
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


#: every name a gated ``solve`` refuses by: a core assumption or a regime's own gate
REFUSAL_NAMES = {*ASSUMPTION_CHECKS, "separation_feasible", "pooling_family_nonempty",
                 "gamble_participation"}


class TestCensus:
    # every gated solve at seeded points where the assumptions may fail is either refused
    # by name or an equilibrium: no plain deviation failure, Bayes-consistent beliefs. The
    # base points include opaque profiles whose noncongruent g gamble pays less than the
    # status quo; gated solve refuses those as gamble_participation
    @pytest.mark.parametrize("predicate,seed,n", [("base", 6, 300), ("news", 6, 200),
                                                  ("domain", 5, 300)])
    def test_refused_by_name_or_an_equilibrium(self, predicate, seed, n):
        for params in sample_params(seed, n, predicate):
            for regime in REGIMES:
                try:
                    eq = solve(params, regime)
                except AssumptionError as exc:
                    assert exc.check in REFUSAL_NAMES, (params, regime)
                    continue
                assert deviation_check(eq, params).counts()["fail"] == 0, (params, regime)
                assert bayes_consistency(eq, params).passed, (params, regime)

    def test_gamble_below_the_effort_root_is_refused(self):
        # solve once returned this opaque profile, whose noncongruent g cell gains 0.171
        # by keeping the status quo
        params = Params(p=0.75053, phi=0.93618, d=0.24054, lam=0.52291, R=0.52790, pi=0.37552)
        with pytest.raises(AssumptionError) as exc:
            solve(params, "opaque")
        assert exc.value.check == "gamble_participation"
        report = deviation_check(solve(params, "opaque", check=False), params)
        cell = report.cells[(NONCONGRUENT, "g")]
        assert cell.verdict == "fail" and cell.best_action == AgentAction(STATUS_QUO)
        assert cell.gain == pytest.approx(0.171, abs=5e-4)


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

    @given(point=SOLVES, regime=st.sampled_from(BAYES_REGIMES))
    @example(point=(POOLING_PARAMS, True), regime="pooling_hi")
    @example(point=(Params(p=0.9, phi=0.75, d=0.05, lam=0.3, R=0.5, pi=0.9, eps_tol=0.1), False),
             regime="transparent_separating")
    @settings(max_examples=300, deadline=None)
    def test_class_tally_equals_per_mass_reference(self, point, regime):
        # the report tallied by observed class equals the one built from one observation
        # per joint mass, entry for entry and bit for bit, on every equilibrium solve builds
        (params, check), pooling_effort = point, None
        if regime in ("pooling_lo", "pooling_hi"):
            family = transparent_pooling_family(params)
            if family is None:
                return
            pooling_effort = family[1] if regime == "pooling_hi" else family[0]
            regime = "transparent_pooling"
        try:
            eq = solve(params, regime, check=check, pooling_effort=pooling_effort)
        except ReformLabError:
            return  # refused: there is no equilibrium to check
        got = bayes_consistency(eq, params).entries
        want = per_mass_bayes_consistency(eq, params).entries
        assert [_entry_bits(e) for e in got] == [_entry_bits(e) for e in want]

    @pytest.mark.parametrize("regime", REGIMES)
    def test_entries_are_the_observed_on_path_plays(self, sanity, part3, regime):
        # the report's observations are ``observe``'s projections of the plays of positive
        # probability: a reform fails in the bad state, and succeeds in the good state at a
        # positive effort. The benchmark has no belief system, so no entry
        for params in (sanity, part3):
            eq = solve(params, regime, check=False,
                       pooling_effort=0.5 if regime == "transparent_pooling" else None)
            plays = {(act, outcome) for act in eq.profile.actions()
                     for outcome in ((SQ_OUTCOME,) if act.policy == STATUS_QUO
                                     else (FAILURE, SUCCESS) if act.effort > 0 else (FAILURE,))}
            want = set() if regime == "benchmark" else {observe(regime, *play) for play in plays}
            assert {e.observation for e in bayes_consistency(eq, params).entries} == want


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


class TestZeroProbabilityEvents:
    # at phi = 1e-300 a reform's success mass, phi * p * effort, underflows to 0.0;
    # the joint distribution still yields it, and both oracles leave it out, as their
    # docstrings promise, instead of dividing 0 by 0
    PARAMS = Params(p=0.5, phi=1e-300, d=0.5, lam=1.0, R=1.0, pi=0.5)

    @pytest.mark.parametrize("regime", ["benchmark", "nontransparent", "transparent_pooling"])
    def test_news_leaves_out_an_underflowed_event(self, regime):
        profile = solve(self.PARAMS, regime, check=False).profile
        masses = [(o, m) for *_, o, m in joint_outcome_distribution(profile, self.PARAMS)]
        assert (SUCCESS, 0.0) in masses and all(m == 0.0 for o, m in masses if o == SUCCESS)
        report = news_classification(profile, self.PARAMS)
        assert SUCCESS not in report.entries
        assert report.entries[FAILURE].probability > 0.0
        assert report.total_probability == 1.0

    def test_bayes_leaves_out_an_underflowed_class(self):
        eq = solve(self.PARAMS, "transparent_pooling", check=False)
        report = bayes_consistency(eq, self.PARAMS)
        assert report.passed
        assert [e.observation for e in report.entries] == [
            Observation(REFORM, eq.pooling_effort, FAILURE)]

    def test_positive_masses_are_kept(self):
        # a success mass of 5e-301 is positive: its event and class stay in the reports
        eq = solve(self.PARAMS, "transparent_separating", check=False)
        assert news_classification(eq.profile, self.PARAMS).entries[SUCCESS].probability > 0.0
        observations = [e.observation for e in bayes_consistency(eq, self.PARAMS).entries]
        assert Observation(REFORM, 1.0, SUCCESS) in observations


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
