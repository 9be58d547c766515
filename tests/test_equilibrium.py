"""Tests for the regime equilibrium constructors."""

import dataclasses
import json
import math
import traceback
from collections import defaultdict
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reformlab import (
    AgentAction,
    AssumptionError,
    DomainError,
    InformativenessError,
    UnresolvedObservationError,
    Observation,
    Params,
    ReformLabError,
    bayes_consistency,
    check_assumptions,
    deviation_check,
    interior_effort,
    optimal_regime,
    posteriors,
    separation_effort,
    solve,
    transparent_pooling_family,
)
from reformlab import equilibrium
from reformlab.equilibrium import (
    CELLS, REFORM, REGIMES, STATUS_QUO, SUCCESS, FAILURE, SQ_OUTCOME, StrategyProfile,
    raw_profile,
)
from reformlab.model_core import ASSUMPTION_CHECKS
from reformlab.verification import joint_outcome_distribution
from reformlab.welfare import WELFARE_REGIMES, formula_welfare
from support import (
    DOMAINS, grid_argmax_effort, reference_check_assumptions, reference_excluded,
    reference_solve, sample_params,
)

# frozen effort levels at the sanity-check parameters
E_CG_OPAQUE = 0.6229026845637584     # lambda (1+R) mu+
E_CB_OPAQUE = 0.018382352941176485   # lambda (1+R) mu-
E_NG_OPAQUE = 0.12458053691275169    # lambda R mu+
E_BENCH = 0.49832214765100674        # lambda mu+
E_CB_FLAT = 0.014705882352941188     # lambda mu-
SEP_BAR = 0.48733971724044817        # sqrt(2 lambda (R-d))
BELIEF_SUCCESS = 0.9782672070353847
BELIEF_FAILURE = 0.8811198190360197

POOLING_PARAMS = Params(p=0.999, phi=0.999, d=0.05, lam=0.3, R=0.5, pi=0.9)


def _observations_for(eq, params):
    """A covering set of on- and off-path observations for the regime."""
    post = posteriors(params)
    if eq.regime in ("nontransparent",):
        return [Observation(REFORM), Observation(STATUS_QUO)]
    if eq.regime == "opaque":
        return [
            Observation(REFORM, outcome=SUCCESS),
            Observation(REFORM, outcome=FAILURE),
            Observation(STATUS_QUO, outcome=SQ_OUTCOME),
        ]
    efforts = sorted({a.effort for _, _, a in eq.profile.cells() if a.policy == REFORM}
                     | {0.0, 1.0, params.lam * post.mu_plus / 2})
    probes = set(efforts)
    for e in efforts:
        probes.add(min(1.0, e + 0.01))
        probes.add(max(0.0, e - 0.01))
    obs = [Observation(REFORM, effort=e, outcome=o)
           for e in sorted(probes) for o in (SUCCESS, FAILURE)]
    obs.append(Observation(STATUS_QUO, effort=0.0, outcome=SQ_OUTCOME))
    return obs


class TestInteriorEffort:
    @pytest.mark.parametrize("mu,weight", [
        (0.9966442953020135, 1.25),
        (0.9966442953020135, 0.25),
        (0.029411764705882377, 1.25),
        (0.5, 1.0),
    ])
    def test_matches_grid_oracle(self, sanity, mu, weight):
        e_star, _ = grid_argmax_effort(mu, weight, sanity.lam)
        assert interior_effort(mu, weight, sanity) == pytest.approx(e_star, abs=1e-6)

    def test_zero_posterior_means_zero_effort(self, sanity):
        assert interior_effort(0.0, 7.0, sanity) == 0.0

    def test_clamped_at_one(self):
        params = Params(p=0.9, phi=0.9, d=0.1, lam=1.0, R=2.0, pi=0.5)
        assert interior_effort(0.9, 3.0, params) == 1.0

    def test_frozen_values(self, sanity):
        assert interior_effort(0.9966442953020135, 1.25, sanity) == pytest.approx(E_CG_OPAQUE)
        assert interior_effort(0.9966442953020135, 0.25, sanity) == pytest.approx(E_NG_OPAQUE)


class TestBenchmark:
    def test_profile(self, sanity):
        eq = solve(sanity, "benchmark")
        assert eq.profile.congruent_g.policy == REFORM
        assert eq.profile.congruent_g.effort == pytest.approx(E_BENCH)
        assert eq.profile.congruent_b.policy == STATUS_QUO
        assert eq.profile.noncongruent_g.policy == STATUS_QUO
        assert eq.profile.noncongruent_b.policy == STATUS_QUO
        assert eq.retention == {} and eq.beliefs == {}

    def test_effort_approaches_lambda_at_certainty(self):
        eps = 1e-3
        params = Params(p=1 - eps, phi=1 - eps, d=0.05, lam=0.3, R=1.0, pi=0.5)
        eq = solve(params, "benchmark")
        assert eq.profile.congruent_g.effort == pytest.approx(params.lam, abs=1e-5)

    def test_assumption_gate_names_check(self):
        bad = Params(p=0.5, phi=0.3, d=0.1, lam=0.5, R=1.0, pi=0.5)
        with pytest.raises(AssumptionError) as exc:
            solve(bad, "benchmark")
        assert exc.value.check == "signal_informative"


class TestNontransparent:
    def test_efforts(self, sanity):
        eq = solve(sanity, "nontransparent")
        assert eq.profile.congruent_g.effort == pytest.approx(E_BENCH)
        assert eq.profile.congruent_b.effort == pytest.approx(E_CB_FLAT)
        assert eq.profile.noncongruent_g == AgentAction(REFORM, 0.0)
        assert eq.profile.noncongruent_b == AgentAction(REFORM, 0.0)

    def test_reform_is_neutral_news(self, sanity):
        eq = solve(sanity, "nontransparent")
        assert eq.belief(Observation(REFORM)) == sanity.pi

    def test_off_path_status_quo_removes(self, sanity):
        eq = solve(sanity, "nontransparent")
        assert eq.decide(Observation(STATUS_QUO)) is False
        assert eq.belief(Observation(STATUS_QUO)) == 0.0


class TestOpaque:
    def test_efforts(self, sanity):
        eq = solve(sanity, "opaque")
        assert eq.profile.congruent_g.effort == pytest.approx(E_CG_OPAQUE)
        assert eq.profile.congruent_b.effort == pytest.approx(E_CB_OPAQUE)
        assert eq.profile.noncongruent_g.effort == pytest.approx(E_NG_OPAQUE)
        assert eq.profile.noncongruent_b.policy == STATUS_QUO

    def test_retention_pivots_on_success(self, sanity):
        eq = solve(sanity, "opaque")
        assert eq.decide(Observation(REFORM, outcome=SUCCESS)) is True
        assert eq.decide(Observation(REFORM, outcome=FAILURE)) is False
        assert eq.decide(Observation(STATUS_QUO, outcome=SQ_OUTCOME)) is False

    def test_beliefs(self, sanity):
        eq = solve(sanity, "opaque")
        b_s = eq.belief(Observation(REFORM, outcome=SUCCESS))
        b_f = eq.belief(Observation(REFORM, outcome=FAILURE))
        assert b_s == pytest.approx(BELIEF_SUCCESS, abs=1e-12)
        assert b_f == pytest.approx(BELIEF_FAILURE, abs=1e-12)
        assert b_s > sanity.pi > b_f
        assert eq.belief(Observation(STATUS_QUO, outcome=SQ_OUTCOME)) == 0.0

    # ungated, the beliefs follow from the clamped profile ``solve`` built; here the
    # closed-form congruent good-signal effort lambda (1+R) mu+ = 1.63 is clamped to 1
    @given(params=st.builds(Params, **{k: st.floats(lo, hi) for k, (lo, hi) in DOMAINS.items()}))
    @example(params=Params(p=0.8, phi=0.6, d=0.3, lam=1.0, R=0.9, pi=0.5))
    @settings(max_examples=100, deadline=None)
    def test_ungated_beliefs_are_bayes_consistent(self, params):
        eq = solve(params, "opaque", check=False)
        assert all(0.0 <= b <= 1.0 for _, values in eq.beliefs.values() for b in values)
        assert bayes_consistency(eq, params).passed

    def test_ungated_beliefs_read_the_clamped_efforts(self):
        params = Params(p=0.8, phi=0.6, d=0.3, lam=1.0, R=0.9, pi=0.5)
        eq = solve(params, "opaque", check=False)
        assert eq.profile.congruent_g.effort == 1.0
        b_s = eq.belief(Observation(REFORM, outcome=SUCCESS))
        b_f = eq.belief(Observation(REFORM, outcome=FAILURE))
        assert (b_s, b_f) == pytest.approx((0.594193, 0.707020), abs=1e-6)

    def test_failure_keeps_mass_where_the_unclamped_effort_exceeds_one(self):
        # p = 1 and lambda (1+R) = 2: with the unclamped good-signal efforts 2 and 1 a
        # failure had no mass and no belief; the clamped profile fails with probability 1/4
        params = Params(p=1.0, phi=0.5, d=0.5, lam=1.0, R=1.0, pi=0.5)
        eq = solve(params, "opaque", check=False)
        assert eq.belief(Observation(REFORM, outcome=SUCCESS)) == 0.5
        assert eq.belief(Observation(REFORM, outcome=FAILURE)) == 1.0
        assert bayes_consistency(eq, params).passed
        assert deviation_check(eq, params).counts() == {"pass": 3, "fail": 0,
                                                        "fail (documented)": 1}

    def test_informativeness_gate(self):
        # low accuracy, unbalanced prior: condition fails but basics hold
        bad = Params(p=0.6, phi=0.4, d=0.03, lam=0.5, R=0.9, pi=0.5)
        from reformlab import check_assumptions, informativeness_condition
        rep = check_assumptions(bad)
        assert rep.signal_informative.passed and rep.moderate_rent_relaxed.passed
        assert not informativeness_condition(bad)[0]
        with pytest.raises(InformativenessError):
            solve(bad, "opaque")


class TestTransparentSeparating:
    def test_efforts(self, sanity):
        eq = solve(sanity, "transparent_separating")
        assert separation_effort(sanity) == pytest.approx(SEP_BAR, abs=1e-15)
        # e_H = max(bar, lambda mu+) = lambda mu+ here; e_L = bar
        assert eq.profile.congruent_g.effort == pytest.approx(E_BENCH)
        assert eq.profile.congruent_b.effort == pytest.approx(SEP_BAR)
        assert eq.profile.noncongruent_g.policy == STATUS_QUO
        assert eq.profile.noncongruent_b.policy == STATUS_QUO

    def test_separation_free_when_rent_equals_status_quo(self):
        params = Params(p=0.99, phi=0.75, d=0.05, lam=0.5, R=0.05, pi=0.5)
        assert separation_effort(params.replace(R=params.d)) == 0.0
        eq = solve(params.replace(R=params.d), "transparent_separating", check=False)
        post = posteriors(params)
        assert eq.profile.congruent_g.effort == pytest.approx(params.lam * post.mu_plus)
        assert eq.profile.congruent_b.effort == pytest.approx(params.lam * post.mu_minus)

    def test_riley_property(self, sanity):
        # best mimicry payoff at or above e_H cannot beat the status quo
        eq = solve(sanity, "transparent_separating")
        e_h = eq.profile.congruent_g.effort
        mimic = sanity.R - e_h**2 / (2 * sanity.lam)
        assert mimic <= sanity.d + sanity.eps_tol

    def test_riley_property_sampled(self):
        for params in sample_params(23, 200, "acceptance"):
            eq = solve(params, "transparent_separating")
            e_h = eq.profile.congruent_g.effort
            assert params.R - e_h**2 / (2 * params.lam) <= params.d + 1e-9

    def test_off_path_beliefs(self, sanity):
        eq = solve(sanity, "transparent_separating")
        e_h = eq.profile.congruent_g.effort
        e_l = eq.profile.congruent_b.effort
        mid = (e_l + e_h) / 2
        assert eq.belief(Observation(REFORM, effort=mid, outcome=FAILURE)) == 0.0
        assert eq.belief(Observation(REFORM, effort=min(1.0, e_h + 0.1), outcome=FAILURE)) == 1.0
        assert eq.decide(Observation(REFORM, effort=mid, outcome=SUCCESS)) is False

    def test_pathological_tie(self, part3):
        # separating bar above lambda mu+: both signals pool at the bar
        eq = solve(part3, "transparent_separating")
        bar = separation_effort(part3)
        assert bar > part3.lam * posteriors(part3).mu_plus
        assert eq.profile.congruent_g.effort == eq.profile.congruent_b.effort == bar
        assert eq.belief(Observation(REFORM, effort=bar, outcome=FAILURE)) == 1.0

    def test_retains_at_e_h_at_e_l_or_above_e_h(self):
        # lambda mu- above the bar: a reform at the bar, or between e_L and e_H, is removed
        params = Params(p=0.69867, phi=0.81276, d=0.17578, lam=0.76984, R=0.18414, pi=0.15029)
        eq = solve(params, "transparent_separating")
        bar, e_l, e_h = (separation_effort(params), eq.profile.congruent_b.effort,
                         eq.profile.congruent_g.effort)
        assert (bar, e_l, e_h) == pytest.approx((0.11345, 0.50180, 0.70026), abs=5e-6)
        for effort, kept in ((bar, False), (e_l, True), (0.6, False), (e_h, True), (0.8, True)):
            action = AgentAction(REFORM, effort)
            assert [eq.retains(action, outcome)
                    for outcome in (SUCCESS, FAILURE)] == [kept, kept], effort

    def test_infeasible_separation_is_gated(self):
        # R big enough that even maximal effort cannot deter mimicry
        params = Params(p=0.99, phi=0.3, d=0.01, lam=0.2, R=3.0, pi=0.5)
        assert separation_effort(params) > 1.0
        with pytest.raises(AssumptionError) as exc:
            solve(params, "transparent_separating")
        assert exc.value.check == "separation_feasible"


class TestPoolingFamily:
    def test_empty_at_sanity(self, sanity):
        # lambda mu+^2 ~ 0.4966 > 0.475 = 2(R-d): no pooling survives
        assert transparent_pooling_family(sanity) is None

    def test_interval_values(self):
        fam = transparent_pooling_family(POOLING_PARAMS)
        assert fam is not None
        lo, hi = fam
        post = posteriors(POOLING_PARAMS)
        assert lo == pytest.approx(0.3 * post.mu_plus, abs=1e-12)
        assert hi == pytest.approx(math.sqrt(0.27), abs=1e-12)
        assert POOLING_PARAMS.lam * post.mu_plus**2 < 2 * (POOLING_PARAMS.R - POOLING_PARAMS.d)

    def test_none_when_rent_below_status_quo(self):
        params = Params(p=0.99, phi=0.75, d=0.3, lam=0.5, R=0.2, pi=0.5)
        assert transparent_pooling_family(params) is None

    def test_pooled_equilibrium_supports_both_constraints(self):
        lo, hi = transparent_pooling_family(POOLING_PARAMS)
        for e_star in (lo, 0.4, hi):
            eq = solve(POOLING_PARAMS, "transparent_pooling", pooling_effort=e_star)
            assert e_star >= POOLING_PARAMS.lam * posteriors(POOLING_PARAMS).mu_plus - 1e-12
            assert POOLING_PARAMS.R - e_star**2 / (2 * POOLING_PARAMS.lam) >= POOLING_PARAMS.d - 1e-12
            assert eq.pooling_effort == e_star

    def test_outside_family_rejected(self):
        lo, hi = transparent_pooling_family(POOLING_PARAMS)
        with pytest.raises(DomainError):
            solve(POOLING_PARAMS, "transparent_pooling", pooling_effort=hi + 0.05)

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("pooling_effort", [None, 0.4])
    def test_family_computed_at_most_once(self, monkeypatch, check, pooling_effort):
        # the gate's own read of the family is memoised with the refusal table, so it is
        # warmed first; what is counted is solve's reads, for the default effort and the range
        solve(POOLING_PARAMS, "transparent_pooling")
        family, calls = transparent_pooling_family(POOLING_PARAMS), []
        monkeypatch.setattr(equilibrium, "transparent_pooling_family",
                            lambda params: calls.append(params) or family)
        eq = solve(POOLING_PARAMS, "transparent_pooling", check=check, pooling_effort=pooling_effort)
        assert len(calls) <= 1
        assert eq.pooling_effort == (family[0] if pooling_effort is None else pooling_effort)

    def test_refusals_keep_their_order(self):
        # at an uninformative signal with an empty family: the empty family refuses a
        # default effort before any gate, a bad effort is refused before the gate, and
        # an effort outside a nonempty family after it
        bad = Params(p=0.5, phi=0.3, d=0.1, lam=0.5, R=0.1, pi=0.5)
        assert transparent_pooling_family(bad) is None
        with pytest.raises(AssumptionError, match="no pooling equilibrium survives"):
            solve(bad, "transparent_pooling")
        with pytest.raises(DomainError, match="pooled effort"):
            solve(bad, "transparent_pooling", pooling_effort=1.5)
        with pytest.raises(AssumptionError, match="signal_informative"):
            solve(bad, "transparent_pooling", pooling_effort=0.4)
        with pytest.raises(DomainError, match="outside pooling family"):
            solve(POOLING_PARAMS, "transparent_pooling", pooling_effort=0.9)

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("regime", ["benchmark", "nontransparent", "opaque",
                                        "transparent_separating"])
    def test_effort_for_another_regime_refused(self, regime, check):
        with pytest.raises(DomainError, match="only to transparent_pooling"):
            solve(POOLING_PARAMS, regime, check=check, pooling_effort=0.4)


class TestGateMemo:
    def test_cache_stays_bounded(self, sanity):
        before = equilibrium.gate_refusals.cache_info()
        for k in range(10_000):
            try:
                solve(sanity.replace(R=0.5 + k * 1e-6), "benchmark")
            except AssumptionError:
                pass
        info = equilibrium.gate_refusals.cache_info()
        assert info.misses - before.misses == 10_000
        assert info.currsize <= info.maxsize == 64

    def test_public_reports_are_fresh(self, sanity):
        a, b = check_assumptions(sanity), check_assumptions(sanity)
        assert a == b and a is not b
        assert a.signal_informative.detail is not b.signal_informative.detail

    def test_mutating_a_report_leaves_solve_alone(self):
        bad = Params(p=0.5, phi=0.3, d=0.1, lam=0.5, R=1.0, pi=0.5)

        def refusal():
            with pytest.raises(AssumptionError) as exc:
                solve(bad, "opaque")
            return exc.value.check, str(exc.value)

        first = refusal()  # the refusal table now holds the refusals of ``bad``
        report, untouched = check_assumptions(bad), check_assumptions(bad)
        for name in ASSUMPTION_CHECKS:
            report.check(name).detail.clear()
        assert refusal() == first == ("signal_informative", "assumption failed: signal_informative")
        assert check_assumptions(bad) == untouched != report


def _outcome(call):
    """The equilibrium JSON ``call`` returns, or the class, check and message of its refusal."""
    try:
        return json.dumps(call().to_json())
    except ReformLabError as exc:
        return type(exc), getattr(exc, "check", None), str(exc)


@lru_cache(maxsize=1)
def _gated_points() -> list:
    """Seeded points where the relaxed core gates hold, so each regime's own condition decides."""
    return sample_params(17, 100, "base")


#: domain points, uniform or past the core gates, with eps_tol 0 or log-uniform
GATE_PARAMS = st.builds(
    lambda params, eps: params.replace(eps_tol=eps),
    st.builds(Params, **{k: st.floats(lo, hi) for k, (lo, hi) in DOMAINS.items()})
    | st.integers(0, 99).map(lambda i: _gated_points()[i]),
    st.just(0.0) | st.floats(-15.0, -1.0).map(lambda x: 10.0 ** x),
)


class TestRefusalTable:
    # the one refusal table per point refuses exactly as the gates it replaced
    @given(params=GATE_PARAMS)
    # the separating bar 1.004 exceeds one by less than eps_tol: the regime is built
    @example(params=Params(p=0.9549578421884989, phi=0.07493276627792972, d=0.004984632699809924,
                           lam=0.3785980744241498, R=1.336104295571204, pi=0.6500122015200215,
                           eps_tol=0.01))
    # R mu+ = 0.516 is under the effort root 0.959: opaque is refused as gamble_participation
    @example(params=Params(p=0.75053, phi=0.93618, d=0.24054, lam=0.52291, R=0.52790,
                           pi=0.37552))
    @settings(max_examples=100, deadline=None)
    def test_refuses_as_the_reference(self, params):
        family = transparent_pooling_family(params)
        efforts = [None, 0.4] + ([] if family is None else list(family))
        for rent_mode in ("strict", "relaxed"):
            for check in (True, False):
                for regime in REGIMES:
                    for effort in efforts if regime == "transparent_pooling" else [None]:
                        kw = {"rent_mode": rent_mode, "check": check, "pooling_effort": effort}
                        want = _outcome(lambda: reference_solve(params, regime, **kw))
                        assert _outcome(lambda: solve(params, regime, **kw)) == want, kw
            excluded = optimal_regime(params, rent_mode=rent_mode).excluded
            assert excluded == reference_excluded(params, rent_mode)
        got = json.dumps(check_assumptions(params).to_json())
        assert got == json.dumps(reference_check_assumptions(params).to_json())

    @pytest.mark.parametrize("mode", ["bogus", "Relaxed", "", None])
    def test_bad_rent_mode_is_refused_first(self, mode, sanity):
        # before, a failed gate named itself first and check=False took any string
        message = f"rent_mode must be 'strict' or 'relaxed', got {mode!r}"
        bad = Params(p=0.5, phi=0.3, d=0.1, lam=0.5, R=1.0, pi=0.5)
        for params in (bad, sanity):
            for check in (True, False):
                for regime in REGIMES + ("bogus",):
                    with pytest.raises(DomainError) as exc:
                        solve(params, regime, rent_mode=mode, check=check)
                    assert str(exc.value) == message
                with pytest.raises(DomainError) as exc:
                    optimal_regime(params, rent_mode=mode, strict=check)
                assert str(exc.value) == message

    @pytest.mark.parametrize("effort", [math.nan, math.inf, 5.0, -0.5, 1.5])
    def test_bad_pooled_effort_is_refused_before_any_gate(self, effort, sanity, part3):
        # before, the gates ran first: at sanity, whose pooling family is empty, a gated
        # solve refused such an effort as pooling_family_nonempty, at part3 as infeasible
        message = f"pooled effort must be a real number in [0, 1], got {effort!r}"
        for params in (sanity, part3):
            for check in (True, False):
                with pytest.raises(DomainError) as exc:
                    solve(params, "transparent_pooling", pooling_effort=effort, check=check)
                assert str(exc.value) == message, (params, check)

    @pytest.mark.parametrize("case", ["core", "informativeness", "separation", "no_pool",
                                      "no_pool_gated"])
    def test_every_refusal_is_a_fresh_exception(self, case):
        empty_family = next(p for p in _gated_points() if transparent_pooling_family(p) is None)
        params, regime, kw = {
            "core": (Params(p=0.5, phi=0.3, d=0.1, lam=0.5, R=1.0, pi=0.5), "opaque", {}),
            "informativeness": (Params(p=0.6, phi=0.4, d=0.03, lam=0.5, R=0.9, pi=0.5),
                                "opaque", {}),
            "separation": (Params(p=0.99, phi=0.3, d=0.01, lam=0.2, R=3.0, pi=0.5),
                           "transparent_separating", {}),
            "no_pool": (empty_family, "transparent_pooling", {}),
            "no_pool_gated": (empty_family, "transparent_pooling", {"pooling_effort": 0.4}),
        }[case]

        def refusal():
            with pytest.raises(AssumptionError) as exc:
                solve(params, regime, **kw)
            return exc.value

        first, second = refusal(), refusal()
        assert first is not second
        assert (type(first), first.check, str(first)) == (type(second), second.check, str(second))
        for _ in range(997):
            refusal()
        depth = len(traceback.extract_tb(first.__traceback__))
        assert len(traceback.extract_tb(refusal().__traceback__)) == depth

    def test_equal_params_of_other_field_types_keep_their_own_values(self):
        floats = Params(p=1.0, phi=0.5, d=0.5, lam=1.0, R=1.0, pi=0.5)
        ints = Params(p=1, phi=0.5, d=0.5, lam=1, R=1, pi=0.5)
        assert floats == ints
        dumps = [json.dumps(check_assumptions(params).to_json()) for params in (floats, ints)]
        assert dumps == [json.dumps(reference_check_assumptions(params).to_json())
                         for params in (floats, ints)]
        assert dumps[0] != dumps[1]  # an int R is reported as the int it is


class TestCrossRegimeInvariants:
    def test_retention_matches_beliefs_everywhere(self, sanity, part3):
        regimes = ["nontransparent", "opaque", "transparent_separating"]
        for params in [sanity, part3] + sample_params(31, 50, "acceptance"):
            for regime in regimes:
                eq = solve(params, regime)
                for obs in _observations_for(eq, params):
                    retained = eq.decide(obs)
                    assert retained == (eq.belief(obs) >= params.pi), (
                        regime, obs)
            fam = transparent_pooling_family(params)
            if fam is not None and fam[0] <= 1.0:
                eq = solve(params, "transparent_pooling", pooling_effort=fam[0])
                for obs in _observations_for(eq, params):
                    retained = eq.decide(obs)
                    assert retained == (eq.belief(obs) >= params.pi)

    def test_decide_on_effort_grid_matches_scalar(self, sanity):
        fam = transparent_pooling_family(POOLING_PARAMS)
        eqs = [solve(sanity, r) for r in
               ("benchmark", "nontransparent", "opaque", "transparent_separating")]
        eqs.append(solve(POOLING_PARAMS, "transparent_pooling", pooling_effort=fam[0]))
        for eq in eqs:
            kinks = [act.effort for _, _, act in eq.profile.cells()]
            grid = np.union1d(np.linspace(0.0, 1.0, 2001), kinks)
            for outcome in (SUCCESS, FAILURE):
                scalar = [eq.decide(Observation(REFORM, float(e), outcome)) for e in grid]
                assert all(type(v) is bool for v in scalar)
                if not eq.regime.startswith("transparent"):  # retention ignores effort
                    assert len(set(scalar)) == 1, eq.regime

    def test_decide_on_effort_grid_unresolved(self, sanity):
        # a table covers every effort of each class, and one that lacks a class is refused
        # when it is built, so only an observation that lacks a coordinate the regime sees
        # (here the effort) is unresolved; at effort 0, below e_L's buffer, it is removed
        eq = solve(sanity, "transparent_separating")
        assert 0.0 < eq.profile.congruent_b.effort - sanity.eps_tol
        assert eq.decide(Observation(REFORM, 0.0, FAILURE)) is False
        for table in ("retention", "beliefs"):
            partial = {**getattr(eq, table)}
            del partial[REFORM, FAILURE]
            with pytest.raises(DomainError, match=table):
                dataclasses.replace(eq, **{table: partial})
        with pytest.raises(UnresolvedObservationError):
            eq.decide(Observation(REFORM, None, FAILURE))
        with pytest.raises(UnresolvedObservationError):
            eq.belief(Observation(REFORM, None, FAILURE))

    def test_effort_ordering_opaque_above_flat(self):
        for params in sample_params(37, 200, "acceptance"):
            post = posteriors(params)
            flat = solve(params, "nontransparent")
            opq = solve(params, "opaque")
            for cell in ("congruent_g", "congruent_b"):
                assert getattr(opq.profile, cell).effort > getattr(flat.profile, cell).effort

    def test_efforts_feasible_under_effort_bound(self):
        for params in sample_params(41, 200, "acceptance"):
            for regime in ("benchmark", "nontransparent", "opaque", "transparent_separating"):
                eq = solve(params, regime)
                for _, _, act in eq.profile.cells():
                    assert 0.0 <= act.effort <= 1.0

    def test_json_shape(self, sanity):
        eq = solve(sanity, "opaque")
        blob = eq.to_json()
        assert blob["regime"] == "opaque"
        assert len(blob["profile"]) == 4
        assert {r["decision"] for r in blob["retention"]} == {"retain", "remove"}
        assert all("p_congruent" in b for b in blob["beliefs"])

    def test_json_states_the_eps_buffer(self, sanity):
        # two equilibria solved at two eps_tol retain differently, so they print apart: the
        # buffer is baked into the piece starts, which the JSON states past the leading -inf
        eq = solve(sanity, "transparent_separating")
        wide = solve(sanity.replace(eps_tol=1e-3), "transparent_separating")
        assert eq.profile == wide.profile
        assert eq.retention_pieces() != wide.retention_pieces()
        assert json.dumps(eq.to_json()) != json.dumps(wide.to_json())
        assert list(eq.to_json()) == ["regime", "profile", "retention", "beliefs",
                                      "pooling_effort"]
        for solved in (eq, wide):
            blob = solved.to_json()
            for name in ("retention", "beliefs"):
                for (policy, outcome), (starts, _) in getattr(solved, name).items():
                    stated = [piece.get("effort_from", -math.inf) for piece in blob[name]
                              if (piece["policy"], piece["outcome"]) == (policy, outcome)]
                    assert stated == list(starts), (name, policy, outcome)
        # the first start past -inf is fl(e_L - eps), e_L at most e_H
        assert wide.retention[REFORM, SUCCESS][0][1] == eq.profile.congruent_b.effort - 1e-3


class TestActionValidation:
    def test_status_quo_with_effort_rejected(self):
        with pytest.raises(DomainError):
            AgentAction(STATUS_QUO, 0.3)

    def test_effort_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            AgentAction(REFORM, 1.2)

    # an array of efforts once slipped past Observation, which opaque then decided as one
    # scalar; AgentAction met it with numpy's ambiguous-truth ValueError
    @pytest.mark.parametrize("effort", [np.array([0.2, 0.5]), np.array(0.5), 1.5, -0.1,
                                        math.nan, "0.5"], ids=repr)
    @pytest.mark.parametrize("make", [lambda e: AgentAction(REFORM, e),
                                      lambda e: Observation(REFORM, e, SUCCESS)],
                             ids=["action", "observation"])
    def test_effort_not_a_real_in_unit_interval_refused(self, make, effort):
        with pytest.raises(DomainError, match="effort must be a real number in"):
            make(effort)

    # a bool is a numbers.Real: once accepted, it was written to JSON as true or false
    @pytest.mark.parametrize("effort", [True, False])
    def test_boolean_effort_refused(self, sanity, effort):
        for make in (lambda: AgentAction(REFORM, effort),
                     lambda: Observation(REFORM, effort, SUCCESS),
                     lambda: solve(sanity, "transparent_pooling", pooling_effort=effort,
                                   check=False)):
            with pytest.raises(DomainError, match="effort must be a real number in"):
                make()

    def test_only_an_observation_leaves_effort_unset(self):
        assert Observation(REFORM, None, SUCCESS).effort is None
        with pytest.raises(DomainError):
            AgentAction(REFORM, None)
        # numpy scalars and integers are real numbers
        assert AgentAction(REFORM, np.float64(0.5)) == AgentAction(REFORM, 0.5)
        assert Observation(REFORM, 1).effort == 1

    def test_observation_invertibility(self):
        with pytest.raises(DomainError):
            Observation(REFORM, outcome=SQ_OUTCOME)
        with pytest.raises(DomainError):
            Observation(STATUS_QUO, outcome=SUCCESS)


def _paper_profile(regime, params, post):
    """Each regime's (policy, effort) per (type, signal) cell, keyed by name."""
    lam, R, bar = params.lam, params.R, separation_effort(params)
    mu = {"g": post.mu_plus, "b": post.mu_minus}
    sq = (STATUS_QUO, 0.0)
    cell = {
        "benchmark": lambda t, s: (REFORM, lam * mu[s]) if (t, s) == ("congruent", "g") else sq,
        "nontransparent": lambda t, s: (REFORM, lam * mu[s] if t == "congruent" else 0.0),
        "opaque": lambda t, s: (
            (REFORM, lam * (1 + R) * mu[s]) if t == "congruent"
            else (REFORM, lam * R * mu[s]) if s == "g" else sq),
        "transparent_separating": lambda t, s: (
            (REFORM, max(bar, lam * mu[s])) if t == "congruent" else sq),
    }[regime]
    return {(t, s): cell(t, s) for t in ("congruent", "noncongruent") for s in ("g", "b")}


class TestCellOrder:
    """Every hand-written sequence of (type, signal) cells follows ``CELLS``."""

    POINTS = sample_params(43, 20, "acceptance")

    def test_strategy_profile_fields(self):
        names = [f.name for f in dataclasses.fields(StrategyProfile)]
        assert names == [f"{t}_{s}" for t, s in CELLS]

    def test_strategy_profile_actions(self, sanity):
        profile = solve(sanity, "opaque").profile
        assert profile.actions() == tuple(profile.action(t, s) for t, s in CELLS)
        assert [(t, s) for t, s, _ in profile.cells()] == list(CELLS)

    @pytest.mark.parametrize("regime", ["benchmark", "nontransparent", "opaque",
                                        "transparent_separating"])
    def test_raw_profile(self, regime):
        for params in self.POINTS:
            post = posteriors(params)
            got = dict(zip(CELLS, raw_profile(regime, params, post)))
            assert got == _paper_profile(regime, params, post)

    def test_joint_outcome_distribution(self, sanity):
        profile = solve(sanity, "nontransparent").profile  # every cell reforms
        order = [(t, s) for t, s, *_ in joint_outcome_distribution(profile, sanity)]
        assert list(dict.fromkeys(order)) == list(CELLS)

    @pytest.mark.parametrize("regime", WELFARE_REGIMES)
    def test_formula_welfare(self, regime):
        status_quo = StrategyProfile(*[AgentAction(STATUS_QUO)] * len(CELLS))
        for params in self.POINTS:
            post = posteriors(params)
            mass = defaultdict(float)
            for t, s, _, _, m in joint_outcome_distribution(status_quo, params):
                mass[(t, s)] += m
            want = sum(
                mass[(t, s)] * (effort * post.mu(s) if policy == REFORM else params.d)
                for (t, s), (policy, effort) in _paper_profile(regime, params, post).items()
            )
            assert formula_welfare(params, regime) == pytest.approx(want, rel=1e-12)
