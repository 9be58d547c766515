"""Tests for the regime equilibrium constructors."""

import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest

from reformlab import (
    AgentAction,
    AssumptionError,
    DomainError,
    InformativenessError,
    UnresolvedObservationError,
    Observation,
    Params,
    check_assumptions,
    interior_effort,
    posteriors,
    separation_effort,
    solve,
    transparent_pooling_family,
)
from reformlab import equilibrium
from reformlab.equilibrium import (
    CELLS, REFORM, STATUS_QUO, SUCCESS, FAILURE, SQ_OUTCOME, StrategyProfile, raw_profile,
)
from reformlab.model_core import ASSUMPTION_CHECKS
from reformlab.verification import joint_outcome_distribution
from reformlab.welfare import WELFARE_REGIMES, formula_welfare
from support import grid_argmax_effort, sample_params

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
        assert eq.retention == () and eq.beliefs == ()

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
    @pytest.mark.parametrize("regime", ["benchmark", "nontransparent", "opaque",
                                        "transparent_separating"])
    def test_effort_for_another_regime_refused(self, regime, check):
        with pytest.raises(DomainError, match="only to transparent_pooling"):
            solve(POOLING_PARAMS, regime, check=check, pooling_effort=0.4)


class TestGateMemo:
    def test_cache_stays_bounded(self, sanity):
        before = equilibrium._report.cache_info()
        for k in range(10_000):
            try:
                solve(sanity.replace(R=0.5 + k * 1e-6), "benchmark")
            except AssumptionError:
                pass
        info = equilibrium._report.cache_info()
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

        first = refusal()  # the memo now holds the report of ``bad``
        report = check_assumptions(bad)
        for name in ASSUMPTION_CHECKS:
            report.check(name).detail.clear()
        assert refusal() == first == ("signal_informative", "assumption failed: signal_informative")
        assert equilibrium._report(bad) == check_assumptions(bad) != report


class TestCrossRegimeInvariants:
    def test_retention_matches_beliefs_everywhere(self, sanity, part3):
        regimes = ["nontransparent", "opaque", "transparent_separating"]
        for params in [sanity, part3] + sample_params(31, 50, "acceptance"):
            for regime in regimes:
                eq = solve(params, regime)
                for obs in _observations_for(eq, params):
                    retained = eq.decide(obs, params.eps_tol)
                    assert retained == (eq.belief(obs, params.eps_tol) >= params.pi), (
                        regime, obs)
            fam = transparent_pooling_family(params)
            if fam is not None and fam[0] <= 1.0:
                eq = solve(params, "transparent_pooling", pooling_effort=fam[0])
                for obs in _observations_for(eq, params):
                    retained = eq.decide(obs, params.eps_tol)
                    assert retained == (eq.belief(obs, params.eps_tol) >= params.pi)

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
        eq = solve(sanity, "transparent_separating")
        partial = dataclasses.replace(eq, retention=eq.retention[:4])
        assert 0.0 < eq.profile.congruent_b.effort  # so effort 0 meets none of the four
        with pytest.raises(UnresolvedObservationError):
            partial.decide(Observation(REFORM, 0.0, FAILURE))

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
