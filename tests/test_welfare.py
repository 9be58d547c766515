"""Tests for welfare computation, regime comparison, and thresholds."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reformlab import (
    AssumptionError,
    DomainError,
    Params,
    PreconditionLossError,
    SimConfig,
    comparative_statics,
    formula_welfare,
    optimal_regime,
    posteriors,
    regime_welfare,
    separation_effort,
    simulate,
    solve,
    thresholds,
    thresholds_from_lambda_hat,
    transparent_pooling_family,
    UnderflowError,
    UnresolvedObservationError,
)
from reformlab.equilibrium import (
    FAILURE, OPAQUE, REFORM, SQ_OUTCOME, STATUS_QUO, SUCCESS, AgentAction, Equilibrium,
    StrategyProfile,
)
from reformlab.verification import joint_outcome_distribution
from reformlab.welfare import H, WELFARE_REGIMES, _welfare_and_selection
from support import DOMAINS, bisect_root, per_mass_welfare_and_selection, sample_params

W_NT_FULL_CONGRUENT = 0.37011448874851954  # sanity params, pi -> 1
W_OPAQUE_SANITY = 0.4259476547078562
R_LOW_03_005 = 0.30574582323392685
R_HIGH_03_005 = 4.36092084343274

# baseline for the lower-cost/better-signal comparative statics:
# 2(R-d) = 0.42 < lambda = 0.5, accuracy near one, all gates interior
PART2_PARAMS = Params(p=0.999, phi=0.75, d=0.01, lam=0.5, R=0.22, pi=0.9)


class TestRegimeWelfare:
    def test_near_zero_congruence_nontransparent(self, sanity):
        params = sanity.replace(pi=1e-9)
        entry = regime_welfare(params, "nontransparent", solve(params, "nontransparent"))
        assert entry.W == pytest.approx(0.0, abs=1e-8)

    def test_near_zero_congruence_benchmark(self, sanity):
        params = sanity.replace(pi=1e-9)
        entry = regime_welfare(params, "benchmark", solve(params, "benchmark"))
        assert entry.W == pytest.approx(params.d, abs=1e-8)

    def test_full_congruence_nontransparent(self, sanity):
        params = sanity.replace(pi=1 - 1e-12)
        entry = regime_welfare(params, "nontransparent", solve(params, "nontransparent"))
        assert entry.W == pytest.approx(W_NT_FULL_CONGRUENT, abs=1e-9)
        assert entry.W == pytest.approx(0.3700, abs=2e-4)

    def test_opaque_sanity_value(self, sanity):
        entry = regime_welfare(sanity, "opaque", solve(sanity, "opaque"))
        assert entry.W == pytest.approx(W_OPAQUE_SANITY, abs=1e-12)

    def test_regime_mismatch_rejected(self, sanity):
        with pytest.raises(DomainError, match="match"):
            regime_welfare(sanity, "opaque", solve(sanity, "nontransparent"))

    def test_bounds_and_mc_agreement(self, sanity):
        for regime in WELFARE_REGIMES:
            eq = solve(sanity, regime)
            entry = regime_welfare(sanity, regime, eq)
            assert 0.0 <= entry.W <= 1.0
            assert 0.0 <= entry.Q <= 1.0
            stats = simulate(
                SimConfig(n_draws=1_000_000, seed=97, regime=regime, params=sanity), eq)
            assert abs(stats.mean_payoff - entry.W) <= 3 * stats.payoff_se, regime

    def test_selection_term_ordering(self, sanity):
        # perfect screening in the separating regime beats noisy opaque
        # screening beats the uninformative nontransparent pool
        q = {r: regime_welfare(sanity, r, solve(sanity, r)).Q for r in WELFARE_REGIMES}
        assert q["transparent_separating"] > q["opaque"] > q["nontransparent"]
        assert q["nontransparent"] == pytest.approx(sanity.pi, abs=1e-12)

    def test_selection_weight_enters_total(self, sanity):
        weighted = sanity.replace(M=0.5)
        entry = regime_welfare(weighted, "opaque", solve(weighted, "opaque"))
        assert entry.total == pytest.approx(entry.W + 0.5 * entry.Q, abs=1e-15)


class TestOptimalRegime:
    def test_sanity_table(self, sanity):
        report = optimal_regime(sanity)
        assert set(report.entries) == set(WELFARE_REGIMES)
        assert report.optimal == "opaque"
        assert report.margin == pytest.approx(0.4259476547078562 - 0.33754337600416416, abs=1e-6)

    def test_nontransparent_never_optimal(self):
        for params in sample_params(71, 100, "acceptance"):
            report = optimal_regime(params)
            if set(report.entries) == set(WELFARE_REGIMES):
                assert report.optimal != "nontransparent"

    def test_exclusion_notes_failed_check(self):
        bad = Params(p=0.6, phi=0.4, d=0.03, lam=0.5, R=0.9, pi=0.5)
        report = optimal_regime(bad)
        assert "opaque" not in report.entries
        assert report.excluded["opaque"] == "informativeness"
        assert "nontransparent" in report.entries

    def test_part3_strict_prefers_transparency(self, part3):
        report = optimal_regime(part3)
        assert report.optimal == "transparent_separating"

    def test_formula_mode_switches_at_thresholds(self, part3):
        th = thresholds(part3)
        delta = 0.05
        below = optimal_regime(part3.replace(R=th.R_low - delta), strict=False)
        inside = optimal_regime(part3.replace(R=th.R_low + delta), strict=False)
        high_in = optimal_regime(part3.replace(R=th.R_high - delta), strict=False)
        above = optimal_regime(part3.replace(R=th.R_high + delta), strict=False)
        assert below.optimal == "opaque"
        assert inside.optimal == "transparent_separating"
        assert high_in.optimal == "transparent_separating"
        assert above.optimal == "opaque"


class TestFormulaWelfare:
    def test_matches_equilibrium_welfare_inside_assumption_region(self):
        # with every gate passing the clamps never bind, so both surfaces agree
        for params in sample_params(73, 100, "acceptance"):
            for regime in WELFARE_REGIMES:
                eq = solve(params, regime)
                w_eq = regime_welfare(params, regime, eq).W
                assert formula_welfare(params, regime) == pytest.approx(w_eq, abs=1e-12)

    def test_nontransparent_weakly_dominated(self):
        for params in sample_params(79, 200, "base"):
            w_nt = formula_welfare(params, "nontransparent")
            assert w_nt <= formula_welfare(params, "opaque") + 1e-12
            assert w_nt <= formula_welfare(params, "transparent_separating") + 1e-12

    def test_limit_effort_comparison_matches_H_sign(self):
        # in the high-congruence, high-accuracy limit the regime ranking
        # reduces to comparing the good-signal efforts, i.e. the sign of H
        eps = 1e-6
        base = Params(p=1 - eps, phi=1 - eps, d=0.05, lam=0.3, R=1.0, pi=1 - eps)
        for lam in (0.1, 0.2, 0.3, 0.4):
            for d in (0.02, 0.05, 0.1):
                params0 = base.replace(lam=lam, d=d)
                lam_hat = lam * posteriors(params0).mu_plus ** 2
                th = thresholds_from_lambda_hat(lam_hat, d)
                if not th.exists:
                    continue
                for R in np.geomspace(0.05, 8.0, 40):
                    h = H(R, lam_hat, d)
                    if abs(h) < 1e-4:
                        continue
                    params = params0.replace(R=float(R))
                    post = posteriors(params)
                    e_op = lam * (1 + R) * post.mu_plus
                    e_tr = max(separation_effort(params), lam * post.mu_plus)
                    assert (e_op >= e_tr) == (h >= 0)
                    w_op = formula_welfare(params, "opaque")
                    w_tr = formula_welfare(params, "transparent_separating")
                    assert (w_op >= w_tr) == (h >= 0), (lam, d, R, h)

    def test_opaque_welfare_increasing_in_phi(self):
        h = 1e-5
        for params in sample_params(83, 1000, "base"):
            if not 2 * h < params.phi < 1 - 2 * h:
                continue
            up = formula_welfare(params.replace(phi=params.phi + h), "opaque")
            down = formula_welfare(params.replace(phi=params.phi - h), "opaque")
            assert (up - down) / (2 * h) > 0.0


class TestThresholds:
    def test_frozen_values(self):
        th = thresholds_from_lambda_hat(0.3, 0.05)
        assert th.exists
        assert th.R_low == pytest.approx(R_LOW_03_005, abs=1e-12)
        assert th.R_high == pytest.approx(R_HIGH_03_005, abs=1e-12)
        assert th.R_low == pytest.approx(0.3057, abs=1e-3)
        assert th.R_high == pytest.approx(4.3609, abs=1e-3)

    def test_agrees_with_bisection_oracle(self):
        for lam_hat in (0.1, 0.25, 0.4):
            for d in (0.02, 0.1):
                th = thresholds_from_lambda_hat(lam_hat, d)
                if not th.exists:
                    continue
                vertex = (1 - lam_hat) / lam_hat
                r_low = bisect_root(lambda r: H(r, lam_hat, d), 0.0, vertex)
                r_high = bisect_root(lambda r: -H(r, lam_hat, d), vertex, 10 * vertex + 10)
                assert th.R_low == pytest.approx(r_low, abs=1e-9)
                assert th.R_high == pytest.approx(r_high, abs=1e-9)

    # Two regions are left out because the roots themselves are not resolved
    # to 1e-9 there. For small lambda_hat, R_high ~ 2/lambda_hat is so large
    # that a few units of float spacing approach 1e-9 (the bound fails below
    # lambda_hat ~ 5e-7), and the closed-form R_low loses digits to
    # cancellation in 1 - lambda_hat - s. Near the double root (disc -> 0) any
    # method amplifies rounding by 1/sqrt(disc).
    @given(st.floats(1e-5, 0.5), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_bisection(self, lam_hat, d):
        th = thresholds_from_lambda_hat(lam_hat, d)
        assume(th.exists and 1.0 - 2.0 * (1.0 + d) * lam_hat > 1e-6)
        vertex = (1.0 - lam_hat) / lam_hat
        hi = max(2.0 * vertex + 1.0, 2.0)
        while H(hi, lam_hat, d) <= 0:
            hi *= 2.0
        assert abs(bisect_root(lambda r: H(r, lam_hat, d), 0.0, vertex) - th.R_low) <= 1e-9
        assert abs(bisect_root(lambda r: -H(r, lam_hat, d), vertex, hi) - th.R_high) <= 1e-9

    def test_no_real_roots(self):
        th = thresholds_from_lambda_hat(0.45, 0.2)  # 2*0.45*1.2 = 1.08 > 1
        assert not th.exists and th.R_low is None and th.R_high is None

    def test_sign_pattern(self):
        th = thresholds_from_lambda_hat(0.3, 0.05)
        assert H(th.R_low - 1e-6, 0.3, 0.05) > 0
        assert H((th.R_low + th.R_high) / 2, 0.3, 0.05) < 0
        assert H(th.R_high + 1e-6, 0.3, 0.05) > 0
        assert 0 < th.R_low <= th.R_high

    def test_monotone_in_lambda_and_d(self):
        grid_l = np.linspace(0.05, 0.45, 12)
        grid_d = np.linspace(0.01, 0.2, 12)
        for i, lh in enumerate(grid_l):
            for j, d in enumerate(grid_d):
                here = thresholds_from_lambda_hat(float(lh), float(d))
                if not here.exists:
                    continue
                for lh2, d2 in ((grid_l[min(i + 1, 11)], d), (lh, grid_d[min(j + 1, 11)])):
                    up = thresholds_from_lambda_hat(float(lh2), float(d2))
                    if not up.exists or (lh2 == lh and d2 == d):
                        continue
                    assert up.R_low >= here.R_low - 1e-12
                    assert up.R_high <= here.R_high + 1e-12

    def test_params_entry_point(self, part3):
        th = thresholds(part3)
        post = posteriors(part3)
        assert th.lambda_hat == pytest.approx(part3.lam * post.mu_plus**2, abs=1e-15)


class TestComparativeStatics:
    def test_better_outlook_keeps_opaque(self, sanity):
        report = comparative_statics(sanity, "phi", 0.01)
        assert report.baseline.optimal == "opaque"
        assert report.persisted
        assert report.welfare_deltas["opaque"] > 0.0

    def test_cheaper_effort_keeps_opaque(self):
        assert 2 * (PART2_PARAMS.R - PART2_PARAMS.d) < PART2_PARAMS.lam
        report = comparative_statics(PART2_PARAMS, "lambda", 0.02)
        assert report.baseline.optimal == "opaque"
        assert report.persisted
        assert report.welfare_deltas["opaque"] > 0.0

    def test_better_signal_keeps_opaque(self):
        report = comparative_statics(PART2_PARAMS, "p", 0.0005)
        assert report.baseline.optimal == "opaque"
        assert report.persisted
        assert report.welfare_deltas["opaque"] > 0.0

    def test_rent_crosses_upper_threshold(self, part3):
        th = thresholds(part3)
        base = part3.replace(R=th.R_high - 0.02)
        report = comparative_statics(base, "R", 0.04, strict=False)
        assert report.baseline.optimal == "transparent_separating"
        assert not report.persisted
        assert report.bumped.optimal == "opaque"

    def test_domain_loss_raises(self, sanity):
        with pytest.raises(PreconditionLossError, match="phi"):
            comparative_statics(sanity, "phi", 0.5)  # phi would reach 1.25

    def test_assumption_loss_raises(self, part3):
        # bumping R past the moderate-rent bound (R mu- above the reform
        # root) knocks out the baseline regimes in strict mode
        with pytest.raises(PreconditionLossError, match="moderate_rent"):
            comparative_statics(part3, "R", 0.2, strict=True)

    def test_unknown_axis_rejected(self, sanity):
        with pytest.raises(DomainError):
            comparative_statics(sanity, "d", 0.01)


#: points the Q-walk property always runs: every gate passing with pooling at
#: both family ends (part3), p = 1 (zero masses, a reform at effort 0), raw
#: efforts above 1 (clamped to 1), and the largest eps_tol
WALK_EXAMPLES = (
    Params(p=0.999, phi=0.999, d=0.05, lam=0.3, R=1.0, pi=0.999),
    Params(p=0.99, phi=0.75, d=0.0125, lam=0.5, R=0.25, pi=0.9, eps_tol=0.0),
    Params(p=1.0, phi=0.75, d=0.0125, lam=0.5, R=0.25, pi=0.9),
    Params(p=0.8, phi=0.6, d=0.3, lam=1.0, R=0.9, pi=0.5, eps_tol=0.1),
)
WALK_PARAMS = st.builds(
    Params, **{k: st.floats(lo, hi) for k, (lo, hi) in DOMAINS.items() if k != "p"},
    p=st.floats(0.5, 1.0) | st.just(1.0),
    eps_tol=st.just(0.0) | st.floats(-15.0, -1.0).map(lambda x: 10.0 ** x),
)


def _walk_equilibria(params):
    """(gated, equilibrium) for every regime at ``params``, gated and ungated,
    pooling at both ends of its family; refusals are skipped."""
    efforts = [(r, None) for r in ("benchmark", "nontransparent", "opaque",
                                   "transparent_separating")]
    efforts += [("transparent_pooling", e) for e in transparent_pooling_family(params) or ()]
    for gated in (True, False):
        for regime, effort in efforts:
            try:
                yield gated, solve(params, regime, check=gated, pooling_effort=effort)
            except (AssumptionError, UnderflowError, DomainError):
                pass  # a gate, the opaque failure-mass underflow, or a pooled effort above 1


def _bits(pair):
    return tuple(x.hex() for x in pair)


@given(params=WALK_PARAMS)
@example(params=WALK_EXAMPLES[0])
@example(params=WALK_EXAMPLES[1])
@example(params=WALK_EXAMPLES[2])
@example(params=WALK_EXAMPLES[3])
@settings(max_examples=200, deadline=None)
def test_q_walk_matches_per_mass_reference(params):
    for _, eq in _walk_equilibria(params):
        want = per_mass_welfare_and_selection(eq, params)
        assert _bits(_welfare_and_selection(eq, params)) == _bits(want), eq.regime


def test_q_walk_examples_reach_the_edges():
    walked = [(params, gated, eq) for params in WALK_EXAMPLES
              for gated, eq in _walk_equilibria(params)]
    efforts = {a.effort for _, _, eq in walked for a in eq.profile.actions() if a.policy == REFORM}
    assert {0.0, 1.0} <= efforts
    assert any(params.p == 1.0 for params, _, _ in walked)
    gated_pools = {eq.pooling_effort for _, gated, eq in walked
                   if gated and eq.pooling_effort is not None}
    assert len(gated_pools) == 2  # both ends of part3's family
    assert {gated for _, gated, _ in walked} == {True, False}


def test_q_walk_reads_each_cell_outcome_once(monkeypatch):
    # one retention read per (cell, outcome) that the enumeration gives a mass
    reads = []
    retains = Equilibrium.retains
    monkeypatch.setattr(Equilibrium, "retains",
                        lambda eq, act, outcome: reads.append(outcome) or retains(eq, act, outcome))
    for params in WALK_EXAMPLES:
        for _, eq in _walk_equilibria(params):
            reads.clear()
            _welfare_and_selection(eq, params)
            cells = {(t, s, outcome)
                     for t, s, _, outcome, _ in joint_outcome_distribution(eq.profile, params)}
            assert len(reads) == len(cells), (params, eq.regime)


class _SuccessUnresolved(Equilibrium):
    """An equilibrium whose retention after a reform success is unresolved: a read of that
    class raises, as a retention list without an entry for it once did."""

    def retains(self, action, outcome):
        if outcome == SUCCESS:
            raise UnresolvedObservationError(f"no retention entry for {action}, {outcome}")
        return super().retains(action, outcome)


def _failure_and_status_quo_only(effort: float) -> Equilibrium:
    """Opaque play with a reform at ``effort`` on (congruent, g), a zero-effort reform on
    (noncongruent, g) and the status quo on b, under retention that resolves only (reform,
    failure) and the status quo: a success it reads is unresolved."""
    sq = AgentAction(STATUS_QUO)
    profile = StrategyProfile(AgentAction(REFORM, effort), sq, AgentAction(REFORM, 0.0), sq)
    blind = (-math.inf,)
    retention = {(REFORM, SUCCESS): (blind, (True,)), (REFORM, FAILURE): (blind, (False,)),
                 (STATUS_QUO, SQ_OUTCOME): (blind, (True,))}
    beliefs = dict.fromkeys(retention, (blind, (0.5,)))
    return _SuccessUnresolved(OPAQUE, profile, retention, beliefs)


@pytest.mark.parametrize("effort", [0.0, 5e-324, 0.3, 1.0])
@pytest.mark.parametrize("p", [0.8, 1.0])
def test_q_walk_raises_where_the_reference_raises(p, effort):
    # a success reads retention wherever the reform's effort is positive, even where its
    # mass underflows to 0 (5e-324); p = 1 leaves the b-signal good state and the
    # g-signal bad state without mass
    params = Params(p=p, phi=0.6, d=0.3, lam=0.5, R=0.9, pi=0.5)
    eq = _failure_and_status_quo_only(effort)
    try:
        want = per_mass_welfare_and_selection(eq, params)
    except UnresolvedObservationError as exc:
        assert effort > 0.0
        with pytest.raises(UnresolvedObservationError, match=re.escape(str(exc))):
            _welfare_and_selection(eq, params)
    else:
        assert effort == 0.0
        assert _bits(_welfare_and_selection(eq, params)) == _bits(want)
