"""Tests for parameters, posteriors, and assumption checks."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reformlab import (
    DomainError,
    Params,
    check_assumptions,
    find_p_bar,
    informativeness_condition,
    model_core,
    posteriors,
)
from support import sample_mon_pairs, sample_params

# frozen regression values at the sanity-check parameters
MU_PLUS = 0.9966442953020135
MU_MINUS = 0.029411764705882377
ROOT = 0.22360679774997896
INFO_LHS = -0.16498881431767337
INFO_RHS = -0.009915329768270954


class TestParams:
    def test_roundtrip(self, sanity):
        assert Params.from_json(sanity.to_json()) == sanity

    def test_defaults(self):
        p = Params.from_json({"p": 0.9, "phi": 0.5, "d": 0.1, "lambda": 0.5, "R": 1.0, "pi": 0.5})
        assert p.M == 0.0 and p.eps_tol == 1e-12

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError, match="unknown"):
            Params.from_json({"p": 0.9, "phi": 0.5, "d": 0.1, "lambda": 0.5,
                              "R": 1.0, "pi": 0.5, "mu": 3})

    def test_missing_key_rejected(self):
        with pytest.raises(DomainError, match="missing"):
            Params.from_json({"p": 0.9, "phi": 0.5})

    @pytest.mark.parametrize("bad", [
        {"p": 0.4}, {"p": 1.1}, {"phi": 0.0}, {"phi": 1.0}, {"d": 0.0}, {"d": 1.0},
        {"lam": 0.0}, {"lam": 1.5}, {"R": 0.0}, {"R": -1.0}, {"pi": 0.0}, {"pi": 1.0},
        {"M": -0.1}, {"R": float("inf")}, {"M": float("inf")},
        {"eps_tol": float("inf")}, {"p": float("nan")}, {"R": float("nan")},
    ])
    def test_domain_violations(self, sanity, bad):
        with pytest.raises(DomainError):
            sanity.replace(**bad)

    @pytest.mark.parametrize("key, value", [
        ("p", "0.9"), ("M", False), ("pi", True), ("R", None), ("d", [0.1]), ("eps_tol", 10**400),
        ("lambda", math.inf),
    ])
    def test_non_numbers_rejected_by_name(self, sanity, key, value):
        with pytest.raises(DomainError, match=f"params '{key}' must be a finite number"):
            Params.from_json({**sanity.to_json(), key: value})

    def test_json_integers_accepted(self, sanity):
        params = Params.from_json({**sanity.to_json(), "M": 0, "p": 1})
        assert (params.M, params.p) == (0.0, 1.0) and type(params.M) is type(params.p) is float

    def test_replace_unknown_key_rejected(self, sanity):
        with pytest.raises(TypeError):
            sanity.replace(mu=0.5)

    @given(st.floats(0.5, 1.0), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_json_roundtrip_hypothesis(self, p, phi):
        params = Params(p=p, phi=phi, d=0.1, lam=0.5, R=1.0, pi=0.5)
        again = Params.from_json(json.loads(json.dumps(params.to_json())))
        assert again == params


class TestPosteriorsMemo:
    """``posteriors`` is memoized on (p, phi), as ``equilibrium._report`` is on ``Params``."""

    def test_cache_stays_bounded_and_exact(self):
        rng = np.random.default_rng(11)
        before = model_core._posteriors.cache_info()
        for p, phi in zip(rng.uniform(0.5, 1.0, 10_000), rng.uniform(0.005, 0.995, 10_000)):
            p, phi = float(p), float(phi)
            post = posteriors(Params(p=p, phi=phi, d=0.1, lam=0.5, R=1.0, pi=0.5))
            assert (post.mu_plus, post.mu_minus, post.gamma, post.z) == (
                phi * p / (phi * p + (1 - phi) * (1 - p)),
                phi * (1 - p) / (phi * (1 - p) + (1 - phi) * p),
                (1 - p) / p,
                (1 - phi) / phi,
            )
        info = model_core._posteriors.cache_info()
        assert info.misses - before.misses == 10_000
        assert info.currsize <= info.maxsize == 64

    def test_shared_by_params_that_differ_elsewhere(self, sanity):
        post = posteriors(sanity)
        for change in ({"R": 2.0}, {"lam": 0.3}, {"d": 0.2}, {"pi": 0.3}, {"M": 1.5},
                       {"eps_tol": 0.0}):
            assert posteriors(sanity.replace(**change)) is post, change
        assert posteriors(sanity.replace(p=0.98)) is not post


class TestPosteriors:
    def test_sanity_values(self, sanity):
        post = posteriors(sanity)
        assert post.mu_plus == pytest.approx(MU_PLUS, abs=1e-15)
        assert post.mu_minus == pytest.approx(MU_MINUS, abs=1e-15)
        # coarse check against the reported two-decimal approximations
        assert post.mu_plus == pytest.approx(0.9966, abs=5e-4)
        assert post.mu_minus == pytest.approx(0.0294, abs=5e-4)

    def test_uninformative_signal_collapses_to_prior(self):
        post = posteriors(Params(p=0.5, phi=0.3, d=0.1, lam=0.5, R=1.0, pi=0.5))
        assert post.mu_plus == pytest.approx(0.3, abs=1e-15)
        assert post.mu_minus == pytest.approx(0.3, abs=1e-15)

    def test_matched_high_accuracy_gives_half_on_bad_signal(self):
        eps = 1e-3
        post = posteriors(Params(p=1 - eps, phi=1 - eps, d=0.1, lam=0.5, R=1.0, pi=0.5))
        assert post.mu_minus == 0.5
        assert post.mu_plus > 1 - 1e-5

    def test_ordering_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            p, phi = rng.uniform(0.5, 1.0), rng.uniform(0.01, 0.99)
            params = Params(p=p, phi=phi, d=0.1, lam=0.5, R=1.0, pi=0.5)
            post = posteriors(params)
            assert 0.0 <= post.mu_minus <= phi + 1e-15
            assert phi - 1e-15 <= post.mu_plus <= 1.0
            if p > 0.5:
                assert post.mu_minus < phi < post.mu_plus

    def test_mu_plus_increasing_in_p_and_phi(self):
        # finite-difference monotonicity over a grid
        h = 1e-6
        for p in np.linspace(0.55, 0.99, 12):
            for phi in np.linspace(0.05, 0.95, 12):
                base = Params(p=p, phi=phi, d=0.1, lam=0.5, R=1.0, pi=0.5)
                up_p = posteriors(base.replace(p=p + h)).mu_plus
                up_phi = posteriors(base.replace(phi=phi + h)).mu_plus
                here = posteriors(base).mu_plus
                assert up_p > here
                assert up_phi > here

    @given(st.floats(0.5, 0.999999), st.floats(0.01, 0.99))
    @settings(max_examples=500, deadline=None)
    def test_odds_reparameterization(self, p, phi):
        post = posteriors(Params(p=p, phi=phi, d=0.1, lam=0.5, R=1.0, pi=0.5))
        g, z = post.gamma, post.z
        assert post.mu_plus == pytest.approx(1.0 / (1.0 + g * z), abs=1e-12)
        assert post.mu_minus == pytest.approx(g / (g + z), abs=1e-12)


class TestAssumptionChecks:
    def test_sanity_report(self, sanity):
        rep = check_assumptions(sanity)
        assert rep.signal_informative.passed
        d = rep.signal_informative.detail
        assert d["mu_plus_minus_root"] == pytest.approx(MU_PLUS - ROOT, abs=1e-12)
        assert d["root_minus_mu_minus"] == pytest.approx(ROOT - MU_MINUS, abs=1e-12)
        assert rep.effort_bound.passed
        assert rep.effort_bound.detail["lambda_times_one_plus_R"] == pytest.approx(0.625)
        assert rep.moderate_rent_relaxed.passed
        assert not rep.moderate_rent_strict.passed  # (1+R)mu- ~ 0.037 < 0.2236
        assert rep.moderate_rent_strict.detail["lower_bound"] == pytest.approx(0.0368, abs=5e-4)
        assert rep.moderate_rent_relaxed.detail["lower_bound"] == pytest.approx(0.2492, abs=5e-4)
        assert rep.informativeness.passed
        assert rep.rent_exceeds_2d.passed

    def test_uninformative_signal_fails(self):
        rep = check_assumptions(Params(p=0.5, phi=0.3, d=0.1, lam=0.5, R=1.0, pi=0.5))
        assert not rep.signal_informative.passed

    def test_effort_bound_fails(self):
        rep = check_assumptions(Params(p=0.9, phi=0.5, d=0.1, lam=0.9, R=0.5, pi=0.5))
        assert not rep.effort_bound.passed
        assert rep.effort_bound.detail["lambda_times_one_plus_R"] == pytest.approx(1.35)

    def test_no_short_circuit(self):
        # even with several failures every check is still evaluated
        rep = check_assumptions(Params(p=0.5, phi=0.9, d=0.9, lam=0.9, R=0.05, pi=0.5))
        for name in ("signal_informative", "moderate_rent_strict", "moderate_rent_relaxed",
                     "effort_bound", "informativeness", "rent_exceeds_2d"):
            assert rep.check(name).detail  # populated, not skipped

    @pytest.mark.parametrize("name", ["bogus", "rent", "to_json"])
    def test_check_takes_only_check_names(self, sanity, name):
        # the report's methods are attributes too, but not checks
        with pytest.raises(DomainError, match="unknown assumption check"):
            check_assumptions(sanity).check(name)

    def test_strict_implies_relaxed(self):
        for params in sample_params(101, 300, "base"):
            rep = check_assumptions(params)
            if rep.moderate_rent_strict.passed:
                assert rep.moderate_rent_relaxed.passed

    def test_rent_lower_bound_property(self):
        # strict rent + effort bound + informative signal force R > 2d
        for params in sample_params(7, 2000, "rent_strict_set"):
            assert params.R > 2 * params.d

    def test_json_shape(self, sanity):
        blob = check_assumptions(sanity).to_json()
        assert set(blob) == {
            "signal_informative", "moderate_rent_strict", "moderate_rent_relaxed",
            "effort_bound", "informativeness", "rent_exceeds_2d",
        }
        assert blob["informativeness"]["detail"]["lhs"] == pytest.approx(INFO_LHS)


class TestInformativeness:
    def test_sanity_values(self, sanity):
        holds, lhs, rhs = informativeness_condition(sanity)
        assert holds
        assert lhs == pytest.approx(INFO_LHS, abs=1e-12)
        assert rhs == pytest.approx(INFO_RHS, abs=1e-12)

    def test_high_accuracy_sufficiency(self):
        # z < lambda guarantees the condition for accuracies above p_bar
        params = Params(p=0.9, phi=0.75, d=0.0125, lam=0.5, R=0.25, pi=0.9)
        p_bar = find_p_bar(params)
        assert p_bar is not None
        for p in np.linspace(p_bar, 1.0, 50):
            assert informativeness_condition(params.replace(p=min(p, 1.0)))[0]

    def test_monotone_preservation(self):
        for v, v2 in sample_mon_pairs(11, 2000):
            assert informativeness_condition(v)[0]
            assert informativeness_condition(v2)[0], (v, v2)


class TestFindPBar:
    def test_exists_for_sanity_phi(self, sanity):
        # z = 1/3 < lambda = 1/2, so a threshold accuracy exists
        p_bar = find_p_bar(sanity)
        assert p_bar is not None
        assert 0.5 < p_bar <= 0.99

    def test_matches_independent_scan(self, sanity):
        p_bar = find_p_bar(sanity)
        ps = np.linspace(0.500001, 1.0, 400_001)
        flags = np.array([informativeness_condition(sanity.replace(p=x))[0] for x in ps])
        failures = np.nonzero(~flags)[0]
        scan_bar = ps[failures[-1] + 1] if len(failures) else ps[0]
        assert abs(p_bar - scan_bar) < 2e-5  # scan resolution dominates

    def test_endpoints_hold(self, sanity):
        p_bar = find_p_bar(sanity)
        assert informativeness_condition(sanity.replace(p=p_bar))[0]
        assert informativeness_condition(sanity.replace(p=1.0))[0]

    def test_none_when_hypothesis_fails(self):
        # z >= lambda: no guarantee
        params = Params(p=0.9, phi=0.5, d=0.01, lam=0.3, R=0.5, pi=0.5)
        assert (1 - params.phi) / params.phi >= params.lam
        assert find_p_bar(params) is None


# find_p_bar and informativeness_condition values captured from the scalar
# implementation (one Params per probed accuracy) before the scans became
# arrays: the fixtures, 100 seeded uniform points over the test domains for
# each path (None when z >= lambda, the whole-interval 0.5 + tol return, scan
# plus bisection), and one point with a failure window narrower than the
# 4 097-point grid just above a re-check point, which reaches the 65 537-point
# re-scan, all at the default tol. Values must match exactly.
P_BAR_GOLDEN = json.loads(Path(__file__).with_name("p_bar_golden.json").read_text())


class TestPBarGolden:
    @pytest.mark.parametrize("name", sorted(P_BAR_GOLDEN["fixtures"]))
    def test_fixtures(self, name, request):
        params, golden = request.getfixturevalue(name), P_BAR_GOLDEN["fixtures"][name]
        assert find_p_bar(params) == golden["p_bar"]
        holds, lhs, rhs = informativeness_condition(params)
        assert (type(holds), type(lhs), type(rhs)) == (bool, float, float)
        assert [holds, lhs, rhs] == golden["informativeness"]

    @pytest.mark.parametrize("path", sorted(P_BAR_GOLDEN["points"]))
    def test_points(self, path):
        cases = P_BAR_GOLDEN["points"][path]
        got = [find_p_bar(Params.from_json(c["params"])) for c in cases]
        assert got == [c["p_bar"] for c in cases]


class TestFindPBarTol:
    # from 1/2 up, the whole-interval return 1/2 + tol is no accuracy
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, 0.5, 0.6, 1.0])
    def test_invalid_tol_rejected(self, sanity, tol):
        with pytest.raises(DomainError, match="tol"):
            find_p_bar(sanity, tol=tol)

    @pytest.mark.parametrize("tol", [1e-17, 1e-300])
    def test_below_one_ulp_stops_where_condition_holds(self, sanity, tol):
        p_bar = find_p_bar(sanity, tol=tol)
        assert informativeness_condition(sanity.replace(p=p_bar))[0]
        assert not informativeness_condition(sanity.replace(p=math.nextafter(p_bar, 0)))[0]
