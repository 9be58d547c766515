"""Tests for parameters, posteriors, and assumption checks."""

import dataclasses
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reformlab import (
    DomainError,
    Params,
    check_assumptions,
    find_p_bar,
    fixture_path,
    informativeness_condition,
    model_core,
    posteriors,
)
from support import (
    DOMAINS, informativeness_cubic, reference_params_checks, sample_mon_pairs, sample_params,
    sturm_root_count,
)

#: every domain end and the floats on each side of it (the subnormals +-5e-324 beside 0),
#: -0.0 and NaN
DOMAIN_EDGES = [x for end in (0.0, 0.5, 1.0, math.inf, -math.inf)
                for x in (end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf))
                ] + [-0.0, math.nan]

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
        {"p": True}, {"M": False}, {"R": "1"}, {"pi": None}, {"d": [0.1]}, {"phi": 0.5j},
    ])
    def test_domain_violations(self, sanity, bad):
        with pytest.raises(DomainError):
            sanity.replace(**bad)

    @pytest.mark.parametrize("value", [10**400, -10**400, np.longdouble("1e400")],
                             ids=["int", "negative_int", "longdouble"])
    def test_past_the_largest_float_is_named(self, sanity, value):
        # the message once gave an interval that the value lies in
        with pytest.raises(DomainError, match="^R is past the largest float, got "):
            sanity.replace(R=value)

    def test_ints_and_numpy_scalars_accepted(self, sanity):
        params = sanity.replace(p=1, M=np.float64(0.5), pi=np.float32(0.25), R=np.int64(2))
        assert (params.p, params.M, params.pi, params.R) == (1, 0.5, 0.25, 2)

    @given(key=st.sampled_from(model_core.PARAM_KEYS),
           value=st.sampled_from(DOMAIN_EDGES) | st.floats() | st.integers(-2, 2))
    @example(key="M", value=-0.0)
    @example(key="phi", value=5e-324)
    @settings(max_examples=400, deadline=None)
    def test_table_refuses_as_the_reference(self, sanity, key, value):
        # the one parameter table accepts and refuses each value exactly as the eight
        # checks it replaced, at and around every domain end, NaN and the infinities
        # included, and a refusal names the key and the value
        def refusal(check, params):
            try:
                check(params)
            except DomainError as exc:
                return str(exc)
            return None
        attr = model_core.PARAM_FIELDS[key][0]
        fields = {**vars(sanity), attr: value}
        got = refusal(lambda f: Params(**f), fields)
        want = refusal(reference_params_checks, SimpleNamespace(**fields))
        assert (got is None) == (want is None)
        if got is not None:
            assert got.startswith(f"{key} must be a real number in ")
            assert got.endswith(f", got {value!r}")

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

    @given(base=st.builds(Params, **{k: st.floats(lo, hi) for k, (lo, hi) in DOMAINS.items()}),
           changes=st.dictionaries(
               st.sampled_from([f.name for f in dataclasses.fields(Params)] + ["lambda", "mu"]),
               st.floats(-1.0, 4.0) | st.sampled_from([math.inf, math.nan]), max_size=3))
    @example(base=Params(p=0.9, phi=0.5, d=0.1, lam=0.5, R=1.0, pi=0.5), changes={"mu": 0.5})
    @example(base=Params(p=0.9, phi=0.5, d=0.1, lam=0.5, R=1.0, pi=0.5), changes={"lam": 1.5})
    @settings(max_examples=300, deadline=None)
    def test_replace_matches_dataclasses_replace(self, base, changes):
        # the same Params field for field, or the same exception type and message
        def outcome(replace):
            try:
                return replace(base, **changes)
            except Exception as exc:
                return type(exc), str(exc)
        got, want = outcome(Params.replace), outcome(dataclasses.replace)
        if isinstance(want, Params):
            assert type(got) is Params
            assert [(k, type(v), v) for k, v in vars(got).items()] == [
                (k, type(v), v) for k, v in vars(want).items()]
        else:
            assert got == want

    @given(st.floats(0.5, 1.0), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_json_roundtrip_hypothesis(self, p, phi):
        params = Params(p=p, phi=phi, d=0.1, lam=0.5, R=1.0, pi=0.5)
        again = Params.from_json(json.loads(json.dumps(params.to_json())))
        assert again == params


class TestPosteriorsMemo:
    """``posteriors`` is memoized on (p, phi), as ``equilibrium.gate_refusals`` is on ``Params``."""

    def test_cache_stays_bounded_and_exact(self):
        rng = np.random.default_rng(11)
        before = model_core._posteriors.cache_info()
        for p, phi in zip(rng.uniform(0.5, 1.0, 10_000), rng.uniform(0.005, 0.995, 10_000)):
            p, phi = float(p), float(phi)
            post = posteriors(Params(p=p, phi=phi, d=0.1, lam=0.5, R=1.0, pi=0.5))
            assert (post.mu_plus, post.mu_minus) == (
                phi * p / (phi * p + (1 - phi) * (1 - p)),
                phi * (1 - p) / (phi * (1 - p) + (1 - phi) * p),
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
        g, z = (1 - p) / p, (1 - phi) / phi
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


# find_p_bar and informativeness_condition values at the fixtures and at seeded points, by
# path: 100 uniform points over the test domains where z >= lambda (None), 100 where the
# condition holds on all of (1/2, 1] (the 0.5 + P_BAR_TOL return) and 100 where it fails
# below some accuracy; "rescan" is a point whose failure window is narrower than a 4 097-point
# grid, and "window" holds points with failure windows of 7.9e-6, 6.3e-7 and 3.1e-7 in p (the
# narrowest tested), which no grid search found. The points were drawn for a sampled search;
# ``python tests/test_model_core.py`` recomputes every value at the file's own points, so a
# re-capture changes values only. Values must match exactly.
P_BAR_GOLDEN_PATH = Path(__file__).with_name("p_bar_golden.json")
P_BAR_GOLDEN = json.loads(P_BAR_GOLDEN_PATH.read_text())


def capture_p_bar() -> dict:
    """The golden file's contents with each value recomputed at its own points."""
    golden = json.loads(P_BAR_GOLDEN_PATH.read_text())
    for name, entry in golden["fixtures"].items():
        params = Params.load(fixture_path(name))
        entry.update(p_bar=find_p_bar(params),
                     informativeness=list(informativeness_condition(params)))
    for cases in golden["points"].values():
        for case in cases:
            case["p_bar"] = find_p_bar(Params.from_json(case["params"]))
    return golden


def dump_p_bar(golden: dict) -> str:
    """The golden file's text: one line per fixture and per point."""
    def block(entries, indent):
        return ",\n".join(f"{indent}{entry}" for entry in entries)
    points = [f"{json.dumps(path)}: [\n{block(map(json.dumps, cases), '   ')}\n  ]"
              for path, cases in golden["points"].items()]
    fixtures = [f"{json.dumps(name)}: {json.dumps(entry)}"
                for name, entry in golden["fixtures"].items()]
    return (f'{{\n "fixtures": {{\n{block(fixtures, "  ")}\n }},\n'
            f' "points": {{\n{block(points, "  ")}\n }}\n}}\n')


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

    def test_recapture_writes_the_file_as_it_is(self):
        # the re-capture's writer reproduces the file's layout, so a re-capture changes values only
        assert dump_p_bar(P_BAR_GOLDEN) == P_BAR_GOLDEN_PATH.read_text()


#: the point whose failure window, 7.9e-6 wide in p around p = 0.668079, the sampled search
#: missed: it returned 0.5 + P_BAR_TOL
P_BAR_WITNESS = Params(p=0.9, phi=0.6636109412163944, d=0.01, lam=0.7438393376394754,
                       R=1.2388504719580151, pi=0.5)
#: the relative margin in gamma = (1-p)/p within which the Sturm counts place F's first root
STURM_MARGIN = Fraction(1, 10**9)


def p_bar_cases(seed: int, n: int) -> list[Params]:
    """``n`` seeded points with z < lambda, R log-uniform in [0.01, 50] and eps_tol one of
    0, 1e-12 and 1e-3, then the golden file's window points."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        lam = float(rng.uniform(0.02, 1.0))
        points.append(Params(
            p=0.9, phi=float(rng.uniform(1 / (1 + lam), 0.995)), d=0.01, lam=lam,
            R=float(np.exp(rng.uniform(math.log(0.01), math.log(50.0)))), pi=0.5,
            eps_tol=float(rng.choice([0.0, 1e-12, 1e-3]))))
    return points + [Params.from_json(c["params"]) for c in P_BAR_GOLDEN["points"]["window"]]


class TestPBarExact:
    def test_witness_window_is_found(self):
        p_bar = find_p_bar(P_BAR_WITNESS)
        assert p_bar >= 0.668083301  # above the window
        assert informativeness_condition(P_BAR_WITNESS.replace(p=p_bar))[0]
        assert not informativeness_condition(
            P_BAR_WITNESS.replace(p=math.nextafter(p_bar, 0)))[0]

    def test_no_root_of_the_cubic_below_p_bar(self):
        # where F has a root in (0, 1], the condition holds at p_bar and fails at the float
        # below, and exact Sturm counts put no root of F in (0, gamma_bar (1 - margin)] and one
        # within the margin of gamma_bar; where the result is the whole interval, F has no
        # root in (0, 1]
        paths = Counter()
        for params in p_bar_cases(23, 1000):
            p_bar, cubic = find_p_bar(params), informativeness_cubic(params)
            if p_bar == 0.5 + model_core.P_BAR_TOL:
                paths["whole"] += 1
                assert sturm_root_count(cubic, Fraction(0), Fraction(1)) == 0, params
                continue
            paths["root"] += 1
            assert informativeness_condition(params.replace(p=p_bar))[0], params
            assert not informativeness_condition(
                params.replace(p=math.nextafter(p_bar, 0)))[0], params
            g_bar = (1 - Fraction(p_bar)) / Fraction(p_bar)
            below, above = g_bar * (1 - STURM_MARGIN), g_bar * (1 + STURM_MARGIN)
            assert sturm_root_count(cubic, Fraction(0), below) == 0, params
            assert sturm_root_count(cubic, below, above) >= 1, params
        assert min(paths.values()) >= 100 and len(paths) == 2, paths


if __name__ == "__main__":
    P_BAR_GOLDEN_PATH.write_text(dump_p_bar(capture_p_bar()))
