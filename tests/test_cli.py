"""Tests for the command-line interface and the sweep engine."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reformlab import DomainError, Params, SweepAxis, SweepSpec, run_sweep
from reformlab.cli import FIXTURES, MAX_SWEEP_STEPS, SWEEP_GROUPS, _json_dumps, run
from reformlab.equilibrium import REGIMES
from reformlab.montecarlo import MAX_DRAWS
from support import REFERENCE_AXIS_DOMAINS

SANITY = {"p": 0.99, "phi": 0.75, "lambda": 0.5, "R": 0.25, "d": 0.0125, "pi": 0.9, "M": 0}
PART3 = {"p": 0.999, "phi": 0.999, "lambda": 0.3, "R": 1.0, "d": 0.05, "pi": 0.999, "M": 0}
OVERFLOW = {"p": 0.8, "phi": 0.6, "d": 0.3, "lambda": 1.0, "R": 1.7e308, "pi": 0.5, "M": 1.7e308}


def _write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestCheck:
    def test_sanity_fixture(self, capsys):
        assert run(["check", "--params", "sanity"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["informativeness"]["passed"] is True
        assert blob["moderate_rent_strict"]["passed"] is False
        assert blob["moderate_rent_relaxed"]["passed"] is True

    def test_params_file(self, tmp_path, capsys):
        path = _write_json(tmp_path, "params.json", SANITY)
        assert run(["check", "--params", path]) == 0
        assert json.loads(capsys.readouterr().out)["signal_informative"]["passed"]

    def test_missing_file_is_usage_error(self, capsys):
        assert run(["check", "--params", "/nonexistent/params.json"]) == 2
        assert "--params" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["check", "--params", str(path)]) == 2

    def test_unknown_key(self, tmp_path, capsys):
        path = _write_json(tmp_path, "bad.json", {**SANITY, "bogus": 1})
        assert run(["check", "--params", path]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_non_finite_rent_is_usage_error(self, tmp_path, capsys):
        path = _write_json(tmp_path, "inf.json", {**SANITY, "R": "Infinity"})
        assert run(["welfare", "--params", path, "--no-strict"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestSolve:
    def test_opaque_efforts(self, capsys):
        assert run(["solve", "--regime", "opaque", "--params", "sanity"]) == 0
        blob = json.loads(capsys.readouterr().out)
        efforts = [cell["effort"] for cell in blob["profile"]]
        assert efforts[0] == pytest.approx(0.6229, abs=5e-4)
        assert efforts[1] == pytest.approx(0.0184, abs=5e-4)
        assert efforts[2] == pytest.approx(0.1246, abs=5e-4)
        assert blob["profile"][3]["policy"] == "status_quo"

    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_stdout_is_strict_json(self, capsys, fixture, regime):
        # the tables' leading -inf start is left out, so no start is written as null
        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        if run(["solve", "--params", fixture, "--regime", regime]) != 0:
            assert capsys.readouterr().out == ""  # refused: nothing on stdout
            return
        blob = json.loads(capsys.readouterr().out, parse_constant=reject)
        pieces = blob["retention"] + blob["beliefs"]
        assert pieces or regime == "benchmark"
        starts = [piece["effort_from"] for piece in pieces if "effort_from" in piece]
        assert all(type(s) is float for s in starts), starts  # no null
        assert starts or not regime.startswith("transparent")

    def test_assumption_failure_exit_code(self, capsys):
        rc = run(["solve", "--regime", "opaque", "--params", "sanity",
                  "--rent-mode", "strict"])
        assert rc == 1
        assert "moderate_rent_strict" in capsys.readouterr().err

    def test_unknown_regime_is_usage_error(self, capsys):
        assert run(["solve", "--regime", "bogus", "--params", "sanity"]) == 2

    def test_pooling_effort_for_another_regime_is_usage_error(self, capsys):
        assert run(["solve", "--params", "sanity", "--regime", "opaque",
                    "--pooling-effort", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a pooling effort applies only")
        assert captured.err.count("\n") == 1

    def test_pooling_with_effort(self, tmp_path, capsys):
        path = _write_json(tmp_path, "p.json",
                           {"p": 0.999, "phi": 0.999, "lambda": 0.3, "R": 0.5,
                            "d": 0.05, "pi": 0.9, "M": 0})
        rc = run(["solve", "--regime", "transparent_pooling", "--params", path,
                  "--pooling-effort", "0.4"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["pooling_effort"] == 0.4


class TestVerify:
    def test_nontransparent(self, capsys, tmp_path):
        out = tmp_path / "verify.json"
        rc = run(["verify", "--regime", "nontransparent", "--params", "sanity",
                  "--grid", "5001", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verdict" in captured.err and "pass" in captured.err  # the table
        blob = json.loads(out.read_text())
        assert set(blob) == {"deviation", "bayes", "news", "breakeven_status_quo"}
        assert blob["deviation"]["passed"] is True
        assert blob["bayes"]["passed"] is True

    def test_documented_failure_does_not_fail_exit(self, capsys):
        rc = run(["verify", "--regime", "opaque", "--params", "sanity", "--grid", "5001"])
        assert rc == 0
        assert "fail (documented)" in capsys.readouterr().err

    @pytest.mark.parametrize("regime", REGIMES)
    def test_stdout_is_one_json_document(self, capsys, regime):
        # the table goes to stderr, so stdout parses; before, the table came first
        rc = run(["verify", "--regime", regime, "--params", "part3", "--grid", "5001"])
        captured = capsys.readouterr()
        blob = json.loads(captured.out)
        assert set(blob) == {"deviation", "bayes", "news", "breakeven_status_quo"}
        assert rc == (0 if blob["deviation"]["passed"] and blob["bayes"]["passed"] else 1)
        assert captured.err.startswith("type ")  # the deviation table's header


class TestWelfare:
    def test_json_output(self, capsys):
        assert run(["welfare", "--params", "sanity"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["welfare"]["optimal"] == "opaque"
        assert "thresholds" in blob

    def test_csv_output(self, capsys):
        assert run(["welfare", "--params", "sanity", "--format", "csv"]) == 0
        rows = _parse_csv(capsys.readouterr().out)
        assert len(rows) == 3
        assert {r["regime"] for r in rows} == {
            "nontransparent", "opaque", "transparent_separating"}
        assert sum(r["optimal_flag"] == "true" for r in rows) == 1

    def test_overflowing_welfare_is_refused(self, tmp_path, capsys):
        # the transparent_separating total W + M*Q overflows to infinity
        path = _write_json(tmp_path, "huge.json", OVERFLOW)
        assert run(["welfare", "--params", path, "--no-strict"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "transparent_separating" in captured.err and "not finite" in captured.err

    # at phi = 1e-200 the opaque on-path success mass and lambda * mu_plus^2
    # underflow to 0 although every parameter is valid
    @pytest.mark.parametrize("extra, reason", [
        (["--no-strict"], "on-path reform outcome underflows"),
        ([], "lambda_hat = lambda * mu_plus^2 underflows"),
    ], ids=["no_strict", "strict"])
    def test_underflow_is_refused_with_reason(self, tmp_path, capsys, extra, reason):
        path = _write_json(tmp_path, "tiny_phi.json", {**SANITY, "phi": 1e-200})
        assert run(["welfare", "--params", path, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert reason in captured.err


class TestSimulate:
    def test_table_echoes_seed(self, capsys):
        rc = run(["simulate", "--params", "sanity", "--regime", "opaque",
                  "--seed", "77", "--n", "10000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed" in out and "77" in out and "mean_payoff" in out

    def test_json_format(self, capsys):
        rc = run(["simulate", "--params", "sanity", "--regime", "opaque",
                  "--seed", "77", "--n", "10000", "--format", "json"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["seed"] == 77 and blob["n_draws"] == 10000

    def test_bad_n(self, capsys):
        assert run(["simulate", "--params", "sanity", "--regime", "opaque",
                    "--n", "0"]) == 2

    @pytest.mark.parametrize("extra, reason", [
        (["--n", "0"], "n_draws"),
        (["--n", str(MAX_DRAWS + 1)], "n_draws"),
        (["--seed", "-1"], "seed"),
    ], ids=["n_zero", "n_above_cap", "negative_seed"])
    def test_out_of_domain_is_usage_error(self, capsys, extra, reason):
        assert run(["simulate", "--params", "sanity", "--regime", "opaque", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert reason in captured.err

    def test_bad_thread_count_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REFORMLAB_THREADS", "abc")
        assert run(["simulate", "--params", "sanity", "--regime", "opaque",
                    "--n", "1000"]) == 2
        assert "REFORMLAB_THREADS" in capsys.readouterr().err


class TestSweepEngine:
    def test_two_step_axis(self):
        spec = SweepSpec(
            base=Params.from_json(SANITY),
            axes=(SweepAxis("R", 0.2, 0.3, 2),),
            outputs=("assumptions",),
        )
        lines = list(run_sweep(spec))
        assert len(lines) == 3  # header + 2 rows
        assert lines[0].startswith("p,phi,d,lambda,R,pi,M,")

    def test_phi_sweep_monotone_opaque_welfare(self):
        spec = SweepSpec(
            base=Params.from_json(SANITY),
            axes=(SweepAxis("phi", 0.70, 0.80, 6),),
            outputs=("welfare",),
        )
        rows = _parse_csv("\n".join(run_sweep(spec)))
        w = [float(r["W_opaque"]) for r in rows]
        assert all(b > a for a, b in zip(w, w[1:]))
        assert all(r["optimal_regime"] == "opaque" for r in rows)

    def test_two_axis_row_major(self):
        spec = SweepSpec(
            base=Params.from_json(SANITY),
            axes=(SweepAxis("d", 0.01, 0.02, 2), SweepAxis("R", 0.2, 0.4, 3)),
            outputs=("assumptions",),
        )
        rows = _parse_csv("\n".join(run_sweep(spec)))
        assert len(rows) == 6
        assert [r["d"] for r in rows[:3]] == ["0.01"] * 3
        assert [float(r["R"]) for r in rows[:3]] == pytest.approx([0.2, 0.3, 0.4])

    def test_na_sentinel_for_missing_thresholds(self):
        spec = SweepSpec(
            base=Params.from_json(SANITY),
            axes=(SweepAxis("lambda", 0.5, 0.9, 3),),
            outputs=("thresholds",),
        )
        rows = _parse_csv("\n".join(run_sweep(spec)))
        assert all(r["thresholds_exist"] == "false" for r in rows)
        assert all(r["R_low"] == "NA" and r["R_high"] == "NA" for r in rows)

    def test_two_axis_region_matches_quadratic_sign(self):
        # in the high-congruence high-accuracy limit, the transparent-optimal
        # region of a (lambda, R) sweep is where H(R) is negative
        from reformlab import posteriors
        from reformlab.welfare import H

        base = Params.from_json(PART3)
        spec = SweepSpec(
            base=base,
            axes=(SweepAxis("lambda", 0.1, 0.45, 8), SweepAxis("R", 0.2, 5.0, 25)),
            outputs=("welfare",),
        )
        rows = _parse_csv("\n".join(run_sweep(spec)))
        checked = 0
        for row in rows:
            lam, r_val = float(row["lambda"]), float(row["R"])
            lam_hat = lam * posteriors(base.replace(lam=lam)).mu_plus ** 2
            h = H(r_val, lam_hat, base.d)
            if abs(h) < 0.02:
                continue  # boundary rows can tip either way
            assert (row["optimal_regime"] == "transparent_separating") == (h < 0), row
            checked += 1
        assert checked > 150

    def test_bit_stable_across_runs(self):
        spec = SweepSpec(
            base=Params.from_json(PART3),
            axes=(SweepAxis("R", 0.2, 5.0, 25),),
        )
        a = "\n".join(run_sweep(spec))
        b = "\n".join(run_sweep(spec))
        assert a == b

    def test_thread_count_does_not_change_output(self, monkeypatch):
        spec = SweepSpec(
            base=Params.from_json(PART3),
            axes=(SweepAxis("R", 0.2, 2.0, 13),),
        )
        serial = "\n".join(run_sweep(spec))
        monkeypatch.setenv("REFORMLAB_THREADS", "4")
        assert "\n".join(run_sweep(spec)) == serial

    def test_axis_validation(self):
        base = Params.from_json(SANITY)
        with pytest.raises(DomainError):
            SweepAxis("R", 0.3, 0.2, 5)  # min >= max
        with pytest.raises(DomainError):
            SweepAxis("R", 0.2, 0.3, 1)  # steps < 2
        with pytest.raises(DomainError):
            SweepAxis("p", 0.3, 0.9, 5)  # below the accuracy domain
        with pytest.raises(DomainError):
            SweepAxis("volume", 0.1, 0.9, 5)  # unknown parameter
        with pytest.raises(DomainError):
            SweepAxis("M", 0.1, 0.9, 5)  # not a game primitive
        with pytest.raises(DomainError, match=re.escape(
                "axis R: max must be a real number in [0, inf), got inf")):
            SweepAxis("R", 0.2, math.inf, 5)
        with pytest.raises(DomainError):
            SweepSpec(base=base, axes=())
        with pytest.raises(DomainError):
            SweepSpec(base=base, axes=(SweepAxis("R", 0.2, 0.3, 2),), outputs=("bogus",))
        with pytest.raises(DomainError, match="steps"):
            SweepAxis("R", 0.2, 0.3, MAX_SWEEP_STEPS + 1)  # above the cap

    @given(lo=st.floats(0.0, 5.0), hi=st.floats(0.0, 5.0), steps=st.integers(2, 200))
    @example(lo=0.01, hi=1.0, steps=97)
    @settings(max_examples=100, deadline=None)
    def test_axis_ends_exactly_at_max(self, lo, hi, steps):
        # the last value is ``max`` itself, and every other value is min + (max-min) i/(steps-1)
        assume(lo < hi)
        values = SweepAxis("R", lo, hi, steps).values()
        assert values[-1] == hi and len(values) == steps
        assert values[:-1] == [lo + (hi - lo) * i / (steps - 1) for i in range(steps - 1)]

    @given(param=st.sampled_from(sorted(REFERENCE_AXIS_DOMAINS)),
           ends=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.0]) | st.floats(-0.5, 1.5),
                         min_size=2, max_size=2, unique=True).map(sorted))
    @settings(max_examples=200, deadline=None)
    def test_axis_ranges_as_before(self, param, ends):
        # each axis takes a range exactly where the domains the CLI used to state took it:
        # inside the closure of the parameter's domain
        lo, hi = ends
        ref_lo, ref_hi = REFERENCE_AXIS_DOMAINS[param]
        try:
            SweepAxis(param, lo, hi, 3)
        except DomainError:
            accepted = False
        else:
            accepted = True
        assert accepted == (not (lo < ref_lo or hi > ref_hi))

    @pytest.mark.parametrize("outputs", [
        c for n in range(4) for c in itertools.combinations(("welfare", "assumptions", "thresholds"), n)
    ], ids=lambda c: "+".join(c) or "none")
    def test_domain_invalid_rows_keep_base_values(self, outputs):
        # phi = 0 and phi = 1 leave the parameter domain; the other parameters
        # are the base's, and every output cell of those rows is NA
        base = {**SANITY, "M": 0.7}
        spec = SweepSpec(base=Params.from_json(base), axes=(SweepAxis("phi", 0.0, 1.0, 3),),
                         outputs=outputs)
        header, *rows = (line.split(",") for line in run_sweep(spec))
        assert [len(row) for row in rows] == [len(header)] * 3
        n_params = header.index("M") + 1
        for row in (rows[0], rows[2]):
            cells = dict(zip(header, row))
            assert {k: cells[k] for k in ("p", "d", "lambda", "R", "pi", "M")} == {
                k: repr(float(base[k])) for k in ("p", "d", "lambda", "R", "pi", "M")}
            assert row[n_params:] == ["NA"] * (len(header) - n_params)
        assert "NA" not in rows[1][:n_params]

    def test_rows_are_streamed(self):
        # a 300 x 300 grid: building every point up front takes ~20 MB
        spec = SweepSpec(
            base=Params.from_json(SANITY),
            axes=(SweepAxis("R", 0.2, 5.0, 300), SweepAxis("lambda", 0.01, 1.0, 300)),
        )
        tracemalloc.start()
        try:
            lines = list(islice(run_sweep(spec), 3))  # the header and two rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lines) == 3
        assert peak < 1_000_000


class TestSweepCommand:
    def test_part3_rent_sweep_switches_at_thresholds(self, tmp_path):
        spec_path = _write_json(tmp_path, "sweep.json", {
            "base": PART3,
            "axes": [{"param": "R", "min": 0.2, "max": 5.0, "steps": 97}],
            "outputs": ["welfare", "assumptions", "thresholds"],
        })
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--sweep", spec_path, "--out", str(out)]) == 0
        rows = _parse_csv(out.read_text())
        switches = [
            (float(a["R"]), float(b["R"]))
            for a, b in zip(rows, rows[1:])
            if a["optimal_regime"] != b["optimal_regime"]
        ]
        assert len(switches) == 2
        r_low, r_high = float(rows[0]["R_low"]), float(rows[0]["R_high"])
        assert switches[0][0] <= r_low <= switches[0][1]
        assert switches[1][0] <= r_high <= switches[1][1]

    def test_file_output_bit_stable(self, tmp_path):
        spec_path = _write_json(tmp_path, "sweep.json", {
            "base": SANITY,
            "axes": [{"param": "phi", "min": 0.6, "max": 0.9, "steps": 7}],
        })
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["sweep", "--sweep", spec_path, "--out", str(out1)]) == 0
        assert run(["sweep", "--sweep", spec_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()  # LF-only line endings

    # sha256 of the CSV file (LF endings); the p x phi grid crosses the phi
    # domain edges (rows with NA outputs and the base's other parameters) and
    # has M > 0
    @pytest.mark.parametrize("spec, sha256", [
        ({"base": PART3,
          "axes": [{"param": "R", "min": 0.2, "max": 5.0, "steps": 97}],
          "outputs": ["welfare", "assumptions", "thresholds"]},
         "bbc77e780361ec5cf71e8260d3c1d1a1e2e56299675e71a9d1e34591b0827d6f"),
        ({"base": {**SANITY, "M": 0.7},
          "axes": [{"param": "p", "min": 0.5, "max": 1.0, "steps": 41},
                   {"param": "phi", "min": 0.0, "max": 1.0, "steps": 41}],
          "outputs": ["welfare", "assumptions", "thresholds"]},
         "7a1f7fa93614d58f7e471b83830fd370c83dc6958a144b4e6ce78dc6e5f218b6"),
    ], ids=["readme_R97", "p_phi_41x41_M07"])
    def test_golden_csv(self, tmp_path, spec, sha256):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--sweep", _write_json(tmp_path, "s.json", spec),
                    "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_bad_spec_exit_codes(self, tmp_path, capsys):
        assert run(["sweep", "--sweep", str(tmp_path / "missing.json")]) == 2
        bad = _write_json(tmp_path, "bad.json", {"base": SANITY})
        assert run(["sweep", "--sweep", bad]) == 2
        bad_axis = _write_json(tmp_path, "bad_axis.json", {
            "base": SANITY,
            "axes": [{"param": "R", "min": 0.5, "max": 0.2, "steps": 4}],
        })
        assert run(["sweep", "--sweep", bad_axis]) == 2

    @pytest.mark.parametrize("axes, outputs", [
        ([{"param": "R", "min": 0.2, "steps": 4}], None),  # no max
        ("R", None),
        ([{"param": "R", "min": 0.2, "max": 0.5, "steps": 2.5}], None),
        ([{"param": "R", "min": 0.2, "max": 0.5, "steps": "4"}], None),
        ([{"param": "R", "min": "low", "max": 0.5, "steps": 4}], None),
        ([{"param": "R", "min": "0.2", "max": 0.5, "steps": 4}], None),  # a numeric string
        ([{"param": "R", "min": 0.2, "max": None, "steps": 4}], None),
        ([{"param": "R", "min": 0.2, "max": "Infinity", "steps": 4}], None),
        ([{"param": ["R"], "min": 0.2, "max": 0.5, "steps": 4}], None),
        (["R"], None),
        ([{"param": "R", "min": 0.2, "max": 0.5, "steps": 4}], "welfare"),
        ([{"param": "R", "min": 0.2, "max": 0.5, "steps": 4}], [["welfare"]]),
        ([{"param": "R", "min": 0.2, "max": 0.5, "steps": MAX_SWEEP_STEPS + 1}], None),
        ([{"param": "R", "min": 0.2, "max": 0.5, "steps": 4},  # one parameter on two axes
          {"param": "R", "min": 0.3, "max": 0.6, "steps": 3}], None),
        ([{"param": "R", "min": 0.2, "max": 0.5, "steps": 4, "stepz": 5}], None),  # unknown key
    ])
    def test_malformed_spec_is_usage_error(self, tmp_path, capsys, axes, outputs):
        spec = {"base": SANITY, "axes": axes}
        if outputs is not None:
            spec["outputs"] = outputs
        assert run(["sweep", "--sweep", _write_json(tmp_path, "s.json", spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_overflowing_welfare_row_is_na(self, tmp_path, capsys):
        spec = {"base": OVERFLOW, "axes": [{"param": "pi", "min": 0.5, "max": 0.6, "steps": 2}]}
        assert run(["sweep", "--sweep", _write_json(tmp_path, "s.json", spec)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        welfare = SWEEP_GROUPS["welfare"][0]
        for row in _parse_csv(captured.out):
            assert [row[c] for c in welfare] == ["NA"] * len(welfare)
            assert row["signal_informative"] != "NA" and row["lambda_hat"] != "NA"

    def test_underflowing_phi_row_is_na(self, tmp_path, capsys):
        spec = {"base": SANITY, "axes": [{"param": "phi", "min": 1e-200, "max": 0.9, "steps": 3}]}
        assert run(["sweep", "--sweep", _write_json(tmp_path, "s.json", spec)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        first, *rest = _parse_csv(captured.out)
        assert first["phi"] == "1e-200"
        for col in ("W_opaque", "optimal_regime", "margin", "lambda_hat", "R_low"):
            assert first[col] == "NA"
        assert all(row["W_opaque"] != "NA" and row["lambda_hat"] != "NA" for row in rest)


def _run_on_file(argv: list[str], content: bytes) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``run(argv + [path])``, where the
    file at ``path`` holds ``content``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as f:
            f.write(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([*argv, path])
    return code, out.getvalue(), err.getvalue()


def _dump(obj) -> bytes:
    return json.dumps(obj).encode()


DEEP_ARRAY = b"[" * 200_000 + b"]" * 200_000
HUGE_INT = 10**400

#: inputs that escaped as tracebacks before the one JSON reader, or passed as numbers
MALFORMED = {
    "params_not_utf8": (["check", "--params"], b"\xff\xfe"),
    "sweep_not_utf8": (["sweep", "--sweep"], b"\xff\xfe"),
    "params_deep_array": (["check", "--params"], DEEP_ARRAY),
    "sweep_deep_array": (["sweep", "--sweep"], DEEP_ARRAY),
    "params_huge_int": (["check", "--params"], _dump({**SANITY, "R": HUGE_INT})),
    # more digits than int() parses (sys.get_int_max_str_digits(), 4 300 by default)
    "params_too_many_digits": (["check", "--params"],
                               _dump(SANITY).replace(b'"R": 0.25', b'"R": 1' + b"0" * 5000)),
    "sweep_huge_bound": (["sweep", "--sweep"], _dump(
        {"base": SANITY, "axes": [{"param": "R", "min": HUGE_INT, "max": 0.5, "steps": 3}]})),
    # strings and booleans are not JSON numbers, even where float() would take them
    "params_string_and_bool": (["check", "--params"], _dump({**SANITY, "p": "0.9", "M": False})),
    "params_bool_pi": (["check", "--params"], _dump({**SANITY, "pi": True})),
}

# integers stay <= 50 so that no generated sweep axis has more than 50 steps
_SCALARS = (st.none() | st.booleans() | st.integers(max_value=50) | st.floats()
            | st.text(max_size=6))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=8)
_NUMBER = st.floats(0.0, 1.0) | st.floats() | st.integers(max_value=50) | _JSON
_PARAMS = (
    _JSON
    | st.fixed_dictionaries({k: _NUMBER for k in ("p", "phi", "d", "lambda", "R", "pi")},
                            optional={"M": _NUMBER, "eps_tol": _NUMBER})
    | st.builds(lambda key, value: {**SANITY, key: value}, st.sampled_from(list(SANITY)), _NUMBER)
)
_AXIS_NAMES = st.sampled_from(["p", "phi", "d", "lambda", "R", "pi", "M"])
_AXIS = _JSON | st.fixed_dictionaries({"param": _AXIS_NAMES | _JSON, "min": _NUMBER,
                                       "max": _NUMBER, "steps": st.integers(max_value=50) | _JSON})
_RUNNABLE_AXIS = st.fixed_dictionaries({"param": _AXIS_NAMES, "min": st.floats(0.0, 0.5),
                                        "max": st.floats(0.5, 1.0), "steps": st.integers(2, 50)})
_SWEEP = (
    _JSON
    | st.fixed_dictionaries(
        {"base": _PARAMS, "axes": st.lists(_AXIS, max_size=3) | _JSON},
        optional={"outputs": st.lists(st.sampled_from(list(SWEEP_GROUPS)) | st.text(max_size=6),
                                      max_size=3) | _JSON})
    | st.fixed_dictionaries(  # mostly runnable: a valid base and in-domain axes
        {"base": st.just(SANITY) | st.just(OVERFLOW),
         "axes": st.lists(_RUNNABLE_AXIS, min_size=1, max_size=2, unique_by=lambda a: a["param"])},
        optional={"outputs": st.lists(st.sampled_from(list(SWEEP_GROUPS)), max_size=3)})
)
_PARAMS_COMMANDS = st.sampled_from([
    ["check"], ["welfare"], ["welfare", "--no-strict"], ["solve", "--regime", "opaque"],
])


def _assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err.count("error:") <= 1
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1


class TestMalformedInput:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_is_usage_error(self, name):
        argv, content = MALFORMED[name]
        code, out, err = _run_on_file(argv, content)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    # the library reads a params file through the JSON reader the CLI uses
    @pytest.mark.parametrize("name", sorted(n for n in MALFORMED if n.startswith("params_")))
    def test_params_load_refuses(self, tmp_path, name):
        path = tmp_path / "input.json"
        path.write_bytes(MALFORMED[name][1])
        with pytest.raises(DomainError):
            Params.load(path)

    @pytest.mark.parametrize("effort", ["nan", "5", "-0.5"])
    @pytest.mark.parametrize("fixture", ["sanity", "part3"])
    def test_bad_pooled_effort_is_usage_error(self, capsys, fixture, effort):
        # before, sanity's empty pooling family was named first, with exit 1
        argv = ["solve", "--params", fixture, "--regime", "transparent_pooling",
                "--pooling-effort", effort]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pooled effort must be a real number in [0, 1]")
        assert captured.err.count("\n") == 1

    @settings(max_examples=60, deadline=None)
    @given(command=_PARAMS_COMMANDS, content=_PARAMS.map(_dump))
    @example(command=["check"], content=b"{not json")
    @example(command=["check"], content=MALFORMED["params_not_utf8"][1])
    @example(command=["check"], content=DEEP_ARRAY)
    @example(command=["welfare"], content=MALFORMED["params_huge_int"][1])
    @example(command=["welfare", "--no-strict"], content=_dump(OVERFLOW))
    def test_fuzzed_params_exit_cleanly(self, command, content):
        code, _, err = _run_on_file([*command, "--params"], content)
        _assert_clean_exit(code, err)

    @settings(max_examples=60, deadline=None)
    @given(content=_SWEEP.map(_dump))
    @example(content=b"{not json")
    @example(content=MALFORMED["sweep_not_utf8"][1])
    @example(content=DEEP_ARRAY)
    @example(content=MALFORMED["sweep_huge_bound"][1])
    @example(content=_dump({"base": OVERFLOW, "axes": [
        {"param": "pi", "min": 0.5, "max": 0.6, "steps": 2}]}))
    def test_fuzzed_sweep_exit_cleanly(self, content):
        code, _, err = _run_on_file(["sweep", "--sweep"], content)
        _assert_clean_exit(code, err)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "reformlab", "check", "--params", "sanity"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["signal_informative"]["passed"] is True

    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_json_writes_non_finite_floats_as_null(self):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = _json_dumps({"W": math.inf, "margin": [math.nan, -math.inf, 1.5]})
        assert json.loads(text, parse_constant=reject) == {"W": None, "margin": [None, None, 1.5]}

    def test_unwritable_out_is_usage_error(self, capsys):
        assert run(["check", "--params", "sanity", "--out", "/nonexistent_dir/x.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
