"""Tests for the seeded Monte Carlo simulator."""

import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reformlab import (
    DomainError,
    Params,
    SimConfig,
    convergence_sweep,
    fixture_path,
    posteriors,
    regime_welfare,
    simulate,
    solve,
)
from reformlab import montecarlo
from reformlab.montecarlo import (
    BLOCK_SIZE, CHUNK, MAX_DRAWS, _cell_tables, _run_block, _thread_count)
from reformlab.verification import joint_outcome_distribution

from support import reference_block_counts


def _analytic_outcome_probs(eq, params):
    probs = {"success": 0.0, "failure": 0.0, "status_quo": 0.0}
    for _t, _s, _a, outcome, mass in joint_outcome_distribution(eq.profile, params):
        probs[outcome] += mass
    return probs


class TestDeterminism:
    def test_same_seed_bit_identical(self, sanity):
        eq = solve(sanity, "opaque")
        cfg = SimConfig(n_draws=300_000, seed=12345, regime="opaque", params=sanity)
        assert simulate(cfg, eq) == simulate(cfg, eq)

    def test_different_seeds_differ(self, sanity):
        eq = solve(sanity, "opaque")
        a = simulate(SimConfig(n_draws=100_000, seed=1, regime="opaque", params=sanity), eq)
        b = simulate(SimConfig(n_draws=100_000, seed=2, regime="opaque", params=sanity), eq)
        assert a.mean_payoff != b.mean_payoff

    def test_thread_count_invariance(self, sanity, monkeypatch):
        # the block/stream scheme makes results independent of scheduling
        eq = solve(sanity, "opaque")
        cfg = SimConfig(n_draws=BLOCK_SIZE * 3 + 17, seed=99, regime="opaque", params=sanity)
        serial = simulate(cfg, eq)
        monkeypatch.setenv("REFORMLAB_THREADS", "4")
        assert simulate(cfg, eq) == serial

    @pytest.mark.parametrize("raw", ["abc", "", "2.5", "0", "-3"])
    def test_thread_count_rejects_non_positive_integers(self, monkeypatch, raw):
        monkeypatch.setenv("REFORMLAB_THREADS", raw)
        with pytest.raises(DomainError, match="REFORMLAB_THREADS"):
            _thread_count()

    def test_thread_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REFORMLAB_THREADS", str(10**6))
        assert _thread_count() == (os.cpu_count() or 1)
        monkeypatch.setenv("REFORMLAB_THREADS", "1")
        assert _thread_count() == 1
        monkeypatch.delenv("REFORMLAB_THREADS")
        assert _thread_count() == 1

    def test_convergence_sweep_single_stream(self, sanity):
        eq = solve(sanity, "opaque")
        cfg = SimConfig(n_draws=1, seed=5, regime="opaque", params=sanity)
        a = convergence_sweep(cfg, eq, [1000, 5000])
        b = convergence_sweep(cfg, eq, [1000, 5000])
        assert a == b


# the effort edge cases of the kernel's skips: none, the smallest positive
# float, the largest float below 1, and every good draw succeeding
EFFORTS = st.sampled_from([0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0]) | st.floats(
    0.0, 1.0, exclude_min=True, exclude_max=True)
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _assert_matches_reference(seed, n, params, tables, scratch):
    got = _run_block(np.random.default_rng(seed), n, params, tables, scratch)
    ref = reference_block_counts(np.random.default_rng(seed), n, params, tables)
    ref = ref.reshape(4, 2, 2)  # [cell, good state, hit]
    np.testing.assert_array_equal(got[:4], ref.sum(axis=(1, 2)))
    np.testing.assert_array_equal(got[4:], np.where(tables[0], ref[:, 1, 1], 0))
    assert got.dtype == np.int64


class TestKernel:
    """``_run_block`` counts per cell what the 16-bin gather + ``bincount``
    reference counts on the same draws."""

    @given(reform=st.lists(st.booleans(), min_size=4, max_size=4),
           effort=st.lists(EFFORTS, min_size=4, max_size=4),
           p=st.floats(0.5, 1.0), phi=OPEN_UNIT, pi=OPEN_UNIT,
           n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    # every chunk boundary: one short of a chunk, exactly one, one over and a
    # short last chunk after two full ones, and a full block
    @example(reform=[True, True, True, False], effort=[0.62, 1.0, 5e-324, 0.3],
             p=0.9, phi=0.5, pi=0.7, n=BLOCK_SIZE, seed=0)
    @example(reform=[True, True, True, True], effort=[0.3, 0.9, 0.5, 1.0],
             p=0.8, phi=0.4, pi=0.6, n=CHUNK - 1, seed=1)
    @example(reform=[True, False, True, True], effort=[0.7, 0.2, 1.0, 0.05],
             p=0.7, phi=0.6, pi=0.3, n=CHUNK, seed=2)
    @example(reform=[False, True, True, True], effort=[0.4, 0.6, 0.2, 0.8],
             p=0.95, phi=0.5, pi=0.5, n=CHUNK + 1, seed=3)
    @example(reform=[True, True, False, True], effort=[1.0, 0.1, 0.3, 0.45],
             p=0.6, phi=0.7, pi=0.8, n=2 * CHUNK + 3, seed=4)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, reform, effort, p, phi, pi, n, seed):
        params = Params(p=p, phi=phi, d=0.5, lam=0.5, R=1.0, pi=pi)
        tables = (np.array(reform), np.array(effort), np.zeros((4, 3), dtype=bool))
        _assert_matches_reference(seed, n, params, tables, {})

    def test_reused_scratch_matches_reference(self):
        # a smaller block after a larger one must read none of the masks the
        # larger one left past its own draws
        params = Params(p=0.9, phi=0.5, d=0.5, lam=0.5, R=1.0, pi=0.7)
        tables = (np.array([True, True, True, False]), np.array([0.62, 1.0, 0.3, 0.0]),
                  np.zeros((4, 3), dtype=bool))
        scratch = {}
        for seed, n in enumerate([BLOCK_SIZE, 1, CHUNK + 1, BLOCK_SIZE]):
            _assert_matches_reference(seed, n, params, tables, scratch)

    def test_block_peak_below_6_bytes_per_draw(self, sanity):
        # the scratch holds four mask bytes a draw and a 256 KiB chunk buffer,
        # one byte a draw at BLOCK_SIZE: a block-length bool temporary would
        # add a byte a draw. Later blocks allocate no block-length array at all.
        tables = _cell_tables(SimConfig(1, 0, "opaque", sanity), solve(sanity, "opaque"))
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            scratch = {}
            _run_block(rng, BLOCK_SIZE, sanity, tables, scratch)
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            _run_block(rng, BLOCK_SIZE, sanity, tables, scratch)
            later = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert first < 6 * BLOCK_SIZE
        assert later < CHUNK

    def test_threaded_memory_independent_of_block_count(self, sanity, monkeypatch):
        # a stub kernel keeps this to seeding: every block counts its draws as
        # congruent good-signal, so the totals check that each block ran once
        monkeypatch.setattr(montecarlo, "_run_block", lambda rng, n, params, tables, scratch: (
            np.array([n, 0, 0, 0, 0, 0, 0, 0], dtype=np.int64)))
        monkeypatch.setenv("REFORMLAB_THREADS", "2")
        eq = solve(sanity, "opaque")
        simulate(SimConfig(n_draws=2 * BLOCK_SIZE, seed=1, regime="opaque", params=sanity), eq)
        n = 3000 * BLOCK_SIZE + 1  # about 5.8 MB of queued futures if all were submitted
        tracemalloc.start()
        try:
            stats = simulate(SimConfig(n_draws=n, seed=1, regime="opaque", params=sanity), eq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.n_draws == stats.counts["congruent"] == n
        assert peak < 100_000


STREAMS = pytest.mark.parametrize("seed_seq, takes", [
    (np.random.SeedSequence(entropy=99, spawn_key=(3,)), [1001, 2 * CHUNK + 3]),
    (np.random.SeedSequence(5), [1, 17, 1000, 4099, CHUNK - 1, CHUNK, CHUNK + 1]),
], ids=["spawned_block", "sequential_uneven_takes"])


class TestDrawOrder:
    """A block of ``n`` draws takes its four rows (type, state, signal,
    outcome) in stream order, each ``CHUNK`` uniforms at a time into one
    reused buffer, the last chunk of a row short. The seeded results rely on
    that giving the rows of one ``random((4, n))`` call and leaving the
    generator where that call leaves it, which in turn gives the rows of four
    sequential ``random(n)`` calls."""

    @STREAMS
    def test_rows_match_sequential_draws(self, seed_seq, takes):
        block = np.random.Generator(np.random.PCG64(seed_seq))
        sequential = np.random.Generator(np.random.PCG64(seed_seq))
        for n in takes:
            for row in block.random((4, n)):
                np.testing.assert_array_equal(row, sequential.random(n))
        assert block.random() == sequential.random()

    @STREAMS
    def test_chunked_rows_match_one_call(self, seed_seq, takes):
        whole = np.random.Generator(np.random.PCG64(seed_seq))
        chunked = np.random.Generator(np.random.PCG64(seed_seq))
        buf = np.empty(CHUNK)
        for n in takes:
            for row in whole.random((4, n)):
                for a in range(0, n, CHUNK):
                    u = buf[:min(CHUNK, n - a)]
                    chunked.random(out=u)
                    np.testing.assert_array_equal(u, row[a:a + len(u)])
        assert whole.random() == chunked.random()


# Statistics of the count-table kernel, every one compared exactly: counts, rates,
# mean and SE. ``python tests/test_montecarlo.py`` re-captures the file at its own
# draw count, seeds, checkpoints and cases.
GOLDEN_PATH = Path(__file__).with_name("mc_golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _golden_eq(case):
    params = Params.load(fixture_path(case["fixture"]))
    return params, solve(params, case["regime"])


def capture() -> dict:
    """``mc_golden.json`` recomputed at its own draw count, seeds, checkpoints and cases."""
    simulated, swept = [], []
    for case in GOLDEN["simulate"]:
        params, eq = _golden_eq(case)
        cfg = SimConfig(n_draws=GOLDEN["n_draws"], seed=case["stats"]["seed"],
                        regime=case["regime"], params=params)
        simulated.append({**case, "stats": simulate(cfg, eq).to_json()})
    for case in GOLDEN["convergence_sweep"]:
        params, eq = _golden_eq(case)
        cfg = SimConfig(n_draws=1, seed=GOLDEN["seeds"][0], regime=case["regime"], params=params)
        table = convergence_sweep(cfg, eq, GOLDEN["checkpoints"])
        swept.append({**case, "stats": [stats.to_json() for stats in table]})
    return {**GOLDEN, "simulate": simulated, "convergence_sweep": swept}


class TestGolden:
    @pytest.mark.parametrize("case", GOLDEN["simulate"], ids=lambda c: (
        f"{c['fixture']}-{c['regime']}-{c['stats']['seed']}"))
    def test_simulate(self, case):
        params, eq = _golden_eq(case)
        cfg = SimConfig(n_draws=GOLDEN["n_draws"], seed=case["stats"]["seed"],
                        regime=case["regime"], params=params)
        assert simulate(cfg, eq).to_json() == case["stats"]

    @pytest.mark.parametrize("case", GOLDEN["convergence_sweep"], ids=lambda c: (
        f"{c['fixture']}-{c['regime']}"))
    def test_convergence_sweep(self, case):
        params, eq = _golden_eq(case)
        cfg = SimConfig(n_draws=1, seed=GOLDEN["seeds"][0], regime=case["regime"], params=params)
        table = convergence_sweep(cfg, eq, GOLDEN["checkpoints"])
        assert [stats.to_json() for stats in table] == case["stats"]


class TestStatistics:
    def test_outcome_frequencies_match_joint(self, sanity):
        eq = solve(sanity, "opaque")
        n = 1_000_000
        stats = simulate(SimConfig(n_draws=n, seed=7, regime="opaque", params=sanity), eq)
        analytic = _analytic_outcome_probs(eq, sanity)
        for outcome, p_hat in stats.outcome_freqs.items():
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n)
            assert abs(p_hat - analytic[outcome]) <= 3 * se, outcome

    def test_mean_payoff_matches_closed_form(self, sanity):
        eq = solve(sanity, "opaque")
        n = 1_000_000
        stats = simulate(SimConfig(n_draws=n, seed=17, regime="opaque", params=sanity), eq)
        w = regime_welfare(sanity, "opaque", eq).W
        assert abs(stats.mean_payoff - w) <= 3 * stats.payoff_se

    def test_noncongruent_retention_rate(self, sanity):
        # retained only via a good-signal success: P(g) * mu+ * (lambda R mu+)
        eq = solve(sanity, "opaque")
        n = 1_000_000
        stats = simulate(SimConfig(n_draws=n, seed=23, regime="opaque", params=sanity), eq)
        post = posteriors(sanity)
        p_g = sanity.phi * sanity.p + (1 - sanity.phi) * (1 - sanity.p)
        expected = p_g * post.mu_plus * (sanity.lam * sanity.R * post.mu_plus)
        rate = stats.retention_rate_by_type["noncongruent"]
        n_noncong = n - stats.counts["congruent"]
        se = math.sqrt(expected * (1 - expected) / n_noncong)
        assert abs(rate - expected) <= 3 * se

    def test_posterior_at_retained_set(self, sanity):
        # opaque retention = success, so P(congruent | retained) must match
        # the success belief
        eq = solve(sanity, "opaque")
        stats = simulate(SimConfig(n_draws=1_000_000, seed=29, regime="opaque",
                                   params=sanity), eq)
        from reformlab import Observation
        belief = eq.belief(Observation("reform", outcome="success"))
        n_ret = stats.counts["retained"]
        se = math.sqrt(belief * (1 - belief) / n_ret)
        assert abs(stats.p_congruent_given_retained - belief) <= 3 * se

    def test_selection_term_estimate(self, sanity):
        eq = solve(sanity, "opaque")
        stats = simulate(SimConfig(n_draws=1_000_000, seed=31, regime="opaque",
                                   params=sanity), eq)
        q = regime_welfare(sanity, "opaque", eq).Q
        # per-draw values live in {0, pi, 1}: sd < 1/2, so 3 SE < 0.0015
        assert abs(stats.q_hat - q) <= 0.002

    def test_all_regimes_run(self, sanity):
        for regime in ("benchmark", "nontransparent", "opaque", "transparent_separating"):
            eq = solve(sanity, regime)
            stats = simulate(SimConfig(n_draws=20_000, seed=3, regime=regime,
                                       params=sanity), eq)
            assert abs(sum(stats.outcome_freqs.values()) - 1.0) < 1e-12
            for rate in stats.retention_rate_by_type.values():
                assert rate is None or 0.0 <= rate <= 1.0


class TestConvergenceSweep:
    def test_se_shrinks_like_sqrt_n(self, sanity):
        eq = solve(sanity, "nontransparent")
        cfg = SimConfig(n_draws=1, seed=11, regime="nontransparent", params=sanity)
        table = convergence_sweep(cfg, eq, [1000, 10_000, 100_000])
        ratio1 = table[0].payoff_se / table[1].payoff_se
        ratio2 = table[1].payoff_se / table[2].payoff_se
        root10 = math.sqrt(10)
        assert root10 * 0.8 <= ratio1 <= root10 * 1.2
        assert root10 * 0.8 <= ratio2 <= root10 * 1.2

    def test_cumulative_means_consistent(self, sanity):
        eq = solve(sanity, "nontransparent")
        cfg = SimConfig(n_draws=1, seed=13, regime="nontransparent", params=sanity)
        table = convergence_sweep(cfg, eq, [1000, 100_000])
        assert abs(table[-1].mean_payoff - table[0].mean_payoff) <= 4 * table[0].payoff_se

    def test_single_draw_flags_undefined_se(self, sanity):
        eq = solve(sanity, "nontransparent")
        cfg = SimConfig(n_draws=1, seed=19, regime="nontransparent", params=sanity)
        [stats] = convergence_sweep(cfg, eq, [1])
        assert stats.payoff_se is None
        assert stats.n_draws == 1

    def test_checkpoint_validation(self, sanity):
        eq = solve(sanity, "nontransparent")
        cfg = SimConfig(n_draws=1, seed=19, regime="nontransparent", params=sanity)
        for empty in ([], None):
            with pytest.raises(DomainError, match="nonempty"):
                convergence_sweep(cfg, eq, empty)
        with pytest.raises(DomainError):
            convergence_sweep(cfg, eq, [100, 100])
        with pytest.raises(DomainError):
            convergence_sweep(cfg, eq, [0, 10])

    def test_checkpoint_cap_before_any_draw(self, sanity, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before checking the cap")

        monkeypatch.setattr(montecarlo, "_run_block", no_draws)
        eq = solve(sanity, "nontransparent")
        cfg = SimConfig(n_draws=1, seed=19, regime="nontransparent", params=sanity)
        with pytest.raises(DomainError, match="checkpoints"):
            convergence_sweep(cfg, eq, [10, MAX_DRAWS + 1])

    def test_non_integer_checkpoint_refused(self, sanity):
        # a float checkpoint used to reach numpy and fail there with a bare TypeError
        eq = solve(sanity, "nontransparent")
        cfg = SimConfig(n_draws=1, seed=19, regime="nontransparent", params=sanity)
        with pytest.raises(DomainError, match="checkpoints must be an integer, got 10.5"):
            convergence_sweep(cfg, eq, [10.5])
        # each checkpoint is converted before the order is checked, which compared 1 < "a"
        # and raised a bare TypeError, and a bool is no checkpoint
        with pytest.raises(DomainError, match="checkpoints must be an integer, got 'a'"):
            convergence_sweep(cfg, eq, [1, "a"])
        with pytest.raises(DomainError, match="checkpoints must be an integer, got True"):
            convergence_sweep(cfg, eq, [True, 5])


class TestValidation:
    def test_regime_mismatch(self, sanity):
        eq = solve(sanity, "opaque")
        cfg = SimConfig(n_draws=10, seed=0, regime="nontransparent", params=sanity)
        with pytest.raises(DomainError, match="regime"):
            simulate(cfg, eq)

    def test_config_domain(self, sanity):
        with pytest.raises(DomainError):
            SimConfig(n_draws=0, seed=0, regime="opaque", params=sanity)
        with pytest.raises(DomainError):
            SimConfig(n_draws=MAX_DRAWS + 1, seed=0, regime="opaque", params=sanity)
        with pytest.raises(DomainError):
            SimConfig(n_draws=10, seed=-1, regime="opaque", params=sanity)
        with pytest.raises(DomainError):
            SimConfig(n_draws=10, seed=2**64, regime="opaque", params=sanity)

    # a float count or seed used to pass construction and fail inside numpy with a TypeError
    # and a bool, an int to Python, used to run as 1 (or 0) draws or seed 1 (or 0)
    @pytest.mark.parametrize("field,kw,got", [
        ("n_draws", {"n_draws": 1.5, "seed": 0}, "1.5"),
        ("seed", {"n_draws": 10, "seed": 1.5}, "1.5"),
        ("n_draws", {"n_draws": True, "seed": 0}, "True"),
        ("seed", {"n_draws": 10, "seed": True}, "True"),
        ("seed", {"n_draws": 10, "seed": False}, "False")])
    def test_non_integer_count_or_seed_refused(self, sanity, field, kw, got):
        with pytest.raises(DomainError, match=f"{field} must be an integer, got {got}"):
            SimConfig(regime="opaque", params=sanity, **kw)

    def test_seed_echoed(self, sanity):
        eq = solve(sanity, "opaque")
        stats = simulate(SimConfig(n_draws=100, seed=4242, regime="opaque", params=sanity), eq)
        assert stats.seed == 4242
        assert stats.to_json()["seed"] == 4242
        assert "4242" in stats.format_table()


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
