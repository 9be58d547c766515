#!/usr/bin/env python3
"""reformlab benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run times whole passes over the workload's inputs
with nothing installed in the library and reports the end-to-end metrics.
With ``--trace 1`` it times some passes untraced, then the same passes with
span wrappers installed (see ``tracing.py``), and reports the per-layer
metrics. Every output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin the environment before numpy or reformlab is imported: an ambient
# REFORMLAB_THREADS changes both the sweep and simulate.
os.environ["REFORMLAB_THREADS"] = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
MODULES = ("cli", "model_core", "equilibrium", "welfare", "verification", "montecarlo", "bench")


def _import_library():
    """Import reformlab from this checkout's ``src/`` and nowhere else."""
    package = (ROOT / "src" / "reformlab").resolve()
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: reformlab sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import reformlab

    if Path(reformlab.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported reformlab from {reformlab.__file__}, not {package}")
    return reformlab


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _lscpu() -> dict:
    info = {"cpu_model": "unknown", "l2_cache": "unknown", "l3_cache": "unknown"}
    if shutil.which("lscpu"):
        out = subprocess.run(
            ["lscpu"], capture_output=True, text=True, env={**os.environ, "LC_ALL": "C"},
            timeout=30,
        ).stdout
        keys = {"Model name": "cpu_model", "L2 cache": "l2_cache", "L3 cache": "l3_cache"}
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in keys:
                info[keys[key.strip()]] = value.strip()
    return info


def environment(reformlab, np) -> dict:
    block = getattr(reformlab.montecarlo, "BLOCK_SIZE", 1 << 18)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **_lscpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "reformlab": getattr(reformlab, "__version__", "unknown"),
        "REFORMLAB_THREADS": os.environ["REFORMLAB_THREADS"],
        "mc_block_draws": block,
        "mc_block_uniform_bytes": 4 * block * 8,
        "mc_block_size_basis": "computed (4 uniforms x 8 bytes x draws), not measured",
    }


#: Time of ``_calibration_kernel`` on the reference machine at a quiet
#: moment (see RECORD.md). The shared host changes speed by up to 60% within
#: seconds, so measured work is cut into segments of about SEGMENT_S with a
#: calibration between them, and each segment's times are scaled by NOMINAL
#: over the mean of its two calibrations: figures are at the reference speed.
NOMINAL_CALIBRATION_S = 0.028
SEGMENT_S = 0.5


def _calibration_kernel() -> int:
    """Fixed work that touches no reformlab code: interpreter-bound Python,
    dict and tuple churn, then numpy draws and arithmetic. The mix tracks the
    host's speed for both the scalar Python workloads and the numpy-bound
    ones better than either part alone. It holds under 2 MB at a time, so it
    does not set the process's peak RSS."""
    import numpy as np

    x = 0
    for i in range(200_000):
        x += i * i % 7
    table = {}
    for i in range(30_000):
        table[i & 1023] = (i, i * 0.5)
        x += table[i & 1023][0]
    rng = np.random.default_rng(12345)
    for _ in range(4):
        a = rng.random(1 << 16)
        for _ in range(6):
            a = np.sqrt(a * 1.0001 + 0.5)
    return x


def calibrate() -> float:
    t0 = perf_counter()
    _calibration_kernel()
    return perf_counter() - t0


def _factor(before: float, after: float) -> float:
    return 2 * NOMINAL_CALIBRATION_S / (before + after)


class Pacer:
    """Cuts measured work into segments with a calibration between them.

    A workload calls ``tick()`` after every operation; when the current
    segment has run ``segment_s`` seconds, the clock pauses for a
    calibration. ``end_pass`` returns the pass's raw and corrected seconds
    and the speed factor of each operation.
    """

    def __init__(self, segment_s: float = SEGMENT_S):
        self.segment_s = segment_s
        self.calibrations = [calibrate()]

    def begin_pass(self) -> None:
        self._segments: list[tuple[float, int]] = []
        self._ops = 0
        self._t0 = perf_counter()

    def tick(self) -> None:
        self._ops += 1
        if perf_counter() - self._t0 >= self.segment_s:
            self._close()
            self._t0 = perf_counter()

    def _close(self) -> None:
        self._segments.append((perf_counter() - self._t0, self._ops))
        self._ops = 0
        self.calibrations.append(calibrate())

    def end_pass(self) -> tuple[float, float, list[float]]:
        self._close()
        first = len(self.calibrations) - 1 - len(self._segments)
        raw = corrected = 0.0
        per_op: list[float] = []
        for j, (seconds, ops) in enumerate(self._segments):
            f = _factor(self.calibrations[first + j], self.calibrations[first + j + 1])
            raw += seconds
            corrected += seconds * f
            per_op += [f] * ops
        return raw, corrected, per_op


class Ledger:
    """Operations attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def _check_outputs(workload, result, ledger: Ledger, label: str) -> None:
    for k, out in enumerate(result.outputs):
        what = f"{label} output {k}"
        try:
            ok = workload.check(out)
        except Exception as exc:  # a crashing check is a failed operation
            ok = False
            what += f" ({type(exc).__name__}: {exc})"
        ledger.record(ok, what)


@dataclasses.dataclass
class Pass:
    wall: float  # seconds of measured work, calibrations excluded
    corrected: float  # the same at the reference speed
    factors: list[float]  # speed factor of each operation
    result: object  # workloads.PassResult, or None when the pass raised


def _timed_passes(workload, seconds, ledger, label, pacer, tracer=None, min_passes=1):
    """Repeat passes until ``seconds`` have elapsed (at least ``min_passes``)."""
    passes: list[Pass] = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        root = tracer.begin_pass() if tracer is not None else None
        pacer.begin_pass()
        try:
            result = workload.run_pass(pacer, tracer)
        except Exception as exc:  # the program failed: count it, keep measuring
            result = None
            ledger.record(False, f"{label} pass {len(passes)}: {type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.end_pass(root)
        wall, corrected, factors = pacer.end_pass()
        passes.append(Pass(wall, corrected, factors, result))
        if result is not None:
            if tracer is not None:
                tracer.on = False
            _check_outputs(workload, result, ledger, f"{label} pass {len(passes) - 1}")
            # keep only what later comparisons need, so memory does not grow
            # with the number of passes
            result.digest = workload.digest(result.outputs)
            result.counts = workload.layer_counts(result.outputs)
            result.outputs = None
            if tracer is not None:
                tracer.on = True
    return passes


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def measure_setup(args) -> tuple[float, float]:
    """Median wall time, raw and at reference speed, of a fresh process that
    imports the library, loads the fixture and generates this workload's
    inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, calibrations = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), capture_output=True,
                              text=True, timeout=120)
        raw.append(perf_counter() - t0)
        calibrations.append(calibrate())
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
    corrected = [t * _factor(a, b) for t, a, b in zip(raw, calibrations, calibrations[1:])]
    return statistics.median(raw), statistics.median(corrected)


def run_untraced(workload, args, ledger):
    workload.warm_up()
    pacer = Pacer()
    passes = _timed_passes(workload, args.seconds, ledger, "pass", pacer, min_passes=3)
    done = [p for p in passes if p.result is not None]
    if not done:
        sys.exit("perfbench: every pass raised; nothing was measured")
    items = done[0].result.items
    tail_q = workload.tail_percentile

    def figures(corrected: bool) -> dict:
        walls = [p.corrected if corrected else p.wall for p in done]
        latencies = [x * f if corrected else x for p in done
                     for x, f in zip(p.result.latencies, p.factors)]
        return {
            "throughput_per_s": items / statistics.median(walls),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * _percentile(latencies, tail_q),
        }

    metrics = figures(corrected=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_latencies = sum(len(p.result.latencies) for p in done)
    detail = {
        "passes": len(passes),
        "items_per_pass": items,
        "item": workload.item,
        "operation": workload.op,
        "latency_samples": n_latencies,
        "tail_percentile": tail_q,
        "tail_samples_beyond": int(round(n_latencies * (100.0 - tail_q) / 100.0)),
        "calibrations": len(pacer.calibrations),
        "calibration_s_range": [min(pacer.calibrations), max(pacer.calibrations)],
        "uncorrected": figures(corrected=False),
    }
    return metrics, detail


def _median_over_passes(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def _layer_times(b: dict, sep_items: set[int]) -> dict:
    inc = b["inclusive"]
    dev = sum(t for (n, item), t in b["by_item"].items()
              if n == "verification.deviation_check" and item not in sep_items)
    dev_sep = sum(t for (n, item), t in b["by_item"].items()
                  if n == "verification.deviation_check" and item in sep_items)
    blocks = b["durations"]["montecarlo.block"]
    out = {f"{m}.self_s": b["self"].get(m, 0.0) for m in MODULES}
    out.update({
        "model_core.replace_s": inc.get("model_core.replace", 0.0),
        "model_core.check_assumptions_s": inc.get("model_core.check_assumptions", 0.0),
        "model_core.find_p_bar_s": inc.get("model_core.find_p_bar", 0.0),
        "equilibrium.solve_s": inc.get("equilibrium.solve", 0.0),
        "welfare.formula_welfare_s": inc.get("welfare.formula_welfare", 0.0),
        "welfare.selection_s": inc.get("welfare.selection", 0.0),
        "welfare.thresholds_s": inc.get("welfare.thresholds", 0.0),
        "welfare.optimal_regime_s": inc.get("welfare.optimal_regime", 0.0),
        "verification.deviation_check_s": dev,
        "verification.deviation_check_sep_s": dev_sep,
        "verification.bayes_news_s": sum(inc.get(f"verification.{n}", 0.0) for n in (
            "bayes_consistency", "news_classification", "divinity_breakeven")),
        "montecarlo.block_s": statistics.median(blocks) if blocks else 0.0,
        "montecarlo.merge_s": (
            inc.get("montecarlo.simulate", 0.0) - inc.get("montecarlo.block", 0.0)
            - inc.get("montecarlo.cell_tables", 0.0)
        ),
    })
    return out


def _layer_counts(b: dict, result) -> dict:
    counts = {
        "equilibrium.solve_calls": b["calls"].get("equilibrium.solve", 0),
        "montecarlo.blocks": b["calls"].get("montecarlo.block", 0),
        "model_core.informativeness_calls": b["counts"].get("model_core.informativeness_calls", 0),
        "welfare.H_calls": b["counts"].get("welfare.H_calls", 0),
        "verification.expected_utility_calls":
            b["counts"].get("verification.expected_utility_calls", 0),
        "cli.rows": 0, "cli.na_cells": 0, "equilibrium.refusals": 0,
        "verification.verdict_pass": 0, "verification.verdict_fail": 0,
        "verification.verdict_documented": 0, "verification.grid_points": 0,
    }
    counts.update(result.counts)
    return counts


def _rng_floor(np, seed: int, n_draws: int, block: int, rounds: int = 3) -> float:
    """Median time, at the reference speed, to draw one block's four uniform
    vectors from the block's own generator, as the MC kernel does before any
    arithmetic."""
    times = []
    before = calibrate()
    for _ in range(rounds):
        round_times = []
        i, remaining = 0, n_draws
        while remaining > 0:
            n = min(block, remaining)
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            )
            t0 = perf_counter()
            for _ in range(4):
                rng.random(n)
            round_times.append(perf_counter() - t0)
            i, remaining = i + 1, remaining - n
        after = calibrate()
        times += [t * _factor(before, after) for t in round_times]
        before = after
    return statistics.median(times)


def montecarlo_extras(reformlab, np, workload, ledger) -> dict:
    """RNG floor, allocation peak of one block and thread scaling."""
    config, params = workload.config, workload.params
    block = getattr(reformlab.montecarlo, "BLOCK_SIZE", 1 << 18)
    eq = reformlab.solve(params, config.regime)
    floor = _rng_floor(np, config.seed, config.n_draws, block)

    tracemalloc.start()
    try:
        reformlab.simulate(dataclasses.replace(config, n_draws=block), eq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    threads = len(os.sched_getaffinity(0))
    timings: dict[int, list[float]] = {1: [], threads: []}
    stats: dict[int, str] = {}
    before = calibrate()
    try:
        for _ in range(3):
            for k in sorted(timings):
                os.environ["REFORMLAB_THREADS"] = str(k)
                t0 = perf_counter()
                out = reformlab.simulate(config, eq)
                elapsed = perf_counter() - t0
                after = calibrate()
                timings[k].append(elapsed * _factor(before, after))
                before = after
                stats[k] = json.dumps(out.to_json(), sort_keys=True)
    finally:
        os.environ["REFORMLAB_THREADS"] = "1"
    ledger.record(stats[1] == stats[threads],
                  f"simulate stats differ between 1 and {threads} threads")
    return {
        "montecarlo.rng_floor_s": floor,
        "montecarlo.block_alloc_peak_mb": peak / 2**20,
        "montecarlo.thread_speedup":
            statistics.median(timings[1]) / statistics.median(timings[threads]),
    }


def run_traced(reformlab, np, workload, args, ledger):
    from tracing import Tracer, leftover_wrappers, pass_breakdown, write_spans

    workload.warm_up()
    half = args.seconds / 2
    pacer = Pacer(segment_s=math.inf)  # calibrate between passes only, outside the spans
    plain = _timed_passes(workload, half, ledger, "untraced pass", pacer)
    reference = next((p.result for p in plain if p.result is not None), None)

    tracer = Tracer()
    patched = tracer.install()
    try:
        traced = _timed_passes(workload, half, ledger, "traced pass", pacer, tracer)
    finally:
        tracer.uninstall()
    left = leftover_wrappers()
    ledger.record(patched > 0 and not left, f"wrappers not restored: {left}")

    sep_items = workload.separating_items() if hasattr(workload, "separating_items") else set()
    times, counts = [], []
    for p, one in enumerate(traced):
        result = one.result
        b = pass_breakdown(tracer, p)
        total_self = sum(b["self"].values())
        ledger.record(
            abs(total_self - b["wall"]) <= 1e-9 * max(1.0, b["wall"]) and b["min_self"] > -1e-9,
            f"traced pass {p}: self times sum to {total_self}, wall {b['wall']}",
        )
        if result is None:
            continue
        if reference is not None:
            ledger.record(result.digest == reference.digest,
                          f"traced pass {p} outputs differ from the untraced pass")
        factor = one.corrected / one.wall
        times.append({k: v * factor for k, v in _layer_times(b, sep_items).items()})
        counts.append(_layer_counts(b, result))
    if not times:
        sys.exit("perfbench: every traced pass raised; nothing was measured")
    ledger.record(all(c == counts[0] for c in counts), "layer counts differ between passes")
    if reference is not None:
        ledger.record(all(counts[0][k] == v for k, v in reference.counts.items()),
                      "layer counts differ between traced and untraced passes")

    metrics = _median_over_passes(times)
    metrics.update({k: v for k, v in counts[0].items() if k != "verification.grid_points"})
    dev_time = metrics["verification.deviation_check_s"] + metrics["verification.deviation_check_sep_s"]
    metrics["verification.grid_points_per_s"] = (
        counts[0]["verification.grid_points"] / dev_time if dev_time > 0 else 0.0
    )
    metrics["trace_overhead_s"] = (
        statistics.median(p.corrected for p in traced) - statistics.median(p.corrected for p in plain)
    )
    extras = {"montecarlo.rng_floor_s": 0.0, "montecarlo.block_alloc_peak_mb": 0.0,
              "montecarlo.thread_speedup": 0.0}
    if workload.name == "simulate-1e7":
        extras = montecarlo_extras(reformlab, np, workload, ledger)
    metrics.update(extras)
    floor = metrics["montecarlo.rng_floor_s"]
    metrics["montecarlo.kernel_over_rng"] = metrics["montecarlo.block_s"] / floor if floor else 0.0

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.tsv"
    write_spans(tracer, spans_path)
    detail = {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "attributes_patched": patched,
        "spans": len(tracer.names),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_speed_factors": [p.corrected / p.wall for p in traced],
    }
    return metrics, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    reformlab = _import_library()
    import numpy as np

    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0

    setup = measure_setup(args) if not args.trace else None
    workload = WORKLOADS[args.workload](args.seed)
    env = environment(reformlab, np)
    ledger = Ledger()
    if args.trace:
        metrics, detail = run_traced(reformlab, np, workload, args, ledger)
    else:
        metrics, detail = run_untraced(workload, args, ledger)
        metrics["setup_s"] = setup[1]
        detail["uncorrected"]["setup_s"] = setup[0]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "detail": detail,
        "error_rate": ledger.failed / max(1, ledger.attempted), "failures": ledger.notes,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    units = _declared_units()
    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]:>16.6g} {units.get(name, '')}")
    print(f"  {'error_rate':<40} {record['error_rate']:>16.6g} "
          f"({ledger.failed} failed of {ledger.attempted} attempted)")
    for note in ledger.notes:
        print(f"  FAILED: {note}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"run-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump({**record, "metrics": metrics}, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }))
    return 0


def _declared_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
