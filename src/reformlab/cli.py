"""Command-line front end: parameter I/O, subcommand dispatch, and the
sweep engine.

Subcommands: check | solve | verify | welfare | sweep | simulate.
Exit codes: 0 success, 1 precondition/assumption failure, underflow or an
overflowing welfare total, 2 malformed input (JSON that does not decode, is
not UTF-8, nests too deeply or holds a number too large for a float) or an
unreadable/unwritable file.

Floats are emitted with ``repr`` (shortest round-trip form) so CSV and JSON
outputs are bit-stable across runs; JSON output is strict, with non-finite
floats written as ``null``. Sweep rows where a quantity cannot be
computed carry the sentinel "NA", never a silent omission: an output group
whose computation raises a ``ReformLabError`` (every group, at a point
outside the parameter domain) is "NA" across its own columns. A sweep
streams its rows one after another in the calling thread, each computed
when it is pulled, over at most ``MAX_SWEEP_STEPS`` points per axis; each
row's welfare columns come from ``optimal_regime(params, strict=False)``.
``REFORMLAB_THREADS`` affects ``simulate`` only.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Optional

from .errors import DomainError, ReformLabError
from .equilibrium import AgentAction, REGIMES, STATUS_QUO, solve
from .model_core import ASSUMPTION_CHECKS, GAME_KEYS, PARAM_FIELDS, PARAM_KEYS, Params
from .model_core import assumption_values, check_assumptions, read_json, read_object
from .model_core import require_integer, require_number, require_real
from .montecarlo import SimConfig, simulate
from .verification import (MAX_GRID_SIZE, bayes_consistency, deviation_check,
                           divinity_breakeven, news_classification)
from .welfare import WELFARE_REGIMES, optimal_regime, thresholds

FIXTURES = ("sanity", "part3")

#: most points per sweep axis. The rows are streamed, so a sweep holds only
#: its axis values: two axes at the cap peak near 8 MB (tracemalloc), and
#: their 10^10 rows would run for weeks.
MAX_SWEEP_STEPS = 100_000


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled fixture parameter file."""
    stem = name.removesuffix(".json")
    if stem not in FIXTURES:
        raise DomainError(f"unknown fixture {name!r}; available: {FIXTURES}")
    return str(resources.files("reformlab").joinpath(f"fixtures/{stem}.json"))


def _load_params(value: str) -> Params:
    """Resolve --params: a filesystem path, or a bundled fixture name."""
    if os.path.exists(value):
        return Params.load(value)
    if value.removesuffix(".json") in FIXTURES:
        return Params.load(fixture_path(value))
    raise DomainError(f"--params: no such file or fixture: {value!r}")


def _format_cell(value) -> str:
    """The one CSV cell rule: ``repr`` floats, ``true``/``false``, and ``NA`` for None or NaN."""
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "NA"
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class SweepAxis:
    """``steps`` evenly spaced values of one game primitive, from ``min`` to exactly ``max``."""

    param: str
    min: float
    max: float
    steps: int

    def __post_init__(self):
        if not isinstance(self.param, str) or self.param not in GAME_KEYS:
            raise DomainError(f"invalid sweep axis {self.param!r}")
        lo, hi, _, _ = PARAM_FIELDS[self.param][1]
        closure = (lo, hi, math.isinf(lo), math.isinf(hi))  # an infinite end stays open
        for end in ("min", "max"):
            require_real(f"axis {self.param}: {end}", getattr(self, end), closure)
        require_integer(f"axis {self.param}: steps", self.steps, 2, MAX_SWEEP_STEPS)
        if not self.min < self.max:
            raise DomainError(f"axis {self.param}: min must be < max")

    def values(self) -> list[float]:
        span = self.max - self.min
        return [self.min + span * i / (self.steps - 1) for i in range(self.steps - 1)] + [self.max]


def _assumption_cells(params: Params) -> list:
    return [passed for passed, _ in assumption_values(params)]


_WELFARE_TERMS = ("W", "Q", "total")


def _welfare_cells(params: Params) -> list:
    # paper-algebra welfare (unclamped efforts), see welfare module note
    report = optimal_regime(params, strict=False)
    terms = [getattr(report.entries[r], t) for r in WELFARE_REGIMES for t in _WELFARE_TERMS]
    return terms + [report.optimal, report.margin]


def _threshold_cells(params: Params) -> list:
    th = thresholds(params)
    return [th.lambda_hat, th.exists, th.R_low, th.R_high]


#: the sweep's output groups in column order: name -> (columns, the cells of
#: a row's ``Params``)
SWEEP_GROUPS = {
    "assumptions": (ASSUMPTION_CHECKS, _assumption_cells),
    "welfare": (
        tuple(f"{t}_{r}" for r in WELFARE_REGIMES for t in _WELFARE_TERMS)
        + ("optimal_regime", "margin"),
        _welfare_cells,
    ),
    "thresholds": (("lambda_hat", "thresholds_exist", "R_low", "R_high"), _threshold_cells),
}


@dataclass(frozen=True)
class SweepSpec:
    """Grid sweep over 1-2 parameter axes with selectable output groups."""

    base: Params
    axes: tuple[SweepAxis, ...]
    outputs: tuple[str, ...] = tuple(SWEEP_GROUPS)

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise DomainError(f"sweeps take 1 or 2 axes, got {len(self.axes)}")
        if len({a.param for a in self.axes}) != len(self.axes):
            raise DomainError("sweep axes must be distinct parameters")
        bad = set(self.outputs) - set(SWEEP_GROUPS)
        if bad:
            raise DomainError(f"unknown sweep outputs: {sorted(bad)}")

    @classmethod
    def from_json(cls, obj: dict) -> "SweepSpec":
        read_object(obj, "sweep spec", ("base", "axes"), ("base", "axes", "outputs"))
        if not isinstance(obj["axes"], list):
            raise DomainError("sweep 'axes' must be a list of axis objects")
        axes, keys = [], ("param", "min", "max", "steps")
        for a in obj["axes"]:
            read_object(a, "sweep axis", keys, keys)
            lo, hi = (require_number(f"axis {a['param']}: {k}", a[k]) for k in ("min", "max"))
            axes.append(SweepAxis(param=a["param"], min=lo, max=hi, steps=a["steps"]))
        outputs = obj.get("outputs", list(SWEEP_GROUPS))
        if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
            raise DomainError("sweep 'outputs' must be a list of names")
        return cls(base=Params.from_json(obj["base"]), axes=tuple(axes), outputs=tuple(outputs))


def run_sweep(spec: SweepSpec) -> Iterator[str]:
    """Yield CSV lines (header first), rows in row-major axis order, each
    row computed when it is pulled."""
    groups = [group for name, group in SWEEP_GROUPS.items() if name in spec.outputs]
    param_cols = PARAM_KEYS[:-1]  # every parameter but eps_tol
    yield ",".join([*param_cols, *(c for columns, _ in groups for c in columns)])
    base = spec.base.to_json()
    head = [_format_cell(base[k]) for k in param_cols]  # the base columns, formatted once
    slots = [param_cols.index(a.param) for a in spec.axes]
    names = [PARAM_FIELDS[a.param][0] for a in spec.axes]  # their Params attributes
    # each axis value with its text, formatted once per axis
    axes = [[(v, _format_cell(v)) for v in a.values()] for a in spec.axes]
    for point in itertools.product(*axes):
        row = head.copy()
        for slot, (_, text) in zip(slots, point):
            row[slot] = text
        try:
            params = spec.base.replace(**{k: v for k, (v, _) in zip(names, point)})
        except DomainError:
            params = None  # outside the parameter domain: every group is NA
        for columns, cells in groups:
            try:
                row += ["NA"] * len(columns) if params is None else [
                    _format_cell(c) for c in cells(params)]
            except ReformLabError:
                row += ["NA"] * len(columns)
        yield ",".join(row)


def _output(out: Optional[str]):
    """Context manager over the file ``out`` (LF line endings), or stdout."""
    return open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout)


def _emit(text: str, out: Optional[str]) -> None:
    with _output(out) as f:
        f.write(text if text.endswith("\n") else text + "\n")


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _json_dumps(obj) -> str:
    return json.dumps(_finite_or_null(obj), indent=2, allow_nan=False)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reformlab",
        description="Equilibria, verification, and welfare for the reform-delegation game",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, regime=False):
        sp.add_argument("--params", required=True,
                        help="parameter JSON file, or bundled fixture 'sanity' / 'part3'")
        if regime:
            sp.add_argument("--regime", required=True, choices=list(REGIMES))
            sp.add_argument("--rent-mode", choices=["strict", "relaxed"], default="relaxed")
            sp.add_argument("--pooling-effort", type=float, default=None)
        sp.add_argument("--out", help="write output to this path instead of stdout")

    add_common(sub.add_parser("check", help="evaluate all parameter assumptions"))
    add_common(sub.add_parser("solve", help="construct a regime's equilibrium"), regime=True)

    sp = sub.add_parser("verify", help="run the numerical checks on an equilibrium")
    add_common(sp, regime=True)
    sp.add_argument("--grid", type=int, default=100_001,
                    help="resolution of the deviation tolerance")

    sp = sub.add_parser("welfare", help="welfare table, optimal regime, thresholds")
    add_common(sp)
    sp.add_argument("--rent-mode", choices=["strict", "relaxed"], default="relaxed")
    sp.add_argument("--no-strict", action="store_true",
                    help="use the ungated closed-form welfare surface")
    sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = sub.add_parser("sweep", help="grid sweep to CSV")
    sp.add_argument("--sweep", required=True, help="sweep spec JSON file")
    sp.add_argument("--out", help="write CSV here instead of stdout")

    sp = sub.add_parser("simulate", help="seeded Monte Carlo simulation")
    add_common(sp, regime=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=100_000, help="number of draws")
    sp.add_argument("--format", choices=["table", "json"], default="table")
    return parser


def _solve(args, params: Params):
    """The equilibrium that --regime, --rent-mode and --pooling-effort name at ``params``."""
    return solve(params, args.regime, rent_mode=args.rent_mode, pooling_effort=args.pooling_effort)


def _cmd_check(args) -> int:
    params = _load_params(args.params)
    report = check_assumptions(params)
    _emit(_json_dumps(report.to_json()), args.out)
    return 0


def _cmd_solve(args) -> int:
    params = _load_params(args.params)
    eq = _solve(args, params)
    _emit(_json_dumps(eq.to_json()), args.out)
    return 0


def _cmd_verify(args) -> int:
    params = _load_params(args.params)
    require_integer("--grid", args.grid, 2, MAX_GRID_SIZE)
    eq = _solve(args, params)
    dev = deviation_check(eq, params, grid_size=args.grid)
    sys.stderr.write(dev.format_table() + "\n")
    bayes = bayes_consistency(eq, params)
    news = news_classification(eq.profile, params)
    breakeven = divinity_breakeven(eq, AgentAction(STATUS_QUO), params)
    payload = {
        "deviation": dev.to_json(),
        "bayes": bayes.to_json(),
        "news": news.to_json(),
        "breakeven_status_quo": breakeven.to_json(),
    }
    _emit(_json_dumps(payload), args.out)
    return 0 if dev.passed and bayes.passed else 1


def _cmd_welfare(args) -> int:
    params = _load_params(args.params)
    report = optimal_regime(params, rent_mode=args.rent_mode, strict=not args.no_strict)
    if args.format == "csv":  # prints no threshold, so computes none
        rows = [("regime", "W", "Q", "total", "optimal_flag")] + [
            (r, e.W, e.Q, e.total, r == report.optimal) for r, e in report.entries.items()]
        _emit("\n".join(",".join(map(_format_cell, row)) for row in rows), args.out)
    else:
        th = thresholds(params)
        _emit(_json_dumps({"welfare": report.to_json(), "thresholds": th.to_json()}), args.out)
    return 0


def _cmd_sweep(args) -> int:
    try:
        spec = SweepSpec.from_json(read_json(args.sweep, "--sweep: invalid JSON"))
    except FileNotFoundError:
        raise DomainError(f"--sweep: no such file: {args.sweep!r}")
    with _output(args.out) as f:
        for line in run_sweep(spec):
            f.write(line + "\n")
    return 0


def _cmd_simulate(args) -> int:
    params = _load_params(args.params)
    config = SimConfig(n_draws=args.n, seed=args.seed, regime=args.regime, params=params)
    eq = _solve(args, params)
    stats = simulate(config, eq)
    text = _json_dumps(stats.to_json()) if args.format == "json" else stats.format_table()
    _emit(text, args.out)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "welfare": _cmd_welfare,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
}


def run(argv=None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReformLabError as exc:  # a failed assumption, precondition or underflow
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
