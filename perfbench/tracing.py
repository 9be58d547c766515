"""Span tracing installed from outside the library.

The traced run replaces selected reformlab functions with timing wrappers
on every module attribute (and class attribute) that refers to them, so
callers that imported a function by name are traced too. Spans are kept in
memory as parallel lists (name, start, end, parent, item) and turned into
per-pass self times afterwards. Targets missing from the installed library
are skipped, so a refactor that removes a function reports zero for it
instead of breaking the traced run.
"""

from __future__ import annotations

import sys
from time import perf_counter

#: (home module, qualified name, span name). Each call opens one span.
SPAN_TARGETS = (
    ("reformlab.model_core", "Params.replace", "model_core.replace"),
    ("reformlab.model_core", "check_assumptions", "model_core.check_assumptions"),
    ("reformlab.model_core", "find_p_bar", "model_core.find_p_bar"),
    ("reformlab.equilibrium", "solve", "equilibrium.solve"),
    ("reformlab.welfare", "formula_welfare", "welfare.formula_welfare"),
    ("reformlab.welfare", "_welfare_and_selection", "welfare.selection"),
    ("reformlab.welfare", "regime_welfare", "welfare.regime_welfare"),
    ("reformlab.welfare", "optimal_regime", "welfare.optimal_regime"),
    ("reformlab.welfare", "thresholds", "welfare.thresholds"),
    ("reformlab.verification", "deviation_check", "verification.deviation_check"),
    ("reformlab.verification", "bayes_consistency", "verification.bayes_consistency"),
    ("reformlab.verification", "news_classification", "verification.news_classification"),
    ("reformlab.verification", "divinity_breakeven", "verification.divinity_breakeven"),
    ("reformlab.montecarlo", "simulate", "montecarlo.simulate"),
    ("reformlab.montecarlo", "_cell_tables", "montecarlo.cell_tables"),
    ("reformlab.montecarlo", "_run_block", "montecarlo.block"),
)

#: (home module, name, counter name). Called too often for spans; counted only.
COUNT_TARGETS = (
    ("reformlab.model_core", "informativeness_condition", "model_core.informativeness_calls"),
    ("reformlab.welfare", "H", "welfare.H_calls"),
    ("reformlab.verification", "expected_utility", "verification.expected_utility_calls"),
)

#: spans whose item id is their ordinal within the pass (the MC block index)
ORDINAL_ITEMS = frozenset({"montecarlo.block"})

_MARK = "__perfbench_original__"


class Tracer:
    """In-memory span recorder for one process, single-threaded use."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self.pass_starts: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.pass_counts: list[dict[str, int]] = []
        self.item = -1
        self.on = True
        self._stack: list[int] = []
        self._ordinal: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        if name in ORDINAL_ITEMS:
            item = self._ordinal.get(name, 0)
            self._ordinal[name] = item + 1
        else:
            item = self.item
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(item)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def begin_pass(self) -> int:
        """Open the root span of one pass and reset the per-pass counters."""
        for cell in self.counts.values():
            cell[0] = 0
        self._ordinal.clear()
        self.item = -1
        self.pass_starts.append(len(self.names))
        return self.open("bench.pass")

    def end_pass(self, root: int) -> None:
        self.close(root)
        self.pass_counts.append({k: v[0] for k, v in self.counts.items()})

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        setattr(traced, _MARK, fn)
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count_wrapper(self, fn, name):
        tracer = self
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            if tracer.on:
                cell[0] += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARK, fn)
        counted.__name__ = getattr(fn, "__name__", name)
        return counted

    def install(self) -> int:
        """Wrap every target on every reformlab attribute that refers to it.

        Returns the number of attributes patched.
        """
        holders = _reformlab_modules()
        for home, qualname, name in SPAN_TARGETS:
            self._patch_all(holders, home, qualname, self._span_wrapper, name)
        for home, qualname, name in COUNT_TARGETS:
            self.counts.setdefault(name, [0])
            self._patch_all(holders, home, qualname, self._count_wrapper, name)
        return len(self._patched)

    def _patch_all(self, holders, home, qualname, make, name) -> None:
        module = sys.modules.get(home)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None or not callable(original):
            return
        wrapper = make(original, name)
        if owner_name:
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()


def leftover_wrappers() -> list[str]:
    """Attributes of reformlab modules and classes still holding a wrapper."""
    found = []
    for module in _reformlab_modules():
        for key, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


def _reformlab_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "reformlab" or name.startswith("reformlab."))
    ]


def pass_breakdown(tracer: Tracer, p: int) -> dict:
    """Self time per module, inclusive time and call count per span name,
    per-item inclusive times, and the root wall time of traced pass ``p``."""
    lo = tracer.pass_starts[p]
    hi = tracer.pass_starts[p + 1] if p + 1 < len(tracer.pass_starts) else len(tracer.names)
    names, parents = tracer.names, tracer.parents
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(lo, hi)]
    child = [0.0] * (hi - lo)
    for i in range(lo + 1, hi):
        child[parents[i] - lo] += dur[i - lo]
    self_by_module: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_item: dict[tuple[str, int], float] = {}
    min_self = 0.0
    for i in range(lo, hi):
        name = names[i]
        own = dur[i - lo] - child[i - lo]
        min_self = min(min_self, own)
        module = name.split(".", 1)[0]
        self_by_module[module] = self_by_module.get(module, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        j = parents[i]
        while j >= 0 and names[j] != name:
            j = parents[j]
        if j < 0:  # outermost span of this name: count its time once
            inclusive[name] = inclusive.get(name, 0.0) + dur[i - lo]
            key = (name, tracer.items[i])
            by_item[key] = by_item.get(key, 0.0) + dur[i - lo]
    return {
        "wall": dur[0],
        "self": self_by_module,
        "inclusive": inclusive,
        "calls": calls,
        "by_item": by_item,
        "min_self": min_self,
        "durations": {
            name: [dur[i - lo] for i in range(lo, hi) if names[i] == name]
            for name in ORDINAL_ITEMS
        },
        "counts": tracer.pass_counts[p],
    }


def write_spans(tracer: Tracer, path) -> None:
    """One tab-separated line per span: pass, name, start, end (seconds from
    the pass start), parent index, item id."""
    with open(path, "w") as f:
        f.write("pass\tindex\tname\tstart\tend\tparent\titem\n")
        bounds = tracer.pass_starts + [len(tracer.names)]
        for p in range(len(tracer.pass_starts)):
            t0 = tracer.starts[bounds[p]]
            for i in range(bounds[p], bounds[p + 1]):
                f.write(
                    f"{p}\t{i}\t{tracer.names[i]}\t{tracer.starts[i] - t0:.9f}\t"
                    f"{tracer.ends[i] - t0:.9f}\t{tracer.parents[i]}\t{tracer.items[i]}\n"
                )
