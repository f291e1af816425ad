"""Spans around calls into z2zu, recorded from outside the package.

``Tracer.install`` replaces each traced function at every binding in
the loaded ``z2zu.*`` modules (``z2zu.search.span`` and
``z2zu.standard_form.span`` are both the one ``core.span``), so calls
between modules are recorded as well as the benchmark's own calls.
Each span is (name, start, end, parent span, operation id); spans stay
in memory and are written out once, by ``write``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# module -> traced public functions.  enumerate_candidates is a
# generator: its body runs inside search_with_pruning's loop, so it gets
# no span, only a count of the candidates it yields.
TRACED = {
    "core": ("span", "additive_span", "dual_brute", "min_lee_weight",
             "parse_matrix_file"),
    "weights": ("lee_enumerator", "column_profile", "macwilliams"),
    "standard_form": ("standard_form",),
    "classify": ("dual_summary", "classify"),
    "search": ("search_with_pruning", "verify_fsd_classification"),
    "cli": ("main",),
}


def _code_words(args, result) -> int:
    return result.cardinality


def _arg_words(args, result) -> int:
    return args[0].cardinality


def _ambient_words(args, result) -> int:
    return args[0].shape.ambient_size


# span name -> (counter suffix, words counted per call)
WORD_COUNTS = {
    "core.span": ("words", _code_words),
    "core.dual_brute": ("ambient_words", _ambient_words),
    "weights.lee_enumerator": ("words", _arg_words),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self.installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        words = WORD_COUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if words is not None:
                counts[f"{name}.{words[0]}"] += words[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_candidates(self, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            for code in fn(*args, **kwargs):
                counts["search.funnel.candidates"] += 1
                yield code

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each of its bindings."""
        # z2zu.standard_form and z2zu.classify on the package are the
        # re-exported functions, so the submodules come from sys.modules
        modules = [m for n, m in list(sys.modules.items())
                   if n == "z2zu" or n.startswith("z2zu.")]
        replace = {}
        for mod, names in TRACED.items():
            module = sys.modules[f"z2zu.{mod}"]
            for fname in names:
                fn = getattr(module, fname)
                replace[id(fn)] = self._wrap(f"{mod}.{fname}", fn)
        fn = sys.modules["z2zu.search"].enumerate_candidates
        replace[id(fn)] = self._count_candidates(fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
                    self.installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self.installed):
            setattr(module, attr, value)
        self.installed.clear()

    def layer_stats(self) -> dict[str, float]:
        """calls, busy_s (inclusive) and self_s per span name, plus the
        counters; self time is busy time minus time covered by children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, float] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            stats[name + ".calls"] += 1
            stats[name + ".busy_s"] += end - start
            stats[name + ".self_s"] += end - start - child_time[i]
        stats.update(self.counts)
        return dict(stats)

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose parent is a parent_name span."""
        spans = self.spans
        return sum(1 for name, _, _, parent, _ in spans
                   if name == child_name and parent >= 0
                   and spans[parent][0] == parent_name)

    def write(self, path: Path) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": [[n, round(s - t0, 9), round(e - t0, 9), p, op]
                          for n, s, e, p, op in self.spans],
            }, fh, separators=(",", ":"))
