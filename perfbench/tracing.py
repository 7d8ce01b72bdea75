"""Outside-in tracing of lexlab's layers, from the benchmark's own files.

Each traced function is replaced, in every ``lexlab`` module namespace that
holds it, by a wrapper that records a span.  Call sites look names up in
their module globals at call time, so the replacement catches calls made
inside the library too (``gotzmann.exchange_property`` reaching
``gotzmann.lex_ideal``, ``reports.verify_main`` reaching
``groebner.gin``).  No library source changes.

Spans stay in memory as ``(name, parent, op, start, end)`` tuples; ``parent``
is the index of the enclosing span (-1 at the top), ``op`` the index of the
benchmark operation they belong to (-1 during set-up).  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from time import perf_counter
from types import GeneratorType

# (module, function) pairs; the metric prefix is "<module>.<function>".
TRACED = (
    ("families", "all_strongly_stable"),
    ("hilbert", "hilbert_series"),
    ("ideals", "saturate"),
    ("ideals", "colon"),
    ("gotzmann", "lex_ideal"),
    ("gotzmann", "gotzmann_representation"),
    ("gotzmann", "exchange_property"),
    ("cohomology", "local_cohomology_table"),
    ("cohomology", "tables_agree"),
    ("linalg", "fraction_free_rank"),
    ("groebner", "gin"),
    ("groebner", "buchberger"),
    ("groebner", "apply_change"),
    ("groebner", "normal_form"),
    ("reports", "verify_main"),
)

OP_SPAN = "bench.op"


def _observe_rank(counters: dict, args, result) -> None:
    # computed sizes of the matrix as passed in, not measured work
    rows = args[0]
    r = len(rows)
    c = len(rows[0]) if r else 0
    counters["linalg.fraction_free_rank.cells"] += r * c
    counters["linalg.fraction_free_rank.ops_est"] += r * c * min(r, c)
    counters["linalg.fraction_free_rank.max_rows"] = max(
        counters["linalg.fraction_free_rank.max_rows"], r)


def _observe_normal_form(counters: dict, args, result) -> None:
    if result.is_zero():
        counters["groebner.normal_form.zero"] += 1


OBSERVERS = {
    "linalg.fraction_free_rank": _observe_rank,
    "groebner.normal_form": _observe_normal_form,
}

COUNTERS = ("linalg.fraction_free_rank.cells", "linalg.fraction_free_rank.ops_est",
            "linalg.fraction_free_rank.max_rows", "groebner.normal_form.zero")


class Tracer:
    """In-memory nested spans plus counters for one benchmark pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if isinstance(result, GeneratorType):
                result = list(result)  # time the enumeration, not its creation
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, parent, self.op, start, end)
        return result

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded lexlab module."""
        modules = [m for key, m in sys.modules.items()
                   if key == "lexlab" or key.startswith("lexlab.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"lexlab.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def summary(self) -> tuple[dict, float]:
        """Per span name: calls, total and self seconds; and the self seconds
        of the layers' spans inside operations, which should account for the
        operations' time."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        in_ops = 0.0
        for idx, (name, _, op, start, end) in enumerate(self.spans):
            own = end - start - child[idx]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
            if op >= 0 and name != OP_SPAN:
                in_ops += own
        for mod_name, fn_name in TRACED:
            out.setdefault(f"{mod_name}.{fn_name}",
                           {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        return out, in_ops
