"""Spans and counters around apn20's public functions, installed from outside.

Each wrapped function records a span (name, start, end, parent, operation
id); spans stay in memory and are written out when the run ends.  The
field multiplications are only counted, since a span per multiplication
would cost more than the multiplication.  A function is wrapped wherever
callers look it up: on its class for methods, and in every apn20 module
that holds it under a module-level name, since `from .polys import
exact_div` gives surface and classify names of their own.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute); methods are "Class.method"
SPANS = (
    ("fields.Field", "fields", "Field.__init__"),
    ("fields.find_embedding", "fields", "find_embedding"),
    ("apn.value_table", "apn", "value_table"),
    ("apn.differential_uniformity", "apn", "differential_uniformity"),
    ("polys.exact_div", "polys", "exact_div"),
    ("polys.TriPoly.mul", "polys", "TriPoly.__mul__"),
    ("polys.is_permutation", "polys", "is_permutation"),
    ("surface.surface_poly", "surface", "surface_poly"),
    ("surface.check_identity", "surface", "check_identity"),
    ("classify.search_perturbations", "classify", "search_perturbations"),
    ("classify.ccz_witness", "classify", "ccz_witness"),
    ("classify.check_family_b_divisor", "classify", "check_family_b_divisor"),
    ("divisors.case_analysis", "divisors", "case_analysis"),
    ("cli.main", "cli", "main"),
)
COUNTS = (
    ("fields.mul", "fields", "Field.mul"),
    ("fields.mul_generic", "fields", "Field.mul_generic"),
)


class Tracer:
    """In-memory spans for one process; `op` is the current operation id
    (-1 during set-up and warm-up)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op]
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, list[int]] = {}
        self.useful: dict[str, int] = {}

    def install(self):
        """Wrap the functions of SPANS and COUNTS in the imported apn20 modules."""
        from apn20.polys import NotDivisible

        outcomes = {"polys.exact_div": lambda r: not isinstance(r, NotDivisible)}
        for name, module, attr in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._span(name, fn, outcomes.get(name)))
        for name, module, attr in COUNTS:
            self._patch(module, attr, lambda fn, name=name: self._count(name, fn))

    def _patch(self, module, attr, make):
        owner = sys.modules[f"apn20.{module}"]
        if "." in attr:
            cls, method = attr.split(".")
            klass = getattr(owner, cls)
            setattr(klass, method, make(getattr(klass, method)))
            return
        fn = getattr(owner, attr)
        wrapped = make(fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "apn20" or mod_name.startswith("apn20."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def _span(self, name, fn, outcome=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        self.useful.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if outcome is not None and outcome(result):
                self.useful[name] += 1
            return result

        return traced

    def _count(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def summary(self) -> dict:
        """Per span name: calls, self time (span minus its child spans) and the
        outcomes counted useful; per counter: calls."""
        self_ns = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        out = {name: {"calls": 0, "self_ms": 0.0, "useful": self.useful.get(name, 0)}
               for name, _, _ in SPANS}
        for (name, *_), ns in zip(self.spans, self_ns):
            out[name]["calls"] += 1
            out[name]["self_ms"] += ns / 1e6
        for name, cell in self.counts.items():
            out[name] = {"calls": cell[0]}
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
