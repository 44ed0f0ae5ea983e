"""Spans recorded from outside the program, around its public functions.

Modules import these functions by name, so a function is bound in several
`qdulac.*` namespaces at once; `Tracer.install` replaces it in every
namespace whose attribute is the same object, and `remove` puts the
originals back.  Spans stay in memory as [name, start, end, parent, op,
stolen] lists until the run writes them out; `stolen` is the time the
speed sampler's signal handler ran while the span was innermost.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer boundaries: module and function name, as exported by that module.
TRACED = (
    ("cli", "main"),
    ("parser", "parse_equation"),
    ("polygon", "build_polygon"),
    ("truncate", "analyze_face"),
    ("expand", "expand_solution"),
    ("expand", "extract_linear_part"),
    ("expand", "critical_numbers"),
    ("expand", "k_lattice"),
    ("expand", "solve_poly_difference"),
    ("expand", "degree_bound"),
    ("expand", "verify_residual"),
    ("qexpr", "evaluate_on_series"),
    ("algebra", "rational_roots"),
    ("algebra", "q_pow"),
    ("algebra", "q_log"),
)


class Tracer:
    """Wraps the TRACED functions and records one span per call.

    Besides spans it keeps the ExpansionResults `expand_solution` returns,
    and counts the x^k terms `evaluate_on_series` returns; of those handed
    back to `expand_solution`, how many terms there were and how many of
    them it read (a read of a zero coefficient reads no term).
    """

    def __init__(self):
        self.spans: list = []
        self.expansions: list = []
        self.terms_returned = 0
        self.terms_to_expand = 0
        self.reads_by_expand = 0
        self._op = -1
        self._stack: list = []
        self._patched: list = []
        self._returned: dict = {}  # id -> series handed to expand_solution

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self._op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "expand.expand_solution":
                self.expansions.append(result)
            elif name == "qexpr.evaluate_on_series":
                self.terms_returned += len(result.terms)
                if parent >= 0 and spans[parent][0] == "expand.expand_solution":
                    self._returned[id(result)] = result
                    self.terms_to_expand += len(result.terms)
            return result

        return wrapper

    def charge(self, seconds: float) -> None:
        """Book time spent outside the program to the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def install(self, op: int) -> None:
        """Patch every qdulac namespace binding a TRACED function."""
        self._op = op
        modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "qdulac" or name.startswith("qdulac."))
        ]
        by_name = {mod.__name__: mod for mod in modules}
        for module_name, attr in TRACED:
            original = getattr(by_name[f"qdulac.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
        series_cls = by_name["qdulac.qexpr"].PowerLogSeries
        original = series_cls.coefficient
        returned = self._returned

        def coefficient(series, k):
            beta = original(series, k)
            if returned.get(id(series)) is series and not beta.is_zero():
                self.reads_by_expand += 1
            return beta

        series_cls.coefficient = coefficient
        self._patched.append((series_cls, "coefficient", original))

    def remove(self) -> None:
        """Restore the originals and drop the per-op series references."""
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)
        self._returned.clear()
