"""Per-layer tracing for one benchmark child.

The tracer wraps the public entry points of each barlog module from
outside the package: nothing under src/ knows it is being traced.  The
package imports functions by name (relgen does
``from .hyperlog import eval_series``), so every module-level name that
refers to a wrapped function is rebound, not only the defining one;
methods are wrapped on their class.

Spans are kept in memory as [name, start, end, parent] lists, parent
being the index of the enclosing span or -1, and are reduced to layer
metrics when the child's work ends.  A span's self time is its duration
minus the durations of its direct children; since spans nest, the self
times of all spans add up to the time covered by the root spans.
"""

from __future__ import annotations

import inspect
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.wordpoly_inits = 0
        self.add_deps = 0
        self.solve_misses = 0
        self.reducers = []
        self.bar_dim = 0
        self.series_terms = 0
        self.series_seen = set()
        self.series_repeats = 0
        self.mzv_terms = 0
        self.first_iota_inv = {}

    def span(self, name, fn, on_result=None):
        """Wrap fn so that each call records a span called name;
        on_result(span index, args, kwargs, result) sees each return."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if on_result is not None:
                on_result(idx, args, kwargs, result)
            return result

        return traced

    # -- hooks run on each return of a wrapped function -------------------

    def _on_add(self, idx, args, kwargs, dep):
        if dep is not None:
            self.add_deps += 1

    def _on_solve(self, idx, args, kwargs, rep):
        if rep is None:
            self.solve_misses += 1

    def _on_bar_basis(self, idx, args, kwargs, basis):
        self.bar_dim = max(self.bar_dim, len(basis))

    def _on_iota_inv(self, idx, args, kwargs, result):
        direction = kwargs.get("direction", args[1] if len(args) > 1
                               else "1x2")
        self.first_iota_inv.setdefault(getattr(direction, "name", direction),
                                       idx)

    def _series_hook(self, fn):
        signature = inspect.signature(fn)

        def on_series(idx, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(bound.arguments.values())
            if key in self.series_seen:
                self.series_repeats += 1
            else:
                self.series_seen.add(key)
            self.series_terms += result.terms_used

        return on_series

    def _on_mzv(self, idx, args, kwargs, result):
        self.mzv_terms += result.terms_used

    # -- reduction to metrics ----------------------------------------------

    def summary(self):
        """(layer metrics, time covered by root spans) from the recorded
        spans and counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = {}, {}
        covered = 0.0
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            if parent < 0:
                covered += end - start
        nnz, bits = 0, 0
        for reducer in self.reducers:
            for _, row, combo in reducer.rows():
                nnz += len(row) + len(combo)
                for c in (*row.values(), *combo.values()):
                    bits = max(bits, c.numerator.bit_length(),
                               c.denominator.bit_length())

        def ratio(part, whole):
            return part / whole if whole else 0.0

        adds = calls.get("linalg.add", 0)
        solves = calls.get("linalg.solve", 0)
        series = calls.get("hyperlog.eval_series", 0)
        out = {f"{name}.calls": calls.get(name, 0) for name in CALLS}
        # Every span's self time, so that they add up to the covered time.
        out.update({f"{name}.self_s": self_s.get(name, 0.0)
                    for name in SPAN_NAMES})
        out.update({
            "words.wordpoly_init.calls": self.wordpoly_inits,
            "linalg.add.dep_ratio": ratio(self.add_deps, adds),
            "linalg.solve.miss_ratio": ratio(self.solve_misses, solves),
            "linalg.nnz": nnz,
            "linalg.max_coeff_bits": bits,
            "formspace.bar_basis.dim": self.bar_dim,
            "duality.iota_inv.first_s": sum(
                self.spans[i][2] - self.spans[i][1]
                for i in self.first_iota_inv.values()),
            "hyperlog.eval_series.terms": self.series_terms,
            "hyperlog.eval_series.repeat_ratio": ratio(
                self.series_repeats, series),
            "harmonic.mzv_truncated.terms": self.mzv_terms,
        })
        return out, covered


# Every span name; each one's self time is reported.
SPAN_NAMES = (
    "words.wordpoly_arith",
    "linalg.add", "linalg.solve",
    "formspace.bar_basis", "formspace.chen_defect",
    "duality.phi", "duality.iota", "duality.iota_inv",
    "ipbenv.normal_form", "ipbenv.omega_power",
    "ipbenv.omega_decomposition", "ipbenv.alpha_pair",
    "hyperlog.eval_series", "hyperlog.eval_quadrature",
    "harmonic.expand", "harmonic.eval_sum", "harmonic.mzv_truncated",
    "relgen.generate_all", "relgen.verify_relation",
    "relgen.decompose_check",
    "cli.run",
)

# The spans whose call counts are reported.
CALLS = (
    "words.wordpoly_arith", "linalg.add", "linalg.solve",
    "formspace.bar_basis", "formspace.chen_defect", "duality.phi",
    "ipbenv.normal_form", "hyperlog.eval_series",
    "hyperlog.eval_quadrature", "relgen.verify_relation",
)


def install():
    """Wrap the layer entry points of the imported barlog package and
    return the Tracer that records them."""
    from barlog import (cli, duality, formspace, harmonic, hyperlog, ipbenv,
                        linalg, relgen, words)

    tracer = Tracer()
    functions = [
        (formspace, "bar_basis", "formspace.bar_basis",
         tracer._on_bar_basis),
        (formspace, "chen_defect", "formspace.chen_defect", None),
        (duality, "phi", "duality.phi", None),
        (duality, "iota", "duality.iota", None),
        (duality, "iota_inv", "duality.iota_inv", tracer._on_iota_inv),
        (ipbenv, "normal_form", "ipbenv.normal_form", None),
        (ipbenv, "omega_power", "ipbenv.omega_power", None),
        (ipbenv, "omega_decomposition", "ipbenv.omega_decomposition", None),
        (ipbenv, "alpha_pair", "ipbenv.alpha_pair", None),
        (hyperlog, "eval_series", "hyperlog.eval_series",
         tracer._series_hook(hyperlog.eval_series)),
        (hyperlog, "eval_quadrature", "hyperlog.eval_quadrature", None),
        (harmonic, "mpl_harmonic_expand", "harmonic.expand", None),
        (harmonic, "recursion_expand", "harmonic.expand", None),
        (harmonic, "closed_harmonic_expand", "harmonic.expand", None),
        (harmonic, "eval_sum", "harmonic.eval_sum", None),
        (harmonic, "mzv_truncated", "harmonic.mzv_truncated",
         tracer._on_mzv),
        (relgen, "generate_all", "relgen.generate_all", None),
        (relgen, "verify_relation", "relgen.verify_relation", None),
        (relgen, "decompose_check", "relgen.decompose_check", None),
        (cli, "run", "cli.run", None),
    ]
    wrapped = {}
    for module, attr, name, hook in functions:
        fn = getattr(module, attr)
        wrapped[id(fn)] = tracer.span(name, fn, hook)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "barlog" and not mod_name.startswith("barlog."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])

    wp, rr = words.WordPoly, linalg.RowReducer
    wordpoly_init = wp.__init__

    def counted_init(self, *args, **kwargs):
        tracer.wordpoly_inits += 1
        wordpoly_init(self, *args, **kwargs)

    wp.__init__ = counted_init
    wp.__add__ = tracer.span("words.wordpoly_arith", wp.__add__)
    wp.scale = tracer.span("words.wordpoly_arith", wp.scale)
    rr.add = tracer.span("linalg.add", rr.add, tracer._on_add)
    rr.solve = tracer.span("linalg.solve", rr.solve, tracer._on_solve)
    reducer_init = rr.__init__

    def register(self, *args, **kwargs):
        reducer_init(self, *args, **kwargs)
        tracer.reducers.append(self)

    rr.__init__ = register
    return tracer
