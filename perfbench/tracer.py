"""Spans and counters around the package's layer entry points.

The tracer wraps module-level functions from outside the package.  A
wrapper replaces the attribute where the caller looks it up, so a name
that a module imported with ``from .engine import X`` is wrapped in that
module too.  Spans (name, start, end, parent) and counts are kept in
memory; ``summary`` turns them into per-layer metrics at the end.

A layer's self time is its spans' duration minus the part of each span
that its child spans cover.  Spans opened on a worker thread with no
open span of their own take the main thread's innermost open span as
parent, which is where ``verify --all`` submits its pool work.
"""

import itertools
import threading
import time

# Metric names the tracer reports, with their units.  Any metric whose
# hook target is missing is reported as absent instead.
TIMERS = [
    "engine.statesum", "engine.cable", "engine.order", "engine.normalize",
    "engine.degrees", "engine.morton", "engine.seqdata",
    "closedforms.pretzel", "quasifit.fit", "knots.validate", "knots.stats",
    "knots.tables", "verify", "cli",
]
COUNTERS = [
    "engine.statesum.smoothings", "engine.statesum.cache_hits",
    "engine.statesum.cache_misses", "engine.cable.crossings",
    "engine.order.width", "engine.morton.calls", "closedforms.series.calls",
    "closedforms.series.coeffs", "quasifit.fit.calls", "quasifit.candidates",
    "quasifit.route.classes", "quasifit.refused", "knots.validate.calls",
    "verify.analyze.calls",
]


class Tracer:
    def __init__(self):
        self.spans = []            # (id, name, start, end, parent id)
        self.counts = {name: 0 for name in COUNTERS}
        self.absent = {}           # metric name -> reason
        self.orders = []           # (crossings, order) for width replay
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []

    # ------------------------------------------------------------------
    # recording

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Name of the innermost open span seen from this thread."""
        stack = self._stack() or self._main_stack
        return stack[-1][1] if stack else None

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def top(self, name, value):
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(result) runs inside it on success."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            parent = outer[-1][0] if outer else None
            sid = next(self._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # hooks

    def install(self, pkg):
        """Wrap every layer entry point of the imported package."""
        from knotslopes import (cli, closedforms, engine, knots, quasifit,
                                verify)

        def patch(metrics, sites, make):
            """Replace attribute ``name`` in each module of ``sites``;
            if the function is gone, mark ``metrics`` absent."""
            done = False
            for module, name in sites:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                setattr(module, name, make(fn))
                done = True
            if not done:
                where = ", ".join("%s.%s" % (m.__name__, n) for m, n in sites)
                for metric in metrics:
                    self.absent[metric] = "hook target %s not found" % where

        def counted(counter, fn):
            def wrapper(*args, **kwargs):
                self.count(counter)
                return fn(*args, **kwargs)
            return wrapper

        # engine.statesum: the frontier state sum, its smoothing step and
        # the bracket memo in front of it
        patch(["engine.statesum.self_s"], [(engine, "_bracket_raw")],
              lambda fn: self.span("engine.statesum", fn))
        patch(["engine.statesum.smoothings"], [(engine, "_apply_smoothing")],
              lambda fn: counted("engine.statesum.smoothings", fn))
        cache = getattr(engine, "_BRACKET_CACHE", None)

        def memo(fn):
            def wrapper(pd, m, *rest):
                hit = (pd, m) in cache
                self.count("engine.statesum.cache_hits" if hit
                           else "engine.statesum.cache_misses")
                return fn(pd, m, *rest)
            return wrapper
        memo_metrics = ["engine.statesum.cache_hits",
                        "engine.statesum.cache_misses"]
        if cache is None:
            for metric in memo_metrics:
                self.absent[metric] = "engine._BRACKET_CACHE not found"
        else:
            patch(memo_metrics, [(engine, "_cable_bracket")], memo)

        # engine.cable and engine.order
        patch(["engine.cable.self_s", "engine.cable.crossings"],
              [(engine, "_cable")],
              lambda fn: self.span(
                  "engine.cable", fn,
                  lambda a, r: self.top("engine.cable.crossings", len(r[0]))))
        patch(["engine.order.self_s", "engine.order.width"],
              [(engine, "_pick_order")],
              lambda fn: self.span(
                  "engine.order", fn,
                  lambda a, r: self.orders.append((a[0], list(r)))))

        # engine.normalize: bracket_colored_jones minus its children is
        # the Chebyshev sum, the division by [n+1] and the writhe fix
        patch(["engine.normalize.self_s"],
              [(engine, "bracket_colored_jones"),
               (pkg, "bracket_colored_jones"),
               (cli, "bracket_colored_jones")],
              lambda fn: self.span("engine.normalize", fn))
        patch(["engine.degrees.self_s"],
              [(verify, "degree_sequence"), (cli, "degree_sequence"),
               (pkg, "degree_sequence"), (engine, "degree_sequence")],
              lambda fn: self.span("engine.degrees", fn))
        patch(["engine.morton.self_s", "engine.morton.calls"],
              [(engine, "morton_colored_jones"),
               (pkg, "morton_colored_jones"),
               (cli, "morton_colored_jones")],
              lambda fn: self.span(
                  "engine.morton", counted("engine.morton.calls", fn)))
        patch(["engine.seqdata.self_s"], [(engine, "_load_seq")],
              lambda fn: self.span("engine.seqdata", fn))

        # closedforms: pretzel degrees and the series it re-expands
        patch(["closedforms.pretzel.self_s"],
              [(closedforms, "pretzel_degrees")],
              lambda fn: self.span("closedforms.pretzel", fn))
        gf = getattr(quasifit, "RationalGF", None)

        def series(fn):
            def wrapper(obj, count):
                if self.current() == "closedforms.pretzel":
                    self.count("closedforms.series.calls")
                    self.count("closedforms.series.coeffs", count)
                return fn(obj, count)
            return wrapper
        patch(["closedforms.series.calls", "closedforms.series.coeffs"],
              [(gf, "series")] if gf is not None else [], series)

        # quasifit
        def refused(fn):
            def wrapper(*args, **kwargs):
                self.count("quasifit.fit.calls")
                try:
                    return fn(*args, **kwargs)
                except ValueError:
                    self.count("quasifit.refused")
                    raise
            return wrapper
        patch(["quasifit.fit.self_s", "quasifit.fit.calls",
               "quasifit.refused"],
              [(quasifit, "fit"), (pkg, "fit")],
              lambda fn: self.span("quasifit.fit", refused(fn)))
        patch(["quasifit.candidates"], [(quasifit, "_try_classes")],
              lambda fn: counted("quasifit.candidates", fn))
        patch(["quasifit.route.classes"], [(quasifit, "_fit_classes")],
              lambda fn: counted("quasifit.route.classes", fn))

        # knots: diagram validation, diagram statistics, bundled tables
        patch(["knots.validate.self_s", "knots.validate.calls"],
              [(knots, "validate_pd"), (engine, "validate_pd")],
              lambda fn: self.span(
                  "knots.validate", counted("knots.validate.calls", fn)))
        patch(["knots.stats.self_s"],
              [(knots, "smoothing_counts"), (engine, "smoothing_counts"),
               (cli, "smoothing_counts"), (knots, "is_alternating"),
               (engine, "is_alternating"), (cli, "is_alternating")],
              lambda fn: self.span("knots.stats", fn))
        patch(["knots.tables.self_s"],
              [(knots, "bundled_knot_table"), (knots, "bundled_slope_db"),
               (cli, "bundled_knot_table")],
              lambda fn: self.span("knots.tables", fn))

        # verify and cli
        patch(["verify.self_s", "verify.analyze.calls"],
              [(verify, "analyze"), (pkg, "analyze")],
              lambda fn: self.span(
                  "verify", counted("verify.analyze.calls", fn)))
        patch(["cli.self_s"], [(cli, "main")],
              lambda fn: self.span("cli", fn))

    # ------------------------------------------------------------------
    # results

    def _order_width(self):
        """Most open arcs along any contraction order seen, found by
        replaying the order: an arc opens at its first crossing and
        closes at its second."""
        width = 0
        for crossings, order in self.orders:
            open_arcs = set()
            for idx in order:
                for arc in crossings[idx]:
                    if arc in open_arcs:
                        open_arcs.discard(arc)
                    else:
                        open_arcs.add(arc)
                width = max(width, len(open_arcs))
        return width

    def summary(self):
        """Per-layer metrics: self time per timer, then the counters."""
        children = {}
        for span in self.spans:
            children.setdefault(span[4], []).append(span)
        self_s = {name: 0.0 for name in TIMERS}
        for sid, name, start, end, _ in self.spans:
            covered = 0.0
            reach = start
            kids = sorted((max(s, start), min(e, end))
                          for _, _, s, e, _ in children.get(sid, ()))
            for s, e in kids:
                s = max(s, reach)
                if e > s:
                    covered += e - s
                    reach = e
            self_s[name] += (end - start) - covered
        metrics = {name + ".self_s": value for name, value in self_s.items()}
        counts = dict(self.counts)
        counts["engine.order.width"] = self._order_width()
        metrics.update(counts)
        return metrics
