"""Spans around the program's public functions, recorded from outside.

The traced run wraps each function at the name its caller looks up (for
example ``laplace_ode.solutions.plan_contour``, the module global
``truncation_bound`` inside ``contour``, methods on ``KernelData`` and
``SolutionHandle``), so the program's source stays untouched.  Spans are kept
in memory; self time is worked out after the run.

Each thread keeps its own stack of open spans.  The indicator submits its
cells to a ``ThreadPoolExecutor``; the executor is swapped for one whose
``submit`` hands the submitting thread's open span to the worker, so spans
opened in pool threads belong to the job that submitted them (contextvars
do not cross the pool).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "op",
                 "info")

    def __init__(self, id, parent, name, thread, start, op):
        self.id = id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = None
        self.op = op
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.  ``op`` tags every span opened while it is
    set, so spans can be grouped per benchmark operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)      # next() and list.append are
        self._local = threading.local()     # atomic under the GIL

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self):
        st = self._stack()
        return st[-1] if st else None

    def open(self, name: str) -> Span:
        st = self._stack()
        parent = st[-1] if st else None
        sp = Span(next(self._ids), parent.id if parent else None, name,
                  threading.get_ident(), time.perf_counter(),
                  parent.op if parent else self.op)
        st.append(sp)
        return sp

    def close(self, sp: Span):
        sp.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(sp)

    @contextlib.contextmanager
    def adopt(self, parent):
        """Make ``parent`` (a span of another thread) the parent of spans
        opened in this thread."""
        if parent is None:
            yield
            return
        st = self._stack()
        st.append(parent)
        try:
            yield
        finally:
            st.pop()

    def wrap(self, fn, name: str, observe=None):
        """``fn`` inside a span; ``observe(span, args, result)`` may attach
        counts to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sp)
            if observe is not None:
                observe(sp, args, result)
            return result

        return traced

    def executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **kw):
                    with tracer.adopt(parent):
                        return fn(*a, **kw)

                return super().submit(run, *args, **kwargs)

        return TracedExecutor


# ----------------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------------

def _observe_points(sp, args, result):
    sp.info = len(args[1])                  # KernelData.log_phi_with_args(self, t, ...)


def _observe_quad(sp, args, result):
    sp.info = result                        # list of QuadResult


def _observe_zero_count(sp, args, result):
    sp.info = result.samples


# (module, attribute, span name, observer); each attribute is the name the
# caller looks the function up by.
FUNCTIONS = [
    ("cli", "main", "cli.main", None),
    ("problem", "load_spec", "odespec.load_spec", None),
    ("problem", "normalize", "odespec.normalize", None),
    ("problem", "build_kernel", "kernel.build_kernel", None),
    ("kernel", "partial_fractions", "ratfun.partial_fractions", None),
    ("ratfun", "poly_roots", "ratfun.poly_roots", None),
    ("analysis", "poly_roots", "ratfun.poly_roots", None),
    ("contour", "continue_args", "kernel.continue_args", None),
    ("kernel", "continue_args", "kernel.continue_args", None),
    ("solutions", "plan_contour", "contour.plan_contour", None),
    ("contour", "truncation_bound", "contour.truncation_bound", None),
    ("solutions", "laplace_eval_multi", "contour.laplace_eval_multi",
     _observe_quad),
    ("problem", "residue_solutions", "solutions.residue_solutions", None),
    ("cli", "zero_count_sector", "analysis.zero_count_sector",
     _observe_zero_count),
    ("cli", "indicator_empirical", "analysis.indicator_empirical", None),
]
METHODS = [
    ("kernel", "KernelData", "log_magnitude_bound", "kernel.log_magnitude_bound",
     None),
    ("kernel", "KernelData", "log_phi_with_args", "kernel.log_phi",
     _observe_points),
    ("solutions", "SolutionHandle", "eval", "solutions.eval", None),
    ("solutions", "SolutionHandle", "eval_multi", "solutions.eval", None),
]


def install(tracer: Tracer, package):
    """Wrap the traced functions of ``package`` (the imported laplace_ode);
    returns a callable that restores the originals."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for mod, attr, name, observe in FUNCTIONS:
        owner = getattr(package, mod)
        patch(owner, attr, tracer.wrap(getattr(owner, attr), name, observe))
    for mod, cls, attr, name, observe in METHODS:
        owner = getattr(getattr(package, mod), cls)
        patch(owner, attr, tracer.wrap(getattr(owner, attr), name, observe))
    patch(package.analysis, "ThreadPoolExecutor", tracer.executor_class())

    def uninstall():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return uninstall


# ----------------------------------------------------------------------------
# self time and per-layer aggregation
# ----------------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans):
    kids = {}
    for sp in spans:
        kids.setdefault(sp.parent, []).append(sp)
    return kids


def self_times(spans):
    """{span id: duration minus the part of it that child spans cover}.
    Children may run in other threads (pool workers); overlapping children
    count once."""
    kids = children_of(spans)
    return {sp.id: sp.duration - covered([(c.start, c.end)
                                          for c in kids.get(sp.id, ())],
                                         sp.start, sp.end)
            for sp in spans}


def descendants(sp, kids):
    out = []
    todo = list(kids.get(sp.id, ()))
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(kids.get(c.id, ()))
    return out


LN10 = math.log(10.0)


def layer_metrics(spans, n_ops: int):
    """Per-layer figures from the spans of ``n_ops`` traced operations.

    ``.calls``, ``.self_ms``, ``.ms`` and ``.points`` are per operation; the
    analysis figures are per call of the analysis function.
    """
    selfs = self_times(spans)
    kids = children_of(spans)
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def calls(name):
        return len(by_name.get(name, ())) / n_ops

    def self_ms(name):
        return 1e3 * sum(selfs[sp.id] for sp in by_name.get(name, ())) / n_ops

    def incl_ms(name):
        return 1e3 * sum(sp.duration for sp in by_name.get(name, ())) / n_ops

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    m = {}
    m["cli.main.self_ms"] = (self_ms("cli.main"), "ms")
    for name in ("odespec.load_spec", "odespec.normalize"):
        m[name + ".ms"] = (incl_ms(name), "ms")
    m["ratfun.poly_roots.calls"] = (calls("ratfun.poly_roots"), "1/op")
    for name in ("ratfun.poly_roots", "ratfun.partial_fractions",
                 "kernel.build_kernel"):
        m[name + ".self_ms"] = (self_ms(name), "ms")
    for name in ("kernel.log_magnitude_bound", "kernel.continue_args",
                 "contour.plan_contour", "contour.truncation_bound",
                 "contour.laplace_eval_multi"):
        m[name + ".calls"] = (calls(name), "1/op")
        m[name + ".self_ms"] = (self_ms(name), "ms")
    log_phi = by_name.get("kernel.log_phi", ())
    m["kernel.log_phi.points"] = (sum(sp.info for sp in log_phi) / n_ops, "1/op")
    m["kernel.log_phi.self_ms"] = (self_ms("kernel.log_phi"), "ms")

    quads = [sp.info for sp in by_name.get("contour.laplace_eval_multi", ())]
    nodes = [q[0].nodes_used for q in quads] or [0]
    m["contour.nodes_per_eval.p50"] = (statistics.median(nodes), "count")
    m["contour.nodes_per_eval.max"] = (max(nodes), "count")
    m["contour.budget_exhausted"] = (
        sum("node_budget_exhausted" in q[0].flags for q in quads), "count")
    m["contour.met_tol_ratio"] = (
        sum(not q[0].flags for q in quads) / len(quads) if quads else 1.0,
        "ratio")
    digits = [(r.log_scale - r.log_abs()) / LN10 for q in quads for r in q
              if r.mantissa != 0] or [0.0]
    m["contour.cancel_digits.p50"] = (statistics.median(digits), "digits")
    m["contour.cancel_digits.max"] = (max(digits), "digits")

    m["solutions.eval.calls"] = (calls("solutions.eval"), "1/op")
    m["solutions.residue_solutions.self_ms"] = (
        self_ms("solutions.residue_solutions"), "ms")

    def analysis(name):
        sps = by_name.get(name, ())
        m[name + ".self_ms"] = (mean([1e3 * selfs[sp.id] for sp in sps]), "ms")
        m[name + ".evals"] = (
            mean([sum(d.name == "solutions.eval" for d in descendants(sp, kids))
                  for sp in sps]), "count")
        return sps

    zc = analysis("analysis.zero_count_sector")
    m["analysis.zero_count_sector.samples"] = (mean([sp.info for sp in zc]),
                                               "count")
    ind = analysis("analysis.indicator_empirical")
    m["analysis.indicator_empirical.thread_busy_ms"] = (
        mean([1e3 * sum(c.duration for c in kids.get(sp.id, ())
                        if c.thread != sp.thread) for sp in ind]), "ms")
    m["analysis.indicator_empirical.wall_ms"] = (
        mean([1e3 * sp.duration for sp in ind]), "ms")
    return m
