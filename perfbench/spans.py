"""In-memory span tracing of ctsbench from outside the package.

`Tracer.install` replaces public functions at the module attributes
ctsbench calls them through (for example `ctsbench.conformal.fit_auto_ar`)
with wrappers that record one span per call; `Tracer.remove` puts the
originals back. Nothing inside ctsbench is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). A function imported into several modules
# is wrapped at every name a caller reaches it through.
WRAP_POINTS = (
    ("bench", "run_benchmark", "bench.run_benchmark"),
    ("cli", "run_benchmark", "bench.run_benchmark"),
    ("bench", "emit_reports", "bench.emit_reports"),
    ("cli", "emit_reports", "bench.emit_reports"),
    ("bench", "parse_panel", "series.parse_panel"),
    ("bench", "fit_auto_ar", "forecaster.fit_auto_ar"),
    ("conformal", "fit_auto_ar", "forecaster.fit_auto_ar"),
    ("forecaster", "fit_auto_ar", "forecaster.fit_auto_ar"),
    ("bench", "forecast", "forecaster.forecast"),
    ("conformal", "forecast", "forecaster.forecast"),
    ("forecaster", "forecast", "forecaster.forecast"),
    ("bench", "build_residual_matrix", "conformal.build_residual_matrix"),
    ("bench", "mscp_intervals", "conformal.mscp_intervals"),
    ("bench", "enbpi_intervals", "conformal.enbpi_intervals"),
    ("bench", "spci_intervals", "conformal.spci_intervals"),
    ("bench", "global_cp_intervals", "conformal.global_cp_intervals"),
    ("bench", "cv_conformal_intervals", "conformal.cv_conformal_intervals"),
    ("bench", "parametric_intervals", "conformal.parametric_intervals"),
    ("conformal", "fit_pinball_linear", "quantreg.fit_pinball_linear"),
    ("bench", "acmcp_init", "online.acmcp_init"),
    ("bench", "acmcp_step", "online.acmcp_step"),
    ("bench", "aci_step", "online.aci_step"),
    ("bench", "aci_interval", "online.aci_interval"),
    ("bench", "series_metrics", "metrics.series_metrics"),
    ("bench", "aggregate", "metrics.aggregate"),
    ("bench", "rank_scores", "stattest.rank_scores"),
    ("bench", "friedman_test", "stattest.friedman_test"),
    ("bench", "conover_posthoc", "stattest.conover_posthoc"),
)

LAYERS = ("series", "forecaster", "conformal", "quantreg", "online", "metrics", "stattest", "bench")


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent")

    def __init__(self, name, start, end, thread, parent):
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans) -> dict[int, list[Span]]:
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append(s)
    return kids


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children on other threads overlap each other, so their intervals are
    merged, clipped to the parent, before subtracting.
    """
    kids = children_of(spans)
    out = []
    for s in spans:
        cover = _covered(
            (max(c.start, s.start), min(c.end, s.end)) for c in kids.get(id(s), ())
        )
        out.append(max(s.duration - cover, 0.0))
    return out


def busy_share(spans) -> float:
    """Thread time inside the children of `bench.run_benchmark`, divided by
    run_benchmark's duration times the number of threads its children ran on."""
    kids = children_of(spans)
    busy = capacity = 0.0
    for s in spans:
        if s.name != "bench.run_benchmark":
            continue
        per_thread = defaultdict(list)
        for c in kids.get(id(s), ()):
            per_thread[c.thread].append((c.start, c.end))
        busy += sum(_covered(iv) for iv in per_thread.values())
        capacity += s.duration * max(len(per_thread), 1)
    return busy / capacity if capacity > 0 else 0.0


class Tracer:
    """Records spans and counters while installed; one instance per traced run."""

    def __init__(self, capture_designs: bool = False):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.designs: list = []
        self._capture = capture_designs
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._root = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _parent(self, tid: int) -> Span | None:
        stack = self._stacks.get(tid)
        if stack:
            return stack[-1]
        # A pool worker's first span hangs under the span the calling thread is in.
        root = self._stacks.get(self._root)
        return root[-1] if root else None

    def _wrap(self, fn, name: str):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            span = Span(name, 0.0, 0.0, tid, tracer._parent(tid))
            stack = tracer._stacks.setdefault(tid, [])
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                with tracer._lock:
                    hook(tracer, fn, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        for mod_name, attr, span_name in WRAP_POINTS:
            module = importlib.import_module(f"ctsbench.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def installed_wrappers() -> list[str]:
    """Names in WRAP_POINTS that still hold a tracing wrapper."""
    left = []
    for mod_name, attr, _ in WRAP_POINTS:
        module = importlib.import_module(f"ctsbench.{mod_name}")
        if hasattr(getattr(module, attr), "__wrapped_original__"):
            left.append(f"{mod_name}.{attr}")
    return left


def _rows_parsed(tracer, fn, args, kwargs, panel):
    tracer.counts["series.rows"] += sum(len(s) for s in panel)


def _enbpi(tracer, fn, args, kwargs, iv):
    tracer.counts["enbpi.loo_fallbacks"] += iv.diagnostics["loo_fallbacks"]
    tracer.counts["enbpi.loo_count"] += iv.diagnostics["loo_count"]


def _spci(tracer, fn, args, kwargs, iv):
    tracer.counts["spci.crossings"] += iv.diagnostics["crossings"]
    tracer.counts["spci.fallbacks"] += iv.diagnostics["fallbacks"]


def _pinball(tracer, fn, args, kwargs, fit):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counts["quantreg.iterations"] += int(bound.arguments["iters"])
    if tracer._capture:
        tracer.designs.append((bound.arguments["X"], bound.arguments["y"], fit))


def _rank_rows(tracer, fn, args, kwargs, table):
    tracer.counts["stattest.rows"] += table.n


def _report_bytes(tracer, fn, args, kwargs, paths):
    tracer.counts["bench.report_bytes"] += sum(os.path.getsize(p) for p in paths.values())


_HOOKS = {
    "series.parse_panel": _rows_parsed,
    "conformal.enbpi_intervals": _enbpi,
    "conformal.spci_intervals": _spci,
    "quantreg.fit_pinball_linear": _pinball,
    "stattest.rank_scores": _rank_rows,
    "bench.emit_reports": _report_bytes,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    for s, own in zip(spans, selfs):
        calls[s.name] += 1
        self_s[s.name] += own
        total_s[s.name] += s.duration
    c = tracer.counts
    out = {f"layer.{layer}.self_s": 0.0 for layer in LAYERS}
    for name, own in self_s.items():
        out[f"layer.{name.split('.')[0]}.self_s"] += own
    span_names = sorted({name for _, _, name in WRAP_POINTS})
    for name in span_names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    parse_s = total_s["series.parse_panel"]
    out["series.parse_panel.s"] = parse_s
    out["series.parse_panel.rows_per_s"] = c["series.rows"] / parse_s if parse_s > 0 else 0.0
    out["bench.emit_reports.s"] = total_s["bench.emit_reports"]
    out["bench.report_bytes"] = c["bench.report_bytes"]
    out["bench.pool.busy_share"] = busy_share(spans)
    loo = c["enbpi.loo_count"]
    out["conformal.enbpi.loo_fallback_share"] = c["enbpi.loo_fallbacks"] / loo if loo else 0.0
    out["conformal.spci.crossings"] = c["spci.crossings"]
    out["conformal.spci.fallbacks"] = c["spci.fallbacks"]
    out["quantreg.iterations"] = c["quantreg.iterations"]
    out["stattest.rows"] = c["stattest.rows"]
    return out
