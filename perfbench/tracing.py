"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's side of each layer boundary: for the
traced run the public functions that a calling module imported are rebound
in that module's namespace to a timing wrapper, and restored afterwards.
Nothing in the package itself changes, so an untraced run executes exactly
the package's code.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  Spans are only recorded inside a root
opened by the benchmark around one public call, so work the benchmark does
for its own checks leaves no trace.  The tracer assumes one thread, which
holds because the package runs its replicates serially unless
``SKETCH_INFER_THREADS`` is set, and the benchmark unsets it.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

SKETCH_KINDS = ("gaussian", "hadamard", "clarkson_woodruff")

# span name -> modules (by name, within sketch_infer) whose imported binding
# of that function is wrapped; the function's short name is the attribute
WRAPPED = {
    "core_model.DataSet": ("sim_study", "cli"),
    "core_model.simulate_response": ("sim_study",),
    "core_model.fit_full": ("sim_study",),
    "estimators.fit_complete": ("sim_study", "cli"),
    "estimators.fit_partial": ("sim_study", "cli"),
    "estimators.fit_efficient_star": ("cli",),
    "inference.marginal_t_statistic": ("sim_study", "inference"),
    "inference.partial_t_statistic": ("sim_study", "inference"),
    "inference.complete_marginal_t_test": ("cli",),
    "inference.complete_marginal_ci": ("cli",),
    "inference.partial_marginal_t_test": ("cli",),
    "densities.complete_sampling_pdf": ("densities",),
    "densities.partial_approx_pdf": ("densities",),
    "densities.ssr_s_law_pdf": ("densities",),
    "densities.ratio_law_pdf": ("densities",),
    "densities.complete_sketching_t_params": ("sim_study",),
    "densities.mvt_marginal_cdf": ("sim_study",),
    "densities.sample_partial_sketching_rep": ("sim_study",),
    "special_fn.kummer_m": ("densities",),
    "special_fn.log_kummer_u": ("densities",),
    "special_fn.log_bessel_k": ("densities",),
    "special_fn.dist_quantile": ("sim_study", "inference", "cli"),
    "special_fn.dist_cdf": ("inference", "cli"),
    "sim_study.ks_statistic": ("sim_study",),
}
# apply_sketch dispatches through a private table, so the sketch layer is
# wrapped at the callers' apply_sketch and each span is named by spec.kind
SKETCH_CALLERS = ("sim_study", "cli")

LAYER_SPANS = (
    tuple(f"sketch_ops.apply_{k}" for k in SKETCH_KINDS) + tuple(WRAPPED)
)
STATS = (("calls", "count"), ("busy_s", "s"), ("p50_us", "us"))
# roots whose self time is reported: harness calls and CLI calls
SELF_TIME_ROOTS = ("sim_study", "cli")
EXTRA_METRICS = (
    ("sketch_ops.wstar_calls", "count"),
    ("sketch_ops.bytes_in", "bytes_computed"),
    ("inference.partial_t_statistic.negden", "count"),
    ("inference.partial_t_statistic.ok_ratio", "ratio"),
    ("sim_study.self_s", "s"),
    ("sim_study.wall_s", "s"),
    ("cli.self_s", "s"),
    ("cli.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)


def per_layer_spec() -> list:
    """(name, unit) of every per-layer metric a traced run reports."""
    spec = [(f"{span}.{stat}", unit) for span in LAYER_SPANS for stat, unit in STATS]
    return spec + list(EXTRA_METRICS)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.skipped = []
        self._stack = []

    @contextlib.contextmanager
    def root(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, fn, name, count=None):
        """Timing wrapper; ``name`` is a string or a callable of the call's
        arguments, ``count(counters, args, kwargs, exc)`` updates counters."""
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            spans.append([label, 0.0, 0.0, stack[-1]])
            stack.append(idx)
            exc = None
            spans[idx][1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
                if count is not None:
                    count(counters, args, kwargs, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, package_modules: dict):
        """Rebind the wrapped functions in their calling modules; restore on exit."""
        saved = []

        def patch(mod_name, attr, name, count=None):
            mod = package_modules[mod_name]
            if not hasattr(mod, attr):
                self.skipped.append(f"{mod_name}.{attr}")
                return
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, name, count))

        negative_denominator = package_modules["errors"].NegativeDenominator

        def count_partial(counters, args, kwargs, exc):
            counters["partial_attempts"] += 1
            counters["negden"] += isinstance(exc, negative_denominator)

        try:
            for span, callers in WRAPPED.items():
                attr = span.split(".", 1)[1]
                count = count_partial if span == "inference.partial_t_statistic" else None
                for mod_name in callers:
                    patch(mod_name, attr, span, count)
            for mod_name in SKETCH_CALLERS:
                patch(mod_name, "apply_sketch", _sketch_span, _count_sketch)
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def _covered(self) -> dict:
        """Span index -> time covered by its direct children."""
        covered = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return covered

    def layer_metrics(self, overhead_s: float, untraced_s: float) -> dict:
        durations = defaultdict(list)
        for name, t0, t1, parent in self.spans:
            durations[name].append(t1 - t0)
        covered = self._covered()
        out = {}
        for span in LAYER_SPANS:
            d = durations.get(span, [])
            out[f"{span}.calls"] = len(d)
            out[f"{span}.busy_s"] = sum(d)
            out[f"{span}.p50_us"] = statistics.median(d) * 1e6 if d else 0.0
        c = self.counters
        out["sketch_ops.wstar_calls"] = c["wstar_calls"]
        out["sketch_ops.bytes_in"] = c["bytes_in"]
        out["inference.partial_t_statistic.negden"] = c["negden"]
        attempts = c["partial_attempts"]
        out["inference.partial_t_statistic.ok_ratio"] = (
            (attempts - c["negden"]) / attempts if attempts else 0.0
        )
        for prefix in SELF_TIME_ROOTS:
            wall = self_s = 0.0
            for idx, (name, t0, t1, parent) in enumerate(self.spans):
                if parent < 0 and name.startswith(prefix + "."):
                    wall += t1 - t0
                    self_s += (t1 - t0) - covered[idx]
            out[f"{prefix}.self_s"] = self_s
            out[f"{prefix}.wall_s"] = wall
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_s"] = overhead_s
        out["trace.overhead_share"] = overhead_s / untraced_s if untraced_s > 0 else 0.0
        return out

    def accounting(self) -> dict:
        """Per root name: wall time, time of direct children by layer, self time."""
        covered = self._covered()
        direct = defaultdict(lambda: defaultdict(float))
        for name, t0, t1, parent in self.spans:
            if parent >= 0 and self.spans[parent][3] < 0:
                direct[self.spans[parent][0]][name] += t1 - t0
        out = {}
        for idx, (name, t0, t1, parent) in enumerate(self.spans):
            if parent >= 0:
                continue
            acc = out.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
            acc["calls"] += 1
            acc["wall_s"] += t1 - t0
            acc["self_s"] += (t1 - t0) - covered[idx]
        for name, acc in out.items():
            acc["children_busy_s"] = dict(direct[name])
        return out


def _sketch_span(data, spec, want_w_star=False):
    return f"sketch_ops.apply_{getattr(spec.kind, 'value', spec.kind)}"


def _count_sketch(counters, args, kwargs, exc):
    data = args[0]
    want_w_star = kwargs.get("want_w_star", args[2] if len(args) > 2 else False)
    counters["wstar_calls"] += bool(want_w_star)
    # float64 [y | X] input, computed from the shapes rather than measured
    counters["bytes_in"] += data.n * (data.p + 1) * 8
