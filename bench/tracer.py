"""In-memory span tracer that wraps graphqcka functions from outside the package.

`install` rebinds each traced function in every loaded `graphqcka` module
namespace that holds it, so calls made inside the package go through the
wrapper too.  Spans are recorded only while `Tracer.op` is set, which keeps
output checks and set-up out of the trace.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name); both find_* entry points share one name.
SPANNED = (
    ("routing", "find_ghz_plan", "routing.find_plan"),
    ("routing", "find_bell_multicast_plan", "routing.find_plan"),
    ("routing", "realize_plan", "routing.realize_plan"),
    ("routing", "verify_plan_dense", "routing.verify_plan_dense"),
    ("routing", "lc_orbit", "routing.lc_orbit"),
    ("routing", "compile_round_settings", "routing.compile_round_settings"),
    ("graphstate", "local_complement", "graphstate.local_complement"),
    ("graphstate", "measure_vertex", "graphstate.measure_vertex"),
    ("graphstate", "to_dense", "graphstate.to_dense"),
    ("graphstate", "project_dense", "graphstate.project_dense"),
    ("keyrates", "outcome_distribution", "keyrates.outcome_distribution"),
    ("keyrates", "analytic_estimates", "keyrates.analytic_estimates"),
    ("keyrates", "simulate_protocol", "keyrates.simulate_protocol"),
    ("noise", "apply_noise", "noise.apply_noise"),
    ("noise", "pump_sweep", "noise.pump_sweep"),
    ("noise", "calibrate_to_targets", "noise.calibrate_to_targets"),
    ("noise", "poisson_mc", "noise.poisson_mc"),
    ("analysis", "build_report", "analysis.build_report"),
    ("io", "parse_graph", "io.parse_graph"),
    ("io", "parse_counts", "io.parse_counts"),
    ("io", "write_counts", "io.write_counts"),
    ("io", "report_to_json", "io.report_to_json"),
)
# Hot, cheap functions: counted without a span.
COUNTED = (
    ("pauli", "compose", "pauli.compose"),
    ("keyrates", "error_estimates", "keyrates.error_estimates"),
)


def _note(name, result):
    """Per-span number kept with the span: plans found, MC rejections."""
    if name == "routing.realize_plan":
        return 0 if result is None else 1
    if name == "noise.poisson_mc":
        return result.n_rejected
    return 0


class Tracer:
    """Collects spans (id, name, start, end, parent id, op id, failed, note)."""

    def __init__(self):
        self.op = None
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._next_id = 0

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            failed, note = 0, 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                note = _note(name, result)
                return result
            except BaseException:
                failed = 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op,
                                   failed, note))
        return wrapper

    def merge(self, spans, counts) -> None:
        """Add spans recorded by another process, renumbered after this one's."""
        base = self._next_id
        for sid, name, start, end, parent, _, failed, note in spans:
            self.spans.append((base + sid, name, start, end,
                               base + parent if parent >= 0 else -1, self.op, failed, note))
            self._next_id = max(self._next_id, base + sid + 1)
        self.counts.update(counts)

    def count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def install(tracer: Tracer) -> None:
    """Rebind every traced function in all loaded graphqcka modules."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "graphqcka" or name.startswith("graphqcka."))]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for table, make in ((SPANNED, tracer.span), (COUNTED, tracer.count)):
        for module, func, name in table:
            original = getattr(by_name[module], func)
            wrapper = make(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def summarize(spans, counts) -> dict[str, float]:
    """Per-name calls / self_ms / failed plus the derived ratios and counts."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, _, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    plans = rejected = calib_noise = 0
    for sid, name, start, end, parent, _, failed, note in spans:
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_ms"] = (out.get(f"{name}.self_ms", 0.0)
                                  + 1e3 * (end - start - child_time[sid]))
        out[f"{name}.failed"] = out.get(f"{name}.failed", 0) + failed
        if name == "routing.realize_plan":
            plans += note
        elif name == "noise.poisson_mc":
            rejected += note
        elif name == "noise.apply_noise":
            p = parent
            while p >= 0:
                if by_id[p][1] == "noise.calibrate_to_targets":
                    calib_noise += 1
                    break
                p = by_id[p][4]
    for name, n in counts.items():
        out[f"{name}.calls"] = n
    calls = out.get("routing.realize_plan.calls", 0)
    out["routing.plan_yield"] = plans / calls if calls else 0.0
    out["noise.poisson_mc.rejected"] = rejected
    out["noise.calibrate_to_targets.apply_noise_calls"] = calib_noise
    for module in ("routing", "graphstate", "keyrates", "noise", "analysis", "io"):
        out[f"{module}.self_ms"] = sum(
            v for k, v in out.items()
            if k.startswith(module + ".") and k.endswith(".self_ms")
            and k != f"{module}.self_ms")
    return out
