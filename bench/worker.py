"""One workload run in a fresh interpreter; started by bench/run.py.

Prints `ready` once set-up is done (run.py times process start to that
line as one set-up sample), then, unless --setup-only, runs the ops and
prints one JSON line with the raw samples.

Untraced (--trace 0): whole passes over the workload's ops, each pass in a
new seeded order, until --seconds have gone by; each pass yields one rate of
successful ops per second of op time.  Traced (--trace 1): a
warm-up pass, one pass untraced, then the same pass with the tracer
installed, so the call counts repeat exactly and the difference in op
time is the tracing overhead.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import graphqcka.cli  # noqa: E402,F401
import graphqcka.networks  # noqa: E402,F401
import numpy  # noqa: E402
import scipy  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Recorder:
    """Latency samples per kind, op time and failures of one measurement."""

    def __init__(self):
        self.samples = {"op": []}
        self.attempted = self.failed = self.mismatched = 0
        self.op_time_s = 0.0
        self.failures = {}

    def execute(self, op, tracer=None, op_id=0):
        self.attempted += 1
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed op is counted, never fatal
            self.op_time_s += time.perf_counter() - start
            self._fail(f"{op.ident}: {type(exc).__name__}: {exc}")
            return
        finally:
            if tracer is not None:
                tracer.op = None
        elapsed = time.perf_counter() - start
        self.op_time_s += elapsed
        try:
            problem = op.check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.mismatched += 1
            self._fail(f"{op.ident}: mismatch: {problem}")
            return
        self.samples["op"].append(elapsed)
        self.samples.setdefault(op.kind, []).append(elapsed)
        stages = result.get("stages", {}) if isinstance(result, dict) else {}
        for stage, seconds in stages.items():
            self.samples.setdefault(stage, []).append(seconds)

    def _fail(self, message):
        self.failed += 1
        self.failures[message] = self.failures.get(message, 0) + 1

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "mismatched": self.mismatched, "op_time_s": self.op_time_s,
                "samples": self.samples, "failures": self.failures}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, rng, seconds):
    rec = Recorder()
    start = time.perf_counter()
    pass_rates = []
    while not pass_rates or time.perf_counter() - start < seconds:
        order = list(workload.ops)
        rng.shuffle(order)
        ok, op_time = rec.attempted - rec.failed, rec.op_time_s
        for op in order:
            rec.execute(op)
        pass_rates.append((rec.attempted - rec.failed - ok) / (rec.op_time_s - op_time))
    out = rec.as_dict()
    out.update(passes=len(pass_rates), pass_rates=pass_rates,
               wall_s=time.perf_counter() - start, peak_rss_mb=peak_rss_mb())
    return out


def measure_traced(workload, rng, spans_path):
    order = list(workload.ops)
    rng.shuffle(order)
    for plain in (Recorder(), Recorder()):  # the first pass only warms up
        for op in order:
            plain.execute(op)
    tracer = tracing.Tracer()
    if isinstance(workload, workloads.Paper6Cli):
        workload.tracer = tracer
        import_s = None
    else:
        tracing.install(tracer)
        import_s = IMPORT_S
    traced = Recorder()
    for k, op in enumerate(order):
        traced.execute(op, tracer, k)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"spans": tracer.spans, "counts": dict(tracer.counts)}))
    layers = tracing.summarize(tracer.spans, tracer.counts)
    if import_s is None:
        import_s = sorted(workload.import_s)[len(workload.import_s) // 2]
    layers["cli.import_s"] = import_s
    layers["trace.overhead_s"] = traced.op_time_s - plain.op_time_s
    out = traced.as_dict()
    out.update(layers=layers, untraced_op_time_s=plain.op_time_s,
               untraced_failed=plain.failed, spans=len(tracer.spans))
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=str(Path(__file__).with_name("reference.json")))
    p.add_argument("--spans", help="where the traced run writes its spans")
    p.add_argument("--tiny", action="store_true", help="at most two ops of each kind")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    reference = json.loads(Path(args.reference).read_text())
    workload = workloads.WORKLOADS[args.workload](reference, ROOT)
    if args.tiny:
        seen = Counter()
        ops = []
        for op in workload.ops:
            seen[op.kind] += 1
            if seen[op.kind] <= 2:
                ops.append(op)
        workload.ops = ops
    print("ready", flush=True)
    if args.setup_only:
        return 0
    rng = random.Random(args.seed)
    if args.trace:
        result = measure_traced(workload, rng, Path(args.spans))
    else:
        result = measure(workload, rng, args.seconds)
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
