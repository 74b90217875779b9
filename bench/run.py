"""graphqcka benchmark: one workload run, end-to-end or traced per layer.

    python3 bench/run.py --workload noisy_analysis --seed 1 --seconds 50 --trace 0

Run from the repository root; it measures the graphqcka in src/.  Every
workload runs in fresh worker processes (bench/worker.py), one at a time:
--trace 0 starts SETUPS workers, times each from start to the end of its
set-up, and lets the last one measure the ops; --trace 1 starts one worker
that makes a traced pass.  The script prints a table of every metric and,
as its last line, one JSON object with the metrics BENCHMARK.json lists.
A results file with provenance goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUPS = 5
DEADLINE_S = 175.0
# One BLAS thread: the matrices here are at most 256 x 256, where a second
# OpenBLAS thread gains nothing but spins on the other core, doubling CPU
# use and making timings swing with whatever else that core runs.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

# Latency bucket -> metric for each workload; "op" is every successful op.
KIND_METRICS = {
    "paper6_cli": {"extract": ("cli_extract_s", "s"), "simulate": ("cli_simulate_s", "s"),
                   "analyze": ("cli_analyze_s", "s"), "sweep": ("cli_sweep_s", "s")},
    "search_scaling": {"found": ("search_found_p50_ms", "ms"),
                       "noplan": ("search_noplan_p50_ms", "ms"),
                       "orbit": ("orbit_p50_ms", "ms")},
    "noisy_analysis": {"scenario": ("scenario_p50_ms", "ms"), "sweep": ("sweep_p50_s", "s"),
                       "calibrate": ("calibrate_p50_s", "s")},
}
SCALE = {"s": 1.0, "ms": 1e3}


class BenchError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds to its `ready` line, its JSON result)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(argv)} exited {code}")
    lines = rest.strip().splitlines()
    return ready_s, json.loads(lines[-1]) if lines else None


def timing(samples: list[float], unit: str) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    vals = sorted(v * SCALE[unit] for v in samples)
    out = {"value": statistics.median(vals), "unit": unit, "n": len(vals)}
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(vals) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = vals[math.ceil(p / 100 * len(vals)) - 1]
            break
    return out


def end_to_end(workload: str, setups: list[float], res: dict) -> dict:
    if not res["samples"]["op"]:
        raise BenchError(f"no op succeeded: {res['failures']}")
    metrics = {
        "setup_s": timing(setups, "s"),
        "ops_per_s": {"value": statistics.median(res["pass_rates"]), "unit": "1/s",
                      "n": len(res["pass_rates"])},
        "op_p50_ms": timing(res["samples"]["op"], "ms"),
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "failed_op_share": {"value": res["failed"] / res["attempted"], "unit": "share"},
    }
    for kind, (name, unit) in KIND_METRICS[workload].items():
        metrics[name] = (timing(res["samples"][kind], unit) if kind in res["samples"]
                         else {"value": None, "unit": unit, "n": 0})
    return metrics


def per_layer(layers: dict, spec: list[dict]) -> dict:
    """Every traced name; names the workload never reached read 0."""
    metrics = {}
    for name, value in sorted(layers.items()):
        unit = ("s" if name.endswith("_s") else "ms" if name.endswith("_ms")
                else "ratio" if name.endswith("yield") else "count")
        metrics[name] = {"value": value, "unit": unit}
    for m in spec:
        metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
    return metrics


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, versions: dict) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), **versions,
            "git_commit": git_commit(), "workload_seed": seed}


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        value = m["value"]
        text = "n/a" if value is None else f"{value:.6g}"
        extra = [f"n={m['n']}"] if "n" in m else []
        extra += [f"{k}={v:.6g} {m['unit']}" for k, v in m.items() if k.startswith("p")]
        tail = f"  ({', '.join(extra)})" if extra else ""
        print(f"  {name:<48} {text:>12} {m['unit']}{tail}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(KIND_METRICS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--reference", default=str(HERE / "reference.json"),
                   help="recorded answers to check against")
    p.add_argument("--tiny", action="store_true",
                   help="smoke run: two ops of each kind, one pass, one set-up")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "graphqcka" / "__init__.py").is_file():
        print(f"error: no graphqcka sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--reference", args.reference] + (["--tiny"] if args.tiny else [])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
            _, res = run_worker(base + ["--trace", "1", "--spans", str(spans)], deadline)
            metrics = per_layer(res["layers"], spec["per_layer"])
            wanted = spec["per_layer"]
        else:
            setups = [] if args.tiny else [
                run_worker(base + ["--setup-only"], deadline)[0] for _ in range(SETUPS - 1)]
            ready_s, res = run_worker(
                base + ["--trace", "0", "--seconds", str(0 if args.tiny else args.seconds)],
                deadline)
            setups.append(ready_s)
            metrics = end_to_end(args.workload, setups, res)
            wanted = spec["end_to_end"]
    except BenchError as exc:  # no result line: the run measured nothing
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = res["mismatched"] == 0
    doc = {"workload": args.workload, "trace": args.trace,
           "provenance": provenance(args.seed, res["versions"]),
           "attempted": res["attempted"], "failed": res["failed"],
           "mismatched": res["mismatched"], "failures": res["failures"],
           "metrics": metrics,
           "run": {k: res[k] for k in ("passes", "wall_s", "op_time_s", "untraced_op_time_s",
                                       "spans") if k in res}}
    (RESULTS / f"{tag}.json").write_text(json.dumps(doc, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {res['attempted']}  failed {res['failed']}  correct {correct}")
    for message, count in sorted(res["failures"].items()):
        print(f"  failed x{count}: {message}")
    print_table("metrics:", metrics)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                              "unit": m["unit"]} for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
