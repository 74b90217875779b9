"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["paper6_cli", "search_scaling", "noisy_analysis"])
def test_tiny_run_emits_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--tiny")
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    per_kind = {"paper6_cli": ["cli_extract_s", "cli_simulate_s", "cli_analyze_s",
                               "cli_sweep_s"],
                "search_scaling": ["search_found_p50_ms", "search_noplan_p50_ms",
                                   "orbit_p50_ms"],
                "noisy_analysis": ["scenario_p50_ms", "sweep_p50_s", "calibrate_p50_s"]}
    for name in per_kind[workload] + ["failed_op_share"]:
        assert f"  {name} " in proc.stdout


def test_traced_run_counts_repeat_exactly():
    runs = [last_json(run_bench("--workload", "search_scaling", "--seed", "5",
                                "--seconds", "0", "--trace", "1", "--tiny"))
            for _ in range(2)]
    for out in runs:
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
            name: m["unit"] for name, m in out["metrics"].items()}
    counts = [{k: m["value"] for k, m in out["metrics"].items() if m["unit"] == "count"}
              for out in runs]
    assert counts[0] == counts[1]
    assert counts[0]["routing.realize_plan.calls"] > 0


def test_wrong_reference_is_a_failed_op(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())
    flipped = next(q for q in ref["search"] if q["kind"] != "orbit" and q["found"])
    flipped["found"] = False  # now sorted into the no-plan bucket, still run
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    out = last_json(run_bench("--workload", "search_scaling", "--seed", "1", "--seconds", "0",
                              "--trace", "0", "--tiny", "--reference", str(bad)))
    assert out["correct"] is False
    assert out["failed"] >= 1


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "search_scaling", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_summarize_self_time_and_derived_counts():
    # span: (id, name, start, end, parent, op, failed, note)
    spans = [
        (1, "noise.apply_noise", 1.0, 2.0, 0, 0, 0, 0),
        (2, "routing.realize_plan", 2.0, 2.5, 0, 0, 0, 1),
        (3, "routing.realize_plan", 2.5, 3.0, 0, 0, 0, 0),
        (0, "noise.calibrate_to_targets", 0.0, 4.0, -1, 0, 0, 0),
        (4, "noise.apply_noise", 5.0, 5.5, -1, 1, 0, 0),
    ]
    out = tracer.summarize(spans, {"pauli.compose": 7})
    assert out["noise.calibrate_to_targets.self_ms"] == pytest.approx(2000.0)
    assert out["noise.apply_noise.calls"] == 2
    assert out["noise.calibrate_to_targets.apply_noise_calls"] == 1
    assert out["routing.plan_yield"] == pytest.approx(0.5)
    assert out["pauli.compose.calls"] == 7
