"""The benchmark's three workloads: their inputs, their ops and the checks.

Each workload builds a fixed list of `Op`s in set-up.  An op's `run` is the
timed call into graphqcka; its `check` runs afterwards, outside the timed
region, and returns a mismatch message or None.  Calls go through module
attributes (`routing.find_ghz_plan`, not a bound name) so that the tracer's
rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from graphqcka import analysis, cli, graphstate, io, keyrates, networks, noise, routing
from graphqcka.graphstate import Graph, GraphState

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str                                   # latency bucket
    ident: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def model_from_json(doc: dict) -> noise.NoiseModel:
    """NoiseModel from JSON with 0-based string vertex keys."""
    kw = {k: ({int(v): p for v, p in val.items()} if isinstance(val, dict) else val)
          for k, val in doc.items()}
    return noise.NoiseModel(**kw)


def eight_vertex_plan() -> routing.ExtractionPlan:
    """GHZ on an 8-vertex network, which puts the density engine at its cap."""
    g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (2, 7)])
    return routing.find_ghz_plan(g, (0, 1, 2, 3, 4, 5))


def network_vector(plan) -> np.ndarray:
    return graphstate.to_dense(GraphState(plan.graph, dict(plan.preparation_frame)))


def _close(value: float, want: float, tol: float) -> bool:
    return abs(value - want) <= tol * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# search_scaling


def _search_op(q: dict) -> Op:
    g = Graph.from_edges(q["n"], [tuple(e) for e in q["edges"]])
    if q["kind"] == "orbit":
        def check_orbit(members):
            if len(members) != q["orbit_size"]:
                return f"{q['id']}: orbit has {len(members)} members, reference {q['orbit_size']}"
            return None
        return Op("orbit", q["id"], lambda: routing.lc_orbit(g), check_orbit)

    if q["kind"] == "ghz":
        targets = tuple(q["targets"])
        run = lambda: routing.find_ghz_plan(g, targets)  # noqa: E731
    else:
        pairs = [tuple(p) for p in q["pairs"]]
        run = lambda: routing.find_bell_multicast_plan(g, pairs)  # noqa: E731

    def check_plan(plan):
        if (plan is not None) != q["found"]:
            return (f"{q['id']}: {q['kind']} search found={plan is not None}, "
                    f"reference found={q['found']}")
        if plan is not None and not routing.verify_plan_dense(plan):
            return f"{q['id']}: plan fails dense verification"
        return None
    return Op("found" if q["found"] else "noplan", q["id"], run, check_plan)


class SearchScaling:
    """In-process plan searches and orbit enumerations: routing + graphstate."""

    name = "search_scaling"

    def __init__(self, reference: dict, root: Path):
        self.ops = [_search_op(q) for q in reference["search"]]


# ---------------------------------------------------------------------------
# noisy_analysis


class NoisyAnalysis:
    """In-process noise engine, sampling, Monte Carlo, sweeps and fits."""

    name = "noisy_analysis"

    def __init__(self, reference: dict, root: Path):
        self.plans = {"ghz6": networks.ghz_plan(),
                      "multicast6": networks.bell_multicast_plan(),
                      "bridge6": networks.bell_bridge_plan(),
                      "ghz8": eight_vertex_plan()}
        pool = reference["noisy"]
        self.ops = ([self._scenario(s) for s in pool["scenarios"]]
                    + [self._sweep(s) for s in pool["sweeps"]]
                    + [self._calibrate(c) for c in pool["calibrations"]])

    def _scenario(self, s: dict) -> Op:
        six = s["network"] == "six"
        ghz = self.plans["ghz6" if six else "ghz8"]
        bells = [self.plans["multicast6"], self.plans["bridge6"]] if six else []
        model = model_from_json(s["noise"])

        def run():
            rho = noise.apply_noise(network_vector(ghz), ghz.graph.vertices, model).matrix
            est = keyrates.analytic_estimates(ghz, rho)
            batches = {}
            tagged = [("nqkd", ghz)] + [(f"bell{k}", p) for k, p in enumerate(bells)]
            for k, (tag, plan) in enumerate(tagged):
                b1, b2 = keyrates.simulate_protocol(plan, s["rounds"], s["sim_seed"] + k,
                                                    0.5, rho)
                batches[f"{tag}/type-1"], batches[f"{tag}/type-2"] = b1, b2
            report = analysis.build_report(ghz, bells, batches, mc_samples=s["mc_samples"],
                                           mc_seed=s["mc_seed"])
            return est, report

        def check(result):
            est, _ = result
            if abs(est.qber - s["qber"]) > 1e-9 or abs(est.qx - s["qx"]) > 1e-9:
                return (f"{s['id']}: QBER/Q_X {est.qber:.12g}/{est.qx:.12g}, reference "
                        f"{s['qber']:.12g}/{s['qx']:.12g}")
            return None
        return Op("scenario", s["id"], run, check)

    def _sweep(self, s: dict) -> Op:
        plan, model = self.plans[s["plan"]], model_from_json(s["noise"])
        lo, hi, steps = s["powers"]
        powers = np.linspace(lo, hi, int(steps))

        def check(res):
            if not (_close(res.optimum_power, s["optimum_power"], 1e-9)
                    and _close(res.optimum_rate, s["optimum_rate"], 1e-9)):
                return (f"{s['id']}: optimum {res.optimum_power:.12g} mW / "
                        f"{res.optimum_rate:.12g} Hz, reference {s['optimum_power']:.12g} / "
                        f"{s['optimum_rate']:.12g}")
            return None
        return Op("sweep", s["id"], lambda: noise.pump_sweep(plan, model, powers), check)

    def _calibrate(self, c: dict) -> Op:
        plans = {name: self.plans[name] for name in c["targets"]}
        targets = {name: tuple(t) for name, t in c["targets"].items()}

        def run():
            return noise.calibrate_to_targets(plans, targets, c["noisy_vertices"],
                                              c["channels"])

        def check(fit):
            if not fit.converged or fit.residual >= 1e-6:
                return f"{c['id']}: fit converged={fit.converged} residual={fit.residual:.3g}"
            ghz = self.plans["ghz6"]
            rho = noise.apply_noise(network_vector(ghz), ghz.graph.vertices, fit.model).matrix
            for name, (tq, tx) in targets.items():
                est = keyrates.analytic_estimates(plans[name], rho)
                if abs(est.qber - tq) > 1e-6 or abs(est.qx - tx) > 1e-6:
                    return f"{c['id']}: fitted model misses the {name} target"
            return None
        return Op("calibrate", c["id"], run, check)


# ---------------------------------------------------------------------------
# paper6_cli

README_GRAPH = "6\n1 2\n2 4\n3 4\n4 6\n5 6\n"
README_NOISE = {"white_noise": 0.05, "depolarizing": {"3": 0.02}}
STAGES = ("extract", "simulate", "analyze", "sweep")


class Paper6Cli:
    """The README run, each stage a fresh `python -m graphqcka.cli` process."""

    name = "paper6_cli"

    def __init__(self, reference: dict, root: Path):
        self.root = root
        self.work = root / "bench" / "results" / "paper6_cli"
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "graph.txt").write_text(README_GRAPH)
        self.config = self.work / "run.json"
        self.config.write_text(json.dumps({
            "graph": str(self.work / "graph.txt"), "alice": 1, "bobs": [2, 5, 6],
            "seed": 42, "rounds": 10000, "out": str(self.work / "run"),
            "noise": README_NOISE}, indent=2) + "\n")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        self.analytic = self._analytic_rates()
        self.first_report: bytes | None = None
        self.tracer = None
        self.import_s: list[float] = []
        self.ops = [Op("pipeline", "readme_run", self._pipeline, self._check)]

    def _analytic_rates(self) -> tuple[float, float]:
        """AKR_N / AKR_2 of the CLI's own plans on the configured noisy state."""
        out = self.work / "run"
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(_io.StringIO()):
            code = cli.main(["extract", "--config", str(self.config)])
        if code != 0:
            raise RuntimeError(f"set-up extract exited {code}")
        ghz = routing.plan_from_json((out / "plan_nqkd_0.json").read_text())
        bells = [routing.plan_from_json(p.read_text())
                 for p in sorted(out.glob("plan_2qkd_*.json"))]
        model = io.RunConfig.from_json(self.config).noise_model()
        rho = noise.apply_noise(network_vector(ghz), ghz.graph.vertices, model).matrix
        est = keyrates.analytic_estimates(ghz, rho)
        batches = {}
        for k, plan in enumerate(bells):
            for rt in ("type-1", "type-2"):
                dist = keyrates.outcome_distribution(plan, rt, rho)
                batches[f"bell{k}/{rt}"] = keyrates.RoundBatch(
                    routing.compile_round_settings(plan, rt), plan.targets, dist)
        _, akr_2 = analysis.pairwise_rates(bells, batches)
        return keyrates.akr_n(est.qber, est.qx), akr_2

    def _stage_argv(self, stage: str, k: int) -> list[str]:
        tail = [stage, "--config", str(self.config)]
        if self.tracer is None:
            return [sys.executable, "-m", "graphqcka.cli"] + tail
        spans = self.work / f"spans_{k}.json"
        return [sys.executable, str(HERE / "cli_launcher.py"), str(spans), "--"] + tail

    def _pipeline(self) -> dict:
        shutil.rmtree(self.work / "run", ignore_errors=True)
        stages = {}
        for k, stage in enumerate(STAGES):
            start = time.perf_counter()
            proc = subprocess.run(self._stage_argv(stage, k), env=self.env,
                                  capture_output=True, text=True, timeout=170)
            stages[stage] = time.perf_counter() - start
            if self.tracer is not None:
                self._merge_spans(self.work / f"spans_{k}.json")
            if proc.returncode != 0:
                last = (proc.stderr.strip().splitlines() or ["?"])[-1]
                raise RuntimeError(f"{stage} exited {proc.returncode}: {last}")
        return {"stages": stages, "report": (self.work / "run" / "report.json").read_bytes()}

    def _merge_spans(self, path: Path) -> None:
        doc = json.loads(path.read_text())
        self.import_s.append(doc["import_s"])
        self.tracer.merge(doc["spans"], doc["counts"])

    def _check(self, result: dict) -> str | None:
        if self.first_report is None:
            self.first_report = result["report"]
        elif result["report"] != self.first_report:
            return "report.json differs from the first op of this run"
        report = json.loads(result["report"])
        for key, want in zip(("akr_n", "akr_2"), self.analytic):
            sigma = report["uncertainties"][key]
            if not math.isfinite(report[key]) or abs(report[key] - want) > 4 * sigma:
                return (f"{key} = {report[key]:.6g} +- {sigma:.3g} is more than 4 sigma "
                        f"from the analytic {want:.6g}")
        return None


WORKLOADS = {w.name: w for w in (Paper6Cli, SearchScaling, NoisyAnalysis)}
