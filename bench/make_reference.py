"""Regenerate bench/reference.json: the fixed input pools and their answers.

    PYTHONPATH=src python3 bench/make_reference.py

The pools are drawn from POOL_SEED, so rerunning this at the same commit
rewrites the same file.  The answers (plan found or not, orbit sizes,
analytic QBER / Q_X, sweep optima, calibration targets) are recorded from
the graphqcka in src/, and the benchmark checks every later run against
them.  Rerun it only when a change is meant to alter those answers.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import numpy as np

from graphqcka import networks, routing
from graphqcka.graphstate import Graph
from graphqcka.keyrates import analytic_estimates
from graphqcka.noise import apply_noise, pump_sweep
from workloads import eight_vertex_plan, model_from_json, network_vector

POOL_SEED = 20221
# A search query is kept only when |LC orbit| * 3^k (the candidates an
# exhaustive no-plan search tries, k = nonparticipants) is at most this.
# 400 keeps the slowest no-plan query near half a second on a 2-core Xeon,
# so one pass over the pool fits a run; it leaves out, among others, the
# 8-vertex path no-plan search (612 * 3^2 candidates, about 70 s).
SEARCH_BUDGET = 400
FOUND_PER_PASS = 40
NOPLAN_PER_PASS = 40
ORBIT_GRAPHS = (("path", 8), ("ring", 8), ("rand", 8), ("path", 9), ("rand", 9),
                ("path", 10))
MC_SAMPLES = 200
ROUNDS = 10000
SWEEP_POINTS = 12
HERE = Path(__file__).resolve().parent


def family_graph(rng: random.Random, family: str, n: int) -> Graph:
    if family == "path":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if family == "ring":
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "tree":
        return Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])
    p = rng.uniform(0.3, 0.6)
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if len(g.connected_components()) == 1:
            return g


def search_candidates(rng: random.Random) -> list[dict]:
    graphs = []
    for n in range(5, 9):
        graphs += [("path", family_graph(rng, "path", n)),
                   ("ring", family_graph(rng, "ring", n))]
        graphs += [(family, family_graph(rng, family, n))
                   for family in ("tree", "rand") for _ in range(4)]
    out = []
    for family, g in graphs:
        orbit = len(routing.lc_orbit(g))
        for k in (1, 2, 3):
            if orbit * 3 ** k > SEARCH_BUDGET:
                continue
            for _ in range(3):
                nonparts = sorted(rng.sample(range(g.n), k))
                parts = [v for v in range(g.n) if v not in nonparts]
                base = {"family": family, "n": g.n, "edges": [list(e) for e in g.edges()],
                        "orbit_size": orbit, "nonparticipants": nonparts}
                out.append(dict(base, kind="ghz", targets=parts))
                if len(parts) % 2 == 0:
                    rng.shuffle(parts)
                    pairs = sorted(sorted(parts[i:i + 2]) for i in range(0, len(parts), 2))
                    out.append(dict(base, kind="bell", pairs=pairs))
    return out


def run_search(q: dict):
    g = Graph.from_edges(q["n"], [tuple(e) for e in q["edges"]])
    if q["kind"] == "ghz":
        return routing.find_ghz_plan(g, q["targets"])
    return routing.find_bell_multicast_plan(g, [tuple(p) for p in q["pairs"]])


def search_pool(rng: random.Random) -> list[dict]:
    seen, found, noplan = set(), [], []
    for q in search_candidates(rng):
        key = json.dumps([q["edges"], q["n"], q["kind"], q.get("targets"), q.get("pairs")])
        if key in seen:
            continue
        seen.add(key)
        t = time.perf_counter()
        q["found"] = run_search(q) is not None
        (found if q["found"] else noplan).append(q)
        print(f"{q['kind']} n={q['n']} k={len(q['nonparticipants'])} orbit={q['orbit_size']}"
              f" found={q['found']} {1e3 * (time.perf_counter() - t):.1f} ms", file=sys.stderr)
    print(f"search candidates: {len(found)} found, {len(noplan)} no-plan", file=sys.stderr)
    pool = rng.sample(found, min(FOUND_PER_PASS, len(found)))
    pool += rng.sample(noplan, min(NOPLAN_PER_PASS, len(noplan)))
    for family, n in ORBIT_GRAPHS:
        g = family_graph(rng, family, n)
        t = time.perf_counter()
        size = len(routing.lc_orbit(g))
        print(f"orbit {family}{n}: {size} members {1e3 * (time.perf_counter() - t):.1f} ms",
              file=sys.stderr)
        pool.append({"family": family, "n": n, "edges": [list(e) for e in g.edges()],
                     "kind": "orbit", "orbit_size": size})
    for i, q in enumerate(pool):
        q["id"] = f"s{i:03d}"
    return pool


def random_model(rng: random.Random, n: int, white: float, scale: float) -> dict:
    """Noise as JSON: white noise plus random per-qubit channels."""
    doc = {"white_noise": white}
    for channel in ("depolarizing", "dephasing", "bit_flip"):
        qubits = rng.sample(range(n), rng.randint(1, 3))
        doc[channel] = {str(v): round(rng.uniform(0, scale), 4) for v in sorted(qubits)}
    return doc


def noisy_pool(rng: random.Random) -> dict:
    plans = {"ghz6": networks.ghz_plan(), "multicast6": networks.bell_multicast_plan(),
             "bridge6": networks.bell_bridge_plan(), "ghz8": eight_vertex_plan()}
    whites = [0.0, 0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.2, 0.23, 0.26, 0.3, 0.1]
    scenarios = []
    for i, white in enumerate(whites):
        eight = i >= len(whites) - 2
        plan = plans["ghz8" if eight else "ghz6"]
        model = random_model(rng, plan.graph.n, white, 0.04)
        est = analytic_estimates(plan, apply_noise(network_vector(plan), plan.graph.vertices,
                                                   model_from_json(model)).matrix)
        scenarios.append({"id": f"scenario{i:02d}", "network": "eight" if eight else "six",
                          "noise": model, "rounds": ROUNDS, "sim_seed": 100 + i,
                          "mc_samples": MC_SAMPLES, "mc_seed": 200 + i,
                          "qber": est.qber, "qx": est.qx})
    sweeps = []
    for i, name in enumerate(("ghz6", "multicast6", "bridge6", "ghz6")):
        model = random_model(rng, 6, 0.0, 0.02)
        powers = [5.0 + 15.0 * i, 200.0 - 10.0 * i, SWEEP_POINTS]
        res = pump_sweep(plans[name], model_from_json(model),
                         np.linspace(powers[0], powers[1], powers[2]))
        sweeps.append({"id": f"sweep{i:02d}", "plan": name, "noise": model,
                       "powers": powers, "optimum_power": res.optimum_power,
                       "optimum_rate": res.optimum_rate})
    calibrations = []
    fits = ((("ghz6", "bridge6"), (0, 3), ("depolarizing", "dephasing")),
            (("ghz6",), (1, 4), ("dephasing", "bit_flip")),
            (("ghz6", "multicast6"), (2, 5), ("depolarizing", "bit_flip")))
    for i, (names, qubits, channels) in enumerate(fits):
        hidden = {ch: {str(v): round(rng.uniform(0.005, 0.05), 4) for v in qubits}
                  for ch in channels}
        ghz = plans["ghz6"]
        rho = apply_noise(network_vector(ghz), ghz.graph.vertices, model_from_json(hidden)).matrix
        targets = {}
        for name in names:
            est = analytic_estimates(plans[name], rho)
            targets[name] = [est.qber, est.qx]
        calibrations.append({"id": f"calibrate{i:02d}", "targets": targets,
                             "noisy_vertices": list(qubits), "channels": list(channels)})
    return {"scenarios": scenarios, "sweeps": sweeps, "calibrations": calibrations}


def main() -> None:
    rng = random.Random(POOL_SEED)
    doc = {"pool_seed": POOL_SEED, "search_budget": SEARCH_BUDGET,
           "search": search_pool(rng), "noisy": noisy_pool(rng)}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
