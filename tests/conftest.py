"""Shared helpers for the test suite."""

import itertools
import json
import random
import re

import pytest

from graphqcka import analysis
from graphqcka.graphstate import Graph, GraphState
from graphqcka.noise import NoiseModel, poisson_count_rows
from graphqcka.pauli import ALL_CLIFFORDS, IDENTITY


def all_graphs(n):
    """Every labelled simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def connected_graphs(n):
    for g in all_graphs(n):
        if len(g.connected_components()) == 1:
            yield g


def random_graph(n, rng):
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, [p for p in pairs if rng.random() < 0.5])


def random_frame(g, rng):
    return {v: rng.choice(ALL_CLIFFORDS) for v in g.vertices}


def random_model(rng, vertices):
    """Noise on every channel: per-qubit channels on random vertices, white noise."""
    def channel():
        return {v: rng.uniform(0.0, 0.2) for v in vertices if rng.random() < 0.7}
    return NoiseModel(depolarizing=channel(), dephasing=channel(),
                      bit_flip=channel(), white_noise=rng.uniform(0.0, 0.2))


README_GRAPH = "6\n1 2\n2 4\n3 4\n4 6\n5 6\n"
README_CONFIG = {"graph": "graph.txt", "alice": 1, "bobs": [2, 5, 6], "seed": 42,
                 "rounds": 10000, "out": "run",
                 "noise": {"white_noise": 0.05, "depolarizing": {"3": 0.02}}}


def write_readme_run(directory):
    """The README's graph.txt and run.json, with paths relative to directory."""
    (directory / "graph.txt").write_text(README_GRAPH)
    (directory / "run.json").write_text(json.dumps(README_CONFIG, indent=2) + "\n")


def identity_state(g):
    return GraphState(g, {v: IDENTITY for v in g.vertices})


@pytest.fixture
def rng():
    return random.Random(20260825)


@pytest.fixture
def poisson_cells(monkeypatch):
    """The Poisson cells, the count columns drawn, of each report that
    analysis.build_report makes while the fixture is in use."""
    cells = []

    def spy(*args, **kwargs):
        rows = poisson_count_rows(*args, **kwargs)
        cells.append(sum(len(c.outcomes) for c in rows.values()))
        return rows
    monkeypatch.setattr(analysis, "poisson_count_rows", spy)
    return cells


def pytest_runtest_logreport(report):
    """One scoreboard line per acceptance criterion, outside output capture."""
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[criterion {m.group(1)}] {status}", flush=True)
