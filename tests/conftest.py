"""Shared helpers for the test suite."""

import itertools
import random
import re

import pytest

from graphqcka.graphstate import Graph, GraphState
from graphqcka.noise import NoiseModel
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


def identity_state(g):
    return GraphState(g, {v: IDENTITY for v in g.vertices})


@pytest.fixture
def rng():
    return random.Random(20260825)


def pytest_runtest_logreport(report):
    """One scoreboard line per acceptance criterion, outside output capture."""
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[criterion {m.group(1)}] {status}", flush=True)
