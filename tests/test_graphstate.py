"""Graph-state engine tests against the dense-amplitude oracle."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphqcka import graphstate, networks, routing
from graphqcka.graphstate import (Graph, GraphState, SizeCapError,
                                  build_graph_state, local_complement,
                                  measure_vertex, project_dense,
                                  stabilizer_expectation, to_dense)
from graphqcka.pauli import IDENTITY, from_name

from conftest import all_graphs, connected_graphs, identity_state, random_frame, random_graph
from oracles import PauliObservable, Tableau, expectation, states_equal, tensordot_single_qubit


class TestGraph:
    def test_from_edges_validation(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(0, [])
        with pytest.raises(ValueError):
            Graph.from_edges(25, [])

    def test_neighbors_and_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.neighbors(1) == (0, 2)
        assert g.edges() == ((0, 1), (1, 2), (2, 3))

    def test_delete_keeps_labels(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        h = g.delete_vertex(1)
        assert h.vertices == (0, 2, 3)
        assert h.edges() == ((2, 3),)
        # label 3 still means the same vertex
        assert h.neighbors(3) == (2,)
        for v in (1, 7, -1):
            with pytest.raises(ValueError, match=f"^vertex {v} not present$"):
                h.neighbors(v)

    def test_toggle_neighborhood(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        h = g.toggle_neighborhood(1)
        assert set(h.edges()) == {(0, 1), (0, 2), (1, 2)}
        assert g.toggle_neighborhood(1).toggle_neighborhood(1) == g

    def test_toggle_neighborhood_matches_edge_complement(self, rng):
        # labels with gaps, as after measurement, so index and label differ
        for _ in range(30):
            g = random_graph(8, rng)
            for v in rng.sample(g.vertices, 3):
                g = g.delete_vertex(v)
            v = rng.choice(g.vertices)
            nbrs = g.neighbors(v)
            inside = set(itertools.combinations(nbrs, 2))
            assert set(g.toggle_neighborhood(v).edges()) == set(g.edges()) ^ inside

    def test_connected_components(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        comps = {frozenset(c) for c in g.connected_components()}
        assert comps == {frozenset({0, 1}), frozenset({2, 3}), frozenset({4})}

    def test_adjacency_symmetric_after_operations(self, rng):
        g = random_graph(6, rng)
        for h in (g, g.toggle_neighborhood(2), g.delete_vertex(3)):
            for u in h.vertices:
                for w in h.neighbors(u):
                    assert u in h.neighbors(w)
                assert u not in h.neighbors(u)


class TestDenseOracle:
    def test_edge_order_independence(self, rng):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        a = build_graph_state(4, edges)
        shuffled = edges[:]
        rng.shuffle(shuffled)
        b = build_graph_state(4, shuffled)
        assert np.allclose(to_dense(a), to_dense(b))

    def test_dense_cap(self):
        with pytest.raises(SizeCapError):
            to_dense(build_graph_state(13, []))

    def test_bell_and_ghz_expectations(self):
        # graph state on K2 equals (|00>+|11>)/sqrt2 after H on the second qubit
        k2 = build_graph_state(2, [(0, 1)])
        vec = to_dense(GraphState(k2.graph, {0: IDENTITY, 1: from_name("H")}))
        assert expectation(vec, PauliObservable({0: "Z", 1: "Z"}), (0, 1)) == pytest.approx(1)
        # 4-qubit GHZ from a star graph with H on the leaves
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        frame = {0: IDENTITY, 1: from_name("H"), 2: from_name("H"), 3: from_name("H")}
        ghz = to_dense(GraphState(star, frame))
        assert expectation(ghz, PauliObservable({v: "X" for v in range(4)}),
                           range(4)) == pytest.approx(1)

    def test_type2_product_observable(self):
        from graphqcka.networks import six_vertex_network_state
        vec = to_dense(six_vertex_network_state())
        obs = PauliObservable({0: "X", 1: "Y", 2: "X", 3: "X", 4: "X", 5: "Y"})
        assert expectation(vec, obs, range(6)) == pytest.approx(1, abs=1e-10)

    def test_expectation_arity_mismatch(self):
        vec = to_dense(build_graph_state(2, [(0, 1)]))
        with pytest.raises(ValueError):
            expectation(vec, PauliObservable({0: "Z"}), (0, 1, 2))

    def test_project_dense_zero_probability(self):
        vec = to_dense(build_graph_state(1, []))  # |+>
        with pytest.raises(ValueError):
            project_dense(vec, (0,), {0: ("X", 1)})

    def test_single_qubit_form_matches_tensordot(self, monkeypatch):
        """Seeded: every single-qubit application in to_dense,
        verify_plan_dense and the networks circuit states equals the
        moveaxis/tensordot form within 1e-12, and so does each to_dense."""
        applied = []
        direct = graphstate._apply_single_qubit

        def checked(vec, qubit, mat):
            out = direct(vec, qubit, mat)
            n = vec.size.bit_length() - 1
            assert np.abs(out - tensordot_single_qubit(vec, n, qubit, mat)).max() <= 1e-12
            applied.append((n, qubit))
            return out
        for module in (graphstate, routing, networks):
            monkeypatch.setattr(module, "_apply_single_qubit", checked)
        rng = random.Random(27)
        for _ in range(40):
            g = random_graph(rng.randint(1, 8), rng)
            gs = GraphState(g, random_frame(g, rng))
            want = graphstate._dense_graph_vector(g)
            for i, v in enumerate(g.vertices):
                if gs.frame[v] != IDENTITY:
                    want = tensordot_single_qubit(want, g.n, i, gs.frame[v].matrix)
            assert np.abs(to_dense(gs) - want).max() <= 1e-12
        for plan in (networks.ghz_plan(), networks.bell_multicast_plan(),
                     networks.bell_bridge_plan()):
            assert routing.verify_plan_dense(plan)
        networks.fusion_circuit_state()
        networks.rotate_to_graph_state(networks.eight_term_state())
        assert {n for n, _ in applied} == set(range(1, 9))
        assert {q for n, q in applied if n == 6} == set(range(6))

    def test_states_equal(self):
        path = build_graph_state(3, [(0, 1), (1, 2)])
        tri = build_graph_state(3, [(0, 1), (1, 2), (0, 2)])
        assert states_equal(path, path)
        assert not states_equal(path, tri)


class TestLocalComplementation:
    def test_involution_exhaustive_small(self):
        for n in range(2, 6):
            for g in all_graphs(n):
                gs = identity_state(g)
                for v in g.vertices:
                    if not g.neighbors(v):
                        continue
                    twice = local_complement(local_complement(gs, v), v)
                    assert twice.graph == g
                    assert dict(twice.frame) == dict(gs.frame)

    def test_involution_with_random_frames(self, rng):
        from graphqcka.graphstate import _canonical_frame
        for _ in range(150):
            n = rng.randint(2, 12)
            g = random_graph(n, rng)
            # frames are defined modulo the stabilizer group; involution is
            # exact in the canonical (Z-layer-only) gauge
            gs = GraphState(g, _canonical_frame(g, random_frame(g, rng)))
            v = rng.choice(g.vertices)
            if not g.neighbors(v):
                continue
            twice = local_complement(local_complement(gs, v), v)
            assert twice.graph == g
            assert dict(twice.frame) == dict(gs.frame)

    def test_state_preservation(self, rng):
        for _ in range(60):
            n = rng.randint(2, 8)
            g = random_graph(n, rng)
            gs = GraphState(g, random_frame(g, rng))
            v = rng.choice(g.vertices)
            if not g.neighbors(v):
                continue
            assert states_equal(gs, local_complement(gs, v), tol=1e-10)

    @given(st.integers(min_value=0, max_value=2 ** 15 - 1),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_involution_property(self, mask, v):
        pairs = list(itertools.combinations(range(6), 2))
        g = Graph.from_edges(6, [p for i, p in enumerate(pairs) if mask >> i & 1])
        if not g.neighbors(v):
            return
        gs = identity_state(g)
        twice = local_complement(local_complement(gs, v), v)
        assert twice.graph == g and dict(twice.frame) == dict(gs.frame)


def dense_reference(gs, basis, v, outcome):
    """Oracle: project the dense state instead of using the graph rules."""
    return project_dense(to_dense(gs), gs.graph.vertices, {v: (basis, outcome)})


class TestMeasurement:
    def test_invalid_inputs(self):
        gs = build_graph_state(2, [(0, 1)])
        with pytest.raises(ValueError):
            measure_vertex(gs, "W", 0, 0)
        with pytest.raises(ValueError):
            measure_vertex(gs, "Z", 0, 2)
        for v in (2, -1):
            with pytest.raises(ValueError, match=f"^vertex {v} not present$"):
                measure_vertex(gs, "Z", v, 0)
        post, _ = measure_vertex(gs, "X", 1, 0)
        with pytest.raises(ValueError, match="^vertex 1 not present$"):
            measure_vertex(post, "Y", 1, 0)

    def test_oracle_equivalence_exhaustive(self):
        for n in range(2, 5):
            for g in connected_graphs(n):
                gs = identity_state(g)
                for v in g.vertices:
                    for basis in "XYZ":
                        for outcome in (0, 1):
                            try:
                                ref = dense_reference(gs, basis, v, outcome)
                            except ValueError:
                                continue  # unattainable branch
                            post, rec = measure_vertex(gs, basis, v, outcome)
                            assert rec.outcome == outcome
                            got = to_dense(post)
                            fid = abs(np.vdot(ref, got)) ** 2
                            assert fid == pytest.approx(1, abs=1e-10)

    def test_oracle_equivalence_random_frames(self, rng):
        for _ in range(150):
            n = rng.randint(2, 5)
            g = random_graph(n, rng)
            gs = GraphState(g, random_frame(g, rng))
            v = rng.choice(g.vertices)
            basis = rng.choice("XYZ")
            outcome = rng.randint(0, 1)
            try:
                ref = dense_reference(gs, basis, v, outcome)
            except ValueError:
                continue
            post, _ = measure_vertex(gs, basis, v, outcome)
            fid = abs(np.vdot(ref, to_dense(post))) ** 2
            assert fid == pytest.approx(1, abs=1e-10)

    def test_outcome_probabilities_sum_to_one(self, rng):
        for _ in range(50):
            n = rng.randint(2, 6)
            g = random_graph(n, rng)
            gs = GraphState(g, random_frame(g, rng))
            v = rng.choice(g.vertices)
            for basis in "XYZ":
                total = 0.0
                for outcome in (0, 1):
                    try:
                        _, rec = measure_vertex(gs, basis, v, outcome)
                    except ValueError:
                        continue  # probability-0 branch of a deterministic setting
                    total += rec.probability
                assert total == pytest.approx(1)

    def test_at_most_one_outcome_is_unattainable(self, rng):
        """Only an X-type measurement of an isolated vertex has an outcome of
        probability 0, and then the other one has probability 1: no vertex
        and basis make both outcomes raise."""
        unattainable = 0
        for _ in range(300):
            g = random_graph(rng.randint(1, 7), rng)
            gs = GraphState(g, random_frame(g, rng))
            for v in g.vertices:
                for basis in "XYZ":
                    raised = []
                    for outcome in (0, 1):
                        try:
                            _, rec = measure_vertex(gs, basis, v, outcome)
                        except ValueError:
                            raised.append(outcome)
                    assert len(raised) <= 1
                    if raised:
                        assert not g.neighbors(v) and rec.probability == 1.0
                        unattainable += 1
        assert unattainable

    def test_deleted_vertex_absent(self):
        gs = build_graph_state(3, [(0, 1), (1, 2)])
        post, _ = measure_vertex(gs, "Z", 1, 0)
        assert post.graph.vertices == (0, 2)
        assert 1 not in post.frame


class TestStabilizerExpectation:
    @staticmethod
    def group_element(gs, x):
        """Physical letters of the generator product over the vertex set x."""
        gamma = 0
        for v in x:
            gamma ^= gs.graph.adj[v]
        letters = {}
        for v in gs.graph.vertices:
            graph_letter = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}.get(
                (int(v in x), gamma >> v & 1), "I")
            letters[v] = gs.frame[v].conjugate((graph_letter, 1))[0]
        return letters

    def test_matches_dense_oracle(self, rng):
        seen = {1: 0, -1: 0, 0: 0}
        for _ in range(400):
            n = rng.randint(1, 8)
            g = random_graph(n, rng)
            gs = GraphState(g, random_frame(g, rng))
            vec = to_dense(gs)
            x = {v for v in g.vertices if rng.random() < 0.5}
            strings = [{v: rng.choice("IXYZ") for v in g.vertices},
                       self.group_element(gs, x)]
            for letters in strings:
                want = round(expectation(vec, PauliObservable(letters), g.vertices))
                got = stabilizer_expectation(gs, letters)
                assert got == want, (g.edges(), letters)
                seen[got] += 1
        assert min(seen.values()) > 50, seen

    def test_sparse_strings_and_bad_input(self):
        gs = build_graph_state(3, [(0, 1), (1, 2)])
        assert stabilizer_expectation(gs, {}) == 1
        assert stabilizer_expectation(gs, {0: "X", 1: "Z"}) == 1
        assert stabilizer_expectation(gs, {0: "X"}) == 0
        with pytest.raises(ValueError):
            stabilizer_expectation(gs, {7: "Z"})
        with pytest.raises(ValueError):
            stabilizer_expectation(gs, {0: "W"})


class TestRulesPastTheDenseCap:
    """Seeded framed graph states with 13-24 vertices, past the dense
    oracle's cap, under random local complementations and Pauli
    measurements that leave the labels gapped, against a stabilizer tableau
    of the physical state and a plain edge-set model of the graph."""

    @staticmethod
    def check_graph(g, n, edges):
        """g holds edges over its labels, and each absent label's slot is 0."""
        assert g.edges() == tuple(sorted(edges))
        for u in range(n):
            nbrs = tuple(sorted(w for e in edges if u in e for w in e if w != u))
            if u in g.vertices:
                assert g.neighbors(u) == nbrs
            else:
                assert g.adj[u] == 0 and not nbrs

    def test_rules_match_tableau_and_edge_model(self, rng):
        seen = {1: 0, -1: 0, 0: 0}
        deterministic = unattainable = 0
        for _ in range(40):
            n = rng.randint(13, 24)
            p = rng.choice((0.05, 0.1, 0.25, 0.5))
            pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            g = Graph.from_edges(n, pairs)
            gs = GraphState(g, random_frame(g, rng))
            tableau = Tableau(g, gs.frame)
            walk, edges = g, set(pairs)
            for _ in range(rng.randint(6, 12)):
                v = rng.choice(gs.graph.vertices)
                if rng.random() < 0.5:
                    # the physical state, and so the tableau, is unchanged
                    gs = local_complement(gs, v)
                    walk = walk.toggle_neighborhood(v)
                    nbrs = sorted(u for e in edges if v in e for u in e if u != v)
                    edges ^= set(itertools.combinations(nbrs, 2))
                else:
                    basis, bit = rng.choice("XYZ"), rng.randint(0, 1)
                    certain = tableau.expectation({v: basis}) != 0
                    if not tableau.measure({v: basis}, bit):
                        with pytest.raises(ValueError, match="has probability 0"):
                            measure_vertex(gs, basis, v, bit)
                        bit = 1 - bit
                        unattainable += 1
                        assert tableau.measure({v: basis}, bit)
                    gs, rec = measure_vertex(gs, basis, v, bit)
                    assert rec.probability == (1.0 if certain else 0.5)
                    deterministic += certain
                    walk = walk.delete_vertex(v)
                    edges = {e for e in edges if v not in e}
                assert walk.vertices == gs.graph.vertices
                self.check_graph(walk, n, edges)
                self.check_graph(gs.graph, n, gs.graph.edges())
                verts = gs.graph.vertices
                x = {u for u in verts if rng.random() < 0.5}
                for letters in ({u: rng.choice("IXYZ") for u in verts},
                                TestStabilizerExpectation.group_element(gs, x)):
                    got = stabilizer_expectation(gs, letters)
                    want = tableau.expectation({u: l for u, l in letters.items() if l != "I"})
                    assert got == want, (gs.graph.edges(), letters)
                    seen[got] += 1
        assert min(seen.values()) > 50 and deterministic and unattainable, (
            seen, deterministic, unattainable)
