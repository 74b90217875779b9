"""Extraction-plan search, compilation, and accounting tests."""

import itertools
import random
from collections import deque
from fractions import Fraction

import pytest

from conftest import all_graphs, random_frame, random_graph
from graphqcka import networks, routing
from graphqcka.graphstate import Graph, SizeCapError
from graphqcka.routing import (byproduct_correction, circuit_success_probability,
                               compile_round_settings, find_bell_multicast_plan,
                               find_ghz_plan, find_pairwise_plan_set, lc_orbit,
                               network_use_accounting, plan_from_json, plan_to_json,
                               realize_plan, verify_plan_dense)

NETWORK = networks.six_vertex_graph()
PREP = networks.six_vertex_preparation_frame()


class TestOrbit:
    def test_k2_orbit(self):
        assert len(lc_orbit(Graph.from_edges(2, [(0, 1)]))) == 1

    def test_path3_orbit(self):
        assert len(lc_orbit(Graph.from_edges(3, [(0, 1), (1, 2)]))) == 4

    def test_six_vertex_orbit_regression(self):
        assert len(lc_orbit(NETWORK)) == 39

    def test_orbit_closure(self):
        orbit = lc_orbit(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        for member in orbit:
            assert lc_orbit(member) == orbit

    def test_orbit_cap(self):
        with pytest.raises(SizeCapError):
            lc_orbit(Graph.from_edges(13, [(0, 1)]))


class TestGhzPlans:
    def test_reference_route_realizes(self):
        plan = networks.ghz_plan()
        assert plan.lc_sequence == (1, 3)
        assert plan.nonparticipant_logical_bases == {2: "Z", 3: "Z"}
        assert verify_plan_dense(plan)

    def test_find_succeeds_on_six_vertex_network(self):
        plan = find_ghz_plan(NETWORK, (0, 1, 4, 5), preparation_frame=PREP)
        assert plan is not None
        assert plan.nonparticipants == (2, 3)
        assert verify_plan_dense(plan)

    def test_compiled_sequences_match_reference(self):
        plan = networks.ghz_plan()
        t1 = compile_round_settings(plan, "type-1")
        t2 = compile_round_settings(plan, "type-2")
        assert t1.basis_string(range(6)) == "ZZXXZZ"
        assert t2.basis_string(range(6)) == "XYXXXY"
        assert set(t1.sign_convention.values()) <= {1, -1}

    def test_no_plan_for_disconnected_targets(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert find_ghz_plan(g, (0, 2)) is None

    def test_trivial_two_vertex_plan(self):
        plan = find_ghz_plan(Graph.from_edges(2, [(0, 1)]), (0, 1))
        assert plan is not None and plan.nonparticipants == ()
        assert verify_plan_dense(plan)

    def test_eleven_vertex_plan_is_dense_verified(self):
        path11 = Graph.from_edges(11, [(v, v + 1) for v in range(10)])
        plan = find_ghz_plan(path11, (0, 2, 4, 6, 8, 10))
        assert plan is not None and verify_plan_dense(plan)

    def test_search_capped_at_dense_cap(self):
        path13 = Graph.from_edges(13, [(v, v + 1) for v in range(12)])
        with pytest.raises(SizeCapError):
            find_ghz_plan(path13, range(6, 13))

    def test_ring_graph_users(self):
        plan = find_ghz_plan(networks.ring_graph(), (0, 2, 3, 5))
        assert plan is not None
        assert verify_plan_dense(plan)
        # the alternative route with explicit complementations also verifies
        explicit = realize_plan(networks.ring_graph(), "ghz", (0, 2, 3, 5),
                                lc_sequence=(1, 4), logical_bases={1: "Z", 4: "Z"})
        assert explicit is None or verify_plan_dense(explicit)


class TestBellPlans:
    def test_simultaneous_pairs_single_copy(self):
        plan = find_bell_multicast_plan(NETWORK, ((0, 1), (4, 5)),
                                        preparation_frame=PREP)
        assert plan is not None
        assert plan.pairs == ((0, 1), (4, 5))
        assert plan.copies_required == 1
        assert verify_plan_dense(plan)

    def test_bridge_pair(self):
        plan = find_bell_multicast_plan(NETWORK, ((1, 4),),
                                        preparation_frame=PREP)
        assert plan is not None
        assert verify_plan_dense(plan)

    def test_three_pairs_regression(self):
        # exhaustive search finds no single-copy triple multicast
        assert find_bell_multicast_plan(
            NETWORK, ((0, 1), (2, 3), (4, 5))) is None

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            find_bell_multicast_plan(NETWORK, ((0, 1), (1, 2)))

    def test_ring_casts_two_pairs_every_round(self):
        ring = networks.ring_graph()
        for pairs in (((0, 2), (3, 5)), ((0, 5), (2, 3))):
            plan = find_bell_multicast_plan(ring, pairs)
            assert plan is not None
            assert plan.copies_required == 1
            assert verify_plan_dense(plan)


def _restart_cover(graph, alice, bobs, prep):
    """The pairwise cover as a restart loop: after each plan taken, search
    again from the largest link sets."""
    users = [alice] + sorted(bobs)
    needed = [(min(alice, b), max(alice, b)) for b in sorted(bobs)]
    plans = []
    parent = {u: u for u in users}

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    candidate_links = needed + [(a, b) for a, b in itertools.combinations(sorted(users), 2)
                                if (a, b) not in needed]
    while len({find(u) for u in users}) > 1:
        best = None
        for size in range(len(users) // 2, 0, -1):
            for combo in itertools.combinations(candidate_links, size):
                flat = [v for p in combo for v in p]
                if len(set(flat)) != len(flat) or all(find(a) == find(b) for a, b in combo):
                    continue
                best = find_bell_multicast_plan(graph, combo, preparation_frame=prep)
                if best is not None:
                    break
            if best is not None:
                break
        if best is None:
            return None
        plans.append(best)
        for a, b in best.pairs:
            parent[find(a)] = find(b)
    return plans


@pytest.fixture
def searched(monkeypatch):
    """Link sets the library passes to find_bell_multicast_plan, in order.

    The test module's own find_bell_multicast_plan is not patched, so the
    restart-loop oracle's searches are not recorded."""
    calls = []
    search = routing.find_bell_multicast_plan

    def recording(g, pairs, preparation_frame=None):
        calls.append(tuple(pairs))
        return search(g, pairs, preparation_frame)

    monkeypatch.setattr(routing, "find_bell_multicast_plan", recording)
    return calls


class TestPairwiseCover:
    def test_paper_network(self, searched):
        plans = find_pairwise_plan_set(NETWORK, 0, (1, 4, 5), PREP)
        assert [p.pairs for p in plans] == [((0, 1), (4, 5)), ((0, 4),)]
        assert plans == _restart_cover(NETWORK, 0, (1, 4, 5), PREP)
        assert network_use_accounting(plans, "2QKD") == 2
        assert len(searched) == 4

    def test_matches_restart_loop_searching_each_set_once(self, searched):
        rng = random.Random(6)
        outcomes = set()
        for i in range(120):
            n = rng.randint(4, 6)
            # the last 20 graphs may be disconnected, where no cover exists
            g = _random_connected_graph(n, rng) if i < 100 else random_graph(n, rng)
            prep = random_frame(g, rng)
            alice, *bobs = rng.sample(g.vertices, rng.randint(2, n))
            searched.clear()
            plans = find_pairwise_plan_set(g, alice, bobs, prep)
            assert len(searched) == len(set(searched))
            assert plans == _restart_cover(g, alice, bobs, prep)
            outcomes.add(None if plans is None else min(len(plans), 3))
        assert outcomes == {None, 1, 2, 3}

    def test_roles_must_be_distinct(self):
        with pytest.raises(ValueError):
            find_pairwise_plan_set(NETWORK, 0, (0, 1))
        with pytest.raises(ValueError):
            find_pairwise_plan_set(NETWORK, 0, ())


def _orbit_paths(g):
    """Each LC-orbit member of g with its shortest, then lexicographically
    least, complementation sequence from g (breadth-first)."""
    paths = {g: ()}
    queue = deque([g])
    while queue:
        cur = queue.popleft()
        for v in cur.vertices:
            if cur.neighbors(v):
                nxt = cur.toggle_neighborhood(v)
                if nxt not in paths:
                    paths[nxt] = paths[cur] + (v,)
                    queue.append(nxt)
    return paths


def _orbit_star_reduction(residual):
    """Star test by orbit search: the shortest path to a star, least center."""
    if residual.n == 1:
        return (), residual.vertices[0]
    best = None
    for member, path in _orbit_paths(residual).items():
        degs = {v: len(member.neighbors(v)) for v in member.vertices}
        centers = [v for v, d in degs.items() if d == member.n - 1]
        leaves = sum(d == 1 for d in degs.values())
        if member.n == 2 and degs[member.vertices[0]] == 1:
            key = (len(path), path, member.vertices[0])
        elif member.n > 2 and centers and leaves == member.n - 1:
            key = (len(path), path, centers[0])
        else:
            continue
        best = key if best is None else min(best, key)
    return None if best is None else best[1:]


def _orbit_search(g, kind, participants, pairs=(), prep=None):
    """Plan search over every LC-orbit member times the 3^k logical bases,
    shortest complementation sequence first."""
    nonparts = sorted(set(g.vertices) - set(participants))
    assignments = sorted(itertools.product("ZXY", repeat=len(nonparts)),
                         key=lambda bs: (sum(b != "Z" for b in bs), bs))
    for path in sorted(_orbit_paths(g).values(), key=lambda p: (len(p), p)):
        for bases in assignments:
            plan = realize_plan(g, kind, participants, path,
                                dict(zip(nonparts, bases)), pairs,
                                preparation_frame=prep)
            if plan is not None:
                return plan
    return None


def _random_connected_graph(n, rng):
    while True:
        g = Graph.from_edges(n, [p for p in itertools.combinations(range(n), 2)
                                 if rng.random() < 0.5])
        if len(g.connected_components()) == 1:
            return g


class TestSearchCompleteness:
    def test_star_test_matches_orbit_search(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert routing._star_reduction(g) == _orbit_star_reduction(g), g

    def test_basis_search_matches_orbit_search(self):
        rng = random.Random(4)
        outcomes = set()
        for _ in range(150):
            n = rng.randint(3, 5)
            g = _random_connected_graph(n, rng)
            prep = random_frame(g, rng)
            if rng.random() < 0.5:
                users = rng.sample(g.vertices, rng.randint(2, n - 1))
                plan = find_ghz_plan(g, users, preparation_frame=prep)
                want = _orbit_search(g, "ghz", users, prep=prep)
            else:
                users = rng.sample(g.vertices, 2 * rng.randint(1, n // 2))
                pairs = [tuple(users[i:i + 2]) for i in range(0, len(users), 2)]
                plan = find_bell_multicast_plan(g, pairs, preparation_frame=prep)
                want = _orbit_search(g, "bell_multicast", users, pairs, prep)
            assert plan == want
            outcomes.add((g.n - len(users), plan is not None))
        # (nonparticipants, found): searches that exhaust the orbit and
        # searches that stop early, with one to three nonparticipants
        assert {(1, False), (1, True), (2, True), (3, True)} <= outcomes

    def test_explicit_routes_verify(self, monkeypatch):
        star_reduction = routing._star_reduction
        residuals = []

        def recording(residual):
            residuals.append(residual)
            return star_reduction(residual)

        monkeypatch.setattr(routing, "_star_reduction", recording)
        rng = random.Random(5)
        plans = 0
        for _ in range(150):
            n = rng.randint(3, 5)
            g = _random_connected_graph(n, rng)
            targets = rng.sample(g.vertices, rng.randint(3, n))
            nonparts = sorted(set(g.vertices) - set(targets))
            lcs = [rng.choice(g.vertices) for _ in range(rng.randint(0, 3))]
            bases = {v: rng.choice("XYZ") for v in nonparts}
            plan = realize_plan(g, "ghz", targets, lcs, bases, verify=False,
                                preparation_frame=random_frame(g, rng))
            if plan is not None:
                plans += 1
                assert verify_plan_dense(plan)
        complete = [r for r in residuals if r.n >= 3 and all(
            len(r.neighbors(v)) == r.n - 1 for v in r.vertices)]
        assert plans >= 20 and complete


class TestCompilation:
    def test_all_vertices_get_a_basis(self):
        plan = networks.ghz_plan()
        for rt in ("type-1", "type-2"):
            setting = compile_round_settings(plan, rt)
            assert set(setting.per_vertex_basis) == set(range(6))
            assert set(setting.per_vertex_basis.values()) <= set("XYZ")

    def test_invalid_round_type(self):
        with pytest.raises(ValueError):
            compile_round_settings(networks.ghz_plan(), "type-3")

    def test_byproduct_terms_cover_all_targets(self):
        plan = networks.ghz_plan()
        assert set(plan.byproduct_terms) == set(plan.nonparticipants)
        for terms in plan.byproduct_terms.values():
            assert set(terms) == set(plan.targets)
            assert set(terms.values()) <= set("IXYZ")

    def test_byproduct_correction_missing_outcomes(self):
        plan = networks.ghz_plan()
        with pytest.raises(ValueError):
            byproduct_correction(plan, {2: 0})

    def test_byproduct_correction_flip_mask(self):
        plan = networks.ghz_plan()
        for combo in itertools.product((0, 1), repeat=len(plan.nonparticipants)):
            outcomes = dict(zip(plan.nonparticipants, combo))
            flips = byproduct_correction(plan, outcomes, "type-1")
            assert set(flips) == set(plan.targets)
            assert set(flips.values()) <= {0, 1}


class TestSerialization:
    def test_plan_round_trip(self):
        for plan in (networks.ghz_plan(), networks.bell_multicast_plan(),
                     networks.bell_bridge_plan()):
            assert plan_from_json(plan_to_json(plan)) == plan


class TestAccounting:
    def test_copies_per_protocol(self):
        ghz = networks.ghz_plan()
        bells = [networks.bell_multicast_plan(), networks.bell_bridge_plan()]
        assert network_use_accounting([ghz], "NQKD") == 1
        assert network_use_accounting(bells, "2QKD") == 2

    def test_success_probabilities(self):
        assert circuit_success_probability(["fusion"]) == Fraction(1, 2)
        assert circuit_success_probability(["fusion"] * 3) == Fraction(1, 8)
        assert circuit_success_probability(["cz"] * 5) == Fraction(1, 59049)
        with pytest.raises(ValueError):
            circuit_success_probability([])
        with pytest.raises(ValueError):
            circuit_success_probability(["teleport"])
