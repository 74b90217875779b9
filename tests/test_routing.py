"""Extraction-plan search, compilation, and accounting tests."""

import functools
import itertools
import random
from collections import deque
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import all_graphs, random_frame, random_graph
from oracles import byproduct_correction
from graphqcka import networks, routing
from graphqcka.graphstate import Graph, GraphState, SizeCapError, local_complement
from graphqcka.pauli import (ALL_CLIFFORDS, HADAMARD, IDENTITY, PAULI_MATRICES, compose,
                             pauli_layer)
from graphqcka.routing import (circuit_success_probability,
                               compile_round_settings, find_bell_multicast_plan,
                               find_ghz_plan, find_pairwise_plan_set, generator_masks,
                               lc_orbit, network_use_accounting, plan_from_json,
                               plan_to_json, realize_plan, subset_bits, subset_parities,
                               verify_plan, verify_plan_dense)

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


@pytest.fixture
def tried(monkeypatch):
    """Nonparticipant bases the search passes to realize_plan, in order;
    every candidate is rejected."""
    calls = []

    def rejecting(graph, kind, participants, lc_sequence, logical_bases, *args, **kwargs):
        calls.append(tuple(logical_bases[v] for v in sorted(logical_bases)))

    monkeypatch.setattr(routing, "realize_plan", rejecting)
    return calls


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
        # measuring every vertex leaves no GHZ state
        assert realize_plan(plan.graph, "ghz", (), (), {0: "Z", 1: "Z"}) is None

    def test_eleven_vertex_plan_is_dense_verified(self):
        path11 = Graph.from_edges(11, [(v, v + 1) for v in range(10)])
        plan = find_ghz_plan(path11, (0, 2, 4, 6, 8, 10))
        assert plan is not None and verify_plan_dense(plan)

    def test_search_stops_at_the_budget(self, tried):
        """Past 8 nonparticipants the search stops after SEARCH_BUDGET
        candidates, the first of the sorted 3^k list, with one message."""
        with pytest.raises(SizeCapError, match="^GHZ plan search stopped at the "
                           "search budget of 6561 candidates$"):
            find_ghz_plan(Graph.from_edges(11, []), (0, 1))
        assert tried == oracles.sorted_bases(9)[:6561]

    def test_candidates_come_in_the_sorted_order(self, tried):
        """With no plan among them, the search tries every basis of up to 8
        nonparticipants in the order of the sorted 3^k list and answers None."""
        for k in range(9):
            tried.clear()
            assert find_ghz_plan(Graph.from_edges(k + 2, []), (0, 1)) is None
            assert tried == oracles.sorted_bases(k)

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

    def test_residual_must_be_exactly_the_pairs(self):
        """With nothing to measure the residual is the graph itself: a plan
        exists when each pair is an edge with no other and the pairs cover
        the participants once."""
        two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert realize_plan(two_edges, "bell_multicast", range(4), (), {},
                            ((0, 1), (2, 3))) is not None
        for graph, participants, pairs in (
                (path, range(4), ((0, 1), (2, 3))),        # an edge between the pairs
                (two_edges, range(4), ((0, 2), (1, 3))),   # pairs that are not edges
                (two_edges, range(4), ((0, 1),)),          # participants 2, 3 in no pair
                (two_edges, (0, 1), ((0, 1), (0, 1))),     # a pair given twice
                (Graph.from_edges(3, [(0, 1)]), range(3), ((0, 1),))):  # 2 isolated
            assert realize_plan(graph, "bell_multicast", participants, (), {}, pairs) is None

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

    def recording(g, pairs, preparation_frame=None, **kwargs):
        calls.append(tuple(pairs))
        return search(g, pairs, preparation_frame, **kwargs)

    monkeypatch.setattr(routing, "find_bell_multicast_plan", recording)
    return calls


class TestPairwiseCover:
    def test_paper_network(self, searched):
        plans = find_pairwise_plan_set(NETWORK, 0, (1, 4, 5), PREP)
        assert [p.pairs for p in plans] == [((0, 1), (4, 5)), ((0, 4),)]
        assert plans == _restart_cover(NETWORK, 0, (1, 4, 5), PREP)
        assert network_use_accounting(plans, "2QKD") == 2
        # the size-2 sets ((0, 4), (1, 5)) and ((0, 5), (1, 4)) have
        # cut-rank 1 across {0, 1}, so they are not searched
        assert searched == [((0, 1), (4, 5)), ((0, 4),)]

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

    def test_cut_rank_prune_is_sound(self):
        """A link set of k pairs whose cut-rank across one end of each pair
        is below k has no plan.  Half the graphs hold the pairs as edges,
        plus random edges at the nonparticipants, so that sets of three and
        four pairs have plans too."""
        rng = random.Random(8)
        pruned, cast = 0, set()
        for i in range(600):
            n = rng.randint(2, 8)
            users = rng.sample(range(n), 2 * rng.randint(max(1, (n - 3) // 2), n // 2))
            pairs = [tuple(sorted(users[i:i + 2])) for i in range(0, len(users), 2)]
            g = random_graph(n, rng)
            if i % 2:
                g = Graph.from_edges(n, set(pairs) | {
                    e for e in itertools.combinations(range(n), 2)
                    if not set(e) <= set(users) and rng.random() < 0.5})
            plan = find_bell_multicast_plan(g, pairs, preparation_frame=random_frame(g, rng))
            if routing._cut_rank(g, [a for a, _ in pairs]) < len(pairs):
                pruned += 1
                assert plan is None, pairs
            elif plan is not None:
                cast.add(len(pairs))
        assert pruned >= 60 and cast == {1, 2, 3, 4}

    def test_disjoint_link_sets_keep_the_combinations_order(self):
        links = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
        for size in range(4):
            assert list(routing._disjoint_link_sets(links, size)) == [
                combo for combo in itertools.combinations(links, size)
                if len({v for pair in combo for v in pair}) == 2 * size]

    def test_searches_share_one_budget(self, monkeypatch):
        """The cover's two searches on the paper network each fit a budget
        that their sum exceeds, and that budget stops the cover."""
        counts = []
        realize = routing.realize_plan

        def counting(*args, **kwargs):
            counts[-1] += 1
            return realize(*args, **kwargs)

        monkeypatch.setattr(routing, "realize_plan", counting)
        alone = []
        for pairs in (((0, 1), (4, 5)), ((0, 4),)):
            counts.append(0)
            assert find_bell_multicast_plan(NETWORK, pairs, PREP) is not None
            alone.append(counts.pop())
        counts.append(0)
        assert len(find_pairwise_plan_set(NETWORK, 0, (1, 4, 5), PREP)) == 2
        assert counts == [sum(alone)] and min(alone) > 0
        monkeypatch.setattr(routing, "SEARCH_BUDGET", sum(alone) - 1)
        for pairs in (((0, 1), (4, 5)), ((0, 4),)):
            assert find_bell_multicast_plan(NETWORK, pairs, PREP) is not None
        with pytest.raises(SizeCapError, match=f"^pairwise cover search stopped at "
                           f"the search budget of {sum(alone) - 1} candidates$"):
            find_pairwise_plan_set(NETWORK, 0, (1, 4, 5), PREP)

    def test_roles_must_be_distinct(self):
        with pytest.raises(ValueError):
            find_pairwise_plan_set(NETWORK, 0, (0, 1))
        with pytest.raises(ValueError):
            find_pairwise_plan_set(NETWORK, 0, ())

    def test_users_must_be_vertices(self):
        for graph, alice, bobs in ((NETWORK, 0, (6,)), (NETWORK, 9, (1,)),
                                   (NETWORK, -1, (1,)), (NETWORK.delete_vertex(3), 0, (3,))):
            with pytest.raises(ValueError, match="^alice and at least one bob must be "
                               "distinct vertices of the graph$"):
                find_pairwise_plan_set(graph, alice, bobs)


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
    for path in sorted(_orbit_paths(g).values(), key=lambda p: (len(p), p)):
        for bases in oracles.sorted_bases(len(nonparts)):
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

    def test_search_matches_the_sorted_list_oracle(self):
        """500 seeded searches with up to 8 nonparticipants find the plan
        that realizing the sorted 3^k list in order finds, or both None."""
        rng = random.Random(21)
        outcomes = set()
        for i in range(500):
            if i % 4:
                # up to 3 nonparticipants, some graphs disconnected
                k, users_n = rng.randint(0, 3), rng.randint(2, 4)
                g = (_random_connected_graph if rng.random() < 0.8 else random_graph)(
                    k + users_n, rng)
            else:
                k, users_n = rng.randint(4, 8), 2
                g = _random_connected_graph(k + 2, rng)
            prep = random_frame(g, rng)
            users = rng.sample(g.vertices, users_n)
            if rng.random() < 0.5:
                plan = find_ghz_plan(g, users, preparation_frame=prep)
                want = oracles.sorted_basis_search(g, "ghz", users, preparation_frame=prep)
            else:
                users = users[:users_n & ~1]
                pairs = [tuple(users[j:j + 2]) for j in range(0, len(users), 2)]
                plan = find_bell_multicast_plan(g, pairs, preparation_frame=prep)
                want = oracles.sorted_basis_search(g, "bell_multicast", users, pairs, prep)
            assert (None if plan is None else plan_to_json(plan)) == (
                None if want is None else plan_to_json(want))
            outcomes.add((g.n - len(users), plan is not None))
        assert {(k, True) for k in range(9)} | {(k, False) for k in range(4)} <= outcomes

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
            plan = realize_plan(g, "ghz", targets, lcs, bases,
                                preparation_frame=random_frame(g, rng))
            if plan is not None:
                plans += 1
                assert verify_plan_dense(plan)
        complete = [r for r in residuals if r.n >= 3 and all(
            len(r.neighbors(v)) == r.n - 1 for v in r.vertices)]
        assert plans >= 20 and complete


class TestBranches:
    def test_branches_share_the_residual_graph_up_to_paulis(self):
        """Each single-1 outcome branch of a candidate whose all-zero branch
        leaves the resource's graph leaves that same graph, with participant
        frames a Pauli away from the all-zero ones; so realize_plan has no
        exit for a branch or a byproduct."""
        rng = random.Random(20)
        checked = 0
        for _ in range(2000):
            n = rng.randint(3, 8)
            g = random_graph(n, rng)
            verts = rng.sample(g.vertices, n)
            users = verts[:rng.randint(2, n)]
            if rng.random() < 0.5:
                kind, pairs = "ghz", []
            else:
                kind, users = "bell_multicast", users[:len(users) // 2 * 2]
                pairs = [tuple(sorted(users[i:i + 2])) for i in range(0, len(users), 2)]
            targets = tuple(sorted(users))
            nonparts = sorted(set(g.vertices) - set(users))
            gs = GraphState(g, random_frame(g, rng))
            for _ in range(rng.randint(0, 2)):
                gs = local_complement(gs, rng.choice(g.vertices))
            bases = {v: rng.choice("XYZ") for v in nonparts}
            zero, _ = routing._measure_branch(gs, bases, dict.fromkeys(nonparts, 0))
            if zero.graph.vertices != targets:
                continue
            if kind == "ghz":
                reduction = routing._star_reduction(zero.graph)
                if reduction is None:
                    continue
                star_path, rotated = reduction[0], set(targets) - {reduction[1]}
            else:
                if set(map(frozenset, pairs)) != set(zero.graph.connected_components()):
                    continue
                star_path, rotated = (), {b for _, b in pairs}

            def frames(branch):
                for v in star_path:
                    branch = local_complement(branch, v)
                return {u: compose(branch.frame[u], HADAMARD) if u in rotated
                        else branch.frame[u] for u in targets}

            want = frames(zero)
            for v in nonparts:
                branch, _ = routing._measure_branch(
                    gs, bases, {w: int(w == v) for w in nonparts})
                assert branch.graph == zero.graph
                got = frames(branch)
                for u in targets:
                    rep, _ = pauli_layer(compose(want[u].inverse(), got[u]))
                    assert rep == IDENTITY, (g, kind, targets, bases, v, u)
            checked += 1
        assert checked >= 300


def _corrupted(plan, rng):
    """The plan with one participant frame, one byproduct term letter or
    one nonparticipant basis changed, each kind that the plan has."""
    u = rng.choice(plan.targets)
    frame = rng.choice([c for c in ALL_CLIFFORDS if c != plan.participant_frame[u]])
    out = [("frame", replace(plan, participant_frame={**plan.participant_frame, u: frame}))]
    if plan.nonparticipants:
        v = rng.choice(plan.nonparticipants)
        terms = {w: dict(letters) for w, letters in plan.byproduct_terms.items()}
        terms[v][u] = rng.choice([p for p in "IXYZ" if p != terms[v][u]])
        out.append(("term", replace(plan, byproduct_terms=terms)))
        v = rng.choice(plan.nonparticipants)
        bases = dict(plan.nonparticipant_bases)
        bases[v] = rng.choice([p for p in "XYZ" if p != bases[v]])
        out.append(("basis", replace(plan, nonparticipant_bases=bases)))
    return out


def _random_candidate(rng):
    """A random search or explicit route, GHZ or Bell, on up to 10 vertices."""
    n = rng.randint(3, 10)
    # a random tree plus sparse extra edges, so that large graphs have plans
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {p for p in itertools.combinations(range(n), 2) if rng.random() < 1.5 / n}
    g = Graph.from_edges(n, edges)
    prep = random_frame(g, rng)
    verts = rng.sample(g.vertices, n)
    if rng.random() < 0.5:
        kind, targets, pairs = "ghz", verts[:rng.randint(max(2, n - 4), n)], ()
    else:
        users = verts[:2 * rng.randint(max(1, (n - 3) // 2), n // 2)]
        kind, targets = "bell_multicast", users
        pairs = [tuple(users[i:i + 2]) for i in range(0, len(users), 2)]
    if rng.random() < 0.2 and n - len(targets) <= 3:
        if kind == "ghz":
            return find_ghz_plan(g, targets, preparation_frame=prep)
        return find_bell_multicast_plan(g, pairs, preparation_frame=prep)
    lcs = [rng.choice(g.vertices) for _ in range(rng.randint(0, 3))]
    bases = {v: rng.choice("XYZ") for v in set(g.vertices) - set(targets)}
    return realize_plan(g, kind, targets, lcs, bases, pairs, preparation_frame=prep)


@functools.lru_cache(maxsize=None)
def _correction_images(frame, terms):
    """pauli_images of the frame's matrix times the Pauli terms."""
    matrix = frame.matrix
    for letter in terms:
        matrix = matrix @ PAULI_MATRICES[letter]
    return oracles.pauli_images(matrix)


def tableau_verdict(plan):
    """Whether every nonparticipant branch of the plan, measured on a
    stabilizer tableau of the network state, leaves each target stabilizer
    generator at +1 once the branch's frames and byproducts are undone."""
    if plan.kind == "ghz":
        t = plan.targets
        generators = [{a: "Z", b: "Z"} for a, b in zip(t, t[1:])] + [dict.fromkeys(t, "X")]
    else:
        generators = [dict.fromkeys(pair, letter) for pair in plan.pairs for letter in "ZX"]
    network = oracles.Tableau(plan.graph, plan.preparation_frame)
    reached = 0
    for combo in itertools.product((0, 1), repeat=len(plan.nonparticipants)):
        state = network.copy()
        outcomes = dict(zip(plan.nonparticipants, combo))
        if not all(state.measure({v: plan.nonparticipant_bases[v]}, bit)
                   for v, bit in outcomes.items()):
            continue
        reached += 1
        # the participants hold (x)_u e_u |target>, e_u = frame_u times the
        # terms of the nonparticipants that read 1
        images = {u: _correction_images(plan.participant_frame[u], tuple(
            plan.byproduct_terms[v][u] for v, bit in outcomes.items() if bit))
            for u in plan.targets}
        for generator in generators:
            letters, sign = {}, 1
            for u, letter in generator.items():
                letters[u], s = images[u][letter]
                sign *= s
            if sign * state.expectation(letters) != 1:
                return False
    assert reached
    return True


class TestVerifier:
    def test_agrees_with_dense_oracle(self):
        """verify_plan against verify_plan_dense on 500 plans of up to 10
        vertices and one to three corrupted variants of each."""
        rng = random.Random(18)
        plans, verdicts = [], set()
        while len(plans) < 500:
            plan = _random_candidate(rng)
            if plan is None:
                continue
            plans.append(plan)
            assert verify_plan(plan) and verify_plan_dense(plan)
            for change, variant in _corrupted(plan, rng):
                verdict = verify_plan(variant)
                assert verdict == verify_plan_dense(variant), (change, variant)
                verdicts.add((change, verdict))
        assert {p.kind for p in plans} == {"ghz", "bell_multicast"}
        assert any(p.lc_sequence for p in plans) and max(p.graph.n for p in plans) >= 8
        # a changed frame or term letter always changes the resource; a
        # changed basis is harmless on a vertex that no parity string reads
        assert verdicts == {("frame", False), ("term", False), ("basis", False),
                            ("basis", True)}

    LARGE = [
        ("path13", Graph.from_edges(13, [(v, v + 1) for v in range(12)]),
         "ghz", range(0, 13, 2)),
        ("path14", Graph.from_edges(14, [(v, v + 1) for v in range(13)]),
         "bell_multicast", ((0, 2), (4, 6), (8, 10), (12, 13))),
        ("path20", Graph.from_edges(20, [(v, v + 1) for v in range(19)]),
         "bell_multicast", [(3 * i, 3 * i + 1) for i in range(6)] + [(18, 19)]),
        # path13 with eleven more targets on its last vertex
        ("spider24", Graph.from_edges(24, [(v, v + 1) for v in range(12)]
                                      + [(12, w) for w in range(13, 24)]),
         "ghz", [v for v in range(24) if v % 2 == 0 or v > 12]),
    ]

    @pytest.mark.parametrize("graph, kind, users", [case[1:] for case in LARGE],
                             ids=[case[0] for case in LARGE])
    def test_large_plans_hold_on_a_tableau(self, graph, kind, users, monkeypatch):
        """Plans found on 13-24 vertices, past the dense oracle, hold in every
        nonparticipant branch of a stabilizer-tableau simulation; a corrupted
        variant that verify_plan rejects fails there too."""
        verified = []
        check = routing.verify_plan

        def recording(plan):
            verified.append(plan.graph.n)
            return check(plan)

        monkeypatch.setattr(routing, "verify_plan", recording)
        prep = networks.photonic_preparation_frame(graph.vertices)
        plan = (find_ghz_plan(graph, users, prep) if kind == "ghz"
                else find_bell_multicast_plan(graph, users, prep))
        assert plan is not None and len(plan.nonparticipants) == 6
        assert verified and set(verified) == {graph.n}
        assert tableau_verdict(plan)
        rejected = 0
        for _, variant in _corrupted(plan, random.Random(graph.n)):
            assert tableau_verdict(variant) == check(variant)
            rejected += not check(variant)
        assert rejected

    def test_tableau_matches_dense_oracle(self):
        """The tableau simulation itself, against verify_plan_dense on small
        plans and their corrupted variants."""
        rng = random.Random(19)
        checked = 0
        while checked < 40:
            plan = _random_candidate(rng)
            if plan is None:
                continue
            for variant in (plan, *(v for _, v in _corrupted(plan, rng))):
                assert tableau_verdict(variant) == verify_plan_dense(variant)
                checked += 1


class TestParticipantMasks:
    """The one mask layout: participant i of n at bit n-1-i."""

    def test_subset_bits_layout(self):
        """Row s holds mask s's binary digits, most significant first, for
        random masks of up to 24 bits."""
        rng = np.random.default_rng(27)
        for n in range(1, 25):
            masks = rng.integers(0, 1 << n, 30).tolist()
            assert subset_bits(masks, n).tolist() == [
                [int(d) for d in format(m, f"0{n}b")] for m in masks]

    def test_parities_match_bit_count(self):
        """The GF(2) product equals one int.bit_count per outcome and mask on
        random outcomes and masks of up to 24 bits, the empty and full masks
        among them."""
        rng = np.random.default_rng(28)
        for n in range(1, 25):
            values = rng.integers(0, 1 << n, 200).tolist()
            masks = [0, (1 << n) - 1, *rng.integers(0, 1 << n, 40).tolist()]
            assert subset_parities(values, masks, n).tolist() == \
                oracles.bit_count_parities(values, masks)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_generator_masks(self, n):
        """GHZ: Z Z on consecutive participants for type-1, X on all for
        type-2; Bell: each pair in pair order for both, at the positions of
        participants listed in any order.  Each mask the report reads is in
        the GF(2) span of its round's generators."""
        rng = random.Random(n)
        parts = tuple(sorted(rng.sample(range(24), n)))

        def mask(members):
            return sum(1 << (n - 1 - parts.index(u)) for u in members)

        ghz = generator_masks("ghz", parts, ())
        assert ghz == {"type-1": [mask(parts[i:i + 2]) for i in range(n - 2, -1, -1)],
                       "type-2": [mask(parts)]}
        reads = {"type-1": [mask(p) for p in itertools.combinations(parts, 2)],
                 "type-2": [mask(parts)]}
        if n % 2 == 0:
            order = rng.sample(parts, n)
            pairs = tuple(tuple(sorted(order[i:i + 2])) for i in range(0, n, 2))
            parts = tuple(rng.sample(parts, n))
            links = [mask(p) for p in pairs]
            assert generator_masks("bell_multicast", parts, pairs) == dict.fromkeys(
                ("type-1", "type-2"), links)
        for rt, masks in ghz.items():
            span = {0}
            for m in masks:
                span |= {s ^ m for s in span}
            assert set(reads[rt]) <= span and len(span) == 1 << len(masks)


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
