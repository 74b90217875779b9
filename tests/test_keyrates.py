"""Key-rate estimators, protocol formulas, and round simulation tests."""

import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from graphqcka import keyrates, networks, routing
from graphqcka.graphstate import Graph, GraphState, local_complement
from graphqcka.keyrates import (CountRows, RoundBatch,
                                akr_2, akr_n, akr_n_rows, analytic_estimates,
                                binary_entropy, correlator_tables, error_estimates,
                                estimate_qber, estimate_qx, outcome_distribution,
                                pairwise_conference_rate, pairwise_conference_rate_rows,
                                pairwise_error, plan_round, simulate_protocol,
                                xor_combine)
from graphqcka.noise import NoiseModel, apply_noise, calibrate_to_targets, pump_sweep
from graphqcka.pauli import HADAMARD, IDENTITY, compose, pauli_layer, pauli_product
from graphqcka.routing import (compile_round_settings, find_bell_multicast_plan,
                               find_ghz_plan, generator_masks, network_vector,
                               plan_from_json, plan_to_json, realize_plan, verify_plan_dense)

from conftest import random_frame, random_graph, random_model
import oracles
from oracles import marginal, rotated_outcome_distribution


def batch(counts, participants=None):
    parts = participants or tuple(range(len(next(iter(counts)))))
    return RoundBatch(None, tuple(parts), dict(counts))


class TestBinaryEntropy:
    def test_endpoints_and_peak(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_pinned_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)

    def test_symmetry_and_domain(self):
        for x in (0.01, 0.2, 0.37):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x))
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="must be in"):
            binary_entropy(float("nan"))


class TestErrorEstimators:
    def test_pairwise_error_examples(self):
        b = batch({"0000": 50, "1111": 50})
        assert pairwise_error(b, 0, 3) == 0.0
        b = batch({"00": 45, "11": 45, "01": 5, "10": 5})
        assert pairwise_error(b, 0, 1) == pytest.approx(0.10)
        assert pairwise_error(batch({"01": 100}), 0, 1) == 1.0
        with pytest.raises(ValueError):
            pairwise_error(b, 1, 1)
        with pytest.raises(ValueError):
            pairwise_error(batch({"00": 0}), 0, 1)

    def test_qber_alice_minimax(self):
        # participant 2 is noisy: choosing it as Alice would be worst for all
        counts = {}
        for s, c in (("000", 90), ("111", 90), ("001", 10), ("110", 10)):
            counts[s] = counts.get(s, 0) + c
        est = estimate_qber(batch(counts))
        assert est.alice_choice in (0, 1)
        assert est.qber == pytest.approx(0.1)
        # every other choice of Alice is at least as bad
        parts = (0, 1, 2)
        for alice in parts:
            worst = max(est.pairwise_q[(alice, b)] for b in parts if b != alice)
            assert worst >= est.qber - 1e-12

    def test_qber_tie_breaks_lowest_label(self):
        est = estimate_qber(batch({"00": 50, "11": 50}, participants=(3, 7)))
        assert est.qber == 0.0
        assert est.alice_choice == 3

    def test_qber_two_participants(self):
        est = estimate_qber(batch({"00": 45, "11": 45, "01": 10}))
        assert est.qber == pytest.approx(0.1)

    def test_qx_examples(self):
        assert estimate_qx(batch({"0000": 60, "1100": 40})) == 0.0
        assert estimate_qx(batch({"00": 90, "01": 10})) == pytest.approx(0.1)
        assert estimate_qx(batch({"0": 50, "1": 50})) == pytest.approx(0.5)

    def test_round_batch_rejects_non_bit_outcomes(self):
        for bad in ("0a", "2 ", "1-"):
            with pytest.raises(ValueError, match=f"outcome {bad!r} is not a string of 0/1 bits"):
                batch({"00": 3, bad: 1})
        assert marginal(batch({"01": 2, "10": 0}), (1,)).counts == {"1": 2, "0": 0}

    def test_error_estimates_combines_batches(self):
        t1 = batch({"00": 98, "01": 2})
        t2 = batch({"00": 95, "10": 5})
        est = error_estimates(t1, t2)
        assert est.qber == pytest.approx(0.02)
        assert est.qx == pytest.approx(0.05)

    def test_views_match_oracle(self):
        """The one-row views against the oracle scalar estimators, exactly, on
        seeded batches that include empty ones and exact Alice ties."""
        nprng = np.random.default_rng(5)
        for _ in range(300):
            n = int(nprng.integers(1, 5))
            outcomes = [format(i, f"0{n}b") for i in range(1 << n)]
            counts = nprng.poisson(nprng.choice([0, 0.3, 2, 50]), size=len(outcomes))
            parts = tuple(int(v) for v in nprng.permutation(9)[:n])
            b = batch({s: int(c) for s, c in zip(outcomes, counts) if c or nprng.random() < 0.5},
                      participants=parts)
            for view, oracle in ((estimate_qber, oracles.estimate_qber),
                                 (estimate_qx, oracles.estimate_qx),
                                 (lambda b: pairwise_error(b, parts[0], parts[-1]),
                                  lambda b: oracles.pairwise_error(b, parts[0], parts[-1]))):
                try:
                    want = oracle(b)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        view(b)
                else:
                    assert view(b) == want


class TestRateFormulas:
    def test_akr_n_values(self):
        assert akr_n(0.0, 0.0) == pytest.approx(1.0)
        assert akr_n(0.5, 0.5) == pytest.approx(-1.0)
        assert akr_n(0.02, 0.05) == pytest.approx(0.572162500342223, abs=1e-12)

    def test_akr_n_monotone_and_symmetric(self):
        grid = np.linspace(0.0, 0.3, 7)
        for qx in (0.0, 0.1):
            vals = [akr_n(q, qx) for q in grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert akr_n(0.07, 0.21) == pytest.approx(akr_n(0.21, 0.07))
        for qber, qx in ((1.5, 0.0), (0.0, -0.1), (math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="must be in"):
                akr_n(qber, qx)

    def test_akr_2_values(self):
        assert akr_2(1.0, 1.0, 1.0) == pytest.approx(0.5)
        assert akr_2(1.0, 1.0, 0.5) == pytest.approx(1 / 3)
        assert akr_2(0.5, 1.0, 1.0) == pytest.approx(1 / 3)
        assert akr_2(1.0, 0.5, 1.0) == pytest.approx(akr_2(0.5, 1.0, 1.0))
        assert akr_2(0.0, 1.0, 1.0) == 0.0
        assert akr_2(1.0, 1.0, -0.2) == 0.0

    def test_akr_n_rows_is_the_scalar_form_on_every_fraction(self):
        # every count ratio d/T with T <= 150, against the scalar arithmetic
        # with math.log2; np.log2 misses math.log2 by an ulp on a few of
        # them, so a vectorized entropy fails here
        def entropy(x):
            if x in (0.0, 1.0):
                return 0.0
            return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
        q = np.array(sorted({d / t for t in range(1, 151) for d in range(t + 1)}))
        qx = np.random.default_rng(2).permutation(q)
        qx[::97] = np.nan
        want = [np.nan if np.isnan(x) else 1.0 - entropy(a) - entropy(x)
                for a, x in zip(q.tolist(), qx.tolist())]
        assert np.array_equal(akr_n_rows(q, qx), want, equal_nan=True)

    def test_pairwise_conference_rate_generalizes(self):
        assert pairwise_conference_rate([[1.0], [1.0]]) == pytest.approx(0.5)
        assert pairwise_conference_rate([[1.0, 1.0], [0.5]]) == pytest.approx(1 / 3)
        assert pairwise_conference_rate([[1.0], [0.0]]) == 0.0

    def test_nan_link_rate_gives_nan(self):
        assert math.isnan(pairwise_conference_rate([[1.0, math.nan]]))
        assert math.isnan(akr_2(1.0, math.nan, 1.0))
        rows = pairwise_conference_rate_rows([[np.array([1.0, math.nan, 0.0])], [[0.5] * 3]])
        assert np.array_equal(rows, [1 / 3, np.nan, 0.0], equal_nan=True)

    def test_empty_plan_list_raises(self):
        for form in (pairwise_conference_rate, pairwise_conference_rate_rows):
            with pytest.raises(ValueError, match="at least one plan"):
                form([])


class TestXorCombine:
    def test_matches_brute_force(self):
        keys = ["0110", "1011", "0001"]
        links = [(0, 1), (1, 2), (2, 3)]
        rec = xor_combine(keys, links, reference=0)
        assert set(rec) == {0, 1, 2, 3}
        assert all(v == keys[0] for v in rec.values())

    def test_star_topology(self):
        keys = ["10", "01", "11"]
        rec = xor_combine(keys, [(0, 1), (0, 2), (0, 3)], reference=0)
        assert all(v == keys[0] for v in rec.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            xor_combine(["01"], [(0, 1), (1, 2)], 0)
        with pytest.raises(ValueError):
            xor_combine(["01", "011"], [(0, 1), (1, 2)], 0)
        with pytest.raises(ValueError):
            xor_combine(["01"], [(0, 1)], 5)
        with pytest.raises(ValueError):
            xor_combine(["01", "10"], [(0, 1), (2, 3)], 0)


class TestDistributions:
    def test_ghz_ideal_type1(self):
        dist = outcome_distribution(networks.ghz_plan(), "type-1")
        assert set(dist) == {"0000", "1111"}
        assert dist["0000"] == pytest.approx(0.5)

    def test_ghz_ideal_type2_even_parity(self):
        dist = outcome_distribution(networks.ghz_plan(), "type-2")
        assert all(k.count("1") % 2 == 0 for k in dist)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_bell_multicast_ideal(self):
        dist = outcome_distribution(networks.bell_multicast_plan(), "type-1")
        for key in dist:
            assert key[0] == key[1] and key[2] == key[3]

    def test_analytic_estimates_ideal(self):
        for plan in (networks.ghz_plan(), networks.bell_bridge_plan()):
            est = analytic_estimates(plan)
            assert est.qber == pytest.approx(0.0, abs=1e-12)
            assert est.qx == pytest.approx(0.0, abs=1e-12)
        # multicast pairs are only correlated within each pair
        plan = networks.bell_multicast_plan()
        s1 = compile_round_settings(plan, "type-1")
        d1 = RoundBatch(s1, plan.targets, outcome_distribution(plan, "type-1"))
        for pair in plan.pairs:
            assert pairwise_error(d1, *pair) == pytest.approx(0.0, abs=1e-12)


class TestSimulation:
    def test_deterministic_in_seed(self):
        plan = networks.ghz_plan()
        a1, a2 = simulate_protocol(plan, 2000, seed=5)
        b1, b2 = simulate_protocol(plan, 2000, seed=5)
        assert a1.counts == b1.counts and a2.counts == b2.counts
        c1, _ = simulate_protocol(plan, 2000, seed=6)
        assert c1.counts != a1.counts

    def test_round_split(self):
        t1, t2 = simulate_protocol(networks.ghz_plan(), 1000, seed=0,
                                   type2_fraction=0.25)
        assert t1.total == 750 and t2.total == 250
        with pytest.raises(ValueError):
            simulate_protocol(networks.ghz_plan(), 100, 0, type2_fraction=1.0)
        with pytest.raises(ValueError):
            simulate_protocol(networks.ghz_plan(), 0, 0)

    def test_depolarized_qber_within_three_sigma(self):
        plan = networks.ghz_plan()
        model = NoiseModel(depolarizing={v: 0.04 for v in range(6)})
        from graphqcka.graphstate import to_dense
        rho = apply_noise(to_dense(networks.six_vertex_network_state()),
                          range(6), model).matrix
        exact = analytic_estimates(plan, rho)
        n = 40000
        t1, t2 = simulate_protocol(plan, 2 * n, seed=12, state=rho)
        est = error_estimates(t1, t2)
        sigma_q = np.sqrt(exact.qber * (1 - exact.qber) / n)
        sigma_x = np.sqrt(exact.qx * (1 - exact.qx) / n)
        assert abs(est.qber - exact.qber) < 3 * sigma_q
        assert abs(est.qx - exact.qx) < 3 * sigma_x

    def test_marginal(self):
        """A pair's QBER, Alice and Q_X through the one estimator are its
        marginal's."""
        b = batch({"000": 40, "011": 30, "110": 30})
        m = marginal(b, (0, 2))
        assert m.counts == {"00": 40, "01": 30, "10": 30}
        rows = b.rows()
        pairs = keyrates._pair_masks(3)
        errors, qx = keyrates.count_error_rows(rows, rows, pairs, pairs)
        qber, alice = keyrates._alice_min_max(errors[np.ix_([0, 2], [0, 2])])
        est = oracles.estimate_qber(m)
        assert (qber[0], (0, 2)[alice[0]]) == (est.qber, est.alice_choice)
        assert qx[0, 2, 0] == oracles.estimate_qx(m)


def assert_close_distributions(got, want):
    assert set(got) == set(want)
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-12


def assert_matches_density_path(plan, model):
    """The table engine and the explicit branch, each on the noisy density
    matrix, against the rotation oracle."""
    rho = apply_noise(network_vector(plan), plan.graph.vertices, model).matrix
    for rt in ("type-1", "type-2"):
        want = rotated_outcome_distribution(plan, rt, rho)
        assert_close_distributions(outcome_distribution(plan, rt, model), want)
        assert_close_distributions(outcome_distribution(plan, rt, rho), want)


class TestPauliEngine:
    """The correlator-table engine against the density-matrix oracle."""

    @staticmethod
    def random_plans(rng, count):
        plans = []
        while len(plans) < count:
            n = rng.randint(3, 8)
            g = random_graph(n, rng)
            if len(g.connected_components()) != 1:
                continue
            prep = rng.choice([None, networks.photonic_preparation_frame(g.vertices),
                               random_frame(g, rng)])
            verts = list(g.vertices)
            rng.shuffle(verts)
            if rng.random() < 0.5:
                plan = find_ghz_plan(g, verts[:rng.randint(max(2, n - 4), n)], prep)
            else:
                n_pairs = rng.randint(max(1, (n - 3) // 2), n // 2)
                pairs = [tuple(verts[2 * i:2 * i + 2]) for i in range(n_pairs)]
                plan = find_bell_multicast_plan(g, pairs, prep)
            if plan is not None:
                plans.append(plan)
        return plans

    def test_matches_density_path_on_searched_plans(self, rng):
        plans = self.random_plans(rng, 24)
        assert {p.kind for p in plans} == {"ghz", "bell_multicast"}
        for plan in plans:
            for _ in range(2):
                assert_matches_density_path(plan, random_model(rng, plan.graph.vertices))
            # a GHZ state's all-Z correlators are the even-size subsets, each +-1
            if plan.kind == "ghz":
                table = plan_round(plan, "type-1", "distribution")
                n = len(plan.targets)
                kept = table.weights != 0
                assert table.subsets[kept].tolist() == [a for a in range(1 << n)
                                                        if a.bit_count() % 2 == 0]
                assert np.all(np.abs(table.weights[kept]) == 1)

    def test_matches_density_path_on_reference_plans(self, rng):
        for plan in (networks.ghz_plan(), networks.bell_multicast_plan(),
                     networks.bell_bridge_plan()):
            assert_matches_density_path(plan, random_model(rng, range(6)))
            assert_matches_density_path(plan, NoiseModel())

    @staticmethod
    def branch_byproducts(plan):
        """Byproduct letters of every one of the 2^k nonparticipant branches,
        each branch measured on its own, relative to the all-zero branch."""
        gs = GraphState(plan.graph, dict(plan.preparation_frame))
        for v in plan.lc_sequence:
            gs = local_complement(gs, v)
        nonparts = plan.nonparticipants
        logical = plan.nonparticipant_logical_bases
        star_path, center = (), None
        if plan.kind == "ghz":
            zero, _ = routing._measure_branch(gs, logical, dict.fromkeys(nonparts, 0))
            star_path, center = routing._star_reduction(zero.graph)

        def participant_frames(branch):
            for v in star_path:
                branch = local_complement(branch, v)
            frames = {u: branch.frame[u] for u in plan.targets}
            rotated = ([u for u in plan.targets if u != center] if plan.kind == "ghz"
                       else [b for _, b in plan.pairs])
            for u in rotated:
                frames[u] = compose(frames[u], HADAMARD)
            return frames

        table = {}
        for combo in itertools.product((0, 1), repeat=len(nonparts)):
            branch, _ = routing._measure_branch(gs, logical, dict(zip(nonparts, combo)))
            frames = participant_frames(branch)
            letters = {}
            for u in plan.targets:
                rep, letters[u] = pauli_layer(
                    compose(plan.participant_frame[u].inverse(), frames[u]))
                assert rep == IDENTITY
            table[combo] = letters
        return table

    def test_byproduct_terms_match_every_branch(self, rng):
        plans = self.random_plans(rng, 12)
        while len(plans) < 24:
            n = rng.randint(3, 8)
            g = random_graph(n, rng)
            if len(g.connected_components()) != 1:
                continue
            targets = rng.sample(g.vertices, rng.randint(max(2, n - 4), n - 1))
            lcs = [rng.choice(g.vertices) for _ in range(rng.randint(0, 3))]
            bases = {v: rng.choice("XYZ") for v in set(g.vertices) - set(targets)}
            prep = rng.choice([None, networks.photonic_preparation_frame(g.vertices),
                               random_frame(g, rng)])
            plan = realize_plan(g, "ghz", targets, lcs, bases, preparation_frame=prep)
            if plan is not None:
                plans.append(plan)
        for plan in plans:
            nonparts = plan.nonparticipants
            for combo, letters in self.branch_byproducts(plan).items():
                for u in plan.targets:
                    product = "I"
                    for v, bit in zip(nonparts, combo):
                        if bit:
                            product, _ = pauli_product(
                                (product, 1), (plan.byproduct_terms[v][u], 1))
                    assert product == letters[u], (plan, combo, u)

    def test_changed_term_fails_verification(self, rng):
        plan = networks.ghz_plan()
        swap = {"I": "Y", "Y": "I", "X": "Z", "Z": "X"}
        terms = {v: dict(letters) for v, letters in plan.byproduct_terms.items()}
        v, u = plan.nonparticipants[0], plan.targets[1]
        terms[v][u] = swap[terms[v][u]]
        broken = replace(plan, byproduct_terms=terms)
        assert verify_plan_dense(plan)
        assert not verify_plan_dense(broken)
        for _ in range(3):
            model = random_model(rng, range(6))
            assert_matches_density_path(broken, model)
            assert (outcome_distribution(broken, "type-1", model)
                    != outcome_distribution(plan, "type-1", model))

    def test_ideal_default_is_exact(self):
        plan = networks.ghz_plan()
        dist = outcome_distribution(plan, "type-1")
        assert dist == {"0000": 0.5, "1111": 0.5}
        # an explicit amplitude vector is read through the same parity strings
        assert outcome_distribution(plan, "type-1", network_vector(plan)) == (
            pytest.approx(dist, abs=1e-12))

    def test_rejects_noise_on_missing_vertex(self):
        with pytest.raises(ValueError, match=r"noise on vertices \[9\]"):
            outcome_distribution(networks.ghz_plan(), "type-1",
                                 NoiseModel(depolarizing={9: 0.5}))


class TestExplicitStates:
    """The explicit-state branch of outcome_distribution against the
    rotation oracle, on states that are not stabilizer states."""

    @staticmethod
    def random_states(n, nprng):
        dim = 1 << n
        vec = nprng.normal(size=dim) + 1j * nprng.normal(size=dim)
        g = nprng.normal(size=(dim, dim)) + 1j * nprng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        return vec / np.linalg.norm(vec), rho / np.trace(rho).real

    def test_matches_rotation_oracle_on_searched_plans(self, rng):
        nprng = np.random.default_rng(rng.randrange(1 << 32))
        plans = TestPauliEngine.random_plans(rng, 24)
        assert {p.kind for p in plans} == {"ghz", "bell_multicast"}
        for plan in plans:
            for state in self.random_states(plan.graph.n, nprng):
                for rt in ("type-1", "type-2"):
                    assert_close_distributions(
                        outcome_distribution(plan, rt, state),
                        rotated_outcome_distribution(plan, rt, state))

    def test_network_vector_reads_the_table_weights(self, rng):
        """On the plan's own network vector, every explicit read equals its
        table's weights, the ideal parities of routing.subset_strings, row
        by row and zero weights included: the X/Y and Y/Z masks and the
        i^#Y factor that _state_parities derives from the letters are the
        strings' own."""
        plans = TestPauliEngine.random_plans(rng, 30)
        assert {p.kind for p in plans} == {"ghz", "bell_multicast"}
        zero_rows = odd_y_rows = 0
        for plan in plans:
            vec = network_vector(plan)
            for rt in ("type-1", "type-2"):
                for reader in ("distribution", "estimates"):
                    table = plan_round(plan, rt, reader)
                    got = keyrates._state_parities(table, vec)
                    assert got.shape == table.weights.shape
                    assert np.abs(got - table.weights).max() <= 1e-12, (rt, reader)
                    zero_rows += int((table.weights == 0).sum())
                    odd_y = (table.letters == 2).sum(axis=1) % 2 == 1
                    odd_y_rows += int((odd_y & (table.weights != 0)).sum())
        assert zero_rows and odd_y_rows

    def test_ten_vertex_vector_in_blocks(self):
        """Ten vertices: the 2^8 strings are evaluated in several blocks."""
        g = Graph.from_edges(10, [(0, v) for v in range(1, 8)] + [(1, 8), (2, 9)])
        plan = find_ghz_plan(g, range(8))
        vec = np.array([1, 1j]) @ np.random.default_rng(7).normal(size=(2, 1 << 10))
        vec /= np.linalg.norm(vec)
        for rt in ("type-1", "type-2"):
            assert_close_distributions(outcome_distribution(plan, rt, vec),
                                       rotated_outcome_distribution(plan, rt, vec))

    @pytest.mark.parametrize("shape", [(32,), (128,), (64, 32), (32, 32), (64, 64, 1)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"need \(64,\) or \(64, 64\)"):
            outcome_distribution(networks.ghz_plan(), "type-1", np.zeros(shape))

    def test_real_state_stored_complex_reads_the_same(self, rng):
        """A real-valued vector or density matrix gives the same bits from
        analytic_estimates and outcome_distribution stored as float64 or as
        complex128 with a zero imaginary part."""
        nprng = np.random.default_rng(rng.randrange(1 << 32))
        plans = TestPauliEngine.random_plans(rng, 8) + [
            networks.ghz_plan(), networks.bell_multicast_plan(), networks.bell_bridge_plan()]
        for plan in plans:
            dim = 1 << plan.graph.n
            g = nprng.normal(size=(dim, dim))
            # the network state where its amplitudes are real, as they are
            # for the reference plans, else a random real vector
            source = network_vector(plan)
            if source.imag.any():
                source = g[1] / np.linalg.norm(g[1])
            noisy = apply_noise(source, plan.graph.vertices,
                                random_model(rng, plan.graph.vertices)).matrix
            for m in (g[0] / np.linalg.norm(g[0]), g @ g.T / np.trace(g @ g.T), noisy):
                assert m.dtype == np.float64
                stored = m.astype(complex)
                assert analytic_estimates(plan, m) == analytic_estimates(plan, stored)
                for rt in ("type-1", "type-2"):
                    assert outcome_distribution(plan, rt, m) == outcome_distribution(
                        plan, rt, stored)


class TestPlanCache:
    """Each plan instance builds its CorrelatorTable (setting, strings, signs
    and ideal parities) once per round type and reader."""

    READERS = ("distribution", "estimates")

    @staticmethod
    def count_evaluations(monkeypatch):
        """The stabilizer_expectation calls that building tables makes."""
        calls, real = [], routing.stabilizer_expectation

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(routing, "stabilizer_expectation", spy)
        return calls

    def test_second_evaluation_builds_nothing(self, monkeypatch):
        model = NoiseModel(depolarizing={2: 0.04}, dephasing={5: 0.02}, white_noise=0.03)
        est = analytic_estimates(networks.ghz_plan(), model)
        evaluations = {
            "analytic_estimates": lambda plan: analytic_estimates(plan, model),
            "simulate_protocol": lambda plan: simulate_protocol(plan, 100, 3, state=model),
            "pump_sweep": lambda plan: pump_sweep(plan, model, np.linspace(5.0, 200.0, 5)),
            "calibrate_to_targets": lambda plan: calibrate_to_targets(
                {"ghz": plan}, {"ghz": (est.qber, est.qx)}, channels=("depolarizing",)),
        }
        calls = self.count_evaluations(monkeypatch)
        for name, evaluate in evaluations.items():
            plan = networks.ghz_plan()
            calls.clear()
            evaluate(plan)
            assert calls, name
            calls.clear()
            evaluate(plan)
            assert not calls, name
            for other in evaluations.values():
                other(plan)
            calls.clear()
            for other in evaluations.values():
                other(plan)
            assert not calls, name

    def test_replaced_plan_gets_its_own_tables(self, monkeypatch):
        plan = networks.ghz_plan()
        model = NoiseModel(bit_flip={0: 0.05})
        dist = outcome_distribution(plan, "type-1", model)
        calls = self.count_evaluations(monkeypatch)
        twin = replace(plan)
        assert outcome_distribution(twin, "type-1", model) == dist
        assert calls and all(plan_round(twin, "type-1", reader) is not plan_round(
            plan, "type-1", reader) for reader in self.READERS)
        # a changed byproduct term, as test_changed_term_fails_verification
        # makes it, is read from the new plan, not from the old one's tables
        swap = {"I": "Y", "Y": "I", "X": "Z", "Z": "X"}
        terms = {v: dict(letters) for v, letters in plan.byproduct_terms.items()}
        v, u = plan.nonparticipants[0], plan.targets[1]
        terms[v][u] = swap[terms[v][u]]
        broken = replace(plan, byproduct_terms=terms)
        got = outcome_distribution(broken, "type-1", model)
        assert got != dist
        assert got == outcome_distribution(plan_from_json(plan_to_json(broken)),
                                           "type-1", model)

    def test_cached_arrays_are_read_only(self):
        plan = networks.bell_multicast_plan()
        for table in (plan_round(plan, rt, reader) for rt in ("type-1", "type-2")
                      for reader in self.READERS):
            for array in (table.subsets, table.letters, table.signs, table.weights):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
        assert correlator_tables(plan) == (plan_round(plan, "type-1"),
                                           plan_round(plan, "type-2"))

    def test_filled_cache_leaves_the_plan_as_it_was(self):
        plan, twin = networks.ghz_plan(), networks.ghz_plan()
        before = repr(plan), plan_to_json(plan)
        analytic_estimates(plan, network_vector(plan))
        simulate_protocol(plan, 50, 1)
        assert set(plan.round_cache) == {(rt, reader) for rt in ("type-1", "type-2")
                                         for reader in self.READERS}
        assert (repr(plan), plan_to_json(plan)) == before
        assert plan == twin and twin == plan
        assert plan_from_json(plan_to_json(plan)) == plan


class TestGeneratorPooling:
    """RoundBatch.pooled at the resource's generator masks, the way the
    report pools its batches."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_generators_pool_as_every_read_mask(self, n):
        """GHZ and Bell batches of n participants over random outcome sets:
        pooled by generator_masks they have the classes, representatives and
        counts of the int.bit_count pooling by every mask the report reads
        (every pair or the full set for GHZ, each link pair for Bell), and
        their CountRows signs are the bit_count parities at the estimator
        masks."""
        rng = np.random.default_rng(n)
        parts = tuple(sorted(rng.choice(24, n, replace=False).tolist()))

        def mask(members):
            return sum(1 << (n - 1 - parts.index(u)) for u in members)

        setups = [("ghz", (), {"type-1": [mask(p) for p in itertools.combinations(parts, 2)],
                               "type-2": [mask(parts)]})]
        if n % 2 == 0:
            order = rng.permutation(parts).tolist()
            pairs = tuple(tuple(sorted(order[i:i + 2])) for i in range(0, n, 2))
            setups.append(("bell_multicast", pairs,
                           dict.fromkeys(("type-1", "type-2"), [mask(p) for p in pairs])))
        for kind, pairs, reads in setups:
            generators = generator_masks(kind, parts, pairs)
            for rt in ("type-1", "type-2"):
                keep = np.flatnonzero(rng.random(1 << n) < rng.uniform(0.05, 1.0))
                counts = {format(i, f"0{n}b"): int(rng.integers(0, 1000)) for i in keep.tolist()}
                full = RoundBatch(None, parts, counts)
                pooled = full.pooled(generators[rt])
                want = oracles.bit_count_pooled(full, reads[rt])
                assert list(pooled.counts.items()) == list(want.counts.items()), (kind, rt)
                outcomes = tuple(pooled.counts)
                rows = CountRows(parts, outcomes, np.array([list(pooled.counts.values())]))
                signs = oracles.bit_count_parities([int(o, 2) for o in outcomes],
                                                   rows.subsets.tolist())
                assert rows.signs.tolist() == [[1 - 2 * p for p in row] for row in signs]


class TestEstimatorSubsets:
    """The estimators build only the empty set, the pairs and the full set,
    and read the same values as through every subset."""

    @staticmethod
    def all_subset_twin(plan):
        """A copy of plan whose estimators read its all-subset tables."""
        twin = replace(plan)
        for rt in ("type-1", "type-2"):
            twin.round_cache[(rt, "estimates")] = plan_round(twin, rt, "distribution")
        return twin

    @staticmethod
    def searched_plans(rng, count):
        """Searched GHZ and Bell plans, alternately, on 4 to 8 vertices with 2
        to 8 targets: the resource's graph (a star over the targets, or the
        pairs) with each nonparticipant joined to random vertices, which Z
        measurements remove, then random local complementations and a random
        preparation frame, which keep a plan in the search's reach."""
        plans = []
        while len(plans) < count:
            n = rng.randint(4, 8)
            verts = rng.sample(range(n), n)
            k = rng.randint(2, n)
            ghz = len(plans) % 2 == 0
            if ghz:
                targets = verts[:k]
                edges = {(targets[0], t) for t in targets[1:]}
            else:
                k -= k % 2
                pairs = list(zip(verts[:k:2], verts[1:k:2]))
                edges = set(pairs)
            for v in verts[k:]:
                edges |= {(v, w) for w in verts if w != v and rng.random() < 0.5}
            g = Graph.from_edges(n, {tuple(sorted(e)) for e in edges})
            for v in rng.choices(range(n), k=rng.randint(0, n)):
                g = g.toggle_neighborhood(v)
            prep = rng.choice([None, networks.photonic_preparation_frame(g.vertices),
                               random_frame(g, rng)])
            plan = (find_ghz_plan(g, targets, prep) if ghz
                    else find_bell_multicast_plan(g, pairs, prep))
            assert plan is not None
            plans.append(plan)
        return plans

    def test_all_subsets_give_the_same_bits(self, rng):
        plans = self.searched_plans(rng, 24)
        assert max(len(p.targets) for p in plans if p.kind == "ghz") >= 6
        assert max(len(p.targets) for p in plans if p.kind != "ghz") >= 6
        powers = np.linspace(5.0, 400.0, 7)
        for plan in plans:
            twin = self.all_subset_twin(plan)
            assert len(plan_round(twin, "type-2").subsets) == 1 << len(plan.targets)
            model = random_model(rng, plan.graph.vertices)
            vec = network_vector(plan)
            rho = apply_noise(vec, plan.graph.vertices, model).matrix
            for state in (model, None, vec, rho):
                assert repr(analytic_estimates(plan, state)) == repr(
                    analytic_estimates(twin, state))
            wn = [0.0, 0.1, model.white_noise]
            for got, want in zip(keyrates.table_estimate_rows(correlator_tables(plan), model, wn),
                                 keyrates.table_estimate_rows(correlator_tables(twin), model, wn)):
                assert got.tobytes() == want.tobytes()
            got, want = pump_sweep(plan, model, powers), pump_sweep(twin, model, powers)
            assert repr(got) == repr(want)
            # targets that the fitted channel meets, so that no target conflicts
            est = analytic_estimates(plan, NoiseModel(depolarizing=model.depolarizing))
            fits = [calibrate_to_targets({"p": p}, {"p": (est.qber, est.qx)},
                                         channels=("depolarizing",)) for p in (plan, twin)]
            assert repr(fits[0]) == repr(fits[1])

    def test_first_estimate_evaluates_only_the_estimator_subsets(self, monkeypatch):
        """12 users: 66 pairs, the empty set and the full set per round type,
        where all 2^12 subsets would be 4,096."""
        g = Graph.from_edges(13, [(0, leaf) for leaf in range(1, 13)])
        plan = find_ghz_plan(g, range(1, 13))
        calls = TestPlanCache.count_evaluations(monkeypatch)
        est = analytic_estimates(plan, NoiseModel(depolarizing={3: 0.02}, white_noise=0.05))
        assert len(calls) == 2 * 68
        assert est.qber == est.qx > 0.0

    def test_sweep_rows_hold_only_the_estimator_subsets(self):
        """12 users: a 1,000-power pump sweep reads parity rows of 68 columns,
        never 2^12, and stays far below the 65 MB that 2^12-column rows of
        both round types would take."""
        g = Graph.from_edges(13, [(0, leaf) for leaf in range(1, 13)])
        plan = find_ghz_plan(g, range(1, 13))
        model = NoiseModel(depolarizing={3: 0.02}, white_noise=0.05)
        powers = np.linspace(5, 300, 1000)
        for table in correlator_tables(plan):
            rows = table.parity_rows(model, model.white_noise_at_power(powers))
            assert rows.shape == (1000, len(table.subsets)) == (1000, 68)
        tracemalloc.start()
        try:
            sweep = pump_sweep(plan, model, powers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 5 < sweep.optimum_power < 300
        assert peak < 16 << 20


def distribution_estimates(plan, state):
    """QBER / Q_X the long way: each outcome distribution as a float batch,
    then the oracle scalar estimators."""
    t1, t2 = (RoundBatch(None, plan.targets, outcome_distribution(plan, rt, state))
              for rt in ("type-1", "type-2"))
    est = oracles.estimate_qber(t1)
    return est.pairwise_q, est.qber, oracles.estimate_qx(t2), est.alice_choice


def assert_same_estimates(got, want):
    pairwise, qber, qx, alice = want
    assert got.alice_choice == alice
    assert abs(got.qber - qber) <= 1e-12 and abs(got.qx - qx) <= 1e-12
    assert set(got.pairwise_q) == set(pairwise)
    assert max(abs(got.pairwise_q[p] - q) for p, q in pairwise.items()) <= 1e-12


class TestParityEstimates:
    """analytic_estimates reads the subset parities; the oracle path builds
    each distribution and runs the oracle scalar estimators on it."""

    def test_matches_distribution_path_on_searched_plans(self, rng):
        nprng = np.random.default_rng(rng.randrange(1 << 32))
        plans = TestPauliEngine.random_plans(rng, 20)
        assert {p.kind for p in plans} == {"ghz", "bell_multicast"}
        for plan in plans:
            model = random_model(rng, plan.graph.vertices)
            vec = network_vector(plan)
            rho = apply_noise(vec, plan.graph.vertices, model).matrix
            random_vec, _ = TestExplicitStates.random_states(plan.graph.n, nprng)
            for state in (model, None, rho, vec, random_vec):
                assert_same_estimates(analytic_estimates(plan, state),
                                      distribution_estimates(plan, state))
            # the identity parity normalizes a scaled vector
            assert_same_estimates(analytic_estimates(plan, 3.7 * random_vec),
                                  distribution_estimates(plan, random_vec))

    def test_round_off_past_perfect_correlation_is_clipped(self):
        """On this ideal vector a pair parity and the all-X parity read
        1 + 2.2e-16; unclipped, that pair error and Q_X would be -1.1e-16, and
        akr_n would reject the Q_X."""
        g = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 4), (2, 3)])
        plan = find_ghz_plan(g, (0, 2, 3), networks.photonic_preparation_frame(g.vertices))
        for state in (network_vector(plan), None):
            est = analytic_estimates(plan, state)
            assert set(est.pairwise_q.values()) == {0.0}
            assert (est.qber, est.qx) == (0.0, 0.0)
            assert akr_n(est.qber, est.qx) == 1.0
