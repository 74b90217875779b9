"""Report assembly from simulated round batches."""

from itertools import combinations

import numpy as np
import pytest

from graphqcka import analysis, networks
from graphqcka.analysis import _evaluate, build_report, pairwise_rates
from graphqcka.graphstate import Graph, to_dense
from graphqcka.keyrates import (CountRows, RoundBatch, _alice_min_max, _pair_masks, akr_n,
                                count_error_rows, error_estimates, outcome_distribution,
                                pairwise_conference_rate, simulate_protocol)
from graphqcka.noise import NoiseModel, apply_noise, monte_carlo_results, poisson_count_rows
from graphqcka.routing import find_ghz_plan

from oracles import estimate_qber, estimate_qx, marginal


def ideal_batches(rounds=4000, seed=3, state=None):
    batches = {}
    ghz = networks.ghz_plan()
    bells = [networks.bell_multicast_plan(), networks.bell_bridge_plan()]
    b1, b2 = simulate_protocol(ghz, rounds, seed, state=state)
    batches["nqkd/type-1"], batches["nqkd/type-2"] = b1, b2
    for k, plan in enumerate(bells):
        b1, b2 = simulate_protocol(plan, rounds, seed + 1 + k, state=state)
        batches[f"bell{k}/type-1"], batches[f"bell{k}/type-2"] = b1, b2
    return ghz, bells, batches


def noisy_state():
    vec = to_dense(networks.six_vertex_network_state())
    model = NoiseModel(white_noise=0.05, depolarizing={2: 0.02})
    return apply_noise(vec, range(6), model).matrix


def scalar_statistics(ghz, bells):
    """The report's scalars as functions of RoundBatches, built from the
    oracle scalar estimators, each raising where it is undefined."""
    def nqkd(bs):
        return estimate_qber(bs["nqkd/type-1"]).qber, estimate_qx(bs["nqkd/type-2"])

    def rate_2(bs):
        return pairwise_conference_rate([
            [akr_n(estimate_qber(marginal(bs[f"bell{k}/type-1"], pair)).qber,
                   estimate_qx(marginal(bs[f"bell{k}/type-2"], pair)))
             for pair in plan.pairs]
            for k, plan in enumerate(bells)])

    def ratio(bs):
        r2 = rate_2(bs)
        if r2 <= 0:
            raise ValueError("pairwise rate vanished")
        return akr_n(*nqkd(bs)) / r2

    stats = {}
    if ghz is not None:
        stats.update(qber=lambda bs: nqkd(bs)[0], qx=lambda bs: nqkd(bs)[1],
                     akr_n=lambda bs: akr_n(*nqkd(bs)))
    if bells:
        stats["akr_2"] = rate_2
    if ghz is not None and bells:
        stats["ratio"] = ratio
    return stats


def read_positions(ghz, bells, batches):
    """Per batch, the participant positions of each subset whose parity the
    report reads: every pair and all participants for the GHZ batches, each
    link pair for both batches of a Bell plan."""
    read = {}
    if ghz is not None:
        n = len(batches["nqkd/type-1"].participants)
        read["nqkd/type-1"], read["nqkd/type-2"] = list(combinations(range(n), 2)), [range(n)]
    for k, plan in enumerate(bells):
        parts = batches[f"bell{k}/type-1"].participants
        read[f"bell{k}/type-1"] = read[f"bell{k}/type-2"] = [
            [parts.index(u) for u in pair] for pair in plan.pairs]
    return read


def oracle_pooled(batch, positions):
    """The batch with outcome strings of equal parity on every read subset
    of positions summed onto the least of them, grouped by string digits."""
    classes = {}
    for s, c in sorted(batch.counts.items()):
        key = tuple(sum(int(s[i]) for i in subset) % 2 for subset in positions)
        least, total = classes.get(key, (s, 0))
        classes[key] = least, total + c
    return RoundBatch(batch.setting, batch.participants, dict(classes.values()))


def scalar_reference(ghz, bells, batches, n_samples, seed):
    """Each statistic resampled on its own, one Poisson count at a time, on
    the batches pooled by the subsets the report reads (oracle_pooled).

    Returns per-statistic standard deviations and the set of rejected
    resamples; this is the loop build_report's single Monte Carlo pass must
    reproduce exactly.
    """
    stats = scalar_statistics(ghz, bells)
    batches = {name: oracle_pooled(batches[name], positions)
               for name, positions in read_positions(ghz, bells, batches).items()}
    stds, rejected = {}, {}
    for name, stat in stats.items():
        rng = np.random.default_rng(seed)
        values, rejected[name] = [], set()
        for r in range(n_samples):
            resampled = {}
            for key in sorted(batches):
                b = batches[key]
                counts = {k: int(rng.poisson(c)) for k, c in sorted(b.counts.items())}
                resampled[key] = RoundBatch(b.setting, b.participants, counts)
            try:
                values.append(stat(resampled))
            except (ValueError, ZeroDivisionError):
                rejected[name].add(r)
        stds[name] = float(np.std(values, ddof=1))
    return stds, rejected


class TestPairwiseRates:
    def test_ideal_links_at_unit_rate(self):
        _, bells, batches = ideal_batches()
        rates, rate2 = pairwise_rates(bells, batches)
        assert set(rates) == {"1-2", "5-6", "2-5"}
        for r in rates.values():
            assert r == pytest.approx(1.0)
        assert rate2 == pytest.approx(0.5)

    def test_matches_oracle_and_rejects_empty_batch(self):
        _, bells, batches = ideal_batches(rounds=300, state=noisy_state())
        rates, rate2 = pairwise_rates(bells, batches)
        assert rate2 == scalar_statistics(None, bells)["akr_2"](batches)
        for k, plan in enumerate(bells):
            for pair in plan.pairs:
                est = estimate_qber(marginal(batches[f"bell{k}/type-1"], pair))
                qx = estimate_qx(marginal(batches[f"bell{k}/type-2"], pair))
                assert rates[f"{pair[0] + 1}-{pair[1] + 1}"] == akr_n(est.qber, qx)
        b = batches["bell1/type-2"]
        batches["bell1/type-2"] = RoundBatch(b.setting, b.participants, {})
        with pytest.raises(ValueError, match="empty batch"):
            pairwise_rates(bells, batches)

    def test_rejects_type2_counts_in_another_participant_order(self):
        """A pair's Q_X is read at its mask in the type-1 participant order."""
        _, bells, batches = ideal_batches(rounds=300, state=noisy_state())
        b = batches["bell0/type-2"]
        batches["bell0/type-2"] = RoundBatch(b.setting, b.participants[::-1],
                                             {s[::-1]: c for s, c in b.counts.items()})
        with pytest.raises(ValueError, match="^type-1 and type-2 counts list different "
                                             "participants$"):
            pairwise_rates(bells, batches)


class TestBuildReport:
    def test_full_report_ideal(self):
        ghz, bells, batches = ideal_batches()
        report = build_report(ghz, bells, batches, mc_samples=200, mc_seed=1)
        assert report.akr_n == pytest.approx(1.0)
        assert report.akr_2 == pytest.approx(0.5)
        assert report.ratio == pytest.approx(2.0)
        assert report.copies_per_bit == {"nqkd": 1, "2qkd": 2}
        assert set(report.uncertainties) == {"qber", "qx", "akr_n", "akr_2",
                                             "ratio"}
        # ideal data has no statistical spread
        assert report.uncertainties["akr_n"] == pytest.approx(0.0, abs=1e-12)

    def test_nqkd_only(self):
        ghz, _, batches = ideal_batches()
        only = {k: v for k, v in batches.items() if k.startswith("nqkd")}
        report = build_report(ghz, [], only, mc_samples=50)
        assert report.akr_n == pytest.approx(1.0)
        assert report.ratio is None
        assert report.pairwise_rates == {}
        assert "akr_2" not in report.uncertainties

    def test_2qkd_only(self):
        _, bells, batches = ideal_batches()
        only = {k: v for k, v in batches.items() if k.startswith("bell")}
        report = build_report(None, bells, only, mc_samples=50)
        assert report.akr_2 == pytest.approx(0.5)
        assert report.ratio is None
        assert report.alice_choice is None

    def test_vanished_pairwise_rate_leaves_ratio_undefined(self):
        vec = to_dense(networks.six_vertex_network_state())
        rho = apply_noise(vec, range(6), NoiseModel(white_noise=0.25)).matrix
        ghz, bells, batches = ideal_batches(state=rho)
        report = build_report(ghz, bells, batches, mc_samples=50, mc_seed=1)
        assert report.akr_2 == 0.0
        assert report.ratio is None
        assert "ratio" not in report.uncertainties
        assert "akr_2" in report.uncertainties

    @pytest.mark.parametrize("rounds, seed", [(4000, 3), (10, 0)])
    def test_one_pass_matches_scalar_resampling(self, rounds, seed):
        ghz, bells, batches = ideal_batches(rounds, seed, state=noisy_state())
        report = build_report(ghz, bells, batches, mc_samples=200, mc_seed=1)
        assert report.ratio is not None
        want, rejected = scalar_reference(ghz, bells, batches, 200, 1)
        assert report.uncertainties == want
        if rounds == 10:
            # batches resampled to zero total, and resamples whose pairwise
            # rate vanishes, are rejected per statistic: an empty nqkd batch
            # rejects qber and the ratio but not akr_2, an empty Bell batch
            # the reverse, and a vanished pairwise rate the ratio alone
            assert all(rejected.values())
            assert rejected["qber"] - rejected["akr_2"] and rejected["akr_2"] - rejected["qber"]
            assert rejected["ratio"] > rejected["akr_2"] | rejected["qber"]

    def test_mc_disabled(self):
        ghz, bells, batches = ideal_batches()
        report = build_report(ghz, bells, batches, mc_samples=0)
        assert report.uncertainties == {}

    @pytest.mark.parametrize("rounds, seed", [(4000, 3), (10, 0), (3, 5)])
    def test_point_values_are_the_scalar_estimators(self, rounds, seed):
        """Row 0 of the one evaluation gives every point field, with or
        without Monte Carlo, exactly as the scalar estimators do."""
        ghz, bells, batches = ideal_batches(rounds, seed, state=noisy_state())
        est = error_estimates(batches["nqkd/type-1"], batches["nqkd/type-2"])
        rates, rate_2 = pairwise_rates(bells, batches)
        rate_n = akr_n(est.qber, est.qx)
        for mc_samples, mc_seed in ((0, 0), (200, 0), (200, 1), (200, 2)):
            report = build_report(ghz, bells, batches, mc_samples=mc_samples, mc_seed=mc_seed)
            assert (report.qber, report.qx, report.alice_choice) == (
                est.qber, est.qx, est.alice_choice)
            assert (report.akr_n, report.pairwise_rates, report.akr_2) == (
                rate_n, rates, rate_2)
            assert report.ratio == (rate_n / rate_2 if rate_2 > 0 else None)
            assert bool(report.uncertainties) == (mc_samples > 0)

    @pytest.mark.parametrize("mc_samples", [0, 200])
    @pytest.mark.parametrize("emptied", ["nqkd/type-1", "nqkd/type-2", "bell0/type-1",
                                         "bell1/type-2"])
    def test_empty_batch(self, emptied, mc_samples):
        ghz, bells, batches = ideal_batches(rounds=300)
        b = batches[emptied]
        batches[emptied] = RoundBatch(b.setting, b.participants,
                                      {key: 0 for key in b.counts})
        with pytest.raises(ValueError, match="^empty batch$"):
            build_report(ghz, bells, batches, mc_samples=mc_samples)


def random_rows(rng, plan, round_type, n_rows):
    """Seeded count rows over all of a plan's outcome strings.

    Each row draws its counts around a noisy version of the ideal
    distribution, with a total between 0 and 2,000 rounds, so the rows hold
    empty batches, tiny batches with exact ties, and rates of both signs.
    """
    n = len(plan.targets)
    outcomes = tuple(format(i, f"0{n}b") for i in range(1 << n))
    dist = outcome_distribution(plan, round_type)
    ideal = np.array([dist.get(s, 0.0) for s in outcomes])
    noise = rng.uniform(0, 0.7, size=(n_rows, 1))
    totals = rng.choice([0, 1, 3, 12, 2000], size=(n_rows, 1))
    lam = totals * ((1 - noise) * ideal + noise / len(outcomes))
    return CountRows(plan.targets, outcomes, rng.poisson(lam))


def qber_choices(rows, pair):
    """QBER and Alice on every row through the one estimator, over a pair
    or, for pair None, over all participants."""
    n = len(rows.participants)
    errors = count_error_rows(rows, rows, _pair_masks(n), (1 << n) - 1)[0]
    parts = [rows.participants.index(u) for u in pair or rows.participants]
    qber, alice = _alice_min_max(errors[np.ix_(parts, parts)])
    return qber, np.array(rows.participants)[parts][alice]


def row_batches(rows, r):
    return {name: RoundBatch(None, c.participants, dict(zip(c.outcomes, c.counts[r].tolist())))
            for name, c in rows.items()}


def eight_vertex_ghz_plan():
    """GHZ over six participants of an eight-vertex network: 15 pairs."""
    g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (2, 7)])
    return find_ghz_plan(g, (0, 1, 2, 3, 4, 5))


def lacking_outcomes(rng, rows):
    """The rows over a random subset of their outcome strings, as a batch
    holds only the outcomes that occurred."""
    keep = np.sort(rng.choice(len(rows.outcomes), size=rng.integers(1, len(rows.outcomes)),
                              replace=False))
    return CountRows(rows.participants, tuple(rows.outcomes[k] for k in keep),
                     rows.counts[:, keep])


def scalar_rows(stats, rows, n_rows):
    """Each oracle statistic on every row's batches, NaN where it raises."""
    want = {name: np.empty(n_rows) for name in stats}
    for r in range(n_rows):
        batches = row_batches(rows, r)
        for name, stat in stats.items():
            try:
                want[name][r] = stat(batches)
            except (ValueError, ZeroDivisionError):
                want[name][r] = np.nan
    return want


class TestReportRows:
    """The report's array statistic against the oracle scalar estimators,
    row by row."""

    @pytest.mark.parametrize("protocols", ["both", "nqkd", "2qkd"])
    def test_matches_scalar_estimators(self, protocols):
        rng = np.random.default_rng(11)
        ghz = networks.ghz_plan() if protocols != "2qkd" else None
        bells = ([networks.bell_multicast_plan(), networks.bell_bridge_plan()]
                 if protocols != "nqkd" else [])
        plans = {f"bell{k}": plan for k, plan in enumerate(bells)}
        if ghz is not None:
            plans["nqkd"] = ghz
        n_rows = 3000
        rows = {f"{name}/{rt}": random_rows(rng, plan, rt, n_rows)
                for name, plan in plans.items() for rt in ("type-1", "type-2")}
        got = _evaluate(ghz, bells, rows)[0]
        stats = scalar_statistics(ghz, bells)
        assert list(got) == list(stats)
        # the Alice choice is the only trace of the tie-break on count rows
        choices = {(name, pair): qber_choices(rows[f"{name}/type-1"], pair)
                   for name, plan in plans.items() for pair in plan.pairs or [None]}
        want = {name: np.empty(n_rows) for name in stats}
        ties = 0
        for r in range(n_rows):
            batches = row_batches(rows, r)
            for name, stat in stats.items():
                try:
                    want[name][r] = stat(batches)
                except (ValueError, ZeroDivisionError):
                    want[name][r] = np.nan
            for (name, pair), (qber, alice) in choices.items():
                b = batches[f"{name}/type-1"]
                if b.total:
                    est = estimate_qber(b if pair is None else marginal(b, pair))
                    assert (qber[r], alice[r]) == (est.qber, est.alice_choice)
                    if pair is None:
                        worst = [max(q for (a, _), q in est.pairwise_q.items() if a == u)
                                 for u in b.participants]
                        ties += worst.count(est.qber) > 1
        for name in stats:
            assert np.array_equal(got[name], want[name], equal_nan=True), name
        # the cases the statistic must get right all occur: GHZ rows where
        # Alices tie exactly, empty batches, vanished pairwise rates
        assert ties > 100 or ghz is None
        for values in got.values():
            assert 0 < np.isnan(values).sum() < n_rows
        if "akr_2" in got:
            assert (got["akr_2"] == 0).sum() > 100
        if "ratio" in got:
            assert np.isnan(got["ratio"][got["akr_2"] == 0]).all()

    @pytest.mark.parametrize("network", ["six", "eight"])
    def test_batches_lacking_outcomes(self, network):
        """Batches over some of their outcome strings only, and the
        eight-vertex GHZ plan's 15 pairs, bit for bit."""
        rng = np.random.default_rng(12)
        if network == "six":
            ghz, bells = networks.ghz_plan(), [networks.bell_multicast_plan(),
                                               networks.bell_bridge_plan()]
        else:
            ghz, bells = eight_vertex_ghz_plan(), []
            assert len(ghz.targets) == 6
        plans = {"nqkd": ghz, **{f"bell{k}": plan for k, plan in enumerate(bells)}}
        n_rows = 800
        rows = {f"{name}/{rt}": lacking_outcomes(rng, random_rows(rng, plan, rt, n_rows))
                for name, plan in plans.items() for rt in ("type-1", "type-2")}
        assert all(len(c.outcomes) < 1 << len(c.participants) for c in rows.values())
        got = _evaluate(ghz, bells, rows)[0]
        want = scalar_rows(scalar_statistics(ghz, bells), rows, n_rows)
        assert list(got) == list(want)
        for name in want:
            assert np.array_equal(got[name], want[name], equal_nan=True), name
        assert 0 < np.isnan(got["qber"]).sum() < n_rows

    def test_single_outcome_and_zero_totals(self):
        """Rows over one outcome string, and rows whose totals are zero."""
        ghz, bells = networks.ghz_plan(), [networks.bell_multicast_plan(),
                                           networks.bell_bridge_plan()]
        plans = {"nqkd": ghz, "bell0": bells[0], "bell1": bells[1]}
        counts = np.array([[0], [1], [7], [0]])
        rows = {}
        for k, (name, plan) in enumerate(plans.items()):
            n = len(plan.targets)
            for rt, outcome in (("type-1", "0" * n), ("type-2", "1" + "0" * (n - 1))):
                rows[f"{name}/{rt}"] = CountRows(plan.targets, (outcome,),
                                                 np.roll(counts, k, axis=0))
        got = _evaluate(ghz, bells, rows)[0]
        want = scalar_rows(scalar_statistics(ghz, bells), rows, len(counts))
        for name in want:
            assert np.array_equal(got[name], want[name], equal_nan=True), name
        assert np.isnan(got["qber"]).sum() == 2 and not np.isnan(got["qber"]).all()


def oracle_parities(batch, positions):
    """Each read subset's signed count sum, from the digits of the strings."""
    return [sum(c * (-1) ** sum(int(s[i]) for i in subset) for s, c in batch.counts.items())
            for subset in positions]


class TestPooling:
    """build_report draws one Poisson count per class of outcomes that agree
    on every parity it reads."""

    def test_pooling_keeps_every_read_parity(self, monkeypatch):
        """On random batches of the GHZ and Bell plans, over random outcome
        sets with counts up to past 2^53, each batch that build_report pools
        is the oracle's grouping by every read subset, keeps every read
        parity exactly, and its count rows read them alone."""
        built = []

        def spy(pooled, *args):
            built.append((pooled, poisson_count_rows(pooled, *args)))
            return built[-1][1]
        monkeypatch.setattr(analysis, "poisson_count_rows", spy)
        rng = np.random.default_rng(26)
        setups = [(networks.ghz_plan(), [networks.bell_multicast_plan(),
                                         networks.bell_bridge_plan()]),
                  (eight_vertex_ghz_plan(), [])]
        for trial in range(60):
            ghz, bells = setups[trial % 2]
            tagged = [("nqkd", ghz)] + [(f"bell{k}", p) for k, p in enumerate(bells)]
            batches = {}
            for tag, plan in tagged:
                n = len(plan.targets)
                for rt in ("type-1", "type-2"):
                    keep = rng.random(1 << n) < rng.uniform(0.1, 1.0)
                    scale = 2**53 + 1 if trial % 5 == 0 else 50
                    batches[f"{tag}/{rt}"] = RoundBatch(None, plan.targets, {
                        format(i, f"0{n}b"): int(rng.integers(0, scale))
                        for i in np.flatnonzero(keep).tolist()})
            try:
                build_report(ghz, bells, batches, mc_samples=0)
            except ValueError as exc:
                assert str(exc) == "empty batch"
                assert not all(batch.total for batch in batches.values())
            pooled, rows = built.pop()
            positions = read_positions(ghz, bells, batches)
            assert sorted(pooled) == sorted(rows) == sorted(positions)
            for name in positions:
                batch = batches[name]
                assert pooled[name].counts == oracle_pooled(batch, positions[name]).counts
                want = oracle_parities(batch, positions[name])
                assert oracle_parities(pooled[name], positions[name]) == want
                n = len(batch.participants)
                want = {0: batch.total, **{sum(1 << (n - 1 - i) for i in subset): parity
                                           for subset, parity in zip(positions[name], want)}}
                assert rows[name].signs.shape == (len(pooled[name].counts), len(want))
                assert dict(zip(rows[name].subsets.tolist(),
                                rows[name].parity_rows()[0].tolist())) == want

    def test_poisson_cells_per_report(self, poisson_cells):
        """The eight-vertex GHZ report, with all 64 outcomes of each round
        type observed, draws 32 + 2 counts per resample: one per class of
        equal pair parities, and one per full-set parity."""
        plan = eight_vertex_ghz_plan()
        b1, b2 = simulate_protocol(plan, 20000, 4, state=NoiseModel(white_noise=0.3))
        assert len(b1.counts) == len(b2.counts) == 64
        build_report(plan, [], {"nqkd/type-1": b1, "nqkd/type-2": b2}, mc_samples=50)
        assert poisson_cells == [34]

    def test_pooled_matches_per_outcome_resampling(self):
        """Pooled and per-outcome resampling draw the same distribution, so
        4,000 resamples of each give every uncertainty within 8 %, five
        standard errors of the difference of two such estimates."""
        ghz, bells, batches = ideal_batches(4000, 3, state=noisy_state())
        n_samples, seed = 4000, 7
        pooled = build_report(ghz, bells, batches, mc_samples=n_samples, mc_seed=seed)
        values = _evaluate(ghz, bells, poisson_count_rows(batches, n_samples, seed + 1))[0]
        per_outcome = monte_carlo_results(values, n_samples, seed + 1)
        assert set(pooled.uncertainties) == set(per_outcome)
        for name, result in per_outcome.items():
            assert pooled.uncertainties[name] == pytest.approx(result.std, rel=0.08), name
