"""Report assembly from simulated round batches."""

import numpy as np
import pytest

from graphqcka import networks
from graphqcka.analysis import build_report, pairwise_rates
from graphqcka.graphstate import to_dense
from graphqcka.keyrates import RoundBatch, akr_n, error_estimates, simulate_protocol
from graphqcka.noise import NoiseModel, apply_noise


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


def scalar_reference(bells, batches, n_samples, seed):
    """Each statistic resampled on its own, one Poisson count at a time.

    Returns per-statistic standard deviations and rejection counts; this is
    the loop build_report's single Monte Carlo pass must reproduce exactly.
    """
    def nqkd(bs):
        return error_estimates(bs["nqkd/type-1"], bs["nqkd/type-2"])

    def ratio(bs):
        r2 = pairwise_rates(bells, bs)[1]
        if r2 <= 0:
            raise ValueError("pairwise rate vanished")
        return akr_n(nqkd(bs).qber, nqkd(bs).qx) / r2

    stats = {"qber": lambda bs: nqkd(bs).qber,
             "qx": lambda bs: nqkd(bs).qx,
             "akr_n": lambda bs: akr_n(nqkd(bs).qber, nqkd(bs).qx),
             "akr_2": lambda bs: pairwise_rates(bells, bs)[1],
             "ratio": ratio}
    stds, rejected = {}, {}
    for name, stat in stats.items():
        rng = np.random.default_rng(seed)
        values = []
        for _ in range(n_samples):
            resampled = {}
            for key in sorted(batches):
                b = batches[key]
                counts = {k: int(rng.poisson(c)) for k, c in sorted(b.counts.items())}
                resampled[key] = RoundBatch(b.setting, b.participants, counts)
            try:
                values.append(stat(resampled))
            except (ValueError, ZeroDivisionError):
                pass
        stds[name] = float(np.std(values, ddof=1))
        rejected[name] = n_samples - len(values)
    return stds, rejected


class TestPairwiseRates:
    def test_ideal_links_at_unit_rate(self):
        _, bells, batches = ideal_batches()
        rates, rate2 = pairwise_rates(bells, batches)
        assert set(rates) == {"1-2", "5-6", "2-5"}
        for r in rates.values():
            assert r == pytest.approx(1.0)
        assert rate2 == pytest.approx(0.5)


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
        want, rejected = scalar_reference(bells, batches, 200, 1)
        assert report.uncertainties == want
        if rounds == 10:
            # batches resampled to zero total, and resamples whose pairwise
            # rate vanishes, are rejected per statistic
            assert all(n > 0 for n in rejected.values())
            assert rejected["ratio"] > rejected["akr_2"] > rejected["qber"]

    def test_mc_disabled(self):
        ghz, bells, batches = ideal_batches()
        report = build_report(ghz, bells, batches, mc_samples=0)
        assert report.uncertainties == {}
