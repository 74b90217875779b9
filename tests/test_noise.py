"""Noise channels, pump sweeps, Monte Carlo resampling, and calibration."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import graphqcka
from graphqcka import cli, networks, noise
from graphqcka.graphstate import SizeCapError, build_graph_state, to_dense
from graphqcka.io import RunConfig
from graphqcka.keyrates import (RoundBatch, akr_n, analytic_estimates, correlator_tables,
                                pairwise_error, table_estimates)
from graphqcka.noise import (DensityOperator, NoiseModel, apply_noise,
                             calibrate_to_targets, poisson_mc, pump_sweep)
from graphqcka.pauli import PAULI_MATRICES, from_name
from graphqcka.graphstate import GraphState

from conftest import random_model, write_readme_run
from oracles import kraus_noise, psd_verdict

CHANNELS = ("depolarizing", "dephasing", "bit_flip")


def run_fresh_python(code):
    """Run code in a new interpreter that imports graphqcka from this tree."""
    src = str(Path(graphqcka.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def hidden_truths(sparse):
    """40 seeded noise models on the six-vertex network with strengths below
    0.1: every channel on every vertex or, if sparse, each channel with
    probability 1/2 and then on each vertex with probability 1/2."""
    for seed in range(40):
        nprng = np.random.default_rng(seed)

        def keep():
            return not sparse or nprng.random() < 0.5
        yield NoiseModel(**{channel: {v: nprng.uniform(0.0, 0.1)
                                      for v in range(6) if keep()}
                            for channel in CHANNELS if keep()})


def target_pairs(plans, model):
    """Each plan's analytic (QBER, Q_X) under a noise model."""
    return {name: (est.qber, est.qx) for name, plan in plans.items()
            for est in [analytic_estimates(plan, model)]}


def spy_least_squares(monkeypatch):
    """Count the calls to scipy's least_squares; returns the list of calls."""
    import scipy.optimize
    calls, real = [], scipy.optimize.least_squares

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(scipy.optimize, "least_squares", spy)
    return calls


def bell_vector():
    """(|00> + |11>)/sqrt(2) as a doubled-rail amplitude vector."""
    k2 = build_graph_state(2, [(0, 1)])
    from graphqcka.pauli import IDENTITY
    return to_dense(GraphState(k2.graph, {0: IDENTITY, 1: from_name("H")}))


def expectation_mixed(rho: DensityOperator, letters) -> float:
    """Oracle Tr(rho * O) for a Pauli-product observable given as vertex -> letter."""
    unknown = set(letters) - set(rho.vertices)
    if unknown:
        raise ValueError(f"observable acts on unknown vertices {sorted(unknown)}")
    op = np.array([[1.0]], dtype=complex)
    for v in rho.vertices:
        op = np.kron(op, PAULI_MATRICES[letters.get(v, "I")])
    return float(np.real(np.trace(rho.matrix @ op)))


class TestDensityOperator:
    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2), (0,))  # trace 2
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 1j], [2j, 0.5]]), (0,))  # not Hermitian
        with pytest.raises(ValueError):
            DensityOperator(np.array([[1.5, 0], [0, -0.5]]), (0,))  # not PSD
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2) / 2, (0, 1))  # dimension mismatch

    def test_cap(self):
        with pytest.raises(SizeCapError):
            DensityOperator(np.eye(2 ** 9) / 2 ** 9, tuple(range(9)))

    def test_accepts_valid(self):
        rho = DensityOperator(np.eye(4) / 4, (0, 1))
        assert rho.n == 2

    def test_hermitian_check_is_allclose(self):
        """The Hermitian test accepts what np.allclose(m, m^H, atol=1e-9)
        accepts: one entry's real or imaginary part moved by amounts around
        the tolerance, or set to NaN or inf; the last 72 matrices are real
        (float64), so only a real part moves."""
        nprng = np.random.default_rng(14)
        for k in range(216):
            n = 1 + k % 4
            dim = 1 << n
            g = nprng.normal(size=(dim, dim))
            if k < 144:
                g = g + 1j * nprng.normal(size=(dim, dim))
            m = g @ g.conj().T
            m /= np.trace(m).real
            i, j = nprng.integers(dim, size=2)
            m[i, j] += (0.0, 3e-10, 6e-10, 9e-10, 2e-9, 1e-3)[k % 6] * (
                (1, 1j)[k // 6 % 2] if k < 144 else 1)
            if k % 12 == 11:
                m[i, j] = (np.nan, np.inf)[k // 12 % 2]
            hermitian = np.allclose(m, m.conj().T, atol=1e-9)
            try:
                DensityOperator(m, tuple(range(n)))
            except ValueError as exc:
                assert ("Hermitian" in str(exc)) != hermitian
            else:
                assert hermitian

    def test_positivity_matches_eigenvalue_oracle(self, monkeypatch):
        """Seeded U diag(lambda) U^+ on 1-8 qubits with lambda_min at -1e-8,
        -1e-11 or exactly 0, and the rank-1 eight-qubit GHZ projector: each is
        accepted or rejected as its eigenvalues say, a rejection names the
        smallest, and only a rejection computes them."""
        nprng = np.random.default_rng(13)
        unitaries = [np.linalg.qr(nprng.normal(size=(1 << n, 1 << n))
                                  + 1j * nprng.normal(size=(1 << n, 1 << n)))[0]
                     for n in range(9)]
        pool = []
        for k in range(216):
            n, least = 1 + k % 8, (-1e-8, -1e-11, 0.0)[k % 3]
            # a random basis and spectrum, lambda_min at one random position
            u = unitaries[n][:, nprng.permutation(1 << n)]
            lam = nprng.uniform(0.0, 1.0, 1 << n)
            low = nprng.integers(1 << n)
            lam[low] = 0.0
            lam *= (1.0 - least) / lam.sum()
            lam[low] = least
            m = (u * lam) @ u.conj().T
            pool.append((n, (m + m.conj().T) / 2))
        ghz = np.zeros(256)
        ghz[[0, -1]] = 2 ** -0.5
        pool.append((8, np.outer(ghz, ghz)))
        verdicts = [psd_verdict(m) for _, m in pool]
        assert sum(ok for ok, _ in verdicts) == 145
        # the same on real matrices, which take the real Cholesky: seeded
        # O diag(lambda) O^T, and the GHZ projector stored real
        real_pool = [(8, np.outer(ghz, ghz).real)]
        for k in range(216):
            n, least = 1 + k % 8, (-1e-8, -1e-11, 0.0)[k % 3]
            o = np.linalg.qr(nprng.normal(size=(1 << n, 1 << n)))[0]
            lam = nprng.uniform(0.0, 1.0, 1 << n)
            low = nprng.integers(1 << n)
            lam[low] = 0.0
            lam *= (1.0 - least) / lam.sum()
            lam[low] = least
            m = (o * lam) @ o.T
            real_pool.append((n, (m + m.T) / 2))
        real_verdicts = [psd_verdict(m) for _, m in real_pool]
        assert all(m.dtype == np.float64 for _, m in real_pool)
        assert sum(ok for ok, _ in real_verdicts) == 145
        pool += real_pool
        verdicts += real_verdicts

        calls, real = [], np.linalg.eigvalsh

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for (n, m), (ok, least) in zip(pool, verdicts):
            if ok:
                DensityOperator(m, tuple(range(n)))
            else:
                with pytest.raises(ValueError, match=re.escape(
                        f"not positive semidefinite (min eigenvalue {least:.3e})")):
                    DensityOperator(m, tuple(range(n)))
        assert len(calls) == 72 + 72


class TestApplyNoise:
    def test_trace_and_hermiticity_preserved(self):
        vec = to_dense(networks.six_vertex_network_state())
        model = NoiseModel(depolarizing={0: 0.3, 3: 0.1},
                           dephasing={1: 0.2}, bit_flip={4: 0.15},
                           white_noise=0.05)
        rho = apply_noise(vec, range(6), model).matrix
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)

    def test_rejects_noise_on_missing_vertex(self):
        with pytest.raises(ValueError, match=r"\[2, 9\]"):
            apply_noise(bell_vector(), (0, 1),
                        NoiseModel(depolarizing={9: 0.5}, bit_flip={0: 0.1, 2: 0.1}))

    @pytest.mark.parametrize("model", [NoiseModel(depolarizing={0: 0.1}),
                                       NoiseModel(white_noise=0.1), NoiseModel()],
                             ids=["per-qubit", "white-noise", "noiseless"])
    def test_rejects_wrong_shape(self, model):
        three_qubits = np.ones(8) / np.sqrt(8)
        for state in (three_qubits, np.outer(three_qubits, three_qubits), np.ones((4, 2))):
            with pytest.raises(ValueError, match=r"2 vertices need \(4,\) or \(4, 4\)"):
                apply_noise(state, (0, 1), model)

    def test_bell_depolarizing_zz(self):
        lam = 0.2
        rho = apply_noise(bell_vector(), (0, 1),
                          NoiseModel(depolarizing={0: lam}))
        assert expectation_mixed(rho, {0: "Z", 1: "Z"}) == pytest.approx(1 - lam)
        # QBER on the Bell pair equals lambda/2
        qber = (1 - expectation_mixed(rho, {0: "Z", 1: "Z"})) / 2
        assert qber == pytest.approx(lam / 2)

    def test_dephasing_and_bit_flip_axes(self):
        rho = apply_noise(bell_vector(), (0, 1), NoiseModel(dephasing={0: 0.1}))
        assert expectation_mixed(rho, {0: "Z", 1: "Z"}) == pytest.approx(1.0)
        assert expectation_mixed(rho, {0: "X", 1: "X"}) == pytest.approx(0.8)
        rho = apply_noise(bell_vector(), (0, 1), NoiseModel(bit_flip={0: 0.1}))
        assert expectation_mixed(rho, {0: "Z", 1: "Z"}) == pytest.approx(0.8)
        assert expectation_mixed(rho, {0: "X", 1: "X"}) == pytest.approx(1.0)

    def test_matches_kraus_sums(self, rng):
        """The per-qubit factors against the Kraus form of every channel, on
        random mixed states under random four-channel models."""
        nprng = np.random.default_rng(rng.randrange(1 << 32))
        for _ in range(30):
            n = rng.randint(1, 6)
            dim = 1 << n
            g = nprng.normal(size=(dim, dim)) + 1j * nprng.normal(size=(dim, dim))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            vertices = tuple(rng.sample(range(8), n))
            model = random_model(rng, vertices)
            got = apply_noise(rho, vertices, model).matrix
            assert np.abs(got - kraus_noise(rho, vertices, model)).max() <= 1e-12

    def test_matches_kraus_sums_up_to_eight_qubits(self, rng):
        """Vectors and density matrices of 1-8 qubits under random
        four-channel models against the Kraus sums, and the caller's array
        is left as it was."""
        nprng = np.random.default_rng(rng.randrange(1 << 32))
        for n in range(1, 9):
            dim = 1 << n
            vertices = tuple(rng.sample(range(10), n))
            g = nprng.normal(size=(dim, dim)) + 1j * nprng.normal(size=(dim, dim))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            vec = g[0] / np.linalg.norm(g[0])
            for state, dense in ((vec, np.outer(vec, vec.conj())), (rho, rho.copy())):
                model = random_model(rng, vertices)
                before = state.copy()
                got = apply_noise(state, vertices, model).matrix
                assert np.array_equal(state, before)
                assert np.abs(got - kraus_noise(dense, vertices, model)).max() <= 1e-12

    def test_real_states_stay_real_up_to_eight_qubits(self, rng):
        """Real-valued vectors and density matrices of 1-8 qubits, stored as
        float64 or as complex128 with a zero imaginary part, give a float64
        matrix that matches the Kraus sums to 1e-12, with the same bits from
        either storage; a nonzero imaginary part keeps the matrix complex."""
        nprng = np.random.default_rng(rng.randrange(1 << 32))
        for n in range(1, 9):
            dim = 1 << n
            vertices = tuple(rng.sample(range(10), n))
            g = nprng.normal(size=(dim, dim))
            rho = g @ g.T
            rho /= np.trace(rho)
            vec = g[0] / np.linalg.norm(g[0])
            for state, dense in ((vec, np.outer(vec, vec)), (rho, rho)):
                model = random_model(rng, vertices)
                want = kraus_noise(dense, vertices, model)
                got = [apply_noise(stored, vertices, model).matrix
                       for stored in (state, state.astype(complex))]
                for m in got:
                    assert m.dtype == np.float64
                    assert np.abs(m - want).max() <= 1e-12
                assert np.array_equal(got[0], got[1])
                phases = np.exp(1j * np.arange(dim))
                phased = state * (phases if state.ndim == 1 else np.outer(phases, phases.conj()))
                assert apply_noise(phased, vertices, model).matrix.dtype == np.complex128

    def test_white_noise_mixing(self):
        rho = apply_noise(bell_vector(), (0, 1), NoiseModel(white_noise=1.0))
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(depolarizing={0: 1.5})
        with pytest.raises(ValueError):
            NoiseModel(white_noise=-0.1)

    def test_expectation_mixed_unknown_vertex(self):
        rho = apply_noise(bell_vector(), (0, 1), NoiseModel())
        with pytest.raises(ValueError):
            expectation_mixed(rho, {7: "Z"})


class TestPumpSweep:
    def test_rate_scaling_and_interior_optimum(self):
        plan = networks.ghz_plan()
        model = NoiseModel()
        powers = np.linspace(5.0, 200.0, 40)
        sweep = pump_sweep(plan, model, powers)
        # raw generation rate scales as p^3: exact log-log slope
        slope = (np.log(sweep.raw_rates[-1]) - np.log(sweep.raw_rates[0])) / (
            np.log(powers[-1]) - np.log(powers[0]))
        assert slope == pytest.approx(3.0, abs=1e-9)
        # AKR decreases monotonically with power
        assert all(a >= b - 1e-12 for a, b in zip(sweep.akr, sweep.akr[1:]))
        # key rate peaks strictly inside the sweep window
        assert powers[0] < sweep.optimum_power < powers[-1]
        assert sweep.optimum_rate == pytest.approx(max(sweep.key_rates))

    def test_no_contamination_pushes_optimum_to_edge(self):
        plan = networks.ghz_plan()
        model = NoiseModel(pump_contamination_coefficient=0.0)
        sweep = pump_sweep(plan, model, np.linspace(5.0, 200.0, 20))
        assert sweep.optimum_power == pytest.approx(200.0)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            pump_sweep(networks.ghz_plan(), NoiseModel(), [5.0, 10.0])

    def test_rejects_noise_on_missing_vertex(self):
        with pytest.raises(ValueError, match=r"noise on vertices \[9\]"):
            pump_sweep(networks.ghz_plan(), NoiseModel(dephasing={9: 0.1}),
                       np.linspace(5.0, 200.0, 5))

    def test_matches_density_path(self):
        plan = networks.ghz_plan()
        model = NoiseModel(depolarizing={2: 0.02}, dephasing={0: 0.01},
                           bit_flip={5: 0.03})
        powers = np.linspace(5.0, 200.0, 6)
        sweep = pump_sweep(plan, model, powers)
        vec = to_dense(networks.six_vertex_network_state())
        for p, akr in zip(powers, sweep.akr):
            noisy = replace(model, white_noise=model.white_noise_at_power(p))
            est = analytic_estimates(plan, apply_noise(vec, range(6), noisy).matrix)
            assert akr == pytest.approx(akr_n(est.qber, est.qx), abs=1e-12)

    @pytest.mark.parametrize("name", ["ghz", "multicast", "bridge", "readme"])
    def test_equals_one_evaluation_per_power(self, name, tmp_path, monkeypatch):
        """akr and key_rates equal, bit for bit, a loop that evaluates the
        tables once per power under the model with that power's white noise;
        on the reference plans and on the README run's sweep."""
        if name == "readme":
            monkeypatch.chdir(tmp_path)
            write_readme_run(tmp_path)
            cfg = RunConfig.from_json("run.json")
            plan, model = cli._extract_plans(cfg)[1]["nqkd"], cfg.noise_model()
            powers = np.linspace(*cfg.sweep_powers)
        else:
            plan = {"ghz": networks.ghz_plan, "multicast": networks.bell_multicast_plan,
                    "bridge": networks.bell_bridge_plan}[name]()
            model = NoiseModel(depolarizing={2: 0.02}, dephasing={0: 0.01},
                               bit_flip={5: 0.03}, white_noise=0.5)
            powers = np.linspace(5.0, 200.0, 40)
        sweep = pump_sweep(plan, model, powers)
        tables = correlator_tables(plan)
        akr = []
        for p in powers:
            est = table_estimates(
                tables, replace(model, white_noise=model.white_noise_at_power(p)))
            akr.append(akr_n(est.qber, est.qx))
        assert np.array_equal(sweep.akr, akr)
        assert np.array_equal(sweep.key_rates,
                              model.raw_rate_at_power(powers) * np.maximum(akr, 0.0))


class TestPoissonMc:
    @staticmethod
    def stat(batches):
        return pairwise_error(batches["b"], 0, 1)

    def test_deterministic_and_calibrated(self):
        batches = {"b": RoundBatch(None, (0, 1),
                                   {"00": 450, "11": 450, "01": 50, "10": 50})}
        a = poisson_mc(batches, self.stat, n_samples=400, seed=3)
        b = poisson_mc(batches, self.stat, n_samples=400, seed=3)
        assert a.mean == b.mean and a.std == b.std
        assert a.point_estimate == pytest.approx(0.1)
        # the resampled mean agrees with the point estimate
        assert abs(a.mean - a.point_estimate) < 3 * a.std / np.sqrt(a.n_samples)
        # binomial-like std on q = 0.1 over N = 1000 rounds is about 1%
        assert 0.005 < a.std < 0.02

    def test_rejection_counting(self):
        batches = {"b": RoundBatch(None, (0, 1), {"01": 1})}
        res = poisson_mc(batches, self.stat, n_samples=200, seed=0)
        # resampling a single count to zero empties the batch ~1/e of the time
        assert res.n_rejected > 0
        assert res.n_rejected + 200 - res.n_rejected == res.n_samples

    def test_all_rejected(self):
        batches = {"b": RoundBatch(None, (0, 1), {})}
        with pytest.raises(ValueError):
            poisson_mc(batches, self.stat, n_samples=5, seed=0)

    def test_undefined_point_statistic(self):
        batches = {"b": RoundBatch(None, (0, 1), {"00": 5})}

        def undefined(bs):
            raise ValueError("pairwise rate vanished in resample")

        with pytest.raises(ValueError,
                           match="^statistic is undefined at the observed counts$"):
            poisson_mc(batches, undefined, n_samples=5, seed=0)

    def test_rejects_fractional_counts(self):
        batches = {"b": RoundBatch(None, (0, 1), {"00": 2.5, "01": 1})}
        with pytest.raises(ValueError, match="^Poisson resampling needs integer counts$"):
            poisson_mc(batches, self.stat, n_samples=5, seed=0)

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            poisson_mc({}, lambda b: 0.0, n_samples=0, seed=0)


class TestCalibration:
    def test_symmetric_depolarizing_recovers_lambda(self):
        plan = networks.bell_bridge_plan()
        res = calibrate_to_targets({"bell": plan}, {"bell": (0.05, 0.05)},
                                   noisy_vertices=(1,),
                                   channels=("depolarizing",))
        assert res.converged
        # Bell-pair QBER q corresponds to depolarizing strength 2q
        assert res.model.depolarizing[1] == pytest.approx(0.1, abs=1e-4)

    def test_asymmetric_targets_single_plan(self):
        plan = networks.bell_bridge_plan()
        for tq, tx in ((0.02, 0.04), (0.06, 0.03)):
            res = calibrate_to_targets({"bell": plan}, {"bell": (tq, tx)})
            assert res.converged and res.residual < 1e-6

    def test_joint_targets_from_forward_model(self):
        # targets produced by a hidden model must be recovered exactly
        plans = {"nqkd": networks.ghz_plan(), "bell": networks.bell_bridge_plan()}
        truth = NoiseModel(depolarizing={0: 0.03, 3: 0.05},
                           dephasing={1: 0.02}, bit_flip={4: 0.01})
        vec = to_dense(networks.six_vertex_network_state())
        rho_truth = apply_noise(vec, range(6), truth).matrix
        targets = {}
        for name, plan in plans.items():
            est = analytic_estimates(plan, rho_truth)
            targets[name] = (est.qber, est.qx)
        res = calibrate_to_targets(plans, targets)
        assert res.converged and res.residual < 1e-6
        rho = apply_noise(vec, range(6), res.model).matrix
        for name, (tq, tx) in targets.items():
            est = analytic_estimates(plans[name], rho)
            assert est.qber == pytest.approx(tq, abs=1e-6)
            assert est.qx == pytest.approx(tx, abs=1e-6)

    def test_conflicting_targets_on_one_observable(self):
        # the GHZ Q_X and the bridge pair's Q_X are both (1 - <XYXXXY>)/2
        plans = {"nqkd": networks.ghz_plan(), "bell1": networks.bell_bridge_plan()}
        with pytest.raises(ValueError, match="Q_X of 'bell1' and Q_X of 'nqkd'"):
            calibrate_to_targets(plans, {"nqkd": (0.03, 0.03),
                                         "bell1": (0.10, 0.10)})

    def test_optimizer_imported_only_to_calibrate(self):
        code = (
            "import sys\n"
            "import graphqcka.cli\n"
            "assert 'scipy.optimize' not in sys.modules, 'loaded by graphqcka.cli'\n"
            "from graphqcka import networks\n"
            "from graphqcka.noise import calibrate_to_targets\n"
            "res = calibrate_to_targets({'bell': networks.bell_bridge_plan()},\n"
            "                           {'bell': (0.05, 0.05)}, noisy_vertices=(1,),\n"
            "                           channels=('depolarizing',))\n"
            "assert res.converged\n")
        proc = run_fresh_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_exact_solve_leaves_optimizer_unloaded(self):
        code = (
            "import sys\n"
            "from graphqcka import networks\n"
            "from graphqcka.noise import calibrate_to_targets\n"
            "res = calibrate_to_targets(\n"
            "    {'nqkd': networks.ghz_plan(), 'bell1': networks.bell_bridge_plan()},\n"
            "    {'nqkd': (0.03, 0.05), 'bell1': (0.05, 0.05)}, noisy_vertices=(0,),\n"
            "    channels=('depolarizing', 'dephasing'))\n"
            "assert res.converged\n"
            "assert 'scipy.optimize' not in sys.modules, 'loaded by the calibration'\n")
        proc = run_fresh_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_refines_with_least_squares_when_the_exact_solve_misses(self, monkeypatch):
        # a pair error of 1/2 on a correlator the plan has needs a factor of
        # 0, which no finite log-space parameter gives: bit flip 1/2 on vertex 4
        calls = spy_least_squares(monkeypatch)
        res = calibrate_to_targets({"bell": networks.bell_bridge_plan()},
                                   {"bell": (0.5, 0.0)}, noisy_vertices=(4,),
                                   channels=("bit_flip",))
        assert calls == [1]
        assert res.converged and res.residual < 1e-6
        assert res.model.bit_flip[4] == pytest.approx(0.5, abs=1e-6)

    def test_unconstrained_parameters_are_zero_and_deterministic(self):
        plans = {"nqkd": networks.ghz_plan(), "bell1": networks.bell_bridge_plan()}
        targets = {"nqkd": (0.03, 0.05), "bell1": (0.05, 0.05)}
        res = calibrate_to_targets(plans, targets)
        assert res.converged
        assert calibrate_to_targets(plans, targets) == res
        unconstrained = 0
        for channel in CHANNELS:
            for v in range(6):
                moved = replace(res.model, **{channel: {**getattr(res.model, channel),
                                                        v: 0.3}})
                if all(analytic_estimates(p, moved) == analytic_estimates(p, res.model)
                       for p in plans.values()):
                    # no pair error and no Q_X of any plan depends on it
                    assert getattr(res.model, channel)[v] == 0.0
                    unconstrained += 1
        assert unconstrained > 0

    def test_random_truths_are_recovered(self, monkeypatch):
        """A fit of all 18 parameters to the GHZ and bridge-pair (QBER, Q_X)
        of each hidden model meets them through the dense oracle."""
        plans = {"nqkd": networks.ghz_plan(), "bell": networks.bell_bridge_plan()}
        vec = to_dense(networks.six_vertex_network_state())
        calls = spy_least_squares(monkeypatch)
        exact_met = least_squares_met = 0
        for seed, truth in enumerate(hidden_truths(sparse=False)):
            targets = target_pairs(plans, truth)
            refined = len(calls)
            res = calibrate_to_targets(plans, targets)
            assert res.converged and res.residual < 1e-6, seed
            exact_met += len(calls) == refined
            rho = apply_noise(vec, range(6), res.model).matrix
            for name, (tq, tx) in targets.items():
                est = analytic_estimates(plans[name], rho)
                assert est.qber == pytest.approx(tq, abs=1e-6), seed
                assert est.qx == pytest.approx(tx, abs=1e-6), seed
            # least_squares alone, from every parameter at 0.01
            with monkeypatch.context() as m:
                m.setattr(noise, "_log_system", lambda *args: None)
                least_squares_met += calibrate_to_targets(plans, targets).converged
        assert exact_met >= least_squares_met

    def test_exact_solve_meets_sparse_truths(self, monkeypatch):
        """Models with few channels leave some Alices' worst pairs short of
        the target, which the exact solve must pin as well."""
        plans = {"nqkd": networks.ghz_plan(), "bell": networks.bell_bridge_plan()}
        calls = spy_least_squares(monkeypatch)
        for seed, truth in enumerate(hidden_truths(sparse=True)):
            res = calibrate_to_targets(plans, target_pairs(plans, truth))
            assert res.converged and res.residual < 1e-12 and not calls, seed

    def test_rejects_noisy_vertex_outside_network(self):
        with pytest.raises(ValueError, match=r"noise on vertices \[9\]"):
            calibrate_to_targets({"bell": networks.bell_bridge_plan()},
                                 {"bell": (0.05, 0.05)}, noisy_vertices=(1, 9),
                                 channels=("depolarizing",))

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_to_targets({}, {"x": (0.1, 0.1)})
        with pytest.raises(ValueError):
            calibrate_to_targets({"a": networks.ghz_plan()}, {"a": (0.1, 0.1)},
                                 channels=("amplitude_damping",))
