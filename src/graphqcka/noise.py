"""Noise channels, pump-power trade-off sweeps, and statistical uncertainty.

The channel zoo is deliberately small: per-qubit depolarizing, dephasing
and bit flip, global white noise, and a photonic-pump model in which higher
pump power raises the raw generation rate (~p^3 for a three-photon-pair
scheme) while also raising multi-pair contamination, modelled as
white-noise admixture w(p) = kappa*p / (1 + kappa*p).

Every channel is a Pauli channel, so it only scales Pauli expectations:
the per-qubit channels scale <P> on qubit v by NoiseModel.pauli_factors,
and white noise scales every non-identity string by 1 - w.  On the
stabilizer network state each corrected parity is one such correlator
(keyrates.CorrelatorTable), which is how pump_sweep and
calibrate_to_targets evaluate a model: exactly, and without a density
matrix.  In log space each correlator is linear in the per-qubit
parameters, so calibrate_to_targets solves its targets exactly as
nonnegative least-squares systems (Lawson and Hanson, 1974), with a
parameter pinned at its bound for each target of 1/2.  apply_noise builds the
noisy 4^n density matrix (a DensityOperator) for callers that hand keyrates
an explicit state; it applies the same per-qubit factors to the matrix's
2x2 blocks, in place on its own copy, in float64 for a state whose
imaginary part is zero.  DensityOperator tests positivity with a Cholesky
factorization of the matrix shifted by the eigenvalue floor, real for a
real matrix, and computes eigenvalues only when the factorization fails.

The Poisson Monte Carlo draws every resample at once into an integer count
matrix, observed counts in row 0 (poisson_count_rows); a statistic gives one
value per row, NaN where it is undefined, and monte_carlo_results reads the
results off those values.  analysis.build_report evaluates its row
statistics on the matrix of its batches pooled by their generator masks,
one draw per pooled class; poisson_mc evaluates one Python statistic
of RoundBatches row by row and draws every outcome on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Mapping, Sequence

import numpy as np

from .graphstate import SizeCapError
from .keyrates import (CorrelatorTable, CountRows, RoundBatch, _pair_masks, akr_n_rows,
                       analytic_estimates, correlator_tables, table_estimate_rows)
from .routing import ExtractionPlan

DENSITY_CAP = 8

_EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class DensityOperator:
    """Validated float64 or complex128 density matrix over vertex labels; a
    float64 one takes a real Cholesky and the Hermitian check on its reals."""

    matrix: np.ndarray
    vertices: tuple[int, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n > DENSITY_CAP:
            raise SizeCapError(f"density operations capped at {DENSITY_CAP} qubits")
        dim = 1 << n
        m = self.matrix
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match {n} qubits")
        if not _hermitian(m):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-9:
            raise ValueError("density matrix must have unit trace")
        # m - _EIG_FLOOR * I has a Cholesky factor when lambda_min >
        # _EIG_FLOOR, and it costs about a third of the eigenvalues; those
        # decide, and name lambda_min, only when the factorization fails
        shifted = m + 0.0
        shifted.flat[::dim + 1] -= _EIG_FLOOR
        try:
            np.linalg.cholesky(shifted)
            return
        except np.linalg.LinAlgError:
            pass
        least = np.linalg.eigvalsh(m).min()
        if least < _EIG_FLOOR:
            raise ValueError(f"density matrix not positive semidefinite "
                             f"(min eigenvalue {least:.3e})")

    @property
    def n(self) -> int:
        return len(self.vertices)


def _hermitian(m: np.ndarray) -> bool:
    """np.allclose(m, m^H, atol=1e-9), which holds at once when no real or
    imaginary part of m - m^H exceeds 5e-10: those comparisons on the real
    parts (the imaginary one only for a complex m) cost a quarter of
    allclose, which decides the rest."""
    re = m.real
    if np.abs(re - re.T).max() <= 5e-10 and (
            not np.iscomplexobj(m) or np.abs(m.imag + m.imag.T).max() <= 5e-10):
        return True
    return np.allclose(m, m.conj().T, atol=1e-9)


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit and global noise parameters, keyed by vertex label.

    depolarizing[v] = lambda replaces qubit v by the maximally mixed state
    with probability lambda; dephasing[v] / bit_flip[v] apply Z / X with the
    given probability; white_noise mixes the full state with the identity.  The pump model maps
    power p (mW) to a raw rate rate_coefficient * p**3 and a white-noise
    weight kappa*p / (1 + kappa*p).
    """

    depolarizing: Mapping[int, float] = field(default_factory=dict)
    dephasing: Mapping[int, float] = field(default_factory=dict)
    bit_flip: Mapping[int, float] = field(default_factory=dict)
    white_noise: float = 0.0
    pump_rate_coefficient: float = 1.41e-8
    pump_contamination_coefficient: float = 4.0e-3

    def __post_init__(self):
        for name, params in (("depolarizing", self.depolarizing),
                             ("dephasing", self.dephasing),
                             ("bit_flip", self.bit_flip)):
            for v, val in params.items():
                if not 0.0 <= val <= 1.0:
                    raise ValueError(f"{name}[{v}] = {val} outside [0, 1]")
        if not 0.0 <= self.white_noise <= 1.0:
            raise ValueError("white_noise must be in [0, 1]")
        if not (0.0 <= self.pump_rate_coefficient < np.inf
                and 0.0 <= self.pump_contamination_coefficient < np.inf):
            raise ValueError("pump coefficients must be finite and nonnegative")

    def keyed_vertices(self) -> set[int]:
        """Vertices that a per-qubit channel names."""
        return {v for params in (self.depolarizing, self.dephasing, self.bit_flip)
                for v in params}

    def check_vertices(self, vertices: Sequence[int]) -> None:
        """Raise ValueError if a per-qubit channel names a vertex not in vertices."""
        stray = sorted(self.keyed_vertices() - set(vertices))
        if stray:
            raise ValueError(f"noise on vertices {stray} that the state does not have")

    def pauli_factors(self, vertices: Sequence[int]) -> np.ndarray:
        """Factor by which the per-qubit channels scale <P> on each qubit.

        Row i is vertex vertices[i], columns are I, X, Y, Z:
        f_v(P) = (1 - lambda_v) * (1 - 2 p_v if P in {X, Y}) * (1 - 2 q_v if
        P in {Y, Z}) for depolarizing lambda, dephasing p and bit flip q.
        """
        self.check_vertices(vertices)
        lam, p, q = (np.array([_param(params, v) for v in vertices])
                     for params in (self.depolarizing, self.dephasing, self.bit_flip))
        keep, dephase, flip = 1.0 - lam, 1.0 - 2.0 * p, 1.0 - 2.0 * q
        return np.stack((np.ones_like(keep), keep * dephase, keep * dephase * flip,
                         keep * flip), axis=1)

    def white_noise_at_power(self, power_mw: float) -> float:
        kp = self.pump_contamination_coefficient * power_mw
        return kp / (1.0 + kp)

    def raw_rate_at_power(self, power_mw: float) -> float:
        return self.pump_rate_coefficient * power_mw ** 3


def apply_noise(state: np.ndarray, vertices: Sequence[int],
                model: NoiseModel) -> DensityOperator:
    """Push a pure state (or density matrix) through the model's channels.

    The per-qubit channels scale each Pauli expectation on qubit v by the
    factors that the correlator tables use (NoiseModel.pauli_factors).  On
    the 2x2 blocks [[A, B], [C, D]] of the matrix on one qubit that is
    A, D <- (A + D)/2 +- f_Z (A - D)/2 and B, C <- f_X (B + C)/2 +- f_Y (B - C)/2,
    written back in place into a copy of the state; the caller's array is
    never written.  Global white noise then mixes in the identity.  A state
    with a zero imaginary part gives a float64 matrix, the real part of the
    complex result bit for bit; any other gives complex128.  Raises
    ValueError if the state is not (2^n,) or (2^n, 2^n) for the n vertices,
    or if the model puts noise on a vertex not in vertices.
    """
    vertices = tuple(vertices)
    n = len(vertices)
    if n > DENSITY_CAP:
        raise SizeCapError(f"density operations capped at {DENSITY_CAP} qubits")
    dim = 1 << n
    if state.shape not in ((dim,), (dim, dim)):
        raise ValueError(f"state has shape {state.shape}; {n} vertices need "
                         f"({dim},) or ({dim}, {dim})")
    factors = model.pauli_factors(vertices)
    real = not (np.iscomplexobj(state) and state.imag.any())
    state, dtype = (state.real, float) if real else (state, complex)
    if state.ndim == 1:
        rho = np.outer(state, state.conj()).astype(dtype, copy=False)
    else:
        rho = np.array(state, dtype=dtype, order="C")
    # two block-sized buffers for (P + Q) and (P - Q), reused on every qubit
    buffers = np.empty((2, dim * dim // 4), dtype=dtype)
    for i, (_, f_x, f_y, f_z) in enumerate(factors):
        if f_x == f_y == f_z == 1.0:
            continue
        # a view of rho with qubit i as axes 1 (row) and 4 (column)
        blocks = rho.reshape(1 << i, 2, 1 << (n - 1 - i), 1 << i, 2, 1 << (n - 1 - i))
        a, b = blocks[:, 0, :, :, 0], blocks[:, 0, :, :, 1]
        c, d = blocks[:, 1, :, :, 0], blocks[:, 1, :, :, 1]
        plus, minus = (buffer.reshape(a.shape) for buffer in buffers)
        for p, q, f_plus, f_minus in ((a, d, 1.0, f_z), (b, c, f_x, f_y)):
            np.add(p, q, out=plus)
            np.subtract(p, q, out=minus)
            for part, f in ((plus, f_plus), (minus, f_minus)):
                if f != 1.0:
                    part *= f
                part /= 2
            np.add(plus, minus, out=p)
            np.subtract(plus, minus, out=q)
    if model.white_noise:
        rho *= 1.0 - model.white_noise
        rho.flat[::dim + 1] += model.white_noise / dim
    return DensityOperator(rho, vertices)


def _param(params: Mapping[int, float], v: int) -> float:
    return float(params.get(v, 0.0))


# ---------------------------------------------------------------------------
# pump-power sweep


@dataclass
class PumpSweepResult:
    powers: np.ndarray
    raw_rates: np.ndarray
    white_noise: np.ndarray
    akr: np.ndarray
    key_rates: np.ndarray
    optimum_power: float
    optimum_rate: float


def pump_sweep(plan: ExtractionPlan, model: NoiseModel,
               powers: Sequence[float]) -> PumpSweepResult:
    """Secret-bits-per-second versus pump power for one extraction plan.

    The raw generation rate grows as p^3 while the white-noise weight w(p)
    degrades the AKR monotonically, so the product has an interior optimum.
    The plan's two correlator tables (built once per plan instance) take
    each correlator's per-qubit factor product once, and each power only
    rescales the non-identity correlators by 1 - w(p), so no density matrix
    is built.  Raises ValueError if the model puts noise on a vertex the
    plan's network lacks, or if its raw rate or white-noise weight
    overflows float64 at a power.
    """
    powers = np.asarray(list(powers), dtype=float)
    if powers.size < 3:
        raise ValueError("sweep needs at least three power samples")
    with np.errstate(over="ignore", invalid="ignore"):
        raw, wn = model.raw_rate_at_power(powers), model.white_noise_at_power(powers)
    if not (np.isfinite(raw).all() and np.isfinite(wn).all()):
        raise ValueError(f"the pump model overflows float64 at {powers.max():g} mW")
    akrs = akr_n_rows(*table_estimate_rows(correlator_tables(plan), model, wn))
    keyrates = raw * np.maximum(akrs, 0.0)
    best = int(np.argmax(keyrates))
    return PumpSweepResult(powers, raw, wn, akrs, keyrates,
                           float(powers[best]), float(keyrates[best]))


# ---------------------------------------------------------------------------
# Poisson Monte Carlo


@dataclass
class MonteCarloResult:
    point_estimate: float
    mean: float
    std: float
    n_samples: int
    n_rejected: int
    seed: int


def poisson_mc(batches: Mapping[str, RoundBatch],
               statistic: Callable[[Mapping[str, RoundBatch]], float],
               n_samples: int, seed: int) -> MonteCarloResult:
    """Uncertainty of one counts statistic under independent Poisson resampling.

    Every count is replaced by a Poisson draw with its observed value as the
    mean, all drawn at once by poisson_count_rows, so the result is fully
    deterministic in the seed.  Each outcome is drawn on its own: the
    statistic may read any function of the counts, so no outcomes can be
    pooled as build_report pools them.  statistic is a Python function of
    RoundBatches, evaluated row by row: on the observed batches for row 0,
    and on a RoundBatch per batch built from each resampled row.  It is
    undefined (NaN) where it raises ValueError or ZeroDivisionError, and
    monte_carlo_results reads the result off those values.  Raises
    ValueError when a count is not an integer, when the statistic is
    undefined at the observed counts, or when it is defined on no resample.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rows = poisson_count_rows(batches, n_samples, seed)
    values = []
    for r in range(n_samples + 1):
        resampled = batches if r == 0 else {
            name: RoundBatch(batches[name].setting, c.participants,
                             dict(zip(c.outcomes, c.counts[r].tolist())))
            for name, c in rows.items()}
        try:
            values.append(statistic(resampled))
        except (ValueError, ZeroDivisionError):
            values.append(math.nan)
    return monte_carlo_results({"statistic": np.array(values, dtype=float)},
                               n_samples, seed)["statistic"]


def poisson_count_rows(batches: Mapping[str, RoundBatch], n_samples: int, seed: int,
                       subsets: Mapping[str, Sequence[int]] | None = None,
                       ) -> dict[str, CountRows]:
    """The observed counts and n_samples Poisson resamples of them, per batch.

    One integer matrix, row 0 the observed counts and rows 1..n_samples the
    Poisson draws, one per column, split by columns into a keyrates.CountRows
    per batch over its sorted outcomes, read at subsets[name] (the
    estimator masks without subsets).  Row 0 holds the counts as given;
    only the Poisson means pass through float64.  With n_samples = 0 it is
    row 0 alone, drawn from no rng, and the counts need not be integers.
    The draws are per outcome of the batches given: build_report passes
    batches pooled by their generator masks (RoundBatch.pooled) and read at
    the masks it reads, so each of its columns is a pooled class.
    """
    layout = [(name, sorted(batches[name].counts)) for name in sorted(batches)]
    observed = np.array([batches[name].counts[k] for name, outcomes in layout
                         for k in outcomes])
    if n_samples:
        lam = observed.astype(float)
        if observed.dtype.kind != "i":
            observed = lam.astype(np.int64)
            if not np.array_equal(observed, lam):
                raise ValueError("Poisson resampling needs integer counts")
        draws = np.random.default_rng(seed).poisson(lam, size=(n_samples, lam.size))
        matrix = np.vstack([observed, draws])
    else:
        matrix = observed.reshape(1, -1)
    rows, start = {}, 0
    for name, outcomes in layout:
        rows[name] = CountRows(batches[name].participants, tuple(outcomes),
                               matrix[:, start:start + len(outcomes)],
                               None if subsets is None else subsets[name])
        start += len(outcomes)
    return rows


def monte_carlo_results(values: Mapping[str, np.ndarray], n_samples: int,
                        seed: int) -> dict[str, MonteCarloResult]:
    """Monte Carlo results from each statistic's values on every count row.

    The results are the names defined on row 0, which gives the point value;
    a name's NaN resamples are its n_rejected, and its mean and std are
    taken over the rest.  Raises ValueError when no statistic is defined at
    the observed counts, or when one is defined on no resample.
    """
    out = {}
    for name, row_values in values.items():
        if math.isnan(row_values[0]):
            continue
        resampled = row_values[1:]
        defined = resampled[~np.isnan(resampled)]
        if not defined.size:
            raise ValueError("all Monte Carlo samples were rejected")
        out[name] = MonteCarloResult(
            point_estimate=float(row_values[0]), mean=float(defined.mean()),
            std=float(defined.std(ddof=1)) if defined.size > 1 else 0.0,
            n_samples=n_samples, n_rejected=n_samples - defined.size, seed=seed)
    if not out:
        raise ValueError("statistic is undefined at the observed counts")
    return out


# ---------------------------------------------------------------------------
# calibration


@dataclass
class CalibrationResult:
    model: NoiseModel
    residual: float
    converged: bool


def calibrate_to_targets(plans: Mapping[str, ExtractionPlan],
                         targets: Mapping[str, tuple[float, float]],
                         noisy_vertices: Sequence[int] | None = None,
                         channels: Sequence[str] = ("depolarizing", "dephasing",
                                                    "bit_flip"),
                         ) -> CalibrationResult:
    """Fit per-qubit channels so each plan's analytic errors match target
    (QBER, Q_X) pairs.

    All plans must share one network graph; the fitted channels act on that
    network state, so every extracted resource inherits correlated noise.
    noisy_vertices restricts which qubits carry free parameters (default:
    all network vertices); channels restricts which of the depolarizing,
    dephasing and bit_flip families are fitted (default: all three).
    noisy_vertices outside the network raise ValueError.

    The fit is solved exactly in log space.  With u = -log(1 - c theta) per
    parameter (c = 1 for depolarizing, 2 for dephasing and bit flip), every
    correlator of the plans' tables is weight * exp(-E.u) for a 0/1 row E,
    so a Q_X target is one linear equation and a QBER target, a min-max over
    pairs, is one equation per pair that an active-set loop pins for each
    choice of Alice.  Each linear system goes to a nonnegative least-squares
    solve (Lawson and Hanson, "Solving Least Squares Problems", 1974,
    ch. 23).  A target of 1/2 on a correlator the plan has needs u = inf, so
    one of its parameters is pinned at its bound 1/c (_log_systems): every
    fitted parameter lies in [0, 1/c].  The first solution that meets every
    target to 1e-12 is returned; parameters that no target constrains come
    back as exactly 0.0, and the result is deterministic.

    Targets that ask different values of one observable cannot all be met:
    before fitting, estimators that agree at a seeded random parameter point
    count as one observable, and a ValueError names the targets that
    conflict.  Targets with no exact solution otherwise (a target above 1/2,
    or one that no pin set reaches) give converged=False, with the candidate
    nearest the targets, or the noiseless fit when there is none.  The
    residual is the norm of the target misses of the returned model.
    """
    if set(targets) - set(plans):
        raise ValueError("every target needs a matching plan")
    ref = next(iter(plans.values()))
    for p in plans.values():
        if p.graph != ref.graph or p.preparation_frame != ref.preparation_frame:
            raise ValueError("all plans must share one network state")
    noisy_vertices = tuple(ref.graph.vertices if noisy_vertices is None
                           else noisy_vertices)

    bad = set(channels) - set(_LOG_FORM)
    if bad or not channels:
        raise ValueError(f"unknown channels {sorted(bad)}")

    def build(params: np.ndarray) -> NoiseModel:
        per_channel = np.reshape(params, (len(channels), -1)).tolist()
        return NoiseModel(**{ch: dict(zip(noisy_vertices, values))
                             for ch, values in zip(channels, per_channel)})

    names = sorted(targets)
    wanted = np.array([t for name in names for t in targets[name]], dtype=float)
    tables = {name: correlator_tables(plans[name]) for name in names}

    def estimates(params: np.ndarray) -> np.ndarray:
        model = build(params)
        ests = [analytic_estimates(plans[name], model) for name in names]
        return np.array([value for est in ests for value in (est.qber, est.qx)])

    def residual(params: np.ndarray) -> float:
        return float(np.sqrt(np.sum((estimates(params) - wanted) ** 2)))

    n_params = len(channels) * len(noisy_vertices)
    _check_shared_observables(names, wanted, estimates, n_params)

    def exponents(table: CorrelatorTable) -> np.ndarray:
        """E[r, j] = 1 where parameter j's channel scales row r's letter."""
        letters = table.letters[:, [table.vertices.index(v) for v in noisy_vertices]]
        return np.hstack([_LOG_FORM[ch][1][letters] for ch in channels])

    scale = np.repeat([_LOG_FORM[ch][0] for ch in channels], len(noisy_vertices))
    best = None
    for pins, system in _log_systems(tables, names, targets, exponents):
        for u in _exact_solutions(*system, n_params):
            u[pins] = np.inf
            params = -np.expm1(-u) / scale
            resid = residual(params)
            if resid < _EXACT_TOL:
                return CalibrationResult(build(params), resid, True)
            if best is None or resid < best[0]:
                best = resid, params
    resid, params = best or (residual(np.zeros(n_params)), np.zeros(n_params))
    return CalibrationResult(build(params), resid, False)


# per channel: c in u = -log(1 - c theta), and over the letter codes
# I, X, Y, Z a 1 where the channel scales the letter's expectation by exp(-u)
_LOG_FORM = {"depolarizing": (1.0, np.array([0.0, 1.0, 1.0, 1.0])),
             "dephasing": (2.0, np.array([0.0, 1.0, 1.0, 0.0])),
             "bit_flip": (2.0, np.array([0.0, 0.0, 1.0, 1.0]))}
_EXACT_TOL = 1e-12
_PIN_TOL = 1e-13

_LogRows = tuple[np.ndarray, np.ndarray]


def _log_rows(table: CorrelatorTable, exponents: np.ndarray, subsets: Sequence[int],
              t: float, pins: list[int]) -> _LogRows | None:
    """(E, beta) with E.u = beta exactly when each subset's parity is 1 - 2t,
    E taken from the table's exponents; None if a subset's correlator is
    lacking (weight 0) or pinned (its parity is 0).  beta is +inf for t = 1/2,
    and not finite where there is no solution: t > 1/2 or a negative weight."""
    rows = np.searchsorted(table.subsets, subsets)
    if not table.weights[rows].all() or exponents[rows][:, pins].any():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.log(table.weights[rows] / (1.0 - 2.0 * t))
    return exponents[rows], beta


def _log_systems(tables, names, targets, exponents):
    """(pins, (Q_X rows, QBER rows)): the exact solve's linear form of the
    targets for each set of parameters pinned at u = inf that makes it finite.

    Per QBER target come the rows of the pairs of each Alice with a
    correlator on every pair: an Alice lacking one has a pair error of 1/2,
    so she is the minimizer only of a target of 1/2, which holds whatever
    the noise when every Alice lacks one; a Q_X target of 1/2 with no Q_X
    correlator is constant too.  A correlator with a pinned parameter counts
    as lacking.  A target of 1/2 on a correlator the plan has gives rows of
    beta = +inf, so the pins are drawn from their parameters, smallest set
    first and in parameter order, at most one per Q_X row or Alice of them.
    Pins only drop rows, so a target other than 1/2 whose Q_X row, or every
    complete Alice of whose QBER, has a beta that is not finite leaves no
    form, and no pin set is tried.
    """
    def form(pins: list[int]) -> tuple[list[_LogRows], list[list[_LogRows]]] | None:
        qx, qber = [], []
        for name in names:
            (type1, type2), (tq, tx) = tables[name], targets[name]
            n = len(type1.targets)
            row = _log_rows(type2, exponents(type2), [(1 << n) - 1], tx, pins)
            if tx != 0.5 and (row is None or not np.isfinite(row[1]).all()):
                return None
            if row is not None:
                qx.append(row)
            e1 = exponents(type1)
            alices = [_log_rows(type1, e1, [m for m in row if m], tq, pins)
                      for row in _pair_masks(n).tolist()]
            complete = [rows for rows in alices if rows is not None]
            if tq != 0.5 and not any(np.isfinite(beta).all() for _, beta in complete):
                return None
            if complete:
                qber.append(complete)
        return qx, qber

    free = form([])
    rows = [] if free is None else free[0] + sum(free[1], [])
    infinite = [e[np.isposinf(beta)].any(axis=0) for e, beta in rows if np.isposinf(beta).any()]
    params = np.flatnonzero(np.any(infinite, axis=0)).tolist()
    for size in range(len(infinite) + 1):
        for pins in map(list, combinations(params, size)):
            system = form(pins) if pins else free
            if system is not None and all(np.isfinite(beta).all()
                                          for _, beta in system[0] + sum(system[1], [])):
                yield pins, system


def _exact_solutions(qx: list[_LogRows], qber: list[list[_LogRows]], n_params: int):
    """Candidate u >= 0, one per choice of Alice for every QBER target.

    The Q_X rows are equalities.  Each round pins pairs of the QBER targets
    as equalities too and solves again, until a round adds none:
    - the chosen Alice's pairs that exceed beta, and if her worst pair falls
      short of beta with none pinned, her pair nearest beta;
    - once no chosen Alice adds one, the pair nearest beta of each other
      Alice whose worst pair falls short of beta with none pinned, because
      she would undercut the target.
    The caller checks whether a candidate meets the targets.
    """
    for picks in product(*(range(len(alices)) for alices in qber)):
        chosen, others = [], []
        for alices, pick in zip(qber, picks):
            for k, (e, beta) in enumerate(alices):
                pin = np.zeros(len(beta), dtype=bool)
                (chosen if k == pick else others).append((e, beta, pin))
        while True:
            eqs = qx + [(e[pin], beta[pin]) for e, beta, pin in chosen + others]
            u = _nnls(np.vstack([np.zeros((0, n_params))] + [e for e, _ in eqs]),
                      np.concatenate([np.zeros(0)] + [beta for _, beta in eqs]))
            if not (_pin(chosen, u, above=True) or _pin(others, u, above=False)):
                break
        yield u


def _pin(alices: list, u: np.ndarray, above: bool) -> bool:
    """Pin, for each Alice (E, beta, pinned), her pairs above beta if above
    is set, and her pair nearest beta if her worst pair falls short of beta
    and none is pinned; True if any pair was pinned."""
    grew = False
    for e, beta, pin in alices:
        gap = e @ u - beta
        new = (gap > _PIN_TOL) & ~pin if above else np.zeros_like(pin)
        if gap.max() < -_PIN_TOL and not pin.any():
            new[np.argmax(gap)] = True
        pin |= new
        grew |= bool(new.any())
    return grew


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min |a x - b| over x >= 0, by the Lawson-Hanson active-set method.

    A column enters the passive set only while the residual's gradient along
    it is positive, so a zero column stays at exactly 0.
    """
    n = a.shape[1]
    x, passive = np.zeros(n), np.zeros(n, dtype=bool)
    tol = 10 * np.finfo(float).eps * max(a.shape) * max(
        1.0, np.abs(a).sum(axis=0).max(initial=0.0))
    for _ in range(3 * n):
        w = np.where(passive, -np.inf, a.T @ (b - a @ x))
        if passive.all() or w.max() <= tol:
            break
        passive[np.argmax(w)] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            neg = passive & (s <= 0.0)
            if not neg.any():
                break
            # step from x toward s until the first passive entry reaches 0
            x_neg = x[neg]
            alpha = np.min(x_neg / np.where(x_neg > 0.0, x_neg - s[neg], 1.0))
            x = x + alpha * (s - x)
            passive &= x > tol
            x[~passive] = 0.0
        x = s
    return x


_SAME_OBSERVABLE_TOL = 1e-9


def _check_shared_observables(names: Sequence[str], wanted: np.ndarray,
                              estimates: Callable[[np.ndarray], np.ndarray],
                              n_params: int) -> None:
    """Raise if two targets ask different values of one observable.

    Estimators that agree at a seeded random parameter point are taken to be
    the same function of the noise parameters: distinct observables coincide
    there only by accident.  Costs one evaluation of the estimators.
    """
    at = estimates(np.random.default_rng(0).uniform(0.01, 0.1, n_params))
    labels = [f"{quantity} of {name!r}" for name in names for quantity in ("QBER", "Q_X")]
    for i, j in combinations(range(len(labels)), 2):
        if (abs(at[i] - at[j]) < _SAME_OBSERVABLE_TOL
                and abs(wanted[i] - wanted[j]) > _SAME_OBSERVABLE_TOL):
            raise ValueError(
                f"infeasible targets: {labels[i]} and {labels[j]} are the same "
                f"observable, but the targets ask {wanted[i]:g} and {wanted[j]:g}")
