"""Conference key agreement protocols and asymptotic key rates.

Implements the N-partite BB84-style protocol (type-1 all-Z key rounds,
type-2 all-X parameter rounds) and the pairwise alternative where N-1 Bell
keys are XOR-combined into a conference key, together with the error
estimators and asymptotic rate formulas for both.

Two readers of one gather, _pair_error_rows and _qx_rows, read every
error rate off rows of subset parities at the masks a caller names, from
counts (CountRows.parity_rows; the scalar estimators on a RoundBatch are
their one-row views), correlator tables or explicit states.
binary_entropy, akr_n, akr_2 and pairwise_conference_rate are one-element
views of _entropy_rows, akr_n_rows and pairwise_conference_rate_rows.

Exact states go through the plan's parity strings: the parity of each
participant subset of the corrected bits is the expectation of one Pauli
string, from routing.subset_strings as in routing.verify_plan.  Each of
two readers keeps one CorrelatorTable (setting, strings, signs and ideal
parities) per plan instance and round type, built on first use with only
the subsets it reads: the outcome distribution reads all 2^N, the
estimators the empty set, the pairs and the full set.  Under a noise
model the table evaluates the strings in closed form, with no dense
state; an explicit amplitude vector or density matrix is read by one real
sum per string, its masks taken from the table's letters, in float64 when
its imaginary part is zero.  A Walsh-Hadamard transform of the
distribution reader's parities gives the outcome distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .routing import ExtractionPlan, RoundSetting, subset_parities, subset_strings


@dataclass
class RoundBatch:
    """Counts over corrected participant outcome strings for one setting."""

    setting: RoundSetting
    participants: tuple[int, ...]
    counts: dict[str, int]

    def __post_init__(self):
        n = len(self.participants)
        for s, c in self.counts.items():
            if len(s) != n:
                raise ValueError(f"outcome {s!r} does not match participant count {n}")
            if s.strip("01"):
                raise ValueError(f"outcome {s!r} is not a string of 0/1 bits")
            if c < 0:
                raise ValueError("counts must be nonnegative")

    @property
    def total(self):
        return sum(self.counts.values())

    def rows(self) -> "CountRows":
        """The counts as one row over the sorted outcomes."""
        outcomes = tuple(sorted(self.counts))
        return CountRows(self.participants, outcomes,
                         np.array([[self.counts[k] for k in outcomes]]))

    def pooled(self, generators: Sequence[int]) -> "RoundBatch":
        """The batch with the outcomes of equal parity at every generator mask
        (routing.subset_parities) summed onto the least of them.

        The parity at any XOR of the generators, and so every statistic of
        such parities, is unchanged.  A sum of independent Poisson counts is
        a Poisson count with the summed mean, so resampling the pooled batch
        gives such a statistic its distribution with one draw per class.
        """
        outcomes = sorted(self.counts)
        parities = subset_parities([int(o, 2) for o in outcomes], generators,
                                   len(self.participants))
        # one bit per generator: a plan on at most 24 vertices has at most 23
        keys = parities @ (1 << np.arange(len(generators)))
        least: dict[int, str] = {}
        counts: dict[str, int] = {}
        for outcome, key in zip(outcomes, keys.tolist()):
            rep = least.setdefault(key, outcome)
            counts[rep] = counts.get(rep, 0) + self.counts[outcome]
        return RoundBatch(self.setting, self.participants, counts)


@dataclass(frozen=True)
class ErrorEstimates:
    pairwise_q: Mapping[tuple[int, int], float]
    qber: float
    qx: float
    alice_choice: int


@dataclass
class KeyRateReport:
    akr_n: float
    pairwise_rates: dict[str, float]
    akr_2: float
    ratio: float | None
    copies_per_bit: dict[str, int]
    qber: float
    qx: float
    alice_choice: int | None
    uncertainties: dict[str, float] = field(default_factory=dict)

    @property
    def secure_akr_n(self) -> float:
        return max(0.0, self.akr_n)

    @property
    def secure_akr_2(self) -> float:
        return max(0.0, self.akr_2)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0; raises
    ValueError for x outside [0, 1] or NaN."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument must be in [0, 1], got {x}")
    return _entropy_rows(np.asarray(x, dtype=float)).item()


def akr_n(qber: float, qx: float) -> float:
    """Asymptotic conference key rate of the multipartite protocol, akr_n_rows
    on one element; raises ValueError for an input outside [0, 1] or NaN."""
    if not (0.0 <= qber <= 1.0 and 0.0 <= qx <= 1.0):
        raise ValueError("qber and qx must be in [0, 1]")
    return akr_n_rows(qber, qx).item()


def akr_2(r_ab1: float, r_b2b3: float, r_ab2: float) -> float:
    """Conference rate of the pairwise protocol over the two-copy schedule:
    pairwise_conference_rate of the plans [[r_ab1, r_b2b3], [r_ab2]]."""
    return pairwise_conference_rate([[r_ab1, r_b2b3], [r_ab2]])


def pairwise_conference_rate(plan_rates: Sequence[Sequence[float]]) -> float:
    """General form of the two-copy schedule: one copy per plan and round,
    each plan limited by its slowest pairwise key; pairwise_conference_rate_rows
    on one row."""
    return pairwise_conference_rate_rows(
        [[[r] for r in rates] for rates in plan_rates]).item()


# ---------------------------------------------------------------------------
# the estimators on rows of counts, and their one-row views


def _estimator_masks(n: int) -> list[int]:
    """The empty set, the pairs and the full set of n participants, as sorted masks."""
    return sorted({(1 << n) - 1, *_pair_masks(n).ravel().tolist()})


def _pair_masks(n: int) -> np.ndarray:
    """masks[a, b], the mask of participants a and b of n (participant i at
    bit n-1-i), 0 where a == b."""
    bits = 1 << np.arange(n - 1, -1, -1)
    return bits[:, None] ^ bits


@dataclass(frozen=True)
class CountRows:
    """Rows of counts over one batch's sorted outcome strings.

    counts[r, k] counts outcomes[k] in row r.  parity_rows() reads them as
    subset parities over the sorted masks subsets (the estimator masks
    unless given; they hold the empty set), the rows that _pair_error_rows
    and _qx_rows take.  The +-1 matrix signs[k, s] = (-1)^|outcome k &
    subsets[s]| is one GF(2) product (routing.subset_parities), built once,
    when the rows are made.
    """

    participants: tuple[int, ...]
    outcomes: tuple[str, ...]
    counts: np.ndarray
    subsets: np.ndarray | None = field(default=None, repr=False, compare=False)
    signs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.participants)
        masks = np.array(_estimator_masks(n) if self.subsets is None else self.subsets,
                         dtype=np.int64)
        signs = subset_parities([int(o, 2) for o in self.outcomes], masks, n)
        signs *= -2
        signs += 1
        for name, value in (("subsets", masks), ("signs", signs)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def parity_rows(self) -> np.ndarray:
        """P[r, s], the sum over outcomes k of counts[r, k] (-1)^|outcome k &
        subsets[s]|: one integer matmul on integer counts, exact where
        float64 would lose bits past 2^53."""
        return self.counts @ self.signs


def _alice_min_max(errors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least worst pairwise error over Alice, and her index.  errors[a, b]
    >= 0 (zero for a == b, any trailing row axes); an Alice wins only below
    the best so far - 1e-15, so exact ties go to the first."""
    worst = errors.max(axis=1)
    best, choice = worst[0], np.zeros(worst.shape[1:], dtype=np.int64)
    for a in range(1, len(worst)):
        better = worst[a] < best - 1e-15
        best, choice = np.where(better, worst[a], best), np.where(better, a, choice)
    return best, choice


def _estimates(participants: Sequence[int], errors: np.ndarray, qx: float) -> ErrorEstimates:
    """ErrorEstimates from one matrix of pairwise errors, as _alice_min_max takes it."""
    qber, alice = _alice_min_max(errors)
    pairwise = {(a, b): float(errors[i, j]) for i, a in enumerate(participants)
                for j, b in enumerate(participants) if a != b}
    return ErrorEstimates(pairwise, float(qber), qx, participants[int(alice)])


def _parities_at(subsets: np.ndarray, parities: np.ndarray,
                 masks) -> tuple[np.ndarray, np.ndarray]:
    """P_0[r] and P_m[..., r] at each of masks (any shape) off rows r of
    parities of the sorted masks subsets; ValueError when the empty set or
    a mask is not among subsets, so no parity is read that was not counted."""
    at = np.searchsorted(subsets, masks)
    if subsets[0] != 0 or not np.array_equal(subsets[np.minimum(at, len(subsets) - 1)], masks):
        raise ValueError("parities are read at a subset that was not counted")
    columns = parities.T
    return columns[0], columns[at]


def _ratio(sums: np.ndarray, totals: np.ndarray) -> np.ndarray:
    return np.divide(sums, totals, out=np.full(sums.shape, np.nan), where=totals != 0)


def _pair_error_rows(subsets: np.ndarray, type1: np.ndarray, masks) -> np.ndarray:
    """The error (P_0 - P_m)/(2 P_0) of each pair mask m of masks on rows of
    type-1 parities, row axis last: zero at m = 0, NaN where P_0 = 0,
    clipped to [0, 1].  On integer counts it is odd/T for the total T and
    odd count, bit for bit, and the README digests pin those bytes."""
    p0, pm = _parities_at(subsets, type1, masks)
    return np.clip(_ratio(p0 - pm, 2 * p0), 0.0, 1.0)


def _qx_rows(subsets: np.ndarray, type2: np.ndarray, masks) -> np.ndarray:
    """Q_X = (1 - P_m/P_0)/2 of each mask m of masks on rows of type-2
    parities, row axis last: NaN where P_0 = 0, clipped to [0, 1].  On
    integer counts it is (1 - S/T)/2 for the signed sum S, bit for bit.  A
    table's P_0 is exactly 1.0, and analytic_estimates divides an explicit
    state's rows by their P_0, so there it is (1 - P/P_0)/2."""
    p0, pm = _parities_at(subsets, type2, masks)
    return np.clip((1.0 - _ratio(pm, p0)) / 2.0, 0.0, 1.0)


def count_error_rows(type1: CountRows, type2: CountRows, pairs,
                     qx_masks) -> tuple[np.ndarray, np.ndarray]:
    """_pair_error_rows at the masks pairs on rows of type-1 counts and
    _qx_rows at qx_masks on rows of type-2 counts of one participant tuple."""
    if type1.participants != type2.participants:
        raise ValueError("type-1 and type-2 counts list different participants")
    return (_pair_error_rows(type1.subsets, type1.parity_rows(), pairs),
            _qx_rows(type2.subsets, type2.parity_rows(), qx_masks))


def _one_batch(batch: RoundBatch) -> tuple[np.ndarray, float]:
    """Every pair error and the full set's Q_X of one batch, as both round
    types, on its one row; ValueError for an empty batch."""
    rows, n = batch.rows(), len(batch.participants)
    errors, qx = count_error_rows(rows, rows, _pair_masks(n), (1 << n) - 1)
    if np.isnan(qx).any():
        raise ValueError("empty batch")
    return errors[..., 0], float(qx[0])


def pairwise_error(batch: RoundBatch, i: int, j: int) -> float:
    """Empirical Pr(bit_i != bit_j) on one type-1 batch, the pair error of
    _pair_error_rows; equals (1-<ZZ>)/2."""
    if i == j:
        raise ValueError("pairwise error needs two distinct participants")
    errors = _one_batch(batch)[0]
    return float(errors[batch.participants.index(i), batch.participants.index(j)])


def estimate_qber(batch: RoundBatch) -> ErrorEstimates:
    """The least worst pair error over Alice on one type-1 batch, with every
    pair error.  qx is left at 0 here; use estimate_qx on the type-2 batch
    and combine via error_estimates."""
    if len(batch.participants) < 2:
        raise ValueError("need at least two participants")
    return _estimates(batch.participants, _one_batch(batch)[0], 0.0)


def estimate_qx(batch: RoundBatch) -> float:
    """Q_X = (1 - <X parity>)/2 of all participants on one type-2 batch."""
    return _one_batch(batch)[1]


def error_estimates(type1: RoundBatch, type2: RoundBatch) -> ErrorEstimates:
    return replace(estimate_qber(type1), qx=estimate_qx(type2))


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    """Binary entropy per element, NaN where x is; 0 and 1, whose logs are not
    taken, give exactly 0.  The logs are math.log2 through map: np.log2
    misses it by an ulp on some inputs, and the README digests pin the
    report bytes that these logs give."""
    ends = (x == 0.0) | (x == 1.0)
    inner = np.where(ends, 0.5, x)

    def log2(values: np.ndarray) -> np.ndarray:
        return np.fromiter(map(math.log2, values.ravel().tolist()), float,
                           values.size).reshape(values.shape)
    h = -inner * log2(inner) - (1.0 - inner) * log2(1.0 - inner)
    return np.where(ends, 0.0, h)


def akr_n_rows(qber: np.ndarray, qx: np.ndarray) -> np.ndarray:
    """1 - H(qber) - H(qx) per element, NaN where either input is; raises
    ValueError for an input outside [0, 1]."""
    qber, qx = np.asarray(qber, dtype=float), np.asarray(qx, dtype=float)
    if ((qber < 0.0) | (qber > 1.0) | (qx < 0.0) | (qx > 1.0)).any():
        raise ValueError("qber and qx must be in [0, 1]")
    return 1.0 - _entropy_rows(qber) - _entropy_rows(qx)


def pairwise_conference_rate_rows(plan_rates: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """1 / (sum over plans of the slowest key's 1 / rate) per row: 0 where a
    plan has no pair or a rate is not positive, NaN where any rate is.

    plan_rates[p][k] holds the rates of plan p's pair k on every row; the
    plans add up in plan order.  Raises ValueError for no plans.
    """
    if not len(plan_rates):
        raise ValueError("conference rate needs at least one plan")
    total, vanished, undefined = 0.0, False, False
    with np.errstate(divide="ignore"):
        for rates in plan_rates:
            if not len(rates):
                vanished = True
                continue
            rates = np.asarray(rates, dtype=float)
            undefined = undefined | np.isnan(rates).any(axis=0)
            vanished = vanished | (rates <= 0.0).any(axis=0)
            total = total + (1.0 / rates).max(axis=0)
        rate = np.where(vanished, 0.0, np.divide(1.0, total))
    return np.where(undefined, np.nan, rate)


def xor_combine(keys: Sequence[str], links: Sequence[tuple[int, int]],
                reference: int) -> dict[int, str]:
    """Reconstruct the conference key at every participant by XOR-chaining.

    keys[k] is the pairwise key shared over links[k].  The reference user's
    incident key is the conference key; every other user recovers it by
    XOR-ing announced masks along a path of links.
    """
    if len(keys) != len(links):
        raise ValueError("one key per link required")
    length = {len(k) for k in keys}
    if len(length) > 1:
        raise ValueError("pairwise keys must have equal length")
    by_user: dict[int, list[tuple[int, str]]] = {}
    for (a, b), k in zip(links, keys):
        by_user.setdefault(a, []).append((b, k))
        by_user.setdefault(b, []).append((a, k))
    if reference not in by_user:
        raise ValueError("reference user has no incident link")
    conference = by_user[reference][0][1]

    def xor(a: str, b: str) -> str:
        return "".join("1" if x != y else "0" for x, y in zip(a, b))

    # BFS from the reference: each user's known key is the conference key
    # XORed with the accumulated announced masks along the path.
    recovered = {reference: conference}
    frontier = [reference]
    while frontier:
        nxt = []
        for u in frontier:
            for v, k in by_user[u]:
                if v not in recovered:
                    # user v holds key k with u; u announces k XOR (its key)
                    mask = xor(k, recovered[u])
                    recovered[v] = xor(k, mask)
                    nxt.append(v)
        frontier = nxt
    missing = set(by_user) - set(recovered)
    if missing:
        raise ValueError(f"links do not span users {sorted(missing)}")
    return recovered


# ---------------------------------------------------------------------------
# outcome distributions and simulation


def _walsh(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis (length 2^m)."""
    out = np.array(values, dtype=float)
    h = 1
    while h < out.shape[-1]:
        pairs = out.reshape(*out.shape[:-1], -1, 2, h)
        low = pairs[..., 0, :].copy()
        pairs[..., 0, :] += pairs[..., 1, :]
        pairs[..., 1, :] = low - pairs[..., 1, :]
        h *= 2
    return out


@dataclass(frozen=True)
class CorrelatorTable:
    """What one reader reads off one plan for one round type: the round's
    setting and the Pauli strings of the participant subsets it asks for
    (routing.subset_strings), built once per plan instance, round type and
    reader (plan_round), with read-only arrays.

    Row t holds the string of one subset, in the reader's order: its subset
    mask (participant i at bit N-1-i), its letter codes per network vertex
    (0 = I, 1 = X, 2 = Y, 3 = Z), its sign, and its weight, the subset's
    corrected parity on the plan's ideal state (the sign times the string's
    ideal value, +-1 or 0).  Every channel of a noise model is a Pauli
    channel and the network is a stabilizer state, so under a model each
    parity is its weight scaled by the channels.
    """

    setting: RoundSetting
    targets: tuple[int, ...]
    vertices: tuple[int, ...]
    subsets: np.ndarray
    letters: np.ndarray
    signs: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, plan: ExtractionPlan, round_type: str,
              masks: Sequence[int]) -> CorrelatorTable:
        setting, letters, signs, weights = subset_strings(plan, round_type, masks)
        arrays = (np.array(masks), letters, signs, weights)
        for array in arrays:
            array.flags.writeable = False
        return cls(setting, plan.targets, plan.graph.vertices, *arrays)

    def parity_rows(self, model, white_noise: Sequence[float]) -> np.ndarray:
        """The parities of the table's subsets, one row per white-noise weight
        w, under a noise.NoiseModel (None is ideal) with its white noise
        replaced by w: each correlator is its weight times its letters'
        per-qubit factors (NoiseModel.pauli_factors), and times 1 - w unless
        it is I."""
        n_verts = len(self.vertices)
        factors = np.ones((n_verts, 4)) if model is None else model.pauli_factors(self.vertices)
        values = self.weights * np.prod(factors[np.arange(n_verts), self.letters], axis=1)
        keep = 1.0 - np.asarray(white_noise, dtype=float)
        return values * np.where(self.letters.any(axis=1), keep[:, None], 1.0)

    def parities(self, model=None) -> np.ndarray:
        """parity_rows under a noise.NoiseModel (None is ideal) and its white noise."""
        return self.parity_rows(model, [0.0 if model is None else model.white_noise])[0]


def plan_round(plan: ExtractionPlan, round_type: str,
               reader: str = "estimates") -> CorrelatorTable:
    """The plan's CorrelatorTable for the reader "distribution" (all 2^N subsets)
    or "estimates" (the empty set, the pairs, the full set), kept in round_cache."""
    cache, n = plan.round_cache, len(plan.targets)
    if (round_type, reader) not in cache:
        masks = range(1 << n) if reader == "distribution" else _estimator_masks(n)
        cache[round_type, reader] = CorrelatorTable.build(plan, round_type, masks)
    return cache[round_type, reader]


def correlator_tables(plan: ExtractionPlan) -> tuple[CorrelatorTable, CorrelatorTable]:
    """The plan's type-1 and type-2 estimator tables, built once per plan instance."""
    return plan_round(plan, "type-1"), plan_round(plan, "type-2")


def table_estimate_rows(tables: Sequence[CorrelatorTable], model,
                        white_noise: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """QBER and Q_X of a plan's (type-1, type-2) tables, one per white-noise weight
    that replaces the model's; each equals analytic_estimates under it bit for bit."""
    n = len(tables[0].targets)
    type1, type2 = (t.parity_rows(model, white_noise) for t in tables)
    return (_alice_min_max(_pair_error_rows(tables[0].subsets, type1, _pair_masks(n)))[0],
            _qx_rows(tables[1].subsets, type2, (1 << n) - 1))


def _state_parities(table: CorrelatorTable, state) -> np.ndarray:
    """The parities of the table's subsets on a state taken as by
    outcome_distribution.

    Vertex i is bit n-1-i of a basis index j, and a string with X/Y mask x
    and Y/Z mask z maps |j> to i^#Y (-1)^|j & z| |j ^ x>.  So <S> is i^#Y
    times the sum over j of (-1)^|j & z| rho[j, j ^ x], or on a vector of
    (-1)^|j & z| conj(psi[j ^ x]) psi[j]: one real sum per string, of the
    real parts for even #Y and the imaginary parts for odd #Y, times the
    string's sign and the real factor +-1 of i^#Y.  The masks and factors
    come from the table's letters on each read.  A state with a zero
    imaginary part is read as its real part (odd-#Y strings read 0).
    Blocks of strings keep the index gather near 2^16 entries.
    """
    if not isinstance(state, np.ndarray):
        return table.parities(state)
    n = len(table.vertices)
    dim = 1 << n
    if state.shape not in ((dim,), (dim, dim)):
        raise ValueError(f"explicit state has shape {state.shape}; the plan's {n} "
                         f"vertices need ({dim},) or ({dim}, {dim})")
    if np.iscomplexobj(state) and not state.imag.any():
        state = state.real
    codes, place = table.letters, 1 << np.arange(n - 1, -1, -1)
    x_masks, z_masks = ((codes == 1) | (codes == 2)) @ place, (codes >= 2) @ place
    n_y = (codes == 2).sum(axis=1)
    j = np.arange(dim)
    # sign[k] = (-1)^|k|, so a string's signs over j are sign[j & z]
    sign = 1.0 - 2.0 * subset_parities(j, [dim - 1], n)[:, 0]
    sums = np.zeros(len(table.subsets))
    block = max(1, (1 << 16) >> n)
    for odd in (False, True) if np.iscomplexobj(state) else (False,):
        rows = np.flatnonzero(n_y % 2 == odd)
        for start in range(0, len(rows), block):
            r = rows[start:start + block]
            flipped = j ^ x_masks[r, None]
            terms = state[j, flipped] if state.ndim == 2 else state[flipped].conj() * state
            z_sign = sign[j & z_masks[r, None]]
            sums[r] = ((terms.imag if odd else terms.real) * z_sign).sum(axis=1)
    return table.signs * np.array([1.0, -1.0, -1.0, 1.0])[n_y % 4] * sums


def outcome_distribution(plan: ExtractionPlan, round_type: str,
                         state=None) -> dict[str, float]:
    """Exact distribution of byproduct-corrected participant outcome strings.

    state is a noise.NoiseModel, None for the ideal network state, or an
    explicit amplitude vector (shape (2^n,)) or density matrix (shape
    (2^n, 2^n)) of the plan's n network vertices, any state at all.  A model
    or None goes through the plan's CorrelatorTable and builds no dense
    state.  An explicit state is read through the same subset parities: each
    subset's Pauli string is evaluated on it directly, with no rotation into
    the measurement bases; stored complex with a zero imaginary part it
    gives the bits of its real part.  Both read the plan's distribution
    table, whose subsets are 0..2^N-1 in order, and end in one
    Walsh-Hadamard transform, which inverts parity[a] = E[(-1)^(a . b)] over
    outcomes b; outcomes below 1e-15 are dropped and the rest renormalized.
    Raises ValueError for an explicit state of another shape.
    """
    parities = _state_parities(plan_round(plan, round_type, "distribution"), state)
    probs = _walsh(parities) / parities.size
    kept = np.flatnonzero(probs >= 1e-15)
    width = len(plan.targets)
    out = dict(zip([format(a, f"0{width}b") for a in kept.tolist()], probs[kept].tolist()))
    norm = sum(out.values())
    return {key: p / norm for key, p in out.items()}


def simulate_protocol(plan: ExtractionPlan, n_rounds: int, seed: int,
                      type2_fraction: float = 0.5, state=None,
                      ) -> tuple[RoundBatch, RoundBatch]:
    """Sample corrected outcome counts for type-1 and type-2 rounds.

    state is taken as by outcome_distribution.  Deterministic given the
    seed; the type-1 block is drawn first.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if not 0.0 < type2_fraction < 1.0:
        raise ValueError("type2_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    n2 = int(round(n_rounds * type2_fraction))
    n1 = n_rounds - n2
    batches = []
    for round_type, rounds in (("type-1", n1), ("type-2", n2)):
        dist = outcome_distribution(plan, round_type, state)
        keys = sorted(dist)
        probs = np.array([dist[k] for k in keys])
        draws = rng.multinomial(rounds, probs / probs.sum())
        counts = {k: int(c) for k, c in zip(keys, draws) if c > 0}
        batches.append(RoundBatch(plan_round(plan, round_type, "distribution").setting,
                                  plan.targets, counts))
    return batches[0], batches[1]


def analytic_estimates(plan: ExtractionPlan, state=None) -> ErrorEstimates:
    """Infinite-round QBER/Q_X of a plan on a (possibly noisy) network state.

    state is taken as by outcome_distribution.  Both are read off the
    state's subset parities by _pair_error_rows and _qx_rows, each divided
    by its empty-set parity first, with no distribution built.  The QBER is
    the min-max of the pair errors over all of the plan's targets, so for a
    Bell plan that casts several pairs it is 0.5 under any noise; use
    analysis.pairwise_rates for per-pair rates of such a plan.
    """
    tables = correlator_tables(plan)
    type1, type2 = (p / p[0] for p in (_state_parities(table, state) for table in tables))
    n = len(plan.targets)
    errors = _pair_error_rows(tables[0].subsets, type1[None], _pair_masks(n))
    qx = _qx_rows(tables[1].subsets, type2[None], (1 << n) - 1)
    return _estimates(plan.targets, errors[..., 0], float(qx[0]))
