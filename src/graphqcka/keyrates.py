"""Conference key agreement protocols and asymptotic key rates.

Implements the N-partite BB84-style protocol (type-1 all-Z key rounds,
type-2 all-X parameter rounds) and the pairwise alternative where N-1 Bell
keys are XOR-combined into a conference key, together with the error
estimators and asymptotic rate formulas for both.

Each estimator is written once, over rows of counts (CountRows); the
scalar estimators on a RoundBatch are its one-row views.

Exact states go through the plan's parity strings: the parity of each
participant subset of the corrected bits is the expectation of one Pauli
string.  The strings, their CorrelatorTable and the outcome keys form one
PlanRound per plan instance and round type, built on first use.  Under a
noise model the table evaluates the strings in closed form, with no dense
state; an explicit amplitude vector or density matrix is read by one real
sum per string, in float64 when its imaginary part is zero.  The analytic
QBER and Q_X read the parities; a Walsh-Hadamard transform of them gives
the outcome distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .graphstate import GraphState, stabilizer_expectation
from .routing import (ExtractionPlan, RoundSetting, byproduct_correction,
                      compile_round_settings)


@dataclass(frozen=True)
class RoleAssignment:
    """Protocol roles over the network vertices."""

    alice: int
    bobs: tuple[int, ...]
    nonparticipants: tuple[int, ...] = ()

    def __post_init__(self):
        members = [self.alice, *self.bobs, *self.nonparticipants]
        if len(set(members)) != len(members):
            raise ValueError("roles must be disjoint")
        if len(self.bobs) < 1:
            raise ValueError("at least two participants required")

    @property
    def participants(self) -> tuple[int, ...]:
        return tuple(sorted((self.alice, *self.bobs)))


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
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def akr_n(qber: float, qx: float) -> float:
    """Asymptotic conference key rate of the multipartite protocol."""
    if not (0.0 <= qber <= 1.0 and 0.0 <= qx <= 1.0):
        raise ValueError("qber and qx must be in [0, 1]")
    return 1.0 - binary_entropy(qber) - binary_entropy(qx)


def akr_2(r_ab1: float, r_b2b3: float, r_ab2: float) -> float:
    """Conference rate of the pairwise protocol over the two-copy schedule.

    Any non-positive pairwise rate means no conference key can cross that
    link; the result is then 0.
    """
    if min(r_ab1, r_b2b3, r_ab2) <= 0.0:
        return 0.0
    return 1.0 / (1.0 / r_ab2 + max(1.0 / r_ab1, 1.0 / r_b2b3))


def pairwise_conference_rate(plan_rates: Sequence[Sequence[float]]) -> float:
    """General form of the two-copy schedule: one copy per plan and round,
    each plan limited by its slowest pairwise key."""
    total = 0.0
    for rates in plan_rates:
        if not rates or min(rates) <= 0.0:
            return 0.0
        total += max(1.0 / r for r in rates)
    return 1.0 / total


# ---------------------------------------------------------------------------
# the estimators on rows of counts, and their one-row views


@dataclass(frozen=True)
class CountRows:
    """Rows of counts over one batch's sorted outcome strings.

    counts[r, k] counts outcomes[k] in row r.  The *_rows estimators below
    give one float per row, NaN where the row is undefined (a zero total).
    The scalar estimators are their views on RoundBatch.rows().  The outcome
    bits and the row totals are read once, when the rows are made:
    bit_matrix[k, i] is participant i's bit in outcomes[k].
    """

    participants: tuple[int, ...]
    outcomes: tuple[str, ...]
    counts: np.ndarray
    bit_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    totals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        text = "".join(self.outcomes).encode("ascii")
        bits = (np.frombuffer(text, dtype=np.uint8).reshape(
            len(self.outcomes), len(self.participants)) - ord("0")).astype(np.int64)
        totals = self.counts.sum(axis=1)
        for name, value in (("bit_matrix", bits), ("totals", totals)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def columns(self, participants: Sequence[int]) -> np.ndarray:
        """The bit_matrix columns of the given participants, in their order."""
        return self.bit_matrix[:, [self.participants.index(u) for u in participants]]

    def bits(self, participant: int) -> np.ndarray:
        """The participant's 0/1 bit in each outcome string."""
        return self.bit_matrix[:, self.participants.index(participant)]

    def per_round(self, sums: np.ndarray) -> np.ndarray:
        """Sums over the row totals, NaN where a total is zero; sums has one
        entry per count row, or one row per count row."""
        totals = self.totals if sums.ndim < 2 else self.totals[:, None]
        out = np.full(sums.shape, np.nan)
        return np.divide(sums, totals, out=out, where=totals > 0)


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


def pairwise_error_rows(rows: CountRows, i: int, j: int) -> np.ndarray:
    """Empirical Pr(bit_i != bit_j) on every row of type-1 counts; equals
    (1-<ZZ>)/2."""
    if i == j:
        raise ValueError("pairwise error needs two distinct participants")
    return rows.per_round(rows.counts @ (rows.bits(i) ^ rows.bits(j)))


def _pair_error_rows(rows: CountRows, parts: Sequence[int]) -> np.ndarray:
    """errors[a, b, r], pairwise_error_rows of parts a and b, zero for a == b.

    One integer matmul counts the disagreements of every pair: the counts
    against the XOR of the two parts' bit columns, one column per pair.
    """
    if len(parts) < 2:
        raise ValueError("need at least two participants")
    first, second = np.triu_indices(len(parts), k=1)
    bits = rows.columns(parts)
    errors = np.zeros((len(parts), len(parts), len(rows.counts)))
    errors[first, second] = errors[second, first] = rows.per_round(
        rows.counts @ (bits[:, first] ^ bits[:, second])).T
    return errors


def qber_rows(rows: CountRows, participants: Sequence[int] | None = None,
              ) -> tuple[np.ndarray, np.ndarray]:
    """QBER on every row, with the Alice that minimizes her worst pairwise error.

    It runs over the given participants, all by default; a pair gives that
    pair's marginal.  On a Bell plan that casts several pairs, all of its
    participants give 0.5 under any noise (cross-pair bits are uncorrelated);
    pass each pair instead.  Within a row the pairwise errors differ by 0 or
    by at least 1/total, so only the Alice choice shows the tie-break.
    """
    parts = rows.participants if participants is None else tuple(participants)
    best, index = _alice_min_max(_pair_error_rows(rows, parts))
    return best, np.array(parts)[index]


def qx_rows(rows: CountRows, participants: Sequence[int] | None = None) -> np.ndarray:
    """Q_X = (1 - <X parity>)/2 on every row of type-2 counts, from the
    parity of the given participants (all by default)."""
    bits = rows.bit_matrix if participants is None else rows.columns(participants)
    parity = bits.sum(axis=1) % 2
    return (1.0 - rows.per_round(rows.counts @ (1 - 2 * parity))) / 2.0


def _one_row(values: np.ndarray) -> np.ndarray:
    """A one-row estimate; ValueError where it is undefined."""
    if np.isnan(values).any():
        raise ValueError("empty batch")
    return values[..., 0]


def pairwise_error(batch: RoundBatch, i: int, j: int) -> float:
    """pairwise_error_rows on one batch."""
    return float(_one_row(pairwise_error_rows(batch.rows(), i, j)))


def estimate_qber(batch: RoundBatch) -> ErrorEstimates:
    """qber_rows over all of one batch's participants, with every pairwise
    error.  qx is left at 0 here; use estimate_qx on the type-2 batch and
    combine via error_estimates."""
    errors = _one_row(_pair_error_rows(batch.rows(), batch.participants))
    return _estimates(batch.participants, errors, 0.0)


def estimate_qx(batch: RoundBatch) -> float:
    """qx_rows on one type-2 batch."""
    return float(_one_row(qx_rows(batch.rows())))


def error_estimates(type1: RoundBatch, type2: RoundBatch) -> ErrorEstimates:
    return replace(estimate_qber(type1), qx=estimate_qx(type2))


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    """binary_entropy per element in its operation order, NaN where x is;
    0 and 1, whose logs are not taken, give exactly 0."""
    ends = (x == 0.0) | (x == 1.0)
    inner = np.where(ends, 0.5, x)

    def log2(values: np.ndarray) -> np.ndarray:
        return np.fromiter(map(math.log2, values.ravel().tolist()), float,
                           values.size).reshape(values.shape)
    h = -inner * log2(inner) - (1.0 - inner) * log2(1.0 - inner)
    return np.where(ends, 0.0, h)


def akr_n_rows(qber: np.ndarray, qx: np.ndarray) -> np.ndarray:
    """akr_n per element, NaN where either input is.  It is the scalar
    form's arithmetic on arrays with its logs taken by math.log2 through
    map, because np.log2 misses math.log2 by an ulp on some inputs; so it
    equals akr_n bit for bit."""
    qber, qx = np.asarray(qber, dtype=float), np.asarray(qx, dtype=float)
    if ((qber < 0.0) | (qber > 1.0) | (qx < 0.0) | (qx > 1.0)).any():
        raise ValueError("qber and qx must be in [0, 1]")
    return 1.0 - _entropy_rows(qber) - _entropy_rows(qx)


def pairwise_conference_rate_rows(plan_rates: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """pairwise_conference_rate per row, NaN where any rate is.

    plan_rates[p][k] holds the rates of plan p's pair k on every row; the
    plans' slowest keys add up in plan order, as in the scalar form.
    """
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
    """The Pauli correlators behind one plan's corrected outcome distribution.

    Every channel of a noise model is a Pauli channel and the network is a
    stabilizer state, so each subset parity of PlanRound is its string's
    ideal value (+-1 or 0) scaled by the channels.  Row t holds one string
    with a nonzero ideal value: its letter codes per network vertex (0 = I,
    1 = X, 2 = Y, 3 = Z), its subset mask and its weight, the sign times the
    ideal value.  plan_round builds it once per plan instance, read-only.
    """

    targets: tuple[int, ...]
    vertices: tuple[int, ...]
    subsets: np.ndarray
    weights: np.ndarray
    letters: np.ndarray

    def parity_rows(self, model, white_noise: Sequence[float]) -> np.ndarray:
        """The 2^N subset parities, one row per white-noise weight w, under a
        noise.NoiseModel (None is ideal) with its white noise replaced by w:
        each correlator is its ideal value times its letters' per-qubit
        factors (NoiseModel.pauli_factors), and times 1 - w unless it is I."""
        n_verts, n_parts = len(self.vertices), len(self.targets)
        factors = np.ones((n_verts, 4)) if model is None else model.pauli_factors(self.vertices)
        values = self.weights * np.prod(factors[np.arange(n_verts), self.letters], axis=1)
        keep = 1.0 - np.asarray(white_noise, dtype=float)
        rows = values * np.where(self.letters.any(axis=1), keep[:, None], 1.0)
        # one bincount over all rows: row r's subsets are offset by r * 2^N
        index = self.subsets + (np.arange(len(keep)) << n_parts)[:, None]
        return np.bincount(index.ravel(), weights=rows.ravel(),
                           minlength=len(keep) << n_parts).reshape(len(keep), -1)

    def parities(self, model=None) -> np.ndarray:
        """parity_rows under a noise.NoiseModel (None is ideal) and its white noise."""
        return self.parity_rows(model, [0.0 if model is None else model.white_noise])[0]


@dataclass(frozen=True)
class PlanRound:
    """What every evaluator reads off one plan for one round type, built
    once per plan instance (plan_round), with read-only arrays.

    On any network state the parity of a participant subset A of the
    corrected bits is sign * <S>: S is the participants' letters on A, plus
    the letters of the nonparticipants whose byproduct term flips an odd
    number of A's bits, and the sign negates the bits of A that the sign
    convention flips.  Row a is the subset with mask a, participant i at bit
    N-1-i, so that subset and outcome indices read as keys[a].  Per string
    the explicit-state read keeps its X/Y and Y/Z masks (vertex i at bit
    n-1-i), the parity of #Y, and the sign times the real factor +-1 of i^#Y.
    """

    setting: RoundSetting
    keys: tuple[str, ...]
    x_masks: np.ndarray
    z_masks: np.ndarray
    odd_y: np.ndarray
    read_signs: np.ndarray
    table: CorrelatorTable

    @classmethod
    def build(cls, plan: ExtractionPlan, round_type: str) -> "PlanRound":
        setting = compile_round_settings(plan, round_type)
        parts, verts = plan.targets, plan.graph.vertices
        n_parts = len(parts)
        # in_subset[i, k] = 1 when vertex k's letter enters the string of
        # participant i's singleton subset; the other strings are XORs of these
        in_subset = np.array([[int(u == v) for v in verts] for u in parts])
        for v in plan.nonparticipants:
            flip = byproduct_correction(
                plan, {w: int(w == v) for w in plan.nonparticipants}, round_type)
            in_subset[:, verts.index(v)] = [flip[u] for u in parts]
        subset_bits = (np.arange(1 << n_parts)[:, None] >> np.arange(n_parts - 1, -1, -1)) & 1
        letters = np.array(["IXYZ".index(setting.per_vertex_basis[v]) for v in verts])
        negated = np.array([int(setting.sign_convention[u] < 0) for u in parts])
        codes = ((subset_bits @ in_subset) & 1) * letters
        signs = 1.0 - 2.0 * ((subset_bits @ negated) & 1)
        state = GraphState(plan.graph, dict(plan.preparation_frame))
        ideal = np.array([
            stabilizer_expectation(state, {v: "IXYZ"[c] for v, c in zip(verts, row)})
            for row in codes.tolist()])
        rows = np.flatnonzero(ideal)
        n_y, place = (codes == 2).sum(axis=1), 1 << np.arange(len(verts) - 1, -1, -1)
        arrays = (((codes == 1) | (codes == 2)) @ place, (codes >= 2) @ place, n_y % 2 == 1,
                  signs * np.array([1.0, -1.0, -1.0, 1.0])[n_y % 4],
                  rows, ideal[rows] * signs[rows], codes[rows])
        for array in arrays:
            array.flags.writeable = False
        return cls(setting, tuple(format(a, f"0{n_parts}b") for a in range(1 << n_parts)),
                   *arrays[:4], CorrelatorTable(parts, verts, *arrays[4:]))


def plan_round(plan: ExtractionPlan, round_type: str) -> PlanRound:
    """The plan's PlanRound, built on first use and kept in plan.round_cache."""
    cache = plan.round_cache
    if round_type not in cache:
        cache[round_type] = PlanRound.build(plan, round_type)
    return cache[round_type]


def correlator_tables(plan: ExtractionPlan) -> tuple[CorrelatorTable, CorrelatorTable]:
    """The plan's type-1 and type-2 tables, built once per plan instance."""
    return plan_round(plan, "type-1").table, plan_round(plan, "type-2").table


def table_estimates(tables: Sequence[CorrelatorTable], model=None) -> ErrorEstimates:
    """QBER / Q_X of a plan's (type-1, type-2) tables under a noise model."""
    return _parity_estimates(tables[0].targets, *(t.parities(model) for t in tables))


def table_estimate_rows(tables: Sequence[CorrelatorTable], model,
                        white_noise: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """QBER and Q_X of a plan's (type-1, type-2) tables, one per white-noise weight
    that replaces the model's; each equals table_estimates under it bit for bit."""
    errors, qx = _parity_error_rows(
        tables[0].targets, *(t.parity_rows(model, white_noise) for t in tables))
    return _alice_min_max(errors)[0], qx


def _state_parities(read: PlanRound, state) -> np.ndarray:
    """The 2^N subset parities on a state taken as by outcome_distribution.

    Vertex i is bit n-1-i of a basis index j, and a string with X/Y mask x
    and Y/Z mask z maps |j> to i^#Y (-1)^|j & z| |j ^ x>.  So <S> is i^#Y
    times the sum over j of (-1)^|j & z| rho[j, j ^ x], or on a vector of
    (-1)^|j & z| conj(psi[j ^ x]) psi[j]: one real sum per string, of the
    real parts for even #Y and the imaginary parts for odd #Y.  A state with
    a zero imaginary part is read as its real part (odd-#Y strings read 0).
    Blocks of strings keep the index gather near 2^16 entries.
    """
    if not isinstance(state, np.ndarray):
        return read.table.parities(state)
    n = len(read.table.vertices)
    dim = 1 << n
    if state.shape not in ((dim,), (dim, dim)):
        raise ValueError(f"explicit state has shape {state.shape}; the plan's {n} "
                         f"vertices need ({dim},) or ({dim}, {dim})")
    if np.iscomplexobj(state) and not state.imag.any():
        state = state.real
    j = np.arange(dim)
    # sign[k] = (-1)^|k|, so a string's signs over j are sign[j & z]
    sign = 1.0 - 2.0 * (((j[:, None] >> np.arange(n)) & 1).sum(axis=1) & 1)
    sums = np.zeros(len(read.keys))
    block = max(1, (1 << 16) >> n)
    for odd in (False, True) if np.iscomplexobj(state) else (False,):
        rows = np.flatnonzero(read.odd_y == odd)
        for start in range(0, len(rows), block):
            r = rows[start:start + block]
            flipped = j ^ read.x_masks[r, None]
            terms = state[j, flipped] if state.ndim == 2 else state[flipped].conj() * state
            z_sign = sign[j & read.z_masks[r, None]]
            sums[r] = ((terms.imag if odd else terms.real) * z_sign).sum(axis=1)
    return read.read_signs * sums


def _parity_error_rows(participants: Sequence[int], type1: np.ndarray,
                       type2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair errors[a, b, r] and Q_X[r] read off rows r of type-1 and type-2
    subset parities E, normalized by the identity parity: a pair errs with
    probability (1 - E_ab)/2 and Q_X = (1 - E_all)/2, each clipped to [0, 1]
    against round-off."""
    masks = 1 << np.arange(len(participants) - 1, -1, -1)
    errors = np.clip((1.0 - type1[:, masks[:, None] ^ masks] / type1[:, :1, None]) / 2.0,
                     0.0, 1.0)
    qx = np.clip((1.0 - type2[:, -1] / type2[:, 0]) / 2.0, 0.0, 1.0)
    return np.moveaxis(errors, 0, -1), qx


def _parity_estimates(participants: Sequence[int], type1: np.ndarray,
                      type2: np.ndarray) -> ErrorEstimates:
    """_parity_error_rows on one state's parities, as ErrorEstimates."""
    errors, qx = _parity_error_rows(participants, type1[None], type2[None])
    return _estimates(participants, errors[..., 0], float(qx[0]))


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
    gives the bits of its real part.  Both read the plan's PlanRound and end
    in one Walsh-Hadamard transform, which inverts parity[a] =
    E[(-1)^(a . b)] over outcomes b; outcomes below 1e-15 are dropped and
    the rest renormalized.  Raises ValueError for an explicit state of
    another shape.
    """
    read = plan_round(plan, round_type)
    parities = _state_parities(read, state)
    probs = _walsh(parities) / parities.size
    kept = np.flatnonzero(probs >= 1e-15)
    out = dict(zip([read.keys[a] for a in kept.tolist()], probs[kept].tolist()))
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
        batches.append(RoundBatch(plan_round(plan, round_type).setting,
                                  plan.targets, counts))
    return batches[0], batches[1]


def analytic_estimates(plan: ExtractionPlan, state=None) -> ErrorEstimates:
    """Infinite-round QBER/Q_X of a plan on a (possibly noisy) network state.

    state is taken as by outcome_distribution.  Both are read off the
    state's subset parities, with no distribution built.  The QBER is the
    min-max of qber_rows over all of the plan's targets, so for a Bell plan
    that casts several pairs it is 0.5 under any noise; use
    analysis.pairwise_rates for per-pair rates of such a plan.
    """
    return _parity_estimates(plan.targets, *(_state_parities(plan_round(plan, rt), state)
                                             for rt in ("type-1", "type-2")))
