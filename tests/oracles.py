"""Plain oracles that the fast paths of graphqcka are checked against.

The dense ones rotate or conjugate the full amplitude vector or 4^n density
matrix, qubit by qubit, which is slow and plainly correct: Pauli
expectations on a dense vector, outcome distributions read off the diagonal
after rotating every qubit into its measurement basis, the noise channels
as Kraus sums, and positivity from every eigenvalue.  The scalar estimators
loop over a RoundBatch's outcome dict, one outcome at a time.  The plan
search oracle realizes the candidates from one eagerly sorted list.  The
local Clifford group is a frozen pair of images per element, with Y's image
from the phase rule and inverses and Pauli layers found by search.  The
stabilizer tableau tracks Pauli rows through gates given as matrices.
"""

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from graphqcka.graphstate import _BASIS_STATES, Graph, GraphState, _apply_single_qubit, to_dense
from graphqcka.keyrates import ErrorEstimates, RoundBatch
from graphqcka.noise import NoiseModel
from graphqcka.pauli import _H, _S, PAULI_MATRICES, LocalClifford, SignedPauli, pauli_product
from graphqcka.routing import (ExtractionPlan, compile_round_settings, parity_strings,
                               realize_plan)


@dataclass(frozen=True)
class PauliObservable:
    """Tensor-product Pauli observable over labelled vertices, with a sign."""

    letters: Mapping[int, str]
    sign: int = 1


def expectation(vec: np.ndarray, obs: PauliObservable, vertices: Iterable[int]) -> float:
    """Exact <psi|O|psi> of a Pauli-product observable on a dense state."""
    vertices = tuple(vertices)
    n = len(vertices)
    if vec.shape != (1 << n,):
        raise ValueError("observable arity does not match state size")
    out = vec
    for i, v in enumerate(vertices):
        letter = obs.letters.get(v, "I")
        if letter != "I":
            out = _apply_single_qubit(out, i, PAULI_MATRICES[letter])
    val = obs.sign * np.vdot(vec, out)
    return float(val.real)


def states_equal(gs1: GraphState, gs2: GraphState, tol: float = 1e-10) -> bool:
    """Dense-oracle equality, up to global phase, of two graph states on the
    same vertex set."""
    if gs1.graph.vertices != gs2.graph.vertices:
        return False
    ov = np.vdot(to_dense(gs1), to_dense(gs2))
    return bool(abs(abs(ov) ** 2 - 1) <= tol)


def byproduct_correction(plan: ExtractionPlan, nonparticipant_outcomes: Mapping[int, int],
                         round_type: str = "type-1") -> dict[int, int]:
    """Outcome-bit flip mask for the participants, given nonparticipant bits.

    A Pauli byproduct flips a participant's bit exactly when it anticommutes
    with that participant's logical measurement basis, and the byproduct is
    a product of terms, so the flip is the XOR of the terms' flips: of the
    parity_strings columns of the nonparticipants that read 1.
    """
    missing = set(plan.nonparticipants) - set(nonparticipant_outcomes)
    if missing:
        raise ValueError(f"missing outcomes for nonparticipants {sorted(missing)}")
    columns = [plan.graph.vertices.index(v) for v in plan.nonparticipants
               if nonparticipant_outcomes[v]]
    flips = parity_strings(plan, round_type)[:, columns].sum(axis=1) % 2
    return dict(zip(plan.targets, flips.tolist()))


# maps basis eigenstates onto computational bits: row b = <e_b|
BASIS_ROTATIONS = {
    letter: np.array([_BASIS_STATES[(letter, bit)].conj() for bit in (0, 1)])
    for letter in "ZXY"}


def tensordot_single_qubit(vec: np.ndarray, n: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    """A 2x2 matrix on qubit position qubit (0 = most significant) of n, by
    moving that axis of the 2 x ... x 2 tensor to the front and back."""
    tensor = np.moveaxis(vec.reshape((2,) * n), qubit, 0)
    tensor = np.tensordot(mat, tensor, axes=([1], [0]))
    return np.moveaxis(tensor, 0, qubit).reshape(-1)


def bit_count_parities(values: Sequence[int], masks: Sequence[int]) -> list[list[int]]:
    """parities[k][s] = |values[k] & masks[s]| mod 2, one int.bit_count each."""
    return [[(v & m).bit_count() & 1 for m in masks] for v in values]


def bit_count_pooled(batch: RoundBatch, masks: Sequence[int]) -> RoundBatch:
    """The batch with the outcomes of equal bit_count_parities at every mask
    summed onto the least of them, one outcome at a time."""
    least: dict[tuple[int, ...], str] = {}
    counts: dict[str, int] = {}
    for outcome in sorted(batch.counts):
        key = tuple(bit_count_parities([int(outcome, 2)], masks)[0])
        rep = least.setdefault(key, outcome)
        counts[rep] = counts.get(rep, 0) + batch.counts[outcome]
    return RoundBatch(batch.setting, batch.participants, counts)


def rotate_density(rho: np.ndarray, n: int, qubit: int, u: np.ndarray) -> np.ndarray:
    """u rho u^+ with u acting on one qubit (0 = most significant)."""
    dim = 1 << n
    tensor = rho.reshape((2,) * (2 * n))
    tensor = np.moveaxis(tensor, qubit, 0)
    tensor = np.tensordot(u, tensor, axes=([1], [0]))
    tensor = np.moveaxis(tensor, 0, qubit)
    tensor = np.moveaxis(tensor, n + qubit, 0)
    tensor = np.tensordot(u.conj(), tensor, axes=([1], [0]))
    tensor = np.moveaxis(tensor, 0, n + qubit)
    return tensor.reshape(dim, dim)


def rotated_outcome_distribution(plan: ExtractionPlan, round_type: str,
                                 state: np.ndarray) -> dict[str, float]:
    """keyrates.outcome_distribution of an explicit state, by rotating every
    qubit into its measurement basis and correcting each computational
    outcome's participant bits one outcome at a time."""
    setting = compile_round_settings(plan, round_type)
    verts = plan.graph.vertices
    n = len(verts)
    if state.ndim == 1:
        vec = state
        for i, v in enumerate(verts):
            vec = _apply_single_qubit(vec, i, BASIS_ROTATIONS[setting.per_vertex_basis[v]])
        probs = np.abs(vec) ** 2
    else:
        rho = state
        for i, v in enumerate(verts):
            rho = rotate_density(rho, n, i, BASIS_ROTATIONS[setting.per_vertex_basis[v]])
        probs = np.real(np.diag(rho))
    out: dict[str, float] = {}
    for idx in range(1 << n):
        p = probs[idx]
        if p < 1e-15:
            continue
        bits = {v: (idx >> (n - 1 - i)) & 1 for i, v in enumerate(verts)}
        flips = byproduct_correction(
            plan, {v: bits[v] for v in plan.nonparticipants}, round_type)
        key = "".join(str(bits[u] ^ (setting.sign_convention[u] < 0) ^ flips[u])
                      for u in plan.targets)
        out[key] = out.get(key, 0.0) + float(p)
    norm = sum(out.values())
    return {k: v / norm for k, v in out.items()}


def single_qubit_channel(rho: np.ndarray, n: int, qubit: int,
                         kraus_weights: Sequence[tuple[float, np.ndarray]]) -> np.ndarray:
    """sum_k w_k P_k rho P_k^+ with the P_k acting on one qubit."""
    out = np.zeros_like(rho)
    for w, mat in kraus_weights:
        if w == 0.0:
            continue
        out += w * rotate_density(rho, n, qubit, mat)
    return out


def kraus_noise(rho: np.ndarray, vertices: Sequence[int], model: NoiseModel) -> np.ndarray:
    """noise.apply_noise's matrix as Kraus sums: per qubit depolarizing, then
    dephasing, then bit flip, and last global white noise."""
    n = len(vertices)
    rho = np.array(rho, dtype=complex)
    eye, x, y, z = (PAULI_MATRICES[p] for p in "IXYZ")
    for i, v in enumerate(vertices):
        lam = model.depolarizing.get(v, 0.0)
        p = model.dephasing.get(v, 0.0)
        q = model.bit_flip.get(v, 0.0)
        rho = single_qubit_channel(rho, n, i, [(1.0 - 3.0 * lam / 4.0, eye), (lam / 4.0, x),
                                               (lam / 4.0, y), (lam / 4.0, z)])
        rho = single_qubit_channel(rho, n, i, [(1.0 - p, eye), (p, z)])
        rho = single_qubit_channel(rho, n, i, [(1.0 - q, eye), (q, x)])
    dim = 1 << n
    return (1.0 - model.white_noise) * rho + model.white_noise * np.eye(dim) / dim


def psd_verdict(matrix: np.ndarray) -> tuple[bool, float]:
    """Whether a Hermitian matrix passes DensityOperator's positivity test,
    lambda_min >= -1e-10, read off all its eigenvalues; and lambda_min."""
    least = float(np.linalg.eigvalsh(matrix).min())
    return least >= -1e-10, least


def marginal(batch: RoundBatch, subset: Sequence[int]) -> RoundBatch:
    """Marginalize counts onto a subset of participants."""
    idx = [batch.participants.index(v) for v in subset]
    out: dict[str, int] = {}
    for s, c in batch.counts.items():
        key = "".join(s[i] for i in idx)
        out[key] = out.get(key, 0) + c
    return RoundBatch(batch.setting, tuple(subset), out)


def pairwise_error(batch: RoundBatch, i: int, j: int) -> float:
    """Empirical Pr(bit_i != bit_j) over a type-1 batch; equals (1-<ZZ>)/2."""
    if i == j:
        raise ValueError("pairwise error needs two distinct participants")
    total = batch.total
    if total == 0:
        raise ValueError("empty batch")
    pi, pj = batch.participants.index(i), batch.participants.index(j)
    differ = sum(c for s, c in batch.counts.items() if s[pi] != s[pj])
    return differ / total


def estimate_qber(batch: RoundBatch) -> ErrorEstimates:
    """QBER with the Alice role chosen to minimize the worst pairwise error,
    over every pair of the batch's participants.  Ties go to the first
    participant; qx is left at 0."""
    parts = batch.participants
    if len(parts) < 2:
        raise ValueError("need at least two participants")
    pairwise = {}
    for a in parts:
        for b in parts:
            if a < b:
                q = pairwise_error(batch, a, b)
                pairwise[(a, b)] = q
                pairwise[(b, a)] = q
    best_alice, best_q = None, None
    for alice in parts:
        worst = max(pairwise[(alice, b)] for b in parts if b != alice)
        if best_q is None or worst < best_q - 1e-15:
            best_alice, best_q = alice, worst
    return ErrorEstimates(pairwise_q=pairwise, qber=best_q, qx=0.0, alice_choice=best_alice)


def estimate_qx(batch: RoundBatch) -> float:
    """Q_X = (1 - <X parity>)/2 from a type-2 batch."""
    total = batch.total
    if total == 0:
        raise ValueError("empty batch")
    parity_sum = sum(c * (-1) ** (s.count("1") % 2) for s, c in batch.counts.items())
    return (1.0 - parity_sum / total) / 2.0


def sorted_bases(k: int) -> list[tuple[str, ...]]:
    """The 3^k bases of k nonparticipants as one list sorted by (non-Z
    letters, letters): the order of the plan search."""
    return sorted(itertools.product("ZXY", repeat=k),
                  key=lambda bs: (sum(b != "Z" for b in bs), bs))


def sorted_basis_search(g: Graph, kind: str, participants: Iterable[int],
                        pairs: Sequence[tuple[int, int]] = (),
                        preparation_frame: Mapping[int, LocalClifford] | None = None,
                        ) -> ExtractionPlan | None:
    """First realize_plan candidate that is a plan, over sorted_bases of the
    nonparticipants; None if none is."""
    nonparts = sorted(set(g.vertices) - set(participants))
    for bases in sorted_bases(len(nonparts)):
        plan = realize_plan(g, kind, participants, (), dict(zip(nonparts, bases)), pairs,
                            preparation_frame=preparation_frame)
        if plan is not None:
            return plan
    return None


@dataclass(frozen=True)
class ImageClifford:
    """A single-qubit Clifford given by its conjugation images of X and Z."""

    image_of_x: SignedPauli
    image_of_z: SignedPauli

    def __post_init__(self):
        ix, iz = self.image_of_x, self.image_of_z
        if ix[0] == "I" or iz[0] == "I":
            raise ValueError("Clifford images of X and Z must be non-identity")
        if ix[0] == iz[0]:
            raise ValueError("images of X and Z must anticommute")

    def conjugate(self, p: SignedPauli) -> SignedPauli:
        """Image of a signed Pauli under conjugation: C p C^dagger."""
        letter, sign = p
        if letter == "I":
            return ("I", sign)
        if letter == "X":
            return (self.image_of_x[0], self.image_of_x[1] * sign)
        if letter == "Z":
            return (self.image_of_z[0], self.image_of_z[1] * sign)
        # Y = i X Z, so C Y C^dag = i (C X C^dag)(C Z C^dag)
        prod_letter, phase = pauli_product(self.image_of_x, self.image_of_z)
        out_sign = 1j * phase
        assert out_sign in (1, -1)
        return (prod_letter, int(out_sign.real) * sign)

    def compose(self, other: "ImageClifford") -> "ImageClifford":
        """The Clifford acting as self.other (other first under conjugation)."""
        return ImageClifford(self.conjugate(other.image_of_x), self.conjugate(other.image_of_z))


IMAGE_IDENTITY = ImageClifford(("X", 1), ("Z", 1))
IMAGE_PAULI_GATES = {"I": IMAGE_IDENTITY, "X": ImageClifford(("X", 1), ("Z", -1)),
                     "Y": ImageClifford(("X", -1), ("Z", -1)),
                     "Z": ImageClifford(("X", -1), ("Z", 1))}


def image_clifford_group() -> dict[ImageClifford, tuple[str, np.ndarray]]:
    """Element -> (name, matrix) by BFS over H/S words from the identity,
    appending the generator on the right and keeping the first (shortest,
    lexicographically least) word; ordered by (name length, name)."""
    gens = (("H", ImageClifford(("Z", 1), ("X", 1)), _H),
            ("S", ImageClifford(("Y", 1), ("Z", 1)), _S))
    found = {IMAGE_IDENTITY: ("I", np.eye(2, dtype=complex))}
    queue = [IMAGE_IDENTITY]
    while queue:
        nxt = []
        for elem in queue:
            name, matrix = found[elem]
            for gen_name, gen, gen_mat in gens:
                new = elem.compose(gen)
                if new not in found:
                    found[new] = (gen_name if name == "I" else name + gen_name, matrix @ gen_mat)
                    nxt.append(new)
        queue = nxt
    return dict(sorted(found.items(), key=lambda item: (len(item[1][0]), item[1][0])))


def image_inverse(c: ImageClifford, group: Iterable[ImageClifford]) -> ImageClifford:
    """The group element whose product with c is the identity."""
    return next(cand for cand in group if c.compose(cand) == IMAGE_IDENTITY)


def image_pauli_layer(c: ImageClifford, group: Mapping[ImageClifford, tuple[str, np.ndarray]]
                      ) -> tuple[ImageClifford, str]:
    """c = rep . pauli with rep the coset member of shortest, then least, name."""
    candidates = []
    for letter, p in IMAGE_PAULI_GATES.items():
        rep = c.compose(p)  # p^2 = I at action level, so c = rep . p
        name = group[rep][0]
        candidates.append((len(name), name, letter, rep))
    _, _, letter, rep = min(candidates)
    return rep, letter


def pauli_images(matrix):
    """letter -> (letter', sign) with matrix P matrix^+ = sign P'."""
    images = {"I": ("I", 1)}
    for letter in "XYZ":
        image = matrix @ PAULI_MATRICES[letter] @ matrix.conj().T
        images[letter], = [(p, s) for p in "XYZ" for s in (1, -1)
                           if np.allclose(image, s * PAULI_MATRICES[p])]
    return images


class Tableau:
    """Aaronson-Gottesman stabilizer tableau (quant-ph/0406196).

    Rows 0..n-1 are destabilizers and n..2n-1 stabilizers.  Row i is the
    Pauli string (-1)^r[i] times the letters of the bitmasks x[i] and z[i]
    over the qubits, both bits set meaning Y = iXZ; qubit q is vertex q.
    Clifford gates act through the Pauli images of their matrices, so the
    package's Clifford tables are not used.
    """

    BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

    def __init__(self, graph, frame):
        n = self.n = graph.n
        # destabilizers Z_v, stabilizers X_v Z_N(v)
        self.x = [0] * n + [1 << v for v in range(n)]
        self.z = [1 << v for v in range(n)] + list(graph.adj)
        self.r = [0] * (2 * n)
        for v, clifford in frame.items():
            self.apply(v, clifford.matrix)

    def copy(self):
        out = object.__new__(Tableau)
        out.n, out.x, out.z, out.r = self.n, list(self.x), list(self.z), list(self.r)
        return out

    def apply(self, q, matrix):
        images = pauli_images(matrix)
        for i in range(2 * self.n):
            bits = (self.x[i] >> q & 1, self.z[i] >> q & 1)
            if bits != (0, 0):
                letter = "IZXY"[2 * bits[0] + bits[1]]
                image, sign = images[letter]
                bx, bz = self.BITS[image]
                self.x[i] = self.x[i] & ~(1 << q) | bx << q
                self.z[i] = self.z[i] & ~(1 << q) | bz << q
                self.r[i] ^= sign < 0

    def string(self, letters):
        x = z = 0
        for q, letter in letters.items():
            bx, bz = self.BITS[letter]
            x, z = x | bx << q, z | bz << q
        return x, z

    @staticmethod
    def product(x1, z1, r1, x2, z2, r2):
        """The string 1 times string 2; with Y = iXZ the power of i is
        2 r1 + 2 r2 + |x1 z1| + |x2 z2| + 2 |z1 x2| - |x3 z3|."""
        x3, z3 = x1 ^ x2, z1 ^ z2
        k = (2 * r1 + 2 * r2 + (x1 & z1).bit_count() + (x2 & z2).bit_count()
             + 2 * (z1 & x2).bit_count() - (x3 & z3).bit_count())
        return x3, z3, k % 4 // 2

    def anticommutes(self, i, x, z):
        return ((self.x[i] & z).bit_count() + (self.z[i] & x).bit_count()) % 2

    def measure(self, letters, bit):
        """Project onto the (-1)^bit eigenspace of the Pauli string; False
        when that outcome has probability 0."""
        x, z = self.string(letters)
        n = self.n
        stab = [i for i in range(n, 2 * n) if self.anticommutes(i, x, z)]
        if not stab:
            return self.expectation(letters) == (-1) ** bit
        p = stab[0]
        row = (self.x[p], self.z[p], self.r[p])
        for i in range(2 * n):
            if i != p and self.anticommutes(i, x, z):
                self.x[i], self.z[i], self.r[i] = self.product(
                    *row, self.x[i], self.z[i], self.r[i])
        self.x[p - n], self.z[p - n], self.r[p - n] = row
        self.x[p], self.z[p], self.r[p] = x, z, bit
        return True

    def expectation(self, letters):
        """<P> of the Pauli string: 0, or +-1 when +-P is a stabilizer."""
        x, z = self.string(letters)
        n = self.n
        if any(self.anticommutes(i, x, z) for i in range(n, 2 * n)):
            return 0
        acc = (0, 0, 0)
        for i in range(n):
            if self.anticommutes(i, x, z):
                acc = self.product(self.x[n + i], self.z[n + i], self.r[n + i], *acc)
        assert acc[:2] == (x, z)
        return 1 - 2 * acc[2]
