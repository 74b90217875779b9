"""Dense oracles that the fast paths of graphqcka are checked against.

They rotate or conjugate the full amplitude vector or 4^n density matrix,
qubit by qubit, which is slow and plainly correct: Pauli expectations on a
dense vector, outcome distributions read off the diagonal after rotating
every qubit into its measurement basis, and the noise channels as Kraus
sums.
"""

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from graphqcka.graphstate import _BASIS_STATES, _apply_single_qubit
from graphqcka.noise import NoiseModel
from graphqcka.pauli import PAULI_MATRICES
from graphqcka.routing import ExtractionPlan, byproduct_correction, compile_round_settings


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
            out = _apply_single_qubit(out, n, i, PAULI_MATRICES[letter])
    val = obs.sign * np.vdot(vec, out)
    return float(val.real)


# maps basis eigenstates onto computational bits: row b = <e_b|
BASIS_ROTATIONS = {
    letter: np.array([_BASIS_STATES[(letter, bit)].conj() for bit in (0, 1)])
    for letter in "ZXY"}


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
            vec = _apply_single_qubit(vec, n, i, BASIS_ROTATIONS[setting.per_vertex_basis[v]])
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
