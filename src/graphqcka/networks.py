"""Preset network states and the photonic fusion circuit that prepares them.

The six-vertex network used throughout is the graph with edges
{1-2, 2-4, 3-4, 4-6, 5-6} (1-based labels).  Physically it is prepared from
two Bell pairs and one |++> pair by three polarizing-beam-splitter fusion
gates plus single-qubit H and Z rotations; the prepared state differs from
the bare graph state by the local rotation H (x) Z (x) H (x) Z (x) H (x) Z,
which the extraction plans absorb into their measurement settings.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .graphstate import Graph, GraphState, _apply_single_qubit
from .pauli import PAULI_MATRICES, LocalClifford, _H, from_name
from .routing import ExtractionPlan, find_bell_multicast_plan, realize_plan

SIX_VERTEX_EDGES = ((0, 1), (1, 3), (2, 3), (3, 5), (4, 5))
RING_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))

_Z = PAULI_MATRICES["Z"]


def six_vertex_graph() -> Graph:
    """The six-vertex network graph (0-based labels)."""
    return Graph.from_edges(6, SIX_VERTEX_EDGES)


def photonic_preparation_frame(vertices: Iterable[int]) -> dict[int, LocalClifford]:
    """Local rotation relating the photonic state to the bare graph state.

    H on the odd-numbered modes 1,3,5,... and Z on the even-numbered modes
    2,4,6,... (1-based); both gates are involutions, so the same frame
    converts in either direction.
    """
    h, z = from_name("H"), from_name("SS")
    return {v: h if v % 2 == 0 else z for v in vertices}


def six_vertex_preparation_frame() -> dict[int, LocalClifford]:
    """The photonic preparation frame of the six-vertex network."""
    return photonic_preparation_frame(range(6))


def six_vertex_network_state() -> GraphState:
    return GraphState(six_vertex_graph(), six_vertex_preparation_frame())


def ring_graph() -> Graph:
    """Six-cycle network whose users sit at vertices {0, 2, 3, 5}."""
    return Graph.from_edges(6, RING_EDGES)


def ghz_plan() -> ExtractionPlan:
    """Reference GHZ extraction over users {1,2,5,6} (1-based).

    Local complementations at vertices 2 and 4 followed by Z measurements
    on the non-participating vertices 3 and 4.
    """
    return realize_plan(six_vertex_graph(), "ghz", (0, 1, 4, 5),
                        lc_sequence=(1, 3), logical_bases={2: "Z", 3: "Z"},
                        preparation_frame=six_vertex_preparation_frame())


def bell_multicast_plan() -> ExtractionPlan:
    """Bell pairs (1,2) and (5,6) cast simultaneously from one network copy."""
    return find_bell_multicast_plan(six_vertex_graph(), ((0, 1), (4, 5)),
                                    preparation_frame=six_vertex_preparation_frame())


def bell_bridge_plan() -> ExtractionPlan:
    """The bridging Bell pair (2,5), consuming a second network copy."""
    return find_bell_multicast_plan(six_vertex_graph(), ((1, 4),),
                                    preparation_frame=six_vertex_preparation_frame())


# ---------------------------------------------------------------------------
# photonic preparation circuit


def _ket(bits) -> np.ndarray:
    v = np.zeros(1 << len(bits), dtype=complex)
    idx = 0
    for b in bits:
        idx = 2 * idx + b
    v[idx] = 1.0
    return v


def _parity_project(vec: np.ndarray, n: int, a: int, b: int) -> np.ndarray:
    """Unnormalized projection onto even parity of modes a, b.

    Models a successful PBS fusion gate, heralded by one photon in each
    output: only the |hh> and |vv> components survive.
    """
    tensor = vec.reshape((2,) * n).copy()
    idx = [slice(None)] * n
    for ba, bb in ((0, 1), (1, 0)):
        idx[a], idx[b] = ba, bb
        tensor[tuple(idx)] = 0.0
    return tensor.reshape(-1)


def fusion_circuit_state(normalize: bool = False) -> tuple[np.ndarray, float]:
    """Post-selected output of the three-fusion preparation circuit.

    Sources emit |Phi+> on modes (1,2) and (5,6) and |++> on modes (3,4);
    fusion gates act on mode pairs (2,3), (4,5) and - after Hadamards on
    modes 3 and 4 - on (3,4); finally Z rotations act on modes 1, 3, 5.
    Returns (state, success_probability); the state is unnormalized unless
    requested, so its squared norm is the success probability 1/8.
    """
    phi_plus = (_ket([0, 0]) + _ket([1, 1])) / np.sqrt(2)
    plus_plus = np.full(4, 0.5, dtype=complex)
    vec = np.kron(np.kron(phi_plus, plus_plus), phi_plus)
    vec = _parity_project(vec, 6, 1, 2)
    vec = _parity_project(vec, 6, 3, 4)
    vec = _apply_single_qubit(vec, 6, 2, _H)
    vec = _apply_single_qubit(vec, 6, 3, _H)
    vec = _parity_project(vec, 6, 2, 3)
    for q in (0, 2, 4):
        vec = _apply_single_qubit(vec, 6, q, _Z)
    prob = float(np.vdot(vec, vec).real)
    if normalize:
        vec = vec / np.sqrt(prob)
    return vec, prob


def eight_term_state() -> np.ndarray:
    """The post-fusion six-photon superposition written out term by term.

    Encoding h -> 0, v -> 1; all eight doubled-rail terms carry sign -1
    except |hhhhhh> and |vvhhvv>.
    """
    signs = {
        (0, 0, 0): +1, (0, 0, 1): -1, (0, 1, 0): -1, (0, 1, 1): -1,
        (1, 0, 0): -1, (1, 0, 1): +1, (1, 1, 0): -1, (1, 1, 1): -1,
    }
    vec = np.zeros(64, dtype=complex)
    for (x, y, z), s in signs.items():
        vec[48 * x + 12 * y + 3 * z] = s / np.sqrt(8)
    return vec


def rotate_to_graph_state(vec: np.ndarray) -> np.ndarray:
    """Apply H (x) Z (x) H (x) Z (x) H (x) Z to a six-mode state."""
    out = vec
    for q, mat in enumerate((_H, _Z, _H, _Z, _H, _Z)):
        out = _apply_single_qubit(out, 6, q, mat)
    return out
