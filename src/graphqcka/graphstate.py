"""Graph states with per-vertex local Clifford frames.

A state is stored as (graph, frame): the physical state is
(tensor_v frame[v]) applied to the canonical graph state
|G> = prod_{(i,j) in E} CZ_ij |+>^n.  Local complementation and single-qubit
Pauli measurements are graph/frame rewrites, and stabilizer_expectation
gives exact Pauli expectations in GF(2); a dense-amplitude oracle is
available for n <= 12 to verify everything.

Vertex labels survive deletion and index the adjacency bitmasks, so plans
that refer to a vertex remain valid after other vertices are measured out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .pauli import (
    IDENTITY,
    LocalClifford,
    PAULI_GATES,
    SQRT_IZ,
    SQRT_MINUS_IX,
    compose,
    pauli_layer,
)

MAX_VERTICES = 24
DENSE_CAP = 12

_BASIS_STATES = {
    # (letter, outcome bit) -> normalized eigenvector, eigenvalue (-1)^bit
    ("Z", 0): np.array([1, 0], dtype=complex),
    ("Z", 1): np.array([0, 1], dtype=complex),
    ("X", 0): np.array([1, 1], dtype=complex) / np.sqrt(2),
    ("X", 1): np.array([1, -1], dtype=complex) / np.sqrt(2),
    ("Y", 0): np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ("Y", 1): np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


class SizeCapError(ValueError):
    """Raised when an operation exceeds its supported vertex count."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph over labelled vertices, adjacency as bitsets."""

    vertices: tuple[int, ...]           # sorted labels present
    adj: tuple[int, ...]                # adj[v] = neighbour bitmask of label v, 0 once deleted

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        if n > MAX_VERTICES:
            raise SizeCapError(f"graph has {n} vertices, above the cap of {MAX_VERTICES}")
        adj = [0] * n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(tuple(range(n)), tuple(adj))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbour labels of v, lowest first, read off the set bits of adj[v]."""
        if v not in self.vertices:
            raise ValueError(f"vertex {v} not present")
        mask, out = self.adj[v], []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, w) for u in self.vertices for w in self.neighbors(u) if w > u)

    def delete_vertex(self, v: int) -> "Graph":
        adj = list(self.adj)
        for a in self.neighbors(v):
            adj[a] ^= 1 << v
        adj[v] = 0
        return Graph(tuple(u for u in self.vertices if u != v), tuple(adj))

    def toggle_neighborhood(self, v: int) -> "Graph":
        """Complement the edge set within the neighbourhood of v."""
        return _toggled(self, v, self.neighbors(v))

    def connected_components(self) -> list[frozenset[int]]:
        remaining = set(self.vertices)
        comps = []
        while remaining:
            stack = [remaining.pop()]
            comp = set(stack)
            while stack:
                u = stack.pop()
                for w in self.neighbors(u):
                    if w in remaining:
                        remaining.remove(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(frozenset(comp))
        return comps


def _toggled(graph: Graph, v: int, nbrs: tuple[int, ...]) -> Graph:
    """graph.toggle_neighborhood(v), given v's neighbours."""
    adj, mask = list(graph.adj), graph.adj[v]
    for a in nbrs:
        adj[a] ^= mask ^ (1 << a)  # every other neighbour of v
    return Graph(graph.vertices, tuple(adj))


@dataclass(frozen=True)
class MeasurementRecord:
    vertex: int
    basis: str
    outcome: int
    probability: float


@dataclass(frozen=True)
class GraphState:
    """Graph + local Clifford frame; the state is defined up to global phase."""

    graph: Graph
    frame: Mapping[int, LocalClifford]

    def __post_init__(self):
        if set(self.frame) != set(self.graph.vertices):
            raise ValueError("frame must have exactly one entry per vertex")


def build_graph_state(n: int, edges: Iterable[tuple[int, int]]) -> GraphState:
    """Identity-frame graph state of the given edge list (0-based labels)."""
    g = Graph.from_edges(n, edges)
    return GraphState(g, {v: IDENTITY for v in g.vertices})


def _dense_graph_vector(graph: Graph) -> np.ndarray:
    n = graph.n
    vec = np.full(1 << n, 1 / np.sqrt(1 << n), dtype=complex)
    pos = {v: i for i, v in enumerate(graph.vertices)}
    for (u, v) in graph.edges():
        bu, bv = n - 1 - pos[u], n - 1 - pos[v]
        idx = np.arange(1 << n)
        mask = ((idx >> bu) & 1) & ((idx >> bv) & 1)
        vec[mask == 1] *= -1
    return vec


def _apply_single_qubit(vec: np.ndarray, n: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to the given qubit position (0 = most significant)."""
    tensor = vec.reshape((2,) * n)
    tensor = np.moveaxis(tensor, qubit, 0)
    tensor = np.tensordot(mat, tensor, axes=([1], [0]))
    tensor = np.moveaxis(tensor, 0, qubit)
    return tensor.reshape(-1)


def to_dense(gs: GraphState) -> np.ndarray:
    """Amplitude vector of the state (qubit order = sorted vertex labels, big-endian)."""
    n = gs.graph.n
    if n > DENSE_CAP:
        raise SizeCapError(f"dense oracle capped at {DENSE_CAP} qubits, got {n}")
    vec = _dense_graph_vector(gs.graph)
    for i, v in enumerate(gs.graph.vertices):
        c = gs.frame[v]
        if c != IDENTITY:
            vec = _apply_single_qubit(vec, n, i, c.matrix)
    return vec


def stabilizer_expectation(gs: GraphState, letters: Mapping[int, str]) -> int:
    """Exact <S> of a Pauli string S (vertex -> letter) on the state: +1, -1 or 0.

    S is pulled back through the frame to T = C^+ S C = sign * X^x Z^z over
    GF(2) bitmasks x and z.  T is +-1 times a stabilizer of |G> exactly when
    z = Gamma x, and the product of the generators K_v = X_v Z_N(v) over v in
    x equals (-1)^(e(x) + y/2) times T's letters, with e(x) the edges inside x
    and y the number of Y letters (Anders and Briegel, quant-ph/0504117).
    Polynomial in n; no dense vector is built.
    """
    x = z = 0
    sign = 1
    for v, letter in letters.items():
        if letter == "I":
            continue
        if letter not in ("X", "Y", "Z") or v not in gs.frame:
            raise ValueError(f"bad Pauli letter {letter!r} on vertex {v}")
        back, s = gs.frame[v].inverse().conjugate((letter, 1))
        sign *= s
        if back in ("X", "Y"):
            x |= 1 << v
        if back in ("Y", "Z"):
            z |= 1 << v
    gamma_x = inside = 0
    for v, mask in enumerate(gs.graph.adj):
        if x >> v & 1:
            gamma_x ^= mask
            inside += (mask & x).bit_count()
    if gamma_x != z:
        return 0
    return -sign if (inside // 2 + (x & z).bit_count() // 2) % 2 else sign


def _canonical_frame(graph: Graph, frame: dict[int, LocalClifford]) -> dict[int, LocalClifford]:
    """Gauge-fix the frame's Pauli layer modulo the graph stabilizer group.

    Multiplying the frame (on the right) by a stabilizer generator
    g_w = X_w Z_{N(w)} leaves the state invariant up to phase.  The unique
    gauge with no X/Y Pauli component is chosen, which makes repeated local
    complementation an exact involution on the frame.
    """
    x_support = [w for w in graph.vertices if pauli_layer(frame[w])[1] in ("X", "Y")]
    if not x_support:
        return frame
    frame = dict(frame)
    for w in x_support:
        frame[w] = compose(frame[w], PAULI_GATES["X"])
        for nb in graph.neighbors(w):
            frame[nb] = compose(frame[nb], PAULI_GATES["Z"])
    return frame


def local_complement(gs: GraphState, v: int) -> GraphState:
    """Complement the neighbourhood of v; the physical state is unchanged."""
    nbrs = gs.graph.neighbors(v)
    new_graph = _toggled(gs.graph, v, nbrs)
    frame = dict(gs.frame)
    # |G> = U^+ |tau_v(G)> with U = sqrt(-iX)_v prod_n sqrt(iZ)_n, so the
    # frame absorbs U^+ on the right.
    frame[v] = compose(frame[v], SQRT_MINUS_IX.inverse())
    for n in nbrs:
        frame[n] = compose(frame[n], SQRT_IZ.inverse())
    return GraphState(new_graph, _canonical_frame(new_graph, frame))


def measure_vertex(gs: GraphState, basis: str, v: int, outcome: int) -> tuple[GraphState, MeasurementRecord]:
    """Measure the physical qubit v in a Pauli basis, removing it from the graph.

    Returns the state of the requested outcome branch and its record; the
    two outcomes leave one graph.  Only the probability-0 outcome of an
    X-type measurement of an isolated vertex raises ValueError.
    """
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"basis must be X, Y or Z, got {basis!r}")
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")

    work = gs
    while True:
        nbrs = work.graph.neighbors(v)  # raises for an absent v
        # Pull the physical basis back through the frame of v.
        letter, sign = work.frame[v].inverse().conjugate((basis, 1))
        if letter == "Z":
            break
        if letter == "Y":
            work = local_complement(work, v)
        else:  # X
            if not nbrs:
                attainable = 0 if sign == 1 else 1
                if outcome != attainable:
                    raise ValueError(
                        f"outcome {outcome} has probability 0 for X-type "
                        f"measurement on isolated vertex {v}")
                graph = work.graph.delete_vertex(v)
                frame = _canonical_frame(graph, {u: work.frame[u] for u in graph.vertices})
                return (GraphState(graph, frame),
                        MeasurementRecord(v, basis, outcome, 1.0))
            work = local_complement(work, min(nbrs))

    graph_bit = outcome ^ (sign == -1)
    graph = work.graph.delete_vertex(v)
    frame = {u: work.frame[u] for u in graph.vertices}
    if graph_bit:
        for n in work.graph.neighbors(v):
            frame[n] = compose(frame[n], PAULI_GATES["Z"])
    return (GraphState(graph, _canonical_frame(graph, frame)),
            MeasurementRecord(v, basis, outcome, 0.5))


def project_dense(vec: np.ndarray, vertices: tuple[int, ...],
                  settings: Mapping[int, tuple[str, int]]) -> np.ndarray:
    """Project dense amplitudes onto basis outcomes of some qubits, renormalized.

    settings maps vertex -> (basis letter, outcome bit).  The measured qubits
    are removed; remaining qubit order follows the original label order.
    """
    n = len(vertices)
    tensor = vec.reshape((2,) * n)
    # contract measured qubits from highest position down so indices stay valid
    for i in sorted((vertices.index(v) for v in settings), reverse=True):
        basis, bit = settings[vertices[i]]
        e = _BASIS_STATES[(basis, bit)].conj()
        tensor = np.tensordot(e, np.moveaxis(tensor, i, 0), axes=([0], [0]))
    flat = tensor.reshape(-1)
    norm = np.linalg.norm(flat)
    if norm < 1e-12:
        raise ValueError("projection onto a probability-0 outcome")
    return flat / norm

