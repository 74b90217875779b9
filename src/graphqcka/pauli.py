"""Single-qubit Pauli algebra and the 24-element local Clifford group.

Cliffords are represented by their conjugation action on X and Z (signed
Paulis), which identifies each element up to global phase.  A canonical
2x2 matrix is attached to every element via its shortest H/S word, so the
dense oracle has a deterministic unitary for each frame entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Signed single-qubit Pauli: (letter, sign) with letter in "IXYZ", sign in {+1, -1}.
SignedPauli = tuple[str, int]

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# (a, b) -> (letter, phase) with sigma_a . sigma_b = phase * sigma_letter
_PAULI_PRODUCT = {
    ("I", "I"): ("I", 1), ("I", "X"): ("X", 1), ("I", "Y"): ("Y", 1), ("I", "Z"): ("Z", 1),
    ("X", "I"): ("X", 1), ("X", "X"): ("I", 1), ("X", "Y"): ("Z", 1j), ("X", "Z"): ("Y", -1j),
    ("Y", "I"): ("Y", 1), ("Y", "X"): ("Z", -1j), ("Y", "Y"): ("I", 1), ("Y", "Z"): ("X", 1j),
    ("Z", "I"): ("Z", 1), ("Z", "X"): ("Y", 1j), ("Z", "Y"): ("X", -1j), ("Z", "Z"): ("I", 1),
}


def pauli_product(a: SignedPauli, b: SignedPauli) -> tuple[str, complex]:
    """Product of two signed Paulis: returns (letter, phase) with phase in {1,-1,i,-i}."""
    letter, phase = _PAULI_PRODUCT[(a[0], b[0])]
    return letter, phase * a[1] * b[1]


def paulis_commute(a: str, b: str) -> bool:
    return a == "I" or b == "I" or a == b


@dataclass(frozen=True)
class LocalClifford:
    """A single-qubit Clifford given by its conjugation images of X and Z."""

    image_of_x: SignedPauli
    image_of_z: SignedPauli

    def __post_init__(self):
        ix, iz = self.image_of_x, self.image_of_z
        if ix[0] == "I" or iz[0] == "I":
            raise ValueError("Clifford images of X and Z must be non-identity")
        if paulis_commute(ix[0], iz[0]):
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

    def inverse(self) -> "LocalClifford":
        return _INVERSES[self]

    @property
    def name(self) -> str:
        """Shortest H/S word for this element ('I' for identity)."""
        return _NAMES[self]

    @property
    def matrix(self) -> np.ndarray:
        """Canonical 2x2 unitary (product of H/S matrices of the name)."""
        return _MATRICES[self]

    def __repr__(self):
        return f"LocalClifford({self.name})"


def _compose_raw(a: LocalClifford, b: LocalClifford) -> LocalClifford:
    return LocalClifford(a.conjugate(b.image_of_x), a.conjugate(b.image_of_z))


def compose(a: LocalClifford, b: LocalClifford) -> LocalClifford:
    """The Clifford acting as a.b (b first under conjugation: (ab)P(ab)^+ = a(bPb^+)a^+)."""
    return _COMPOSE[a, b]


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)

IDENTITY = LocalClifford(("X", 1), ("Z", 1))
HADAMARD = LocalClifford(("Z", 1), ("X", 1))
PHASE_S = LocalClifford(("Y", 1), ("Z", 1))


def _generate_group():
    """BFS over H/S words; keeps the first (shortest, lexicographically least) name."""
    names = {IDENTITY: "I"}
    matrices = {IDENTITY: np.eye(2, dtype=complex)}
    queue = [IDENTITY]
    while queue:
        nxt = []
        for elem in queue:
            for gen, gen_name, gen_mat in ((HADAMARD, "H", _H), (PHASE_S, "S", _S)):
                # append the generator on the right: elem . gen
                new = _compose_raw(elem, gen)
                if new not in names:
                    word = gen_name if names[elem] == "I" else names[elem] + gen_name
                    names[new] = word
                    matrices[new] = matrices[elem] @ gen_mat
                    nxt.append(new)
        queue = nxt
    assert len(names) == 24
    return names, matrices


_NAMES, _MATRICES = _generate_group()
_BY_NAME = {v: k for k, v in _NAMES.items()}


def _invert(c: LocalClifford) -> LocalClifford:
    for cand in _NAMES:
        if _compose_raw(c, cand) == IDENTITY:
            return cand
    raise AssertionError("group not closed")


_INVERSES = {c: _invert(c) for c in _NAMES}

# Closed-group composition table; compose() is a plain lookup on the 24x24 grid.
_COMPOSE = {(a, b): _compose_raw(a, b) for a in _NAMES for b in _NAMES}

ALL_CLIFFORDS = tuple(sorted(_NAMES, key=lambda c: (len(_NAMES[c]), _NAMES[c])))


def from_name(name: str) -> LocalClifford:
    """Look up a Clifford by its canonical H/S word (e.g. 'I', 'H', 'SH')."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown Clifford name {name!r}") from None


# Pauli gates as group elements (conjugation flips anticommuting images).
PAULI_X = LocalClifford(("X", 1), ("Z", -1))
PAULI_Y = LocalClifford(("X", -1), ("Z", -1))
PAULI_Z = LocalClifford(("X", -1), ("Z", 1))
PAULI_GATES = {"I": IDENTITY, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

def _decompose():
    """Split each element F as rep . pauli with rep a fixed Pauli-coset representative."""
    out = {}
    for f in ALL_CLIFFORDS:
        candidates = []
        for letter, p in PAULI_GATES.items():
            rep = _compose_raw(f, p)  # p^2 = I at action level, so f = rep . p
            candidates.append((len(_NAMES[rep]), _NAMES[rep], rep, letter))
        candidates.sort()
        _, _, rep, letter = candidates[0]
        out[f] = (rep, letter)
    return out


def pauli_layer(c: LocalClifford) -> tuple["LocalClifford", str]:
    """Decompose c = rep . pauli; returns (rep, pauli letter)."""
    return _PAULI_LAYER[c]


# Square roots used by local complementation: sqrt(-iX) on the complemented
# vertex, sqrt(iZ) on each of its neighbours (principal branches).
SQRT_MINUS_IX = LocalClifford(("X", 1), ("Y", -1))   # X->X, Z->-Y, Y->Z
SQRT_IZ = LocalClifford(("Y", -1), ("Z", 1))         # X->-Y, Z->Z (S^dagger up to phase)

_PAULI_LAYER = _decompose()
