"""Single-qubit Pauli algebra and the 24-element local Clifford group.

A Clifford is identified, up to global phase, by its conjugation images of
X and Z (signed Paulis).  Each element is held as its index into tables
built once at import, as Anders and Briegel hold vertex operators
(quant-ph/0504117): a breadth-first search over H/S words gives every
element's images of X, Y and Z, its shortest word and a canonical 2x2
matrix (the product of the word's H/S matrices), and products, inverses and
Pauli layers are read off those.
"""

from __future__ import annotations

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


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def _generate_group():
    """BFS over H/S words from the identity, appending the generator on the right.

    An element is keyed by its images of (X, Y, Z) and keeps its first
    (shortest, lexicographically least) word and that word's matrix.
    Returns (images, (word, matrix)) pairs sorted by (word length, word).
    """
    def neg(p):
        return p[0], -p[1]

    found = {(("X", 1), ("Y", 1), ("Z", 1)): ("I", np.eye(2, dtype=complex))}
    queue = list(found)
    while queue:
        nxt = []
        for x, y, z in queue:
            word, matrix = found[x, y, z]
            # g.H sends (X, Y, Z) to (g(Z), -g(Y), g(X)); g.S to (g(Y), -g(X), g(Z))
            for gen, images, gen_mat in (("H", (z, neg(y), x), _H), ("S", (y, neg(x), z), _S)):
                if images not in found:
                    found[images] = (gen if word == "I" else word + gen, matrix @ gen_mat)
                    nxt.append(images)
        queue = nxt
    assert len(found) == 24
    return sorted(found.items(), key=lambda item: (len(item[1][0]), item[1][0]))


_GROUP = _generate_group()
# Indexed by element: images of I, X, Y and Z; word; matrix.
_IMAGES = [dict(zip("IXYZ", (("I", 1),) + images)) for images, _ in _GROUP]
_NAMES = [word for _, (word, _) in _GROUP]
_MATRICES = [matrix for _, (_, matrix) in _GROUP]
_BY_IMAGES = {(x, z): i for i, ((x, _, z), _) in enumerate(_GROUP)}


class LocalClifford(int):
    """A single-qubit Clifford given by its conjugation images of X and Z.

    The value is the element's index into the group tables, in ALL_CLIFFORDS
    order; each element is one interned object, and every element is truthy.
    """

    __slots__ = ()

    def __new__(cls, image_of_x: SignedPauli, image_of_z: SignedPauli) -> "LocalClifford":
        try:
            return ALL_CLIFFORDS[_BY_IMAGES[image_of_x, image_of_z]]
        except KeyError:
            raise ValueError(f"images {image_of_x} of X and {image_of_z} of Z must be "
                             "anticommuting non-identity signed Paulis") from None

    def __bool__(self):
        return True

    def conjugate(self, p: SignedPauli) -> SignedPauli:
        """Image of a signed Pauli under conjugation: C p C^dagger."""
        letter, sign = _IMAGES[self][p[0]]
        return letter, sign * p[1]

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

    def __reduce__(self):
        return from_name, (self.name,)


ALL_CLIFFORDS = tuple(int.__new__(LocalClifford, i) for i in range(len(_GROUP)))
_BY_NAME = {c.name: c for c in ALL_CLIFFORDS}

IDENTITY = LocalClifford(("X", 1), ("Z", 1))
HADAMARD = LocalClifford(("Z", 1), ("X", 1))
PHASE_S = LocalClifford(("Y", 1), ("Z", 1))


def compose(a: LocalClifford, b: LocalClifford) -> LocalClifford:
    """The Clifford acting as a.b (b first under conjugation: (ab)P(ab)^+ = a(bPb^+)a^+)."""
    return _COMPOSE[a][b]


# _COMPOSE[a][b] = a.b, whose images of X and Z are a's images of b's.
_COMPOSE = [[LocalClifford(a.conjugate(_IMAGES[b]["X"]), a.conjugate(_IMAGES[b]["Z"]))
             for b in ALL_CLIFFORDS] for a in ALL_CLIFFORDS]
_INVERSES = [ALL_CLIFFORDS[row.index(IDENTITY)] for row in _COMPOSE]


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

# c = rep . p with rep the shortest-named member of c's Pauli coset (p^2 = I
# at action level, so rep = c.p); indices run in name order, so min finds it.
_PAULI_LAYER = [min((_COMPOSE[c][p], letter) for letter, p in PAULI_GATES.items())
                for c in ALL_CLIFFORDS]


def pauli_layer(c: LocalClifford) -> tuple["LocalClifford", str]:
    """Decompose c = rep . pauli; returns (rep, pauli letter)."""
    return _PAULI_LAYER[c]


# Square roots used by local complementation: sqrt(-iX) on the complemented
# vertex, sqrt(iZ) on each of its neighbours (principal branches).
SQRT_MINUS_IX = LocalClifford(("X", 1), ("Y", -1))   # X->X, Z->-Y, Y->Z
SQRT_IZ = LocalClifford(("Y", -1), ("Z", 1))         # X->-Y, Z->Z (S^dagger up to phase)
