"""Unit tests for the single-qubit Clifford group machinery."""

import itertools

import numpy as np
import pytest

from graphqcka.pauli import (ALL_CLIFFORDS, HADAMARD, IDENTITY, PAULI_GATES,
                             PAULI_MATRICES, PHASE_S, SQRT_IZ, SQRT_MINUS_IX,
                             LocalClifford, compose, from_name, pauli_layer,
                             pauli_product, paulis_commute)
from oracles import image_clifford_group, image_inverse, image_pauli_layer


def proportional(a, b, tol=1e-10):
    """True when matrices agree up to a global phase."""
    ov = np.trace(a.conj().T @ b) / 2
    return np.allclose(b, ov * a, atol=tol) and abs(abs(ov) - 1) < tol


def test_group_order():
    assert len(ALL_CLIFFORDS) == 24
    assert len({c.name for c in ALL_CLIFFORDS}) == 24


def test_group_closure_and_inverses():
    elems = set(ALL_CLIFFORDS)
    for a, b in itertools.product(ALL_CLIFFORDS, repeat=2):
        assert compose(a, b) in elems
    for c in ALL_CLIFFORDS:
        assert compose(c, c.inverse()) == IDENTITY
        assert compose(c.inverse(), c) == IDENTITY


def test_compose_matches_matrix_product():
    for a, b in itertools.product(ALL_CLIFFORDS, repeat=2):
        assert proportional(compose(a, b).matrix, a.matrix @ b.matrix)


def test_conjugate_matches_matrix_conjugation():
    for c in ALL_CLIFFORDS:
        u = c.matrix
        for letter in "XYZ":
            out_letter, sign = c.conjugate((letter, 1))
            got = u @ PAULI_MATRICES[letter] @ u.conj().T
            assert np.allclose(got, sign * PAULI_MATRICES[out_letter], atol=1e-10)


def test_generator_actions():
    assert HADAMARD.conjugate(("X", 1)) == ("Z", 1)
    assert HADAMARD.conjugate(("Z", 1)) == ("X", 1)
    assert HADAMARD.conjugate(("Y", 1)) == ("Y", -1)
    assert PHASE_S.conjugate(("X", 1)) == ("Y", 1)
    assert PHASE_S.conjugate(("Z", 1)) == ("Z", 1)


def test_name_round_trip():
    for c in ALL_CLIFFORDS:
        assert from_name(c.name) == c
    with pytest.raises(ValueError):
        from_name("Q")


def test_invalid_cliffords_rejected():
    with pytest.raises(ValueError):
        LocalClifford(("X", 1), ("X", -1))  # commuting images
    with pytest.raises(ValueError):
        LocalClifford(("I", 1), ("Z", 1))
    for images in [(("X", 1), ("I", -1)), (("I", 1), ("I", 1)), (("Y", -1), ("Y", 1)),
                   (("Z", 1), ("Z", -1))]:
        with pytest.raises(ValueError):
            LocalClifford(*images)


def test_pauli_product_table():
    for a, b in itertools.product("IXYZ", repeat=2):
        letter, phase = pauli_product((a, 1), (b, 1))
        got = PAULI_MATRICES[a] @ PAULI_MATRICES[b]
        assert np.allclose(got, phase * PAULI_MATRICES[letter])
        assert paulis_commute(a, b) == np.allclose(
            got, PAULI_MATRICES[b] @ PAULI_MATRICES[a])


def test_pauli_layer_decomposition():
    for c in ALL_CLIFFORDS:
        rep, letter = pauli_layer(c)
        assert compose(rep, PAULI_GATES[letter]) == c
        # the representative itself carries no Pauli layer
        assert pauli_layer(rep) == (rep, "I")


def test_lc_square_roots():
    # conjugation actions pinned to the principal branches
    assert SQRT_MINUS_IX.conjugate(("Z", 1)) == ("Y", -1)
    assert SQRT_MINUS_IX.conjugate(("X", 1)) == ("X", 1)
    assert SQRT_IZ.conjugate(("X", 1)) == ("Y", -1)
    assert SQRT_IZ.conjugate(("Z", 1)) == ("Z", 1)
    # canonical matrices square to -iX and iZ up to global phase
    assert proportional(SQRT_MINUS_IX.matrix @ SQRT_MINUS_IX.matrix,
                        -1j * PAULI_MATRICES["X"])
    assert proportional(SQRT_IZ.matrix @ SQRT_IZ.matrix, 1j * PAULI_MATRICES["Z"])


def test_pauli_gates_act_by_sign_flips():
    for letter, gate in PAULI_GATES.items():
        for target in "XYZ":
            out, sign = gate.conjugate((target, 1))
            assert out == target
            expected = 1 if paulis_commute(letter, target) else -1
            assert sign == expected


def test_index_tables_match_image_reference():
    """Walk ALL_CLIFFORDS against the frozen-image core: names, conjugation of
    signed Paulis, inverses, Pauli layers, all 576 products and matrices."""
    group = image_clifford_group()
    refs = list(group)
    index = {ref: i for i, ref in enumerate(refs)}
    assert len(refs) == len(ALL_CLIFFORDS) == 24
    for c, ref in zip(ALL_CLIFFORDS, refs):
        name, matrix = group[ref]
        assert c.name == name
        assert np.array_equal(c.matrix, matrix)
        for letter, sign in itertools.product("IXYZ", (1, -1)):
            assert c.conjugate((letter, sign)) == ref.conjugate((letter, sign))
        assert c.inverse() is ALL_CLIFFORDS[index[image_inverse(ref, refs)]]
        rep, letter = image_pauli_layer(ref, group)
        assert pauli_layer(c) == (ALL_CLIFFORDS[index[rep]], letter)
        assert LocalClifford(ref.image_of_x, ref.image_of_z) is c
        assert c
    for (a, ra), (b, rb) in itertools.product(zip(ALL_CLIFFORDS, refs), repeat=2):
        assert compose(a, b) is ALL_CLIFFORDS[index[ra.compose(rb)]]
