import numpy as np
import pytest

from monogate.gate_core import (
    HADAMARD,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QuantumGate,
    QubitState,
    apply,
    controlled,
    named_gate,
    parse_gate_name,
)
from monogate.matrices import matrix_from_json, matrix_to_json, unitarity_defect
from oracles import (
    pauli_coefficients,
    projective_distance,
    random_traceless_hermitian_unitary,
    random_unitary,
    tensor,
)


def test_named_gate_literals():
    assert np.array_equal(named_gate("X").matrix, np.array([[0, 1], [1, 0]]))
    assert np.array_equal(named_gate("Y").matrix, np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(named_gate("Z").matrix, np.array([[1, 0], [0, -1]]))
    assert np.allclose(named_gate("H").matrix, np.array([[1, 1], [-1, 1]]) / np.sqrt(2))
    assert np.allclose(named_gate("H_std").matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_phase_gate_alpha_one_is_sigma_z():
    g = named_gate("PHASE", 1.0)
    assert np.allclose(g.matrix, SIGMA_Z, atol=1e-15)


def test_phase_requires_param():
    with pytest.raises(ValueError):
        named_gate("PHASE")


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        named_gate("FOO")


def test_h_squared():
    # multiply the printed H by itself by hand: (H^2)_00 = 0
    h2 = HADAMARD @ HADAMARD
    assert np.allclose(h2, np.array([[0, 1], [-1, 0]]), atol=1e-15)


def test_parse_gate_name_phase_spec():
    g = parse_gate_name("PHASE:0.25")
    assert np.isclose(g.matrix[1, 1], np.exp(1j * np.pi / 4))


def test_cnot_ccnot_names():
    assert parse_gate_name("CNOT").qubits == 2
    assert parse_gate_name("CCNOT").qubits == 3


def test_controlled_zero_is_not():
    g = controlled(named_gate("X"), 0)
    assert np.array_equal(g.matrix, SIGMA_X)


def test_cnot_truth_table():
    cnot = controlled(named_gate("X"), 1)
    for u in (0, 1):
        for v in (0, 1):
            state = QubitState.basis(f"{u}{v}")
            out = apply(cnot, state)
            expected = QubitState.basis(f"{u}{v ^ u}")
            assert np.array_equal(out.amplitudes, expected.amplitudes)


def test_ccnot_truth_table():
    ccnot = controlled(named_gate("X"), 2)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                out = apply(ccnot, QubitState.basis(f"{a}{b}{c}"))
                expected = QubitState.basis(f"{a}{b}{c ^ (a & b)}")
                assert np.array_equal(out.amplitudes, expected.amplitudes)


def test_controlled_block_structure_exhaustive():
    # control subspace |1...1> acts as U, every other control state as identity
    rng = np.random.default_rng(3)
    for k in (1, 2, 3):
        for qu in (1, 2):
            u = random_unitary(2**qu, rng)
            g = controlled(QuantumGate(u), k)
            du = 2**qu
            for row in range(2**k):
                for col in range(2**k):
                    block = g.matrix[row * du : (row + 1) * du, col * du : (col + 1) * du]
                    if row != col:
                        assert np.allclose(block, 0.0)
                    elif row == 2**k - 1:
                        assert np.allclose(block, u)
                    else:
                        assert np.allclose(block, np.eye(du))


def test_cnot_projector_decomposition():
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    decomposed = np.kron(p0, IDENTITY_2) + np.kron(p1, SIGMA_X)
    assert np.array_equal(decomposed, controlled(named_gate("X"), 1).matrix)


def test_tensor_identity():
    g = tensor([QuantumGate(IDENTITY_2), QuantumGate(IDENTITY_2)])
    assert np.array_equal(g.matrix, np.eye(4))
    assert g.qubits == 2


def test_tensor_double_flip():
    g = tensor([named_gate("X"), named_gate("X")])
    out = apply(g, QubitState.basis("00"))
    assert np.array_equal(out.amplitudes, QubitState.basis("11").amplitudes)


def test_tensor_zz():
    g = tensor([named_gate("Z"), named_gate("Z")])
    assert np.array_equal(g.matrix, np.diag([1, -1, -1, 1]).astype(complex))


def test_apply_not_swaps_amplitudes():
    alpha, beta = 0.6, 0.8
    out = apply(named_gate("X"), QubitState([alpha, beta]))
    assert np.allclose(out.amplitudes, [beta, alpha])


def test_apply_h_to_zero_state():
    out = apply(named_gate("H"), QubitState([1, 0]))
    assert np.allclose(out.amplitudes, np.array([1, -1]) / np.sqrt(2))


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(named_gate("X"), QubitState.basis("00"))


def test_gate_unitarity_enforced():
    with pytest.raises(ValueError):
        QuantumGate(np.array([[1, 0], [0, 1.001]]))
    for name in ("X", "Y", "Z", "H", "H_std", "CNOT", "CCNOT"):
        assert unitarity_defect(named_gate(name).matrix) <= 1e-10


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        QubitState([1.0, 1.0])


def test_pauli_coefficients_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = random_traceless_hermitian_unitary(rng)
        x, y, z = pauli_coefficients(u)
        assert abs(x * x + y * y + z * z - 1.0) < 1e-12
        rebuilt = x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z
        assert np.allclose(rebuilt, u, atol=1e-12)


def test_matrix_json_roundtrip():
    m = named_gate("Y").matrix
    again = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(m, again)


def test_projective_distance():
    u = named_gate("H_std").matrix
    assert projective_distance(u, np.exp(0.7j) * u) < 1e-12
    # distance to a genuinely different gate is positive
    assert projective_distance(u, SIGMA_Z) > 0.5
