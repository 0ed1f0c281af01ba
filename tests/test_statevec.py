import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    Circuit,
    GateInstance,
    RegisterMap,
    SparseState,
    ToolkitError,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    dense_limit,
    full_unitary,
    identity_field,
    shift_permutation_matrix,
    spectral_norm_diff,
    total_coin_matrix,
)
from coinwalk.statevec import MATRIX_BYTES_MAX, is_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def basis(num_qubits, index):
    v = np.zeros(1 << num_qubits, dtype=complex)
    v[index] = 1.0
    return v


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_wire_zero_is_least_significant_bit():
    out = apply_gate(basis(2, 0), X, (0,))
    assert np.allclose(out, basis(2, 1))
    out = apply_gate(basis(2, 0), X, (1,))
    assert np.allclose(out, basis(2, 2))


def test_first_target_is_most_significant_gate_axis():
    # local matrix |a b> -> |a, a xor b>, so targets[0] carries a
    cx_local = np.eye(4)[:, [0, 1, 3, 2]].astype(complex)
    out = apply_gate(basis(2, 0b01), cx_local, (0, 1))
    assert np.allclose(out, basis(2, 0b11))
    out = apply_gate(basis(2, 0b10), cx_local, (0, 1))
    assert np.allclose(out, basis(2, 0b10))
    # swapping the target order swaps the roles
    out = apply_gate(basis(2, 0b10), cx_local, (1, 0))
    assert np.allclose(out, basis(2, 0b11))


def test_controls_gate_only_on_all_ones():
    out = apply_gate(basis(2, 0b00), X, (0,), controls=(1,))
    assert np.allclose(out, basis(2, 0b00))
    out = apply_gate(basis(2, 0b10), X, (0,), controls=(1,))
    assert np.allclose(out, basis(2, 0b11))


def test_apply_gate_rejects_overlapping_wires():
    with pytest.raises(ToolkitError) as err:
        apply_gate(basis(2, 0), X, (0,), controls=(0,))
    assert err.value.code == "duplicate-qubit"


def test_apply_gate_rejects_wrong_arity():
    with pytest.raises(ToolkitError) as err:
        apply_gate(basis(2, 0), np.eye(4, dtype=complex), (0,))
    assert err.value.code == "gate-arity-mismatch"


def test_sparse_matches_dense_on_basis_gates():
    dense = basis(3, 0b101)
    sparse = SparseState.from_basis(3, 0b101)
    for gate, targets, controls in [
        (H, (0,), ()),
        (X, (2,), (0,)),
        (random_unitary(2, 4), (1,), ()),
        (random_unitary(4, 5), (2, 0), (1,)),
    ]:
        dense = apply_gate(dense, gate, targets, controls)
        sparse = sparse.apply_gate(gate, targets, controls)
        assert np.allclose(sparse.to_dense(), dense, atol=1e-12)
    assert sparse.norm() == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_and_dense_agree_on_random_programs(data):
    num_qubits = data.draw(st.integers(2, 4))
    dense = basis(num_qubits, data.draw(st.integers(0, (1 << num_qubits) - 1)))
    sparse = SparseState(num_qubits, {i: a for i, a in enumerate(dense) if a})
    for step in range(data.draw(st.integers(1, 8))):
        wires = data.draw(
            st.permutations(range(num_qubits)).map(tuple)
        )
        arity = data.draw(st.integers(1, 2))
        n_controls = data.draw(st.integers(0, num_qubits - arity))
        gate = random_unitary(1 << arity, data.draw(st.integers(0, 2**16)))
        targets = wires[:arity]
        controls = wires[arity:arity + n_controls]
        dense = apply_gate(dense, gate, targets, controls)
        sparse = sparse.apply_gate(gate, targets, controls)
    assert np.max(np.abs(sparse.to_dense() - dense)) < 1e-10


def test_sparse_prunes_vanished_amplitudes():
    s = SparseState.from_basis(1, 0).apply_gate(H, (0,)).apply_gate(H, (0,))
    assert s.support() == 1
    assert s.amplitude(0) == pytest.approx(1.0)
    assert s.amplitude(1) == 0


def test_apply_circuit_and_unitary_agree():
    regs = RegisterMap.walk(2)
    gates = [
        GateInstance("u2", targets=(regs.coin(),), matrix=random_unitary(2, 9)),
        GateInstance("cnot", controls=(regs.coin(),), targets=(regs.position(1),)),
        GateInstance("swap", targets=(regs.position(0), regs.position(1))),
        GateInstance("rz", targets=(regs.position(0),), angle=0.7),
    ]
    circ = Circuit(regs, gates, {})
    u = circuit_unitary(circ)
    assert is_unitary(u)
    vec = basis(3, 5)
    assert np.allclose(apply_circuit(vec, circ), u @ vec, atol=1e-12)


def test_full_unitary_applies_tracked_phase():
    regs = RegisterMap.walk(1)
    circ = Circuit(regs, [], {"global_phase": np.pi / 3})
    assert np.allclose(full_unitary(circ), np.exp(1j * np.pi / 3) * np.eye(4))


def test_circuit_unitary_respects_dense_cap(monkeypatch):
    monkeypatch.setenv("QWALK_DENSE_LIMIT", "2")
    assert dense_limit() == 2
    regs = RegisterMap.walk(2)
    with pytest.raises(ToolkitError) as err:
        circuit_unitary(Circuit(regs, [], {}))
    assert err.value.code == "dense-limit-exceeded"


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_spectral_norm_matches_svd(dim):
    # power iteration cross-checked against the numpy 2-norm
    rng = np.random.default_rng(dim)
    a = random_unitary(dim, 21)
    b = random_unitary(dim, 22)
    want = np.linalg.norm(a - b, ord=2)
    got = spectral_norm_diff(a, b)
    assert got == pytest.approx(want, rel=1e-6)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert spectral_norm_diff(m, np.zeros_like(m)) == pytest.approx(
        np.linalg.norm(m, ord=2), rel=1e-6
    )


def test_spectral_norm_of_equal_matrices_is_zero():
    u = random_unitary(8, 3)
    assert spectral_norm_diff(u, u) <= 1e-12


def test_square_matrices_over_the_byte_budget_are_refused(no_large_matrices, monkeypatch):
    # 14 qubits pass the default qubit cap; the 2^14-square matrix is 4 GiB.
    monkeypatch.delenv("QWALK_DENSE_LIMIT", raising=False)
    assert dense_limit() == 14 and MATRIX_BYTES_MAX == 16 << 26
    builds = [
        lambda: circuit_unitary(Circuit(RegisterMap.walk(13), [], {})),
        lambda: shift_permutation_matrix(13),
        lambda: total_coin_matrix(identity_field(13)),
    ]
    for build in builds:
        with pytest.raises(ToolkitError) as err:
            build()
        assert err.value.code == "dense-limit-exceeded"


def test_is_unitary_helper():
    assert is_unitary(random_unitary(4, 1))
    assert not is_unitary(np.ones((2, 2), dtype=complex))
