import numpy as np
import pytest

from coinwalk import (
    Circuit,
    RegisterMap,
    ToolkitError,
    build_shift_id,
    build_shift_qft,
    circuit_unitary,
    predicted_cost,
    shift_permutation_matrix,
)
from coinwalk import statevec
from coinwalk.shift import SCHEMES, build_shift, omega_phase_gates, qft_gates


def test_permutation_matrix_moves_each_coin_branch():
    n = 3
    s = shift_permutation_matrix(n)
    big_n = 1 << n
    for k in range(big_n):
        down = np.zeros(2 * big_n)
        down[2 * k] = 1
        assert np.argmax(s @ down) == 2 * ((k - 1) % big_n)
        up = np.zeros(2 * big_n)
        up[2 * k + 1] = 1
        assert np.argmax(s @ up) == 2 * ((k + 1) % big_n) + 1
    assert np.allclose(s @ s.conj().T, np.eye(2 * big_n))


def test_permutation_matrix_respects_dense_cap(monkeypatch):
    monkeypatch.setattr(statevec, "DENSE_QUBITS_MAX", 3)
    with pytest.raises(ToolkitError) as err:
        shift_permutation_matrix(3)
    assert err.value.code == "dense-limit-exceeded"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qft_scheme_matches_permutation(n):
    got = circuit_unitary(build_shift_qft(n))
    assert np.max(np.abs(got - shift_permutation_matrix(n))) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_id_scheme_matches_permutation(n):
    got = circuit_unitary(build_shift_id(n))
    assert np.max(np.abs(got - shift_permutation_matrix(n))) <= 1e-9


def test_qft_gates_equal_fourier_matrix_up_to_bit_reversal():
    n = 3
    regs = RegisterMap.walk(n)
    u = circuit_unitary(Circuit(regs, qft_gates(n), {}))
    big_n = 1 << n
    f = np.array(
        [[np.exp(2j * np.pi * q * k / big_n) for k in range(big_n)] for q in range(big_n)]
    ) / np.sqrt(big_n)
    rev = [int(f"{q:0{n}b}"[::-1], 2) for q in range(big_n)]
    # coin wire untouched; position block is R F with R the bit reversal
    got = u[::2, ::2]
    assert np.max(np.abs(got[rev, :] - f)) <= 1e-12
    assert np.max(np.abs(u[1::2, 1::2] - got)) <= 1e-12


@pytest.mark.parametrize("reversed_wires", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_omega_phase_gates_build_the_gradient(sign, reversed_wires):
    n = 3
    regs = RegisterMap.walk(n)
    u = circuit_unitary(Circuit(regs, omega_phase_gates(n, sign, reversed_wires), {}))
    big_n = 1 << n
    diag = np.diagonal(u[::2, ::2])
    for q in range(big_n):
        label = int(f"{q:0{n}b}"[::-1], 2) if reversed_wires else q
        assert diag[q] == pytest.approx(np.exp(sign * 2j * np.pi * label / big_n))


def test_id_scheme_gate_inventory():
    n = 4
    circ = build_shift_id(n)
    kinds = [g.kind for g in circ.gates]
    assert kinds.count("x") == 2
    assert kinds.count("cnot") == 2
    assert kinds.count("mcu2") == 2 * (n - 1)
    assert len(circ.gates) == 2 * n + 2


def test_predicted_cost_reference_values():
    assert predicted_cost("qft", 3) == (22, 9)
    assert predicted_cost("id", 4) == (20, 18)


def test_predicted_cost_id_size_is_integral():
    # the cubic for the id scheme must divide by 3 for every n
    for n in range(1, 30):
        assert n * (2 * n * n - 6 * n + 7) % 3 == 0
        size, d = predicted_cost("id", n)
        assert size * 3 == n * (2 * n * n - 6 * n + 7)


def test_predicted_cost_rejects_bad_input():
    with pytest.raises(ValueError):
        predicted_cost("grover", 2)
    with pytest.raises(ValueError):
        predicted_cost("qft", 0)


def test_build_shift_refuses_an_unknown_scheme():
    assert [build_shift(s, 2).metadata["builder"] for s in SCHEMES] == ["shift-qft", "shift-id"]
    for scheme in ["bogus", "QFT", ""]:
        with pytest.raises(ValueError, match="unknown shift scheme"):
            build_shift(scheme, 2)


def test_builders_tag_metadata():
    assert build_shift_qft(2).metadata == {"builder": "shift-qft", "n": 2}
    assert build_shift_id(2).metadata == {"builder": "shift-id", "n": 2}
