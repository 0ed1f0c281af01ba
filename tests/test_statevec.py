import itertools
import warnings

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
    full_unitary,
    shift_permutation_matrix,
    total_coin_matrix,
)
from coinwalk import statevec
from coinwalk.circuit import GATE_KINDS
from coinwalk.statevec import DENSE_QUBITS_MAX, MATRIX_BYTES_MAX, is_unitary
from oracles import identity_field

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


SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def random_monomial(dim, seed):
    """A permutation matrix with a random phase in each column."""
    rng = np.random.default_rng(seed)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rng.permutation(dim), np.arange(dim)] = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    return mat


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_and_dense_agree_on_random_programs(data):
    # x/swap with any number of controls (x, cnot, toffoli, swap, cswap, ...)
    # take the bit-column path; random unitaries and permutations with
    # phases take the mixing path, where a permutation's zero entries must
    # leave no spurious rows.
    num_qubits = data.draw(st.integers(2, 4))
    dense = basis(num_qubits, data.draw(st.integers(0, (1 << num_qubits) - 1)))
    sparse = SparseState(num_qubits, {i: a for i, a in enumerate(dense) if a})
    for step in range(data.draw(st.integers(1, 10))):
        wires = data.draw(
            st.permutations(range(num_qubits)).map(tuple)
        )
        kind = data.draw(st.sampled_from(["unitary", "monomial", "x", "swap"]))
        arity = {"x": 1, "swap": 2}.get(kind) or data.draw(st.integers(1, min(3, num_qubits)))
        n_controls = data.draw(st.integers(0, num_qubits - arity))
        seed = data.draw(st.integers(0, 2**16))
        gate = {
            "unitary": lambda: random_unitary(1 << arity, seed),
            "monomial": lambda: random_monomial(1 << arity, seed),
            "x": lambda: X,
            "swap": lambda: SWAP,
        }[kind]()
        targets = wires[:arity]
        controls = wires[arity:arity + n_controls]
        dense = apply_gate(dense, gate, targets, controls)
        sparse = sparse.apply_gate(gate, targets, controls)
    assert np.max(np.abs(sparse.to_dense() - dense)) < 1e-10
    assert dict(sparse.amplitudes) == {
        int(i): a for i, a in enumerate(sparse.to_dense()) if a != 0
    }


def test_sparse_state_over_64_wires_round_trips_its_indices():
    want = {(1 << 69) | 5: 0.6, 1 << 65: 0.8j, 3: 0.0}
    s = SparseState(70, want)
    assert len(s.amplitudes) == 2
    assert dict(s.amplitudes) == {(1 << 69) | 5: 0.6, 1 << 65: 0.8j}
    # bit moves: x on wire 67, cnot 69 -> 0, swap 65 <-> 66
    s = s.apply_gate(X, (67,)).apply_gate(X, (0,), (69,)).apply_gate(SWAP, (65, 66))
    assert dict(s.amplitudes) == {(1 << 69) | (1 << 67) | 4: 0.6, (1 << 67) | (1 << 66): 0.8j}
    # mixing: H on wire 68 twice merges back onto the same two indices
    s = s.apply_gate(H, (68,))
    assert len(s.amplitudes) == 4
    s = s.apply_gate(H, (68,))
    assert set(s.amplitudes) == {(1 << 69) | (1 << 67) | 4, (1 << 67) | (1 << 66)}
    assert s.amplitude((1 << 69) | (1 << 67) | 4) == pytest.approx(0.6, abs=1e-15)
    assert s.amplitude((1 << 67) | (1 << 66)) == pytest.approx(0.8j, abs=1e-15)
    assert s.amplitude(1 << 68) == 0
    assert s.norm() == pytest.approx(1.0)


def test_sparse_amplitudes_are_a_read_only_view():
    s = SparseState.from_basis(2, 3)
    with pytest.raises(TypeError):
        s.amplitudes[0] = 1.0
    with pytest.raises(AttributeError):
        s.amplitudes = {0: 1.0}
    assert s.apply_gate(X, (0,)).amplitudes == {2: 1.0}
    assert s.amplitudes == {3: 1.0}


@pytest.mark.parametrize(
    "gate",
    [
        np.array([[1, 0], [1, 0]], dtype=complex),  # one entry per row, one column
        np.array([[0, 0], [0, 2j]], dtype=complex),  # diagonal with a zero
        np.array([[0, 1], [0, 0]], dtype=complex),
    ],
)
def test_sparse_matches_dense_on_non_unitary_matrices(gate):
    amps = {0b00: 1.0, 0b01: 0.5, 0b10: 0.25j, 0b11: -0.75}
    dense = np.array(list(amps.values()), dtype=complex)
    sparse = SparseState(2, amps)
    for targets, controls in [((0,), ()), ((1,), (0,))]:
        dense = apply_gate(dense, gate, targets, controls)
        sparse = sparse.apply_gate(gate, targets, controls)
        assert np.array_equal(sparse.to_dense(), dense)


def test_sparse_prunes_vanished_amplitudes():
    s = SparseState.from_basis(1, 0).apply_gate(H, (0,)).apply_gate(H, (0,))
    assert len(s.amplitudes) == 1
    assert s.amplitude(0) == pytest.approx(1.0)
    assert s.amplitude(1) == 0
    # a diagonal gate that scales an amplitude under the tolerance drops it
    tiny = np.diag([1e-15, 1]).astype(complex)
    assert len(SparseState.from_basis(1, 0).apply_gate(tiny, (0,)).amplitudes) == 0


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


@pytest.mark.parametrize("layout", ["fortran", "sliced"])
def test_circuit_unitary_runs_in_place_on_strided_columns(layout):
    regs = RegisterMap.walk(2)
    gates = [
        GateInstance("u2", targets=(regs.coin(),), matrix=random_unitary(2, 4)),
        GateInstance("cnot", controls=(regs.position(1),), targets=(regs.coin(),)),
        GateInstance("cswap", controls=(regs.coin(),), targets=(regs.position(0), regs.position(1))),
        GateInstance("mcu2", controls=(regs.coin(), regs.position(1)), targets=(regs.position(0),),
                     matrix=random_unitary(2, 5)),
    ]
    circ = Circuit(regs, gates, {})
    rng = np.random.default_rng(7)
    data = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
    columns = np.asfortranarray(data[:8]) if layout == "fortran" else data[::2]
    between = data[1::2].copy()
    want = circuit_unitary(circ) @ columns
    got = circuit_unitary(circ, columns)
    assert got is columns
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.array_equal(data[1::2], between)  # rows outside the slice are untouched


def test_full_unitary_applies_tracked_phase():
    regs = RegisterMap.walk(1)
    circ = Circuit(regs, [], {"global_phase": np.pi / 3})
    assert np.allclose(full_unitary(circ), np.exp(1j * np.pi / 3) * np.eye(4))


def test_circuit_unitary_respects_dense_cap(monkeypatch):
    monkeypatch.setattr(statevec, "DENSE_QUBITS_MAX", 2)
    regs = RegisterMap.walk(2)
    with pytest.raises(ToolkitError) as err:
        circuit_unitary(Circuit(regs, [], {}))
    assert err.value.code == "dense-limit-exceeded"


def test_square_matrices_over_the_byte_budget_are_refused(no_large_matrices):
    # 14 qubits pass the qubit cap; the 2^14-square matrix is 4 GiB.
    assert DENSE_QUBITS_MAX == 14 and MATRIX_BYTES_MAX == 16 << 26
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


def test_is_unitary_refuses_a_huge_entry_without_a_warning():
    # 1e300 squared overflows the Gram product to inf, and inf - inf is NaN
    huge = np.eye(2, dtype=complex)
    huge[0, 0] = 1e300
    stack = np.array([np.eye(2), huge, huge * 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_unitary(huge) is False
        assert is_unitary(stack).tolist() == [True, False, False]


def two_by_two_cases():
    """2x2 matrices for the scalar path: unitaries, entries 1% either side of
    the tolerance (on a column norm and on the columns' inner product, whose
    size ``math.hypot`` takes), and entries NaN, +-inf and 1e200."""
    atol = statevec.ATOL_UNITARY
    cases = [random_unitary(2, seed) for seed in range(50)]
    for side in (0.99, 1.01):
        u = random_unitary(2, 7)
        cases.append(u * np.array([np.sqrt(1 + side * atol), 1.0]))
        cases.append(u * np.array([1.0, np.sqrt(1 - side * atol)]))
        cases.append(np.array([[1, side * atol * np.exp(0.7j)], [0, 1]]))
    for bad in (np.nan, np.inf, -np.inf, 1e200, 1e200j):
        for i in range(4):
            m = random_unitary(2, i).reshape(4)
            m[i] = bad
            cases.append(m.reshape(2, 2))
    return cases


def test_the_scalar_2x2_check_agrees_with_the_stack_check():
    cases = two_by_two_cases()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [is_unitary(m) for m in cases]
        assert got == [bool(is_unitary(m[None])[0]) for m in cases]
    assert all(type(ok) is bool for ok in got)
    assert got[:50] == [True] * 50
    assert got[50:56] == [True, True, True, False, False, False]
    assert not any(got[56:])


# -- the dense kernel's paths -------------------------------------------------

def fewest_controls(kind):
    n_ctl = GATE_KINDS[kind][0]
    return 1 if n_ctl is None else n_ctl


def kind_matrix(kind, rng, shape="random"):
    """The target matrix of a ``kind`` gate; an explicit matrix is random,
    diagonal or exactly X, as ``shape`` says."""
    payload = GATE_KINDS[kind][2]
    if payload == "matrix":
        return {
            "random": random_unitary(2, int(rng.integers(1 << 30))),
            "diagonal": np.diag(np.exp(1j * rng.uniform(-3, 3, 2))),
            "x": X,
        }[shape]
    n_ctl = fewest_controls(kind)
    wires = range(n_ctl + GATE_KINDS[kind][1])
    angle = float(rng.uniform(-7, 7)) if payload == "angle" else None
    return GateInstance(kind, wires[:n_ctl], wires[n_ctl:], angle).matrix_on_targets()


def full_matrix(mat, targets, controls, num_qubits):
    """The gate on every wire, by index arithmetic: column ``i`` is the image of ``|i>``."""
    dim = 1 << num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if not all(i >> c & 1 for c in controls):
            out[i, i] = 1
            continue
        col = 0
        for t in targets:  # targets[0] is the most significant gate bit
            col = col << 1 | (i >> t & 1)
        for row in range(len(mat)):
            j = i
            for k, t in enumerate(reversed(targets)):
                j = (j & ~(1 << t)) | ((row >> k & 1) << t)
            out[j, i] += mat[row, col]
    return out


def kernel_cases():
    for kind, (_, n_tgt, payload) in GATE_KINDS.items():
        for num_qubits in range(fewest_controls(kind) + n_tgt, 4):
            for shape in ("random", "diagonal", "x") if payload == "matrix" else ("random",):
                yield pytest.param(kind, num_qubits, shape, id=f"{kind}-{shape}-{num_qubits}")


@pytest.mark.parametrize("kind,num_qubits,shape", kernel_cases())
def test_every_kind_matches_its_full_matrix_on_small_vectors(kind, num_qubits, shape):
    # 1-D vectors where the controls and targets take every axis leave 0-d slices.
    mat = kind_matrix(kind, np.random.default_rng(num_qubits), shape)
    n_ctl = fewest_controls(kind)
    for wires in itertools.permutations(range(num_qubits), n_ctl + GATE_KINDS[kind][1]):
        controls, targets = wires[:n_ctl], wires[n_ctl:]
        want = full_matrix(mat, targets, controls, num_qubits)
        got = np.stack([apply_gate(basis(num_qubits, i), mat, targets, controls)
                        for i in range(1 << num_qubits)], axis=1)
        assert np.array_equal(got, want), (controls, targets)


def tensordot_reference(circ, z):
    """``z`` after every gate of ``circ``, each through a fresh array and one ``tensordot``."""
    q = circ.num_wires
    for g in circ.gates:
        out = np.array(z).reshape((2,) * q + z.shape[1:])
        m = len(g.targets)
        wires = [q - 1 - w for w in g.targets + g.controls]
        block = np.moveaxis(out, wires, range(len(wires)))[(slice(None),) * m + (1,) * len(g.controls)]
        block[...] = np.tensordot(g.matrix_on_targets().reshape((2,) * 2 * m), block.copy(),
                                  axes=(range(m, 2 * m), range(m)))
        z = out.reshape(z.shape)
    return z


def random_gates(rng, count, num_qubits, kinds):
    gates = []
    for k in range(count):
        kind = kinds[k % len(kinds)]
        n_ctl, n_tgt, payload = GATE_KINDS[kind]
        if n_ctl is None:
            n_ctl = int(rng.integers(1, 4))
        wires = [int(w) for w in rng.permutation(num_qubits)[:n_ctl + n_tgt]]
        angle = float(rng.uniform(-7, 7)) if payload == "angle" else None
        matrix = None
        if payload == "matrix":
            matrix = kind_matrix(kind, rng, ("random", "diagonal", "x")[int(rng.integers(3))])
        gates.append(GateInstance(kind, wires[:n_ctl], wires[n_ctl:], angle, matrix))
    return gates


def strided_inputs(rng, num_qubits):
    """A vector and a 3-column block, each C-ordered, Fortran-ordered and sliced."""
    dim = 1 << num_qubits
    data = rng.normal(size=(2 * dim, 3)) + 1j * rng.normal(size=(2 * dim, 3))
    flat = data[:, 0].copy()
    return {
        "vector": flat[:dim].copy(),
        "sliced-vector": flat[::2],
        "block": data[:dim].copy(),
        "fortran-block": np.asfortranarray(data[:dim]),
        "sliced-block": data[::2],
    }


def test_random_gates_of_every_kind_match_a_tensordot_reference():
    rng = np.random.default_rng(12)
    num_qubits = 8
    circ = Circuit(RegisterMap.walk(num_qubits - 1),
                   random_gates(rng, 650, num_qubits, sorted(GATE_KINDS)), {})
    for name, z in strided_inputs(rng, num_qubits).items():
        want = tensordot_reference(circ, z)
        scale = np.max(np.abs(want))
        if name == "vector":
            assert np.max(np.abs(apply_circuit(z, circ) - want)) <= 1e-13 * scale
        got = circuit_unitary(circ, z)
        assert got is z
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, name


def test_permutation_gates_move_data_bit_for_bit():
    rng = np.random.default_rng(13)
    num_qubits = 8
    circ = Circuit(RegisterMap.walk(num_qubits - 1),
                   random_gates(rng, 600, num_qubits, ["cnot", "cswap", "swap", "x"]), {})
    for name, z in strided_inputs(rng, num_qubits).items():
        want = tensordot_reference(circ, z)
        assert np.array_equal(circuit_unitary(circ, z), want), name


def test_no_gate_kind_reaches_tensordot(monkeypatch):
    rng = np.random.default_rng(14)
    circ = Circuit(RegisterMap.walk(5), random_gates(rng, 200, 6, sorted(GATE_KINDS)), {})

    def refuse(*args, **kwargs):
        raise RuntimeError("reached the tensordot path")

    monkeypatch.setattr(np, "tensordot", refuse)
    monkeypatch.setattr(np, "moveaxis", refuse)
    circuit_unitary(circ)
    with pytest.raises(RuntimeError, match="tensordot"):  # an explicit 4x4 matrix still does
        apply_gate(basis(2, 0), random_unitary(4, 3), (0, 1))


# -- the exact X / SWAP column path -------------------------------------------


def random_sparse(num_qubits, seed, rows):
    rng = np.random.default_rng(seed)
    indices = rng.choice(1 << num_qubits, size=rows, replace=False).tolist()
    return SparseState(num_qubits, {i: complex(*rng.normal(size=2)) for i in indices})


@pytest.mark.parametrize("gate,targets", [(X, (3,)), (SWAP, (1, 4))])
@pytest.mark.parametrize("controls", [(), (0,), (2, 0)])
def test_exact_x_and_swap_move_bits_and_keep_amplitudes(monkeypatch, gate, targets, controls):
    def refuse(bits, targets):
        raise AssertionError("an exact X or SWAP reached the mixing path")

    monkeypatch.setattr(statevec, "_local_index", refuse)
    s = random_sparse(5, 7 + len(controls), 20)
    before = s.to_dense()
    out = s.apply_gate(gate, targets, controls)
    assert np.array_equal(out.to_dense(), apply_gate(before, gate, targets, controls))
    # the amplitude values are the input's bit for bit, only their indices move
    assert np.array_equal(np.sort_complex(np.array(list(out.amplitudes.values()))),
                          np.sort_complex(before[before != 0]))
    assert np.array_equal(s.to_dense(), before)


def test_a_near_x_matrix_takes_the_general_path(monkeypatch):
    calls = []
    local_index = statevec._local_index
    monkeypatch.setattr(statevec, "_local_index",
                        lambda bits, targets: calls.append(targets) or local_index(bits, targets))
    near_x = np.array([[0, 1 - 2**-52], [1, 0]], dtype=complex)
    s = random_sparse(4, 3, 12)
    before = s.to_dense()
    out = s.apply_gate(near_x, (2,), (1,))
    assert len(calls) == 1
    assert np.max(np.abs(out.to_dense() - apply_gate(before, near_x, (2,), (1,)))) <= 1e-15
    assert np.array_equal(s.to_dense(), before)
