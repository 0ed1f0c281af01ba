import numpy as np
import pytest

from coinwalk import (
    Circuit,
    GateInstance,
    RegisterMap,
    ToolkitError,
    build_linear,
    build_naive,
    euler_factorization,
    full_unitary,
    random_field,
)
from coinwalk import transpile
from coinwalk.circuit import BASIS_KINDS
from coinwalk.statevec import apply_gate, is_unitary
from coinwalk.transpile import (
    compile_circuit,
    controlled_u2_gates,
    cp_gates,
    cswap_gates,
    cz_gates,
    decompose_su2,
    expand_swaps,
    sqrt_u2,
    swap_gates,
    toffoli_gates,
    x_gates,
)
from coinwalk.walsh import gray_code_optimize
from oracles import decompose_mcu


def unitary_of(gates, num_wires):
    dim = 1 << num_wires
    u = np.eye(dim, dtype=complex)
    for g in gates:
        u = np.column_stack(
            [apply_gate(u[:, c], g.matrix_on_targets(), g.targets, g.controls)
             for c in range(dim)]
        )
    return u


def random_u2(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def embed(u, wires, targets, controls=()):
    return unitary_of(
        [GateInstance("mcu2" if controls else "u2", tuple(controls), tuple(targets), matrix=u)],
        wires,
    )


X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def rz(a):
    return np.array([[np.exp(-0.5j * a), 0], [0, np.exp(0.5j * a)]])


def ry(a):
    return np.array([[np.cos(a / 2), -np.sin(a / 2)], [np.sin(a / 2), np.cos(a / 2)]])


def zyz_rebuild(f0, f1, f2, f3):
    """u = e^{i F0} Rz(-2 F1) Ry(-2 F2) Rz(-2 F3), the form the transpiler emits."""
    return np.exp(1j * f0) * (rz(-2 * f1) @ ry(-2 * f2) @ rz(-2 * f3))


@pytest.mark.parametrize("seed", range(6))
def test_zyz_angles_reconstruct(seed):
    u = random_u2(seed)
    assert np.max(np.abs(zyz_rebuild(*euler_factorization(u)) - u)) < 1e-12


@pytest.mark.parametrize("u", [np.eye(2, dtype=complex), X, H, np.diag([1, 1j])])
def test_zyz_angles_special_matrices(u):
    f = euler_factorization(u)
    assert np.isfinite(f).all()
    assert -np.pi / 2 <= f[2] <= 0.0
    assert np.max(np.abs(zyz_rebuild(*f) - u)) < 1e-12


@pytest.mark.parametrize(
    "u", [ry(0.7), H, X, np.diag([np.exp(0.3j), np.exp(-0.9j)])], ids=["ry", "h", "x", "diagonal"]
)
def test_decompose_su2_rotates_by_minus_twice_the_euler_angles(u):
    f0, f1, f2, f3 = euler_factorization(u)
    gates, phase = decompose_su2(u, 0)
    want = [(kind, a) for kind, a in [("rz", -2 * f3), ("ry", -2 * f2), ("rz", -2 * f1)] if abs(a) > 1e-13]
    assert [(g.kind, g.angle) for g in gates] == want
    assert phase == f0


def test_decompose_su2_matches_with_phase():
    u = random_u2(11)
    gates, phase = decompose_su2(u, 0)
    assert all(g.kind in BASIS_KINDS or g.kind == "p" for g in gates)
    got = np.exp(1j * phase) * unitary_of(gates, 1)
    assert np.max(np.abs(got - u)) < 1e-12


def test_fixed_gate_rewrites_are_exact():
    x = unitary_of(x_gates(0), 1)
    assert np.max(np.abs(x - X)) < 1e-15  # P(pi) Ry(pi) has no residual phase
    swap = unitary_of(swap_gates(0, 1), 2)
    want = embed(np.eye(2), 2, (0,))[:, [0, 2, 1, 3]]
    assert np.max(np.abs(swap - want)) < 1e-15
    cz = unitary_of(cz_gates(1, 0), 2)
    assert np.max(np.abs(cz - np.diag([1, 1, 1, -1]))) < 1e-12
    lam = 0.77
    cp = unitary_of(cp_gates(1, 0, lam), 2)
    assert np.max(np.abs(cp - np.diag([1, 1, 1, np.exp(1j * lam)]))) < 1e-12


def test_toffoli_rewrite_is_exact_no_phase():
    got = unitary_of(toffoli_gates(2, 1, 0), 3)
    want = np.eye(8, dtype=complex)
    want[6:8, 6:8] = X
    assert np.max(np.abs(got - want)) < 1e-12


def test_cswap_rewrite():
    got = unitary_of(cswap_gates(2, 1, 0), 3)
    want = np.eye(8)[:, [0, 1, 2, 3, 4, 6, 5, 7]].astype(complex)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_controlled_u2_rewrite(seed):
    u = random_u2(seed + 50)
    got = unitary_of(controlled_u2_gates(1, 0, u), 2)
    want = embed(u, 2, (0,), controls=(1,))
    assert np.max(np.abs(got - want)) < 1e-12


def test_sqrt_u2_squares_back():
    for seed in range(5):
        u = random_u2(seed + 9)
        v = sqrt_u2(u)
        assert is_unitary(v)
        assert np.max(np.abs(v @ v - u)) < 1e-12
    assert np.max(np.abs(sqrt_u2(np.eye(2)) - np.eye(2))) < 1e-12


def run_x_ops(ops, index):
    for op in ops:
        if op[0] == "x":
            index ^= 1 << op[1]
        elif all((index >> c) & 1 for c in op[1:-1]):
            index ^= 1 << op[-1]
    return index


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_mcx_chain_toggles_and_restores_borrows(m):
    controls = tuple(range(m))
    target = m
    dirty = tuple(range(m + 1, m + 1 + (m - 2)))
    ops = transpile._mcx_chain(controls, target, dirty)
    num_wires = m + 1 + (m - 2)
    for index in range(1 << num_wires):
        want = index ^ (1 << target) if all((index >> c) & 1 for c in controls) else index
        assert run_x_ops(ops, index) == want


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_mcx_split_works_with_one_borrow(m):
    controls = tuple(range(m))
    target = m
    pool = (m + 1,)
    ops = transpile._mcx_ops(controls, target, pool)
    for index in range(1 << (m + 2)):
        want = index ^ (1 << target) if all((index >> c) & 1 for c in controls) else index
        assert run_x_ops(ops, index) == want


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_decompose_mcu_random_unitary(k):
    u = random_u2(k)
    controls = tuple(range(1, k + 1))
    gates = decompose_mcu(controls, 0, u)
    assert all(g.kind in BASIS_KINDS for g in gates)
    assert len(gates) <= 64 * k * k
    got = unitary_of(gates, k + 1)
    want = embed(u, k + 1, (0,), controls=controls)
    assert np.max(np.abs(got - want)) < 1e-9


def test_decompose_mcu_rejects_bad_input():
    with pytest.raises(ToolkitError) as err:
        decompose_mcu((), 0, X)
    assert err.value.code == "gate-arity-mismatch"
    with pytest.raises(ToolkitError) as err:
        decompose_mcu((1,), 0, np.ones((2, 2)))
    assert err.value.code == "not-unitary"


def test_compile_circuit_preserves_full_unitary():
    regs = RegisterMap.walk(2)
    circ = Circuit(
        regs,
        [
            GateInstance("u2", targets=(0,), matrix=random_u2(1), label="a"),
            GateInstance("x", targets=(1,)),
            GateInstance("swap", targets=(1, 2)),
            GateInstance("cswap", controls=(0,), targets=(1, 2)),
            GateInstance("cp", controls=(2,), targets=(0,), angle=0.9),
            GateInstance("cz", controls=(1,), targets=(0,)),
            GateInstance("cu2", controls=(2,), targets=(1,), matrix=random_u2(2)),
            GateInstance("mcu2", controls=(1, 2), targets=(0,), matrix=random_u2(3)),
        ],
        {"global_phase": 0.4},
    )
    compiled = compile_circuit(circ)
    assert set(g.kind for g in compiled.gates) <= BASIS_KINDS
    assert compiled.metadata["compiled"] is True
    assert np.max(np.abs(full_unitary(compiled) - full_unitary(circ))) < 1e-9


def test_compile_drops_null_rotations():
    regs = RegisterMap.walk(1)
    circ = Circuit(regs, [GateInstance("rz", targets=(0,), angle=1e-15)], {})
    assert compile_circuit(circ).gates == ()


def test_compile_strips_walsh_metadata():
    regs = RegisterMap.walk(1)
    circ = Circuit(
        regs,
        [GateInstance("rz", targets=(1,), angle=0.5)],
        {"walsh": {"sigma": "z", "terms": [(1, 0.25)], "optimized": False}},
    )
    assert "walsh" not in compile_circuit(circ).metadata


def test_gray_code_optimize_rejects_non_walsh_circuits():
    regs = RegisterMap.walk(2)
    plain = Circuit(regs, [GateInstance("x", targets=(0,))], {})
    with pytest.raises(ToolkitError) as err:
        gray_code_optimize(plain)
    assert err.value.code == "not-walsh-form"

    tampered = Circuit(
        regs,
        [GateInstance("x", targets=(0,))],
        {"walsh": {"sigma": "z", "terms": [(1, 0.5), (3, 0.25)], "optimized": False}},
    )
    with pytest.raises(ToolkitError) as err:
        gray_code_optimize(tampered)
    assert err.value.code == "not-walsh-form"


def per_gate_lowering(circuit):
    """Each gate compiled in a circuit of its own, so no expansion is shared across gates."""
    gates, phase = [], circuit.global_phase
    for g in circuit.gates:
        alone = compile_circuit(Circuit(circuit.registers, (g,), {}))
        gates.extend(alone.gates)
        phase += alone.global_phase
    return gates, phase


def signature(g):
    return g.kind, g.controls, g.targets, g.angle


@pytest.mark.parametrize(
    "build,n,seed",
    [(build_naive, n, seed) for n in range(1, 7) for seed in (0, 1)]
    + [(build_linear, n, 0) for n in range(1, 5)],
)
def test_compile_circuit_equals_a_per_gate_lowering(build, n, seed):
    circuit = build(random_field(n, seed=seed))
    compiled = compile_circuit(circuit)
    gates, phase = per_gate_lowering(circuit)
    assert list(map(signature, compiled.gates)) == list(map(signature, gates))
    assert compiled.global_phase == phase


def test_naive_compile_shares_its_wire_only_networks():
    # 128 seven-control coin gates share one set of borrowed-wire X networks
    compiled = compile_circuit(build_naive(random_field(7, seed=0)))
    assert len(dict.fromkeys(compiled.gates)) <= 15_000 < len(compiled.gates)


@pytest.mark.parametrize("lower", [compile_circuit, expand_swaps])
def test_two_lowering_calls_share_no_gate_object_they_built(lower):
    circuit = build_linear(random_field(2, seed=0))
    first, second = lower(circuit), lower(circuit)
    built = [set(c.gates) - set(circuit.gates) for c in (first, second)]
    assert built[0] and built[0].isdisjoint(built[1])


def per_level_mcu(u, controls, target, pool=(), shared=None):
    """C^k(u) level by level, one ``controlled_u2_gates`` call (one factorization) per block."""
    shared = transpile._Shared() if shared is None else shared
    if len(controls) == 1:
        return controlled_u2_gates(controls[0], target, u)
    v = sqrt_u2(u)
    last, rest = controls[-1], controls[:-1]
    mcx = list(shared.mcx(rest, last, pool + (target,)))
    return (
        controlled_u2_gates(last, target, v) + mcx
        + controlled_u2_gates(last, target, v.conj().T) + mcx
        + per_level_mcu(v, rest, target, pool + (last,), shared)
    )


def exact_signature(g):
    return g.kind, g.controls, g.targets, None if g.angle is None else repr(g.angle)


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_mcu_factors_its_blocks_in_one_batch_bit_for_bit(k, seed):
    u = random_u2(seed) if seed else X
    if np.array_equal(u, X) and k <= 2:
        u = random_u2(99)
    controls = tuple(range(1, k + 1))
    got = decompose_mcu(controls, 0, u)
    assert list(map(exact_signature, got)) == list(map(exact_signature, per_level_mcu(u, controls, 0)))
