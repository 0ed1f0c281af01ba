import numpy as np
import pytest

from coinwalk import statevec
from coinwalk import (
    Circuit,
    GateInstance,
    RegisterMap,
    SparseState,
    ToolkitError,
    apply_circuit,
    build_linear,
    build_q0,
    build_q1_parallel,
    build_q2,
    circuit_unitary,
    coin_blocks,
    depth,
    predicted_depth,
    random_field,
    total_coin_matrix,
)
from oracles import build_q1_naive, identity_field


def classical_run(circuit, index):
    # q1/q2 are permutations built from x / cnot / cswap only
    for g in circuit.gates:
        if g.kind == "x":
            index ^= 1 << g.targets[0]
        elif g.kind == "cnot":
            if (index >> g.controls[0]) & 1:
                index ^= 1 << g.targets[0]
        elif g.kind == "cswap":
            if (index >> g.controls[0]) & 1:
                a, b = g.targets
                if ((index >> a) & 1) != ((index >> b) & 1):
                    index ^= (1 << a) | (1 << b)
        else:
            raise AssertionError(f"non-classical gate {g.kind}")
    return index


def test_q0_is_one_layer_of_controlled_coins():
    field = random_field(3, seed=4)
    q0 = build_q0(field)
    assert depth(q0) == 1
    assert len(q0.gates) == 8
    assert all(g.kind == "cu2" for g in q0.gates)
    assert [g.controls for g in q0.gates] == [(q0.registers.apos(k),) for k in range(8)]
    assert all(g.targets == (q0.registers.acoin(k),) for k, g in enumerate(q0.gates))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_q1_marks_the_walker_position(n):
    for builder in (build_q1_naive, build_q1_parallel):
        q1 = builder(n)
        regs = q1.registers
        for k in range(1 << n):
            for coin in (0, 1):
                start = regs.embed(k, coin)
                out = classical_run(q1, start)
                assert out == start | (1 << regs.apos(k))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_q1_variants_agree_on_cleared_ancillas(n):
    # The two marker constructions are interchangeable only on the working
    # subspace: every ancilla starts (and ends) at zero.  Elsewhere they are
    # free to differ.
    naive, parallel = build_q1_naive(n), build_q1_parallel(n)
    regs = naive.registers
    for k in range(1 << n):
        for coin in (0, 1):
            start = regs.embed(k, coin)
            want = start | (1 << regs.apos(k))
            assert classical_run(naive, start) == want
            assert classical_run(parallel, start) == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_q2_routes_the_coin_to_the_marked_slot(n):
    q2 = build_q2(n)
    regs = q2.registers
    for k in range(1 << n):
        for coin in (0, 1):
            start = (1 << regs.apos(k)) | (coin << regs.coin())
            out = classical_run(q2, start)
            want = (1 << regs.apos(k)) | (coin << regs.acoin(k))
            assert out == want, (k, coin)


@pytest.mark.parametrize("n", [1, 2])
def test_build_linear_equals_coin_on_zero_ancilla_columns(n):
    field = random_field(n, seed=7)
    circ = build_linear(field)
    regs = circ.registers
    u = circuit_unitary(circ)
    c = total_coin_matrix(field)
    for k in range(1 << n):
        for coin in (0, 1):
            col = u[:, regs.embed(k, coin)]
            want = np.zeros_like(col)
            for c_out in (0, 1):
                want[regs.embed(k, c_out)] = c[2 * k + c_out, 2 * k + coin]
            assert np.max(np.abs(col - want)) <= 1e-10


def test_build_linear_on_superposed_inputs():
    n = 2
    field = random_field(n, seed=8)
    circ = build_linear(field)
    regs = circ.registers
    c = total_coin_matrix(field)
    rng = np.random.default_rng(5)
    for _ in range(5):
        amps = rng.normal(size=1 << (n + 1)) + 1j * rng.normal(size=1 << (n + 1))
        amps /= np.linalg.norm(amps)
        vec = np.zeros(1 << regs.num_wires, dtype=complex)
        for k in range(1 << n):
            for coin in (0, 1):
                vec[regs.embed(k, coin)] = amps[2 * k + coin]
        out = apply_circuit(vec, circ)
        want_walk = c @ amps
        want = np.zeros_like(vec)
        for k in range(1 << n):
            for coin in (0, 1):
                want[regs.embed(k, coin)] = want_walk[2 * k + coin]
        assert np.max(np.abs(out - want)) <= 1e-10


def test_build_linear_sparse_route_restores_ancillas():
    n = 3
    field = random_field(n, seed=9)
    circ = build_linear(field)
    regs = circ.registers
    c = total_coin_matrix(field)
    for k in (0, 3, 5, 7):
        for coin in (0, 1):
            state = SparseState.from_basis(regs.num_wires, regs.embed(k, coin))
            out = apply_circuit(state, circ)
            for index, amp in out.items():
                mask = index & ~((1 << regs.coin()) | sum(1 << regs.position(p) for p in range(n)))
                assert mask == 0 or abs(amp) <= 1e-10
            for c_out in (0, 1):
                got = out.amplitude(regs.embed(k, c_out))
                assert abs(got - c[2 * k + c_out, 2 * k + coin]) <= 1e-10


@pytest.mark.parametrize("n", range(1, 9))
def test_coin_blocks_equal_the_field(n):
    # Exact: before Q0 every gate permutes rows, and each Q0 gate scales a
    # lone amplitude 1 by the coin entries.
    field = random_field(n, seed=30 + n)
    coins, residual = coin_blocks(build_linear(field))
    assert coins.shape == (1 << n, 2, 2)
    assert np.array_equal(coins, field.coins)
    assert residual == 0.0


def test_coin_blocks_equal_one_sparse_run_per_input():
    # The batched pass against the loop it replaced: one SparseState per
    # data input, read the same way.
    circ = build_linear(random_field(3, seed=8))
    regs = circ.registers
    coins, residual = coin_blocks(circ)
    for k in range(8):
        for c in (0, 1):
            out = dict(apply_circuit(SparseState.from_basis(regs.num_wires, regs.embed(k, c)), circ).items())
            for c_out in (0, 1):
                assert coins[k, c_out, c] == out.pop(regs.embed(k, c_out), 0.0)
            assert residual >= max(map(abs, out.values()), default=0.0)


H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SQRT_X = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2


def on_ancilla(circ, *matrices):
    return [GateInstance("u2", (), (circ.registers.apos(1),), matrix=m) for m in matrices]


def test_coin_blocks_see_an_ancilla_left_in_superposition():
    circ = build_linear(identity_field(2))
    _, residual = coin_blocks(circ.extended(on_ancilla(circ, H)))
    assert residual == 1 / np.sqrt(2)


def test_coin_blocks_merge_branches_that_meet_again():
    # H then H branches every row and sums the two halves back: the ancilla
    # returns to |0> and the |1> half cancels exactly.  Each coin entry
    # picks up 2 h^2 = 1 - 2^-52, so it is equal up to rounding.
    field = random_field(2, seed=4)
    circ = build_linear(field)
    coins, residual = coin_blocks(circ.extended(on_ancilla(circ, H, H)))
    assert residual == 0.0
    assert np.max(np.abs(coins - field.coins)) <= 1e-15
    # sqrt(X) then its inverse, before Q1 where every amplitude is 1: all
    # products and sums are exact in binary, and so are the coins.
    ahead = Circuit(circ.registers, on_ancilla(circ, SQRT_X, SQRT_X.conj().T) + list(circ.gates))
    coins, residual = coin_blocks(ahead)
    assert residual == 0.0
    assert np.array_equal(coins, field.coins)


def test_coin_blocks_count_a_moved_walker_as_residual():
    # Every input lands on |k xor 1, c>: a data basis state, but another
    # input's, so nothing reaches the coin array.
    circ = build_linear(identity_field(2))
    moved = circ.extended([GateInstance("x", (), (circ.registers.position(0),))])
    coins, residual = coin_blocks(moved)
    assert residual == 1.0
    assert not coins.any()


def test_coin_blocks_report_an_ancilla_left_set():
    circ = build_linear(identity_field(2))
    flipped = circ.extended([GateInstance("x", (), (circ.registers.apos(0),))])
    _, residual = coin_blocks(flipped)
    assert residual == 1.0


class Allocated(Exception):
    pass


@pytest.mark.parametrize("n,refused", [(13, False), (14, True)])
def test_coin_blocks_check_the_byte_budget_before_allocating(monkeypatch, n, refused):
    # 2^(n+2) bit rows of (2^(n+1) + 2n + 1) bytes: 0.5 GiB at n=13, 2 GiB at n=14.
    def allocated(*args):
        raise Allocated

    monkeypatch.setattr(statevec, "SparseState", allocated)
    empty = Circuit(RegisterMap.linear(n), (), {})
    with pytest.raises(ToolkitError if refused else Allocated) as err:
        coin_blocks(empty)
    if refused:
        assert err.value.code == "dense-limit-exceeded"


def test_predicted_depth_closed_form():
    assert [predicted_depth(n) for n in range(1, 6)] == [15, 33, 53, 73, 93]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_depth_bounds_hold_per_stage(n):
    assert depth(build_q0(random_field(n, seed=0))) == 1
    assert depth(build_q2(n)) <= 5 * n - 2
    assert depth(build_q1_parallel(n)) <= 5 * n - 2 + (1 if n == 1 else 0)
    measured = depth(build_linear(random_field(n, seed=0)))
    assert measured <= predicted_depth(n)
