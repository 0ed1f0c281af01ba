import numpy as np
import pytest

from coinwalk import statevec
from coinwalk import (
    Circuit,
    CoinField,
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
    dirac_field,
    predicted_depth,
    random_field,
    total_coin_matrix,
    walk,
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


def constant_field(n):
    coin = random_field(1, seed=n).coins[0]
    return CoinField(n, np.broadcast_to(coin, (1 << n, 2, 2)).copy(), {"kind": "constant"})


@pytest.mark.parametrize("n", range(1, 10))
def test_coin_blocks_equal_the_field(n):
    # Exact: each position's block is a copy of its Q0 coin.  A random, a
    # trap and a constant field.
    for field in (random_field(n, seed=30 + n), dirac_field(n, 1.0, 0.5, 1.0, 50.0), constant_field(n)):
        coins, residual = coin_blocks(build_linear(field))
        assert coins.shape == (1 << n, 2, 2)
        assert np.array_equal(coins, field.coins)
        assert residual == 0.0


def test_coin_blocks_equal_one_sparse_run_per_input():
    # The bit-column reading against the sparse kernel: one SparseState per
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


def refused(circ):
    with pytest.raises(ToolkitError) as err:
        coin_blocks(circ)
    return err.value.code == "coin-not-block-diagonal"


def test_coin_blocks_see_an_ancilla_left_in_superposition():
    # The reading refuses the u2 gate; the sparse probe sees the ancilla's
    # |1> half, amplitudes of order 1/sqrt(2) off the data inputs.
    field = identity_field(2)
    circ = build_linear(field)
    circ = circ.extended(on_ancilla(circ, H))
    assert refused(circ)
    assert walk.coin_deviation(circ, field.coins) > 1e-3


def test_coin_blocks_merge_branches_that_meet_again():
    # H then H branches every row and sums the two halves back: the ancilla
    # returns to |0> and the |1> half cancels.  The reading refuses the u2
    # gates; the sparse probe passes the circuit, before Q1 or after Q1^dag.
    field = random_field(2, seed=4)
    circ = build_linear(field)
    after = circ.extended(on_ancilla(circ, H, H))
    ahead = Circuit(circ.registers, on_ancilla(circ, SQRT_X, SQRT_X.conj().T) + list(circ.gates))
    for merged in (after, ahead):
        assert refused(merged)
        assert walk.coin_deviation(merged, field.coins) <= 1e-12


def test_the_probe_applies_each_gate_once_through_the_sparse_state(monkeypatch):
    # Every gate of verify's linear probe is one SparseState.apply_gate call,
    # the span a traced benchmark times it under.
    field = random_field(3, seed=5)
    circ = build_linear(field)
    calls = []
    sparse_apply = statevec.SparseState.apply_gate

    def counted(state, *args):
        calls.append(args)
        return sparse_apply(state, *args)

    monkeypatch.setattr(statevec.SparseState, "apply_gate", counted)
    assert walk.coin_deviation(circ, field.coins) <= 1e-12
    assert len(calls) == len(circ.gates)


@pytest.mark.parametrize(
    "gate_on",
    [
        lambda regs: GateInstance("cnot", (regs.coin(),), (regs.apos(0),)),
        lambda regs: GateInstance("x", (), (regs.coin(),)),
        lambda regs: GateInstance("cnot", (regs.position(0),), (regs.coin(),)),
        lambda regs: GateInstance("rz", (), (regs.apos(0),), 0.5),
    ],
    ids=["control-on-the-coin", "x-on-the-coin", "cnot-on-the-coin", "rz"],
)
def test_coin_blocks_refuse_a_gate_they_cannot_read(gate_on):
    circ = build_linear(random_field(2, seed=1))
    assert refused(circ.extended([gate_on(circ.registers)]))


def test_coin_blocks_read_a_cnot_onto_the_coin_that_never_fires():
    # every b' is back at 0 after the circuit, so this cnot does nothing
    field = random_field(2, seed=1)
    circ = build_linear(field)
    regs = circ.registers
    coins, residual = coin_blocks(circ.extended([GateInstance("cnot", (regs.apos(1),), (regs.coin(),))]))
    assert np.array_equal(coins, field.coins)
    assert residual == 0.0


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


def mutants(n):
    """Each linear circuit with one cu2 moved to another s wire, one cswap
    dropped from Q2^dag or one cnot dropped from Q1^dag."""
    field = random_field(n, seed=n)
    gates = list(build_linear(field).gates)
    regs = RegisterMap.linear(n)
    q0 = len(build_q1_parallel(n).gates) + len(build_q2(n).gates)
    q2_dag = q0 + (1 << n)
    q1_dag = q2_dag + len(build_q2(n).gates)
    for i in range(q0, q2_dag):
        for m in range(1 << n):
            if regs.acoin(m) != gates[i].targets[0]:
                moved = GateInstance("cu2", gates[i].controls, (regs.acoin(m),), matrix=gates[i].matrix)
                yield gates[:i] + [moved] + gates[i + 1:]
    for start, end, kind in ((q2_dag, q1_dag, "cswap"), (q1_dag, len(gates), "cnot")):
        for i in range(start, end):
            if gates[i].kind == kind:
                yield gates[:i] + gates[i + 1:]


@pytest.mark.parametrize("n", [2, 3])
def test_coin_blocks_refuse_or_flag_every_mutant(n):
    regs = RegisterMap.linear(n)
    count = 0
    for gates in mutants(n):
        circ = Circuit(regs, gates, {})
        count += 1
        try:
            _, residual = coin_blocks(circ)
        except ToolkitError as err:
            assert err.code == "coin-not-block-diagonal"
        else:
            assert residual > 0.0
    assert count > 1 << (2 * n)


class Allocated(Exception):
    pass


def allocated(*args, **kwargs):
    raise Allocated


@pytest.mark.parametrize("n,refused", [(13, False), (14, True)])
def test_coin_blocks_check_the_byte_budget_before_allocating(monkeypatch, n, refused):
    # The sparse probe that checks coin_blocks holds 2^(n+1) rows of
    # (2^(n+1) + n + 16) bytes, twice: 0.5 GiB at n=13, 2 GiB at n=14.
    monkeypatch.setattr(statevec, "SparseState", allocated)
    empty = Circuit(RegisterMap.linear(n), (), {})
    with pytest.raises(ToolkitError if refused else Allocated) as err:
        walk.coin_deviation(empty, np.zeros((1 << n, 2, 2)))
    if refused:
        assert err.value.code == "dense-limit-exceeded"


@pytest.mark.parametrize("n,refused", [(15, False), (16, True)])
def test_column_reading_checks_its_byte_budget_before_allocating(monkeypatch, n, refused):
    # Two columns of 2^n bits per wire: 0.5 GiB at n=15, 2 GiB at n=16.
    monkeypatch.setattr(np, "arange", allocated)
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
