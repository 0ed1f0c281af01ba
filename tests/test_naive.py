import numpy as np
import pytest

from coinwalk import (
    GateInstance,
    ToolkitError,
    build_naive,
    circuit_unitary,
    random_field,
    total_coin_matrix,
)
from coinwalk.naive import tower_flips
from oracles import identity_field


def test_tower_flip_patterns():
    # i = 0 resets the whole register; i >= 1 flips up through the lowest set bit
    assert tower_flips(3, 0) == [0, 1, 2]
    assert tower_flips(3, 1) == [0]
    assert tower_flips(3, 2) == [0, 1]
    assert tower_flips(3, 3) == [0]
    assert tower_flips(1, 0) == [0]


def test_tower_gates_target_position_wires():
    # the built circuit's tower before node 2 is tower 2: X on position wires 0 and 1
    gates = build_naive(random_field(3, seed=2)).gates
    coins = [i for i, g in enumerate(gates) if g.kind == "mcu2"]
    tower_2 = gates[coins[1] + 1 : coins[2]]
    assert [g.kind for g in tower_2] == ["x", "x"]
    assert [g.targets for g in tower_2] == [(1,), (2,)]


@pytest.mark.parametrize("n,i", [(0, 0), (3, 4), (3, -1), (1, 1)])
def test_tower_index_validation(n, i):
    # n under 1 breaks errors.check_n's rule; an index outside the towers has its own code
    with pytest.raises(ValueError if n < 1 else ToolkitError) as err:
        tower_flips(n, i)
    assert n < 1 or err.value.code == "index-out-of-range"


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_naive_build_constructs_one_x_per_wire_and_one_gate_per_coin(n, monkeypatch):
    # every tower shares the n X objects; each node's coin gate is its own
    built = []
    init = GateInstance.__init__

    def counting(self, kind, *args, **kwargs):
        built.append(kind)
        init(self, kind, *args, **kwargs)

    monkeypatch.setattr(GateInstance, "__init__", counting)
    circuit = build_naive(random_field(n, seed=n))
    coin_kind = "cu2" if n == 1 else "mcu2"
    assert sorted(built) == sorted(["x"] * n + [coin_kind] * (1 << n))
    assert len({id(g) for g in circuit.gates}) == n + (1 << n)
    assert len(circuit.gates) > len(built)


def test_tower_walk_visits_every_node():
    # the running xor of tower flips enumerates 0..2^n-1 in the order the
    # builder needs: k-th stop selects node k's control pattern
    n = 3
    half = 1 << (n - 1)
    state = 0
    seen = []
    for k in range(1 << n):
        for wire in tower_flips(n, k % half):
            state ^= 1 << wire
        seen.append(state)
    assert sorted(seen) == list(range(1 << n))


def test_tower_flips_cancel_over_a_full_sweep():
    n = 4
    half = 1 << (n - 1)
    parity = [0] * n
    for k in range(1 << n):
        for wire in tower_flips(n, k % half):
            parity[wire] ^= 1
    assert parity == [0] * n


def test_build_naive_gate_inventory():
    field = random_field(3, seed=2)
    circ = build_naive(field)
    coins = [g for g in circ.gates if g.kind in ("cu2", "mcu2")]
    assert len(coins) == 8
    assert all(g.controls == (1, 2, 3) for g in coins)
    assert [g.label for g in coins] == [f"coin{k}" for k in range(8)]
    assert circ.metadata == {"builder": "naive", "n": 3}


def test_build_naive_single_qubit_position_uses_cu2():
    circ = build_naive(random_field(1, seed=0))
    kinds = [g.kind for g in circ.gates]
    assert kinds.count("cu2") == 2
    assert "mcu2" not in kinds


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_build_naive_equals_block_diagonal_coin(n, seed):
    field = random_field(n, seed=seed)
    u = circuit_unitary(build_naive(field))
    assert np.max(np.abs(u - total_coin_matrix(field))) <= 1e-10


def test_build_naive_on_identity_field_is_identity():
    u = circuit_unitary(build_naive(identity_field(2)))
    assert np.max(np.abs(u - np.eye(8))) <= 1e-12
