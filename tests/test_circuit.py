import copy
import dataclasses
import json
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    Circuit,
    GateInstance,
    RegisterMap,
    ToolkitError,
    circuit_from_json,
    circuit_to_json,
    dagger,
    depth,
    full_unitary,
    gate_counts,
)
from coinwalk import build_naive, build_walsh_coin, compile_circuit, random_field
from coinwalk.circuit import GATE_KINDS
from coinwalk.cli import main
from coinwalk.transpile import expand_swaps
from oracles import euler_matrix


def test_gate_kinds_and_payload_validation():
    GateInstance("rx", targets=(0,), angle=0.3)
    GateInstance("cnot", controls=(1,), targets=(0,))
    with pytest.raises(ValueError):
        GateInstance("rx", targets=(0,))
    with pytest.raises(ValueError):
        GateInstance("hadamard", targets=(0,))
    with pytest.raises(ValueError):
        GateInstance("u2", targets=(0,))


def test_gate_wire_collisions_rejected():
    with pytest.raises(ToolkitError) as err:
        GateInstance("cnot", controls=(1,), targets=(1,))
    assert err.value.code == "duplicate-qubit"


@pytest.mark.parametrize(
    "kind,controls,targets",
    [
        ("cnot", (), (0,)),
        ("swap", (), (0,)),
        ("cswap", (0,), (1,)),
        ("rx", (1,), (0,)),
        ("mcu2", (), (0,)),
    ],
)
def test_gate_arity_table(kind, controls, targets):
    kwargs = {}
    if kind in ("rx",):
        kwargs["angle"] = 0.1
    if kind == "mcu2":
        kwargs["matrix"] = np.eye(2)
    with pytest.raises(ToolkitError) as err:
        GateInstance(kind, controls=controls, targets=targets, **kwargs)
    assert err.value.code == "gate-arity-mismatch"


def test_explicit_matrix_must_be_unitary():
    with pytest.raises(ToolkitError) as err:
        GateInstance("u2", targets=(0,), matrix=np.ones((2, 2)))
    assert err.value.code == "not-unitary"
    with pytest.raises(ToolkitError) as err:
        GateInstance("cu2", controls=(1,), targets=(0,), matrix=np.eye(4))
    assert err.value.code == "gate-arity-mismatch"


@pytest.mark.parametrize("wire", [0.9, 1.0, "1", True, False, None])
def test_a_wire_that_is_not_an_integer_is_refused(wire):
    # int() read 0.9 as wire 0 and "1" and True as wire 1
    for controls, targets in [((), (wire,)), ((wire,), (3,)), ([], [wire])]:
        with pytest.raises(ValueError, match="wires must be integers"):
            GateInstance("cnot" if controls else "x", controls, targets)


def test_numpy_integer_wires_read_as_plain_ints():
    g = GateInstance("cnot", [np.int64(2)], np.array([0]))
    assert g.controls == (2,) and g.targets == (0,)
    assert {type(w) for w in g.wires} == {int}
    assert GateInstance("x", (), range(3, 4)).targets == (3,)


@pytest.mark.parametrize(
    "kind,controls,targets,payload,message",
    [
        ("x", (), (0,), {"angle": 0.3}, "x takes no angle"),
        ("cswap", (0,), (1, 2), {"angle": 0.0}, "cswap takes no angle"),
        ("cnot", (1,), (0,), {"matrix": np.eye(2)}, "cnot takes no matrix"),
        ("rz", (), (0,), {"angle": 0.3, "matrix": np.zeros((2, 2))}, "rz takes no matrix"),
        ("cp", (1,), (0,), {"angle": 0.3, "matrix": np.eye(2)}, "cp takes no matrix"),
        ("u2", (), (0,), {"angle": 0.3, "matrix": np.eye(2)}, "u2 takes no angle"),
    ],
)
def test_a_kind_carries_exactly_its_payload(kind, controls, targets, payload, message):
    with pytest.raises(ValueError, match=message) as err:
        GateInstance(kind, controls, targets, **payload)
    assert type(err.value) is ValueError


def test_a_gate_is_frozen_and_copies_and_pickles_field_for_field():
    q = euler_matrix(0.1, 0.2, 0.3, 0.4)
    gates = [
        GateInstance("u2", targets=(1,), matrix=q, label="h"),
        GateInstance("cp", controls=(2,), targets=(0,), angle=-0.4),
        GateInstance("cswap", controls=(0,), targets=(1, 2)),
    ]
    for g in gates:
        assert not hasattr(g, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.kind = "x"
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del g.angle
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert type(twin) is GateInstance and twin is not g and twin != g
            assert (twin.kind, twin.controls, twin.targets, twin.angle, twin.label) == (
                g.kind, g.controls, g.targets, g.angle, g.label)
            assert (twin.matrix is None) == (g.matrix is None)
            if g.matrix is not None:
                assert np.array_equal(twin.matrix, g.matrix)
    assert len({*gates, *gates}) == len(gates)  # hashing is by identity


def test_matrix_on_targets_matches_definitions():
    theta = 0.83
    rx = GateInstance("rx", targets=(0,), angle=theta).matrix_on_targets()
    assert rx[0, 0] == pytest.approx(np.cos(theta / 2))
    assert rx[0, 1] == pytest.approx(-1j * np.sin(theta / 2))
    p = GateInstance("p", targets=(0,), angle=theta).matrix_on_targets()
    assert p[1, 1] == pytest.approx(np.exp(1j * theta))
    assert p[0, 0] == 1
    cnot = GateInstance("cnot", controls=(1,), targets=(0,)).matrix_on_targets()
    assert np.array_equal(cnot, [[0, 1], [1, 0]])


def test_dagger_inverts_every_kind():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    for gate in [
        GateInstance("rz", targets=(0,), angle=1.2),
        GateInstance("cp", controls=(1,), targets=(0,), angle=-0.4),
        GateInstance("u2", targets=(0,), matrix=q),
        GateInstance("cswap", controls=(0,), targets=(1, 2)),
    ]:
        u = gate.matrix_on_targets()
        v = dagger(gate).matrix_on_targets()
        assert np.allclose(u @ v, np.eye(u.shape[0]), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_embed_matches_the_layout_closed_forms(n):
    # module docstring: walk index 2k + c; linear-ancilla index
    # (2k + s0) << (2^(n+1) - 1) with every ancilla at 0
    walk, linear = RegisterMap.walk(n), RegisterMap.linear(n)
    for k in range(1 << n):
        for c in (0, 1):
            assert walk.embed(k, c) == 2 * k + c
            assert linear.embed(k, c) == (2 * k + c) << ((2 << n) - 1)


def test_walk_register_layout():
    regs = RegisterMap.walk(3)
    assert regs.coin() == 0
    assert [regs.position(p) for p in range(3)] == [1, 2, 3]
    assert regs.num_wires == 4
    with pytest.raises(IndexError):
        regs.position(3)


def test_linear_register_layout():
    n = 2
    regs = RegisterMap.linear(n)
    assert regs.num_wires == (1 << (n + 1)) + n
    assert [regs.apos(m) for m in range(4)] == [0, 1, 2, 3]
    assert regs.acoin(0) == regs.coin() == 7
    assert [regs.acoin(m) for m in (1, 2, 3)] == [4, 5, 6]
    assert [regs.position(p) for p in range(n)] == [8, 9]


def test_circuit_rejects_out_of_range_wires():
    regs = RegisterMap.walk(1)
    with pytest.raises(ToolkitError):
        Circuit(regs, [GateInstance("x", targets=(5,))], {})


def test_a_repeated_out_of_range_gate_is_reported_at_its_first_occurrence():
    regs = RegisterMap.walk(1)
    ok, low, high = (GateInstance("x", targets=(w,)) for w in (0, 5, 7))
    for gates, wire in (((ok, low, high, low), 5), ((high, ok, low, high), 7)):
        with pytest.raises(ToolkitError) as err:
            Circuit(regs, gates, {})
        assert err.value.code == "index-out-of-range"
        assert err.value.message.startswith(f"wire {wire} ")


def test_depth_packs_parallel_gates():
    regs = RegisterMap.walk(2)
    gates = [
        GateInstance("x", targets=(0,)),
        GateInstance("x", targets=(1,)),
        GateInstance("cnot", controls=(0,), targets=(1,)),
        GateInstance("x", targets=(2,)),
    ]
    # wires 0 and 1 in parallel, then the cnot; the lone x on wire 2 fits layer 1
    assert depth(Circuit(regs, gates, {})) == 2


def test_depth_weights_swap_blocks():
    regs = RegisterMap.walk(2)
    swap = Circuit(regs, [GateInstance("swap", targets=(1, 2))], {})
    cswap = Circuit(regs, [GateInstance("cswap", controls=(0,), targets=(1, 2))], {})
    assert depth(swap) == 3
    assert depth(cswap) == 3
    assert depth(expand_swaps(swap)) == 3
    assert depth(expand_swaps(cswap)) > 3
    assert [g.kind for g in expand_swaps(swap).gates] == ["cnot"] * 3


def test_depth_of_a_wide_layout_allocates_by_the_wires_its_gates_use(tmp_path, capsys):
    # 2^25 + 24 wires and no gate: a free layer per wire would hold 270 MB
    doc = tmp_path / "wide.json"
    doc.write_text('{"format": "coinwalk-circuit/1", "n": 24, "layout": "linear-ancilla", "gates": []}')
    tracemalloc.start()
    try:
        assert main(["analyze", "--circuit", str(doc), "--compile"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    report = json.loads(capsys.readouterr().out)
    assert report["num_wires"] == (1 << 25) + 24 and report["depth"] == report["compiled"]["depth"] == 0
    high = Circuit(RegisterMap.linear(3), [GateInstance("x", targets=(18,)), GateInstance("x", targets=(18,))], {})
    assert depth(high) == 2


def test_gate_counts_by_kind():
    regs = RegisterMap.walk(1)
    circ = Circuit(
        regs,
        [
            GateInstance("x", targets=(0,)),
            GateInstance("x", targets=(1,)),
            GateInstance("rz", targets=(0,), angle=0.2),
        ],
        {},
    )
    assert gate_counts(circ) == {"x": 2, "rz": 1}


def test_circuit_json_round_trip_preserves_unitary_and_metadata():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    regs = RegisterMap.walk(2)
    circ = Circuit(
        regs,
        [
            GateInstance("cu2", controls=(1,), targets=(0,), matrix=q, label="c0"),
            GateInstance("rz", targets=(2,), angle=-1.1),
            GateInstance("swap", targets=(1, 2)),
        ],
        {"builder": "test", "global_phase": 0.25,
         "walsh": {"sigma": "z", "terms": [[1, 0.5]], "optimized": False}},
    )
    back = circuit_from_json(circuit_to_json(circ))
    assert np.allclose(full_unitary(back), full_unitary(circ), atol=1e-12)
    assert back.metadata["builder"] == "test"
    assert back.metadata["walsh"]["terms"] == [(1, 0.5)]
    assert back.gates[0].label == "c0"
    assert back.registers == regs


# -- oracles: the circuit passes as they were written gate by gate ----------


def json_oracle(circuit):
    """The document through ``json.dumps(..., indent=1)``, every gate its own dict."""
    def gate_dict(g):
        d = {"kind": g.kind}
        if g.controls:
            d["controls"] = list(g.controls)
        if g.targets:
            d["targets"] = list(g.targets)
        if g.angle is not None:
            d["angle"] = g.angle
        if g.matrix is not None:
            d["matrix"] = [[[float(z.real), float(z.imag)] for z in row] for row in g.matrix]
        if g.label is not None:
            d["label"] = g.label
        return d

    return json.dumps({
        "format": "coinwalk-circuit/1",
        "n": circuit.registers.n,
        "layout": circuit.registers.layout,
        "metadata": circuit.metadata,
        "gates": [gate_dict(g) for g in circuit.gates],
    }, indent=1)


def depth_oracle(circuit):
    """ASAP layering gate by gate, SWAP and CSWAP three layers."""
    free = [0] * circuit.num_wires
    total = 0
    for g in circuit.gates:
        start = max((free[w] for w in g.wires), default=0)
        end = start + (3 if g.kind in ("swap", "cswap") else 1)
        for w in g.wires:
            free[w] = end
        total = max(total, end)
    return total


def counts_oracle(circuit):
    return dict(Counter(g.kind for g in circuit.gates))


SIGNED_ZEROS = [np.array([[1, 0], [0, -1]], dtype=complex) * -1, np.array([[0, 1], [1, 0]], dtype=complex) * -1j]
ANGLES = st.sampled_from([0.0, -0.0, 1e-300, -5e-324, 1e300, np.pi]) | st.floats(-10, 10) | st.integers(-3, 3)
LABELS = st.none() | st.text(max_size=5) | st.sampled_from(['"', "\\", "\n", "\u00e9", "\u2603", "\U0001f600", "\x7f"])


@st.composite
def gates_on(draw, num_wires):
    kind = draw(st.sampled_from(sorted(k for k, (c, t, _) in GATE_KINDS.items() if (c is None) + (c or 0) + t <= num_wires)))
    n_ctl, n_tgt, payload = GATE_KINDS[kind]
    if n_ctl is None:
        n_ctl = draw(st.integers(1, num_wires - n_tgt))
    wires = draw(st.permutations(range(num_wires)))[: n_ctl + n_tgt]
    angle = draw(ANGLES) if payload == "angle" else None
    matrix = None
    if payload == "matrix":
        matrix = draw(st.sampled_from(SIGNED_ZEROS) | st.tuples(*[st.floats(-4, 4)] * 4).map(lambda f: euler_matrix(*f)))
    return GateInstance(kind, wires[:n_ctl], wires[n_ctl:], angle, matrix, draw(LABELS))


@st.composite
def circuits(draw):
    registers = draw(st.sampled_from([RegisterMap.walk(1), RegisterMap.walk(3), RegisterMap.linear(1)]))
    pool = draw(st.lists(gates_on(registers.num_wires), min_size=1, max_size=8))
    # positions drawn from a small pool, so gate objects recur
    gates = draw(st.lists(st.sampled_from(pool), max_size=30))
    metadata = draw(st.fixed_dictionaries({}, optional={
        "builder": LABELS, "global_phase": st.floats(-4, 4), "note": st.lists(st.integers(), max_size=3),
    }))
    return Circuit(registers, gates, metadata)


@settings(max_examples=300, deadline=None)
@given(circuits())
def test_circuit_passes_equal_their_gate_by_gate_oracles(circ):
    text = circuit_to_json(circ)
    assert text == json_oracle(circ)
    assert depth(circ) == depth_oracle(circ)
    assert depth(expand_swaps(circ)) == depth_oracle(expand_swaps(circ))
    counts = gate_counts(circ)
    assert counts == counts_oracle(circ) and list(counts) == list(counts_oracle(circ))
    # the reader gives each gate back exactly (an integer angle as its float),
    # and identical records without a matrix one object
    back = circuit_from_json(text)
    assert list(map(exact, back.gates)) == list(map(exact, circ.gates))
    shared = [{g for g in c.gates if g.matrix is None} for c in (back, circ)]
    assert len(shared[0]) <= len(shared[1])


def exact(g):
    angle = None if g.angle is None else repr(float(g.angle))
    matrix = None if g.matrix is None else g.matrix.tobytes()
    return g.kind, g.controls, g.targets, angle, matrix, g.label


@pytest.mark.parametrize("circ", [
    compile_circuit(build_naive(random_field(4, seed=0))),
    build_walsh_coin(random_field(6, seed=1)),
    compile_circuit(build_walsh_coin(random_field(6, seed=1))),
    Circuit(RegisterMap.walk(2), [], {}),
], ids=["compiled-naive-4", "walsh-6", "compiled-walsh-6", "empty"])
def test_built_circuits_equal_their_gate_by_gate_oracles(circ):
    assert circuit_to_json(circ) == json_oracle(circ)
    assert depth(circ) == depth_oracle(circ)
    assert gate_counts(circ) == counts_oracle(circ)
