"""End-to-end walk runner: backends against the matrix oracle."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coinwalk.walk as walk_module
from coinwalk import statevec
from coinwalk.shift import SCHEMES, build_shift
from coinwalk import (
    Circuit,
    CoinField,
    GateInstance,
    RegisterMap,
    ToolkitError,
    WalkConfig,
    build_linear,
    build_naive,
    build_shift_qft,
    build_walsh_coin,
    coin_blocks,
    coin_field_to_json,
    config_from_json,
    config_to_json,
    dirac_field,
    full_unitary,
    initial_state,
    matrix_oracle_run,
    random_field,
    results_to_csv,
    results_to_json,
    run,
    shift_permutation_matrix,
    total_coin_matrix,
    tvd,
)
from oracles import identity_field

SRC = Path(__file__).resolve().parents[1] / "src"


def oracle(config):
    return matrix_oracle_run(config.field, config.steps, initial_state(config))


INITIAL = {"position": 1, "coin": [[0.7071067811865476, 0.0], [0.0, 0.7071067811865476]]}


# -- reference evolution -----------------------------------------------------


def test_identity_coin_single_step_moves_by_coin_value():
    # Coin 0 steps down, coin 1 steps up; identity coins leave it classical.
    n = 2
    field = identity_field(n)
    down = WalkConfig(n, 1, field, initial={"position": 0, "coin": [1, 0]})
    up = WalkConfig(n, 1, field, initial={"position": 0, "coin": [0, 1]})
    assert np.allclose(oracle(down).distribution.probabilities, [0, 0, 0, 1])
    assert np.allclose(oracle(up).distribution.probabilities, [0, 1, 0, 0])


def test_oracle_distribution_is_the_final_state_marginal():
    for steps in range(6):
        result = oracle(WalkConfig(2, steps, random_field(2, seed=0), initial=INITIAL))
        pairs = result.final_state.reshape(-1, 2)
        marginal = np.abs(pairs[:, 0]) ** 2 + np.abs(pairs[:, 1]) ** 2
        assert np.array_equal(result.distribution.probabilities, marginal)
        assert marginal.sum() == pytest.approx(1.0, abs=1e-10)


def test_oracle_respects_dense_cap(monkeypatch):
    monkeypatch.setattr(statevec, "DENSE_QUBITS_MAX", 3)
    config = WalkConfig(3, 1, random_field(3, seed=1))
    with pytest.raises(ToolkitError) as err:
        oracle(config)
    assert err.value.code == "dense-limit-exceeded"


def test_oracle_matches_dense_matrix_product():
    for n in range(1, 6):
        config = WalkConfig(n, 7, random_field(n, seed=40 + n), initial=INITIAL)
        w = shift_permutation_matrix(n) @ total_coin_matrix(config.field)
        want = np.linalg.matrix_power(w, config.steps) @ initial_state(config)
        got = oracle(config).final_state
        assert np.max(np.abs(got - want)) <= 1e-12


# -- coin collapse -----------------------------------------------------------


@pytest.mark.parametrize(
    "extra",
    [GateInstance("x", (), (1,)), GateInstance("rx", (), (2,), 1e-6)],
    ids=["x-on-position", "tiny-rx-on-position"],
)
def test_collapse_rejects_a_coin_off_the_blocks(monkeypatch, extra):
    monkeypatch.setattr(
        walk_module.naive_mod, "build_naive", lambda field: build_naive(field).extended([extra])
    )
    config = WalkConfig(2, 1, random_field(2, seed=9), coin_builder="naive")
    with pytest.raises(ToolkitError) as err:
        run(config)
    assert err.value.code == "coin-not-block-diagonal"


def test_collapse_reads_a_linear_circuit_through_coin_blocks():
    circuit = build_linear(random_field(2, seed=9))
    coins, residual = walk_module.collapse(circuit)
    want, want_residual = coin_blocks(circuit)
    assert np.array_equal(coins, want)
    assert residual == want_residual == 0.0


def test_probes_refuse_a_walk_layout_over_the_dense_cap(monkeypatch, no_large_matrices):
    monkeypatch.setattr(statevec, "DENSE_QUBITS_MAX", 3)
    for check, circuit in (
        (walk_module.collapse, build_naive(random_field(3, seed=9))),
        (walk_module.shift_deviation, build_shift_qft(3)),
    ):
        with pytest.raises(ToolkitError) as err:
            check(circuit)
        assert err.value.code == "dense-limit-exceeded"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "build",
    [build_naive, build_walsh_coin, lambda field: build_walsh_coin(field, m=min(2, field.n))],
    ids=["naive", "walsh", "walsh-m2"],
)
def test_collapse_matches_full_unitary_blocks(n, build):
    # Walsh circuits carry a nonzero tracked global phase: the collapse must apply it.
    circuit = build(random_field(n, seed=60 + n))
    u = full_unitary(circuit)
    want = np.array([u[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] for k in range(1 << n)])
    got, residual = walk_module.collapse(circuit)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert residual <= 1e-12


def dense_probe_blocks(circuit):
    """The coin blocks of a walk-layout circuit by the dense kernel: its
    columns for coin 0 and coin 1 at every node, tracked global phase included."""
    columns = np.zeros((2 << circuit.registers.n, 2), dtype=complex)
    columns[0::2, 0] = columns[1::2, 1] = 1.0
    statevec.circuit_unitary(circuit, columns)
    return np.exp(1j * circuit.global_phase) * columns.reshape(-1, 2, 2)


@pytest.mark.parametrize("n", range(1, 11))
def test_parity_frames_match_the_dense_probe(n):
    field = random_field(n, seed=80 + n)
    for circuit in (build_naive(field), build_walsh_coin(field), build_walsh_coin(field, m=n // 2)):
        got, residual = walk_module.collapse(circuit)
        assert residual == 0.0
        assert np.max(np.abs(got - dense_probe_blocks(circuit))) <= 1e-12


def test_collapse_runs_no_dense_gate_for_naive_or_walsh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a walk-layout coin collapse ran the dense kernel")

    for name in ("circuit_unitary", "apply_gate", "apply_circuit", "_apply_matrix_inplace"):
        monkeypatch.setattr(statevec, name, refuse)
    field = random_field(3, seed=2)
    for circuit in (build_naive(field), build_walsh_coin(field), build_walsh_coin(field, m=1)):
        assert walk_module.collapse(circuit)[1] == 0.0
    for builder in ("naive", "walsh"):
        walk_module._coin_array(WalkConfig(3, 1, field, coin_builder=builder))


def test_linear_walk_runs_no_sparse_gate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a linear walk ran the sparse kernel")

    monkeypatch.setattr(statevec.SparseState, "apply_gate", refuse)
    field = random_field(3, seed=2)
    config = WalkConfig(3, 2, field, coin_builder="linear")
    assert tvd(run(config).distribution, oracle(config).distribution) <= 1e-12


def _mutated(build, gate):
    def built(field):
        circuit = build(field)
        return circuit.extended([gate(circuit.registers)])

    return built


@pytest.mark.parametrize(
    "build,gate,why",
    [
        (build_walsh_coin, lambda regs: GateInstance("cnot", (regs.position(1),), (regs.coin(),)),
         "Pauli frame does not end as the identity"),
        (build_naive, lambda regs: GateInstance("x", (), (regs.position(2),)),
         "position wire 3 does not end holding its own bit"),
        (build_walsh_coin, lambda regs: GateInstance("cnot", (regs.position(0),), (regs.position(1),)),
         "position wire 2 does not end holding its own bit"),
        (build_walsh_coin, lambda regs: GateInstance("ry", (), (regs.position(0),), 0.3),
         "gate 135 (ry on wires (1,))"),
        (build_naive, lambda regs: GateInstance("swap", (), (regs.position(0), regs.position(1))),
         "gate 46 (swap on wires (1, 2))"),
        (build_naive, lambda regs: GateInstance("p", (), (regs.position(0),), 0.3),
         "gate 46 (p on wires (1,))"),
        (build_naive, lambda regs: GateInstance("u2", (), (regs.coin(),), matrix=np.eye(2)),
         "gate 46 (u2 on wires (0,))"),
        (build_naive, lambda regs: GateInstance("cnot", (regs.coin(),), (regs.position(0),)),
         "gate 46 (cnot on wires (0, 1))"),
        (build_naive, lambda regs: GateInstance("cz", (regs.position(0),), (regs.coin(),)),
         "gate 46 (cz on wires (1, 0))"),
        (build_naive, lambda regs: GateInstance(
            "mcu2", (regs.position(0), regs.position(1), regs.position(2)), (regs.coin(),),
            matrix=np.eye(2)), "gate 46 (mcu2 on wires (1, 2, 3, 0))"),
    ],
    ids=["unclosed-coin-cnot", "stray-position-x", "unclosed-position-cnot", "ry-on-position",
         "swap", "p-on-position", "u2-on-coin", "cnot-from-coin", "cz", "mcu2-missing-a-control"],
)
def test_parity_frames_refuse_a_mutated_coin_circuit(build, gate, why):
    circuit = _mutated(build, gate)(random_field(4, seed=3))
    with pytest.raises(ToolkitError, match=re.escape(why)) as err:
        walk_module.collapse(circuit)
    assert err.value.code == "coin-not-block-diagonal"


@pytest.mark.parametrize("construction", sorted(walk_module.CONSTRUCTIONS))
def test_every_single_gate_deletion_fails_the_reading_and_the_probe(construction):
    # Each coin circuit at n = 1..3, rebuilt once per gate with that gate
    # deleted: the reading against the field (or its refusal) and the probe
    # must each miss the field by more than the construction's tolerance.
    tol = walk_module.CONSTRUCTIONS[construction]
    blind = []
    for n in (1, 2, 3):
        field = random_field(n, seed=5)
        circuit = walk_module.build_coin(construction, field)
        gates = circuit.gates
        for i, gate in enumerate(gates):
            deleted = Circuit(circuit.registers, gates[:i] + gates[i + 1:], dict(circuit.metadata))
            try:
                got, _ = walk_module.collapse(deleted)
                reading = float(np.max(np.abs(got - field.coins)))
            except ToolkitError as err:
                assert err.code == "coin-not-block-diagonal"
                reading = np.inf
            probe = walk_module.coin_deviation(deleted, field.coins)
            if not (reading > tol and probe > tol):
                blind.append(f"n={n} gate {i} ({gate.kind}): reading {reading:.3e}, probe {probe:.3e}")
    assert not blind, f"deletions that pass a check: {'; '.join(blind)}"


def test_parity_frames_refuse_a_coin_gate_under_a_parity_control():
    regs = RegisterMap.walk(2)
    ladder = GateInstance("cnot", (regs.position(0),), (regs.position(1),))
    coin = GateInstance("mcu2", (regs.position(0), regs.position(1)), (regs.coin(),),
                        matrix=np.array([[0, 1], [1, 0]]))
    with pytest.raises(ToolkitError, match="controlled by wire 2, which holds a parity") as err:
        walk_module.collapse(Circuit(regs, (ladder, coin, ladder), {}))
    assert err.value.code == "coin-not-block-diagonal"


# Hypothesis circuits: frame gates (x, cnot) each undone in reverse order
# at the end, so every frame closes, with rotations and coin gates between them.
@st.composite
def frame_circuits(draw):
    n = draw(st.integers(1, 4))
    regs = RegisterMap.walk(n)
    positions = [regs.position(p) for p in range(n)]
    wire = st.sampled_from(positions)
    angle = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)

    any_wire = st.sampled_from(positions + [regs.coin()])
    two_wires = st.lists(any_wire, min_size=2, max_size=2, unique=True)
    frame_gate = st.one_of(
        st.builds(lambda w: GateInstance("x", (), (w,)), any_wire),
        st.builds(lambda ws: GateInstance("cnot", (ws[0],), (ws[1],)),
                  two_wires.filter(lambda ws: ws[0] != regs.coin())),
    )
    payload = st.one_of(
        st.builds(lambda kind, theta: GateInstance(kind, (), (0,), theta),
                  st.sampled_from(["rx", "ry", "rz"]), angle),
        st.builds(lambda w, theta: GateInstance("rz", (), (w,), theta), wire, angle),
        st.builds(lambda seed: GateInstance(
            "cu2" if n == 1 else "mcu2", tuple(positions), (0,),
            matrix=random_field(1, seed=seed).coins[1]), st.integers(0, 1000)),
    )
    body = draw(st.lists(st.tuples(st.lists(frame_gate, max_size=3), st.lists(payload, max_size=3)),
                         max_size=8))
    gates, frames = [], []
    for frame, payloads in body:
        gates += frame + payloads
        frames += frame
    gates += frames[::-1]
    phase = draw(angle)
    return Circuit(regs, tuple(gates), {"global_phase": phase})


@settings(max_examples=150, deadline=None)
@given(frame_circuits())
def test_parity_frames_read_generated_circuits_exactly(circuit):
    try:
        coins, residual = walk_module.collapse(circuit)
    except ToolkitError as exc:  # an mcu2 met while a control holds a parity
        assert exc.code == "coin-not-block-diagonal"
        assert "which holds a parity of other position bits" in exc.message
        return
    assert residual == 0.0
    want = np.zeros((2 << circuit.registers.n,) * 2, dtype=complex)
    for k, block in enumerate(coins):
        want[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
    assert np.max(np.abs(full_unitary(circuit) - want)) <= 1e-12


# -- runtime invariants ------------------------------------------------------


@pytest.mark.parametrize("builder", ["dense-oracle", "naive", "linear"])
def test_norm_drift_raises(monkeypatch, builder):
    monkeypatch.setattr(walk_module, "_NORM_SLACK", -1.0)
    with pytest.raises(ToolkitError) as err:
        run(WalkConfig(2, 1, random_field(2, seed=4), coin_builder=builder))
    assert err.value.code == "norm-drift"


def test_ancilla_residual_raises(monkeypatch):
    monkeypatch.setitem(walk_module.CONSTRUCTIONS, "linear", -1.0)
    with pytest.raises(ToolkitError) as err:
        run(WalkConfig(2, 1, random_field(2, seed=4), coin_builder="linear"))
    assert err.value.code == "ancilla-residual"


@pytest.mark.parametrize("construction", ["naive", "walsh"])
def test_walk_holds_a_collapse_to_its_construction_limit(monkeypatch, construction):
    monkeypatch.setitem(walk_module.CONSTRUCTIONS, construction, -1.0)
    with pytest.raises(ToolkitError) as err:
        run(WalkConfig(2, 1, random_field(2, seed=4), coin_builder=construction))
    assert err.value.code == "coin-not-block-diagonal"


@pytest.mark.parametrize("name", ["dense-oracle", "bogus", "Naive", ""])
def test_build_coin_refuses_any_other_name(name):
    with pytest.raises(ValueError, match="unknown construction"):
        walk_module.build_coin(name, random_field(2, seed=0))


def test_build_coin_builds_every_construction():
    field = random_field(2, seed=0)
    built = [walk_module.build_coin(name, field) for name in walk_module.CONSTRUCTIONS]
    assert [c.metadata["builder"] for c in built] == ["naive", "linear", "walsh-coin"]


def test_linear_circuit_leaving_an_ancilla_set_raises(monkeypatch):
    def flipped(field):
        circuit = build_linear(field)
        return circuit.extended([GateInstance("x", (), (circuit.registers.apos(0),))])

    monkeypatch.setattr(walk_module.linear_mod, "build_linear", flipped)
    with pytest.raises(ToolkitError) as err:
        run(WalkConfig(2, 1, identity_field(2), coin_builder="linear"))
    assert err.value.code == "ancilla-residual"


def test_norm_check_raises_under_python_O(tmp_path):
    code = "\n".join([
        "import coinwalk.walk as w",
        "from coinwalk import ToolkitError, random_field",
        "w._NORM_SLACK = -1.0",
        "print(__debug__)",
        "try:",
        "    w.run(w.WalkConfig(2, 1, random_field(2, seed=0)))",
        "except ToolkitError as exc:",
        "    print(exc.code)",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "norm-drift"]


def test_dense_oracle_walk_memory(tmp_path):
    # A dense 2^(n+1) square matrix at n=11 is 268 MB; the walk needs none.
    pytest.importorskip("resource")
    n = 11
    config_path = tmp_path / "walk.json"
    config_path.write_text(json.dumps(config_to_json(WalkConfig(n, 3, random_field(n, seed=1)))))
    walk_cmd = [
        sys.executable, "-m", "coinwalk.cli", "walk",
        "--config", str(config_path), "--out", str(tmp_path / "out.json"),
    ]
    # a wrapper process, so RUSAGE_CHILDREN sees this walk and no other child
    measure = (
        "import resource, subprocess, sys; "
        "code = subprocess.run(sys.argv[1:]).returncode; "
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", measure, *walk_cmd],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, maxrss_kb = (int(v) for v in proc.stdout.split()[-2:])
    assert code == 0, proc.stderr
    assert maxrss_kb * 1024 < 200 * 10**6, f"walk peak RSS {maxrss_kb / 1024:.0f} MiB"


# -- the shift read ------------------------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", range(1, 14))
def test_shift_read_is_the_rolls_permutation_with_unit_phases(scheme, n):
    source, phase = walk_module._read_shift(build_shift(scheme, n))
    assert np.array_equal(source, walk_module._shift_rolls(np.arange(2 << n)))
    assert np.max(np.abs(phase - 1)) <= walk_module.SHIFT_TOL


@pytest.mark.parametrize("scheme", SCHEMES)
def test_shift_phases_are_read_to_rounding_at_every_label(scheme):
    # Read as label / (source + 1), the phases of the small labels carried the
    # rounding of the largest ones (4e-13 at n = 8 for the QFT shift), which
    # a walk of ten steps grew past 1e-12.
    for n in (4, 8, 13):
        _, phase = walk_module._read_shift(build_shift(scheme, n))
        assert np.max(np.abs(phase - 1)) <= 1e-14


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _with_h_on_a_position_wire(scheme, n):
    circuit = build_shift(scheme, n)
    return circuit.extended([GateInstance("u2", (), (circuit.registers.position(0),), matrix=_H, label="h")])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_walk_refuses_a_shift_that_is_not_a_permutation(monkeypatch, scheme):
    monkeypatch.setattr(walk_module.shift_mod, "build_shift", _with_h_on_a_position_wire)
    with pytest.raises(ToolkitError) as err:
        run(WalkConfig(3, 2, random_field(3, seed=4), shift_scheme=scheme))
    assert err.value.code == "shift-not-permutation"


def test_shift_read_holds_the_probe_to_the_shift_tolerance(monkeypatch):
    # With no tolerance left the probe check alone refuses a true permutation.
    monkeypatch.setattr(walk_module, "SHIFT_TOL", -1.0)
    with pytest.raises(ToolkitError, match="probe deviates") as err:
        run(WalkConfig(2, 1, random_field(2, seed=4), shift_scheme="id"))
    assert err.value.code == "shift-not-permutation"


def test_shift_refusal_raises_under_python_O(tmp_path):
    code = "\n".join([
        "import numpy as np",
        "import coinwalk.walk as w",
        "from coinwalk import GateInstance, ToolkitError, random_field",
        "build = w.shift_mod.build_shift",
        "h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)",
        "w.shift_mod.build_shift = lambda scheme, n: build(scheme, n).extended(",
        "    [GateInstance('u2', (), (1,), matrix=h, label='h')])",
        "print(__debug__)",
        "try:",
        "    w.run(w.WalkConfig(2, 1, random_field(2, seed=0)))",
        "except ToolkitError as exc:",
        "    print(exc.code)",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "shift-not-permutation"]


@settings(max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    n=st.integers(1, 8),
    steps=st.integers(0, 30),
    seed=st.integers(0, 2**16),
)
@example(scheme="qft", n=8, steps=9, seed=0)
def test_walk_matches_a_per_step_circuit_loop(scheme, n, steps, seed):
    field = random_field(n, seed=seed)
    config = WalkConfig(n, steps, field, shift_scheme=scheme,
                        initial={"position": seed % (1 << n), "coin": [[0.6, 0.0], [0.0, 0.8]]})
    circuit = build_shift(scheme, n)
    vec = initial_state(config)
    for _ in range(steps):
        vec = statevec.apply_circuit(np.einsum("kij,kj->ki", field.coins, vec.reshape(-1, 2)).reshape(-1), circuit)
    got = run(config)
    assert np.max(np.abs(got.final_state - vec)) <= 1e-12
    want = np.abs(vec[0::2]) ** 2 + np.abs(vec[1::2]) ** 2
    assert np.max(np.abs(got.distribution.probabilities - want)) <= 1e-12


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_walk_runs_each_shift_gate_once_whatever_its_steps(monkeypatch, scheme):
    calls = []
    apply_gate = statevec.apply_gate

    def counted(*args):
        calls.append(args)
        return apply_gate(*args)

    monkeypatch.setattr(statevec, "apply_gate", counted)
    gates = len(build_shift(scheme, 3).gates)
    for steps in (0, 1, 9):
        calls.clear()
        run(WalkConfig(3, steps, random_field(3, seed=2), coin_builder="naive", shift_scheme=scheme))
        assert len(calls) == gates


# -- backends agree ----------------------------------------------------------


@pytest.mark.parametrize("scheme", ["qft", "id"])
@pytest.mark.parametrize("builder", ["dense-oracle", "naive", "walsh", "linear"])
def test_backends_match_oracle(builder, scheme):
    for n in (2, 3):
        field = random_field(n, seed=17 + n)
        config = WalkConfig(
            n, 4, field, coin_builder=builder, shift_scheme=scheme, initial=INITIAL
        )
        got = run(config).distribution.probabilities
        want = oracle(config).distribution.probabilities
        assert tvd(got, want) <= 1e-10
        assert np.max(np.abs(got - want)) <= 1e-10


def test_walsh_truncation_degrades_then_recovers():
    n = 3
    field = random_field(n, seed=23)
    want = oracle(WalkConfig(n, 3, field, initial=INITIAL)).distribution
    full = run(
        WalkConfig(n, 3, field, coin_builder="walsh", truncation=n, initial=INITIAL)
    ).distribution
    assert tvd(full, want) <= 1e-10
    rough = run(
        WalkConfig(n, 3, field, coin_builder="walsh", truncation=1, initial=INITIAL)
    ).distribution
    assert rough.probabilities.sum() == pytest.approx(1.0, abs=1e-10)


def test_linear_backend_final_state_has_unit_norm():
    n = 2
    config = WalkConfig(n, 3, random_field(n, seed=5), coin_builder="linear")
    result = run(config)
    assert result.final_state.shape == (1 << (n + 1),)
    assert np.linalg.norm(result.final_state) == pytest.approx(1.0, abs=1e-9)


def test_linear_backend_wire_cap(monkeypatch):
    # The linear walk has no cap of its own: the walk layout's dense cap
    # refuses it, n = 4 on 5 qubits over a cap of 4, before any coin is built.
    def refuse(field):
        raise AssertionError("built a linear coin past the dense cap")

    monkeypatch.setattr(statevec, "DENSE_QUBITS_MAX", 4)
    monkeypatch.setattr(walk_module.linear_mod, "build_linear", refuse)
    with pytest.raises(ToolkitError) as err:
        run(WalkConfig(4, 1, identity_field(4), coin_builder="linear"))
    assert err.value.code == "dense-limit-exceeded"


def test_linear_backend_matches_oracle_at_n_12():
    # 8,204 wires: the bit-column reading has no wire cap.
    n = 12
    config = WalkConfig(n, 8, random_field(n, seed=12), coin_builder="linear", shift_scheme="id",
                        initial={"position": 1000, "coin": [1, 1j]})
    assert tvd(run(config).distribution, oracle(config).distribution) <= 1e-9


@pytest.mark.parametrize("scheme", ["qft", "id"])
def test_linear_backend_matches_oracle_past_the_old_cap(scheme):
    # n = 7 is 263 wires, past the cap of 160 the linear walk once had.
    n = 7
    config = WalkConfig(
        n, 6, random_field(n, seed=71), coin_builder="linear", shift_scheme=scheme,
        initial={"position": 40, "coin": [1, 1j]},
    )
    assert tvd(run(config).distribution, oracle(config).distribution) <= 1e-12


# -- initial state -----------------------------------------------------------


def test_initial_state_layout_and_normalization():
    config = WalkConfig(2, 0, identity_field(2), initial={"position": 2, "coin": [1, 1j]})
    vec = initial_state(config)
    assert vec.shape == (8,)
    assert vec[4] == pytest.approx(1 / np.sqrt(2))
    assert vec[5] == pytest.approx(1j / np.sqrt(2))
    assert np.linalg.norm(vec) == pytest.approx(1.0)


@pytest.mark.parametrize("coin,want", [
    ([1.3407807929942597e+154, 0], [1, 0]),
    ([1e200, 1.0], [1, 1e-200]),
    ([[1e308, 1e308], 1e308], [(1 + 1j) / 3 ** 0.5, 1 / 3 ** 0.5]),
])
def test_initial_state_normalizes_a_huge_coin_amplitude_without_a_warning(coin, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = WalkConfig(2, 0, identity_field(2), initial={"position": 1, "coin": coin})
        vec = initial_state(config)
    assert np.allclose(vec[2:4], want, rtol=1e-15, atol=0)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


@pytest.mark.parametrize("coin", [[1.3407807929942597e+154], [0, 0], [float("nan"), 1],
                                  [float("inf"), 0], [1, 0, 0], []])
def test_initial_state_refuses_a_bad_coin_without_a_warning(coin):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="two entries of finite, nonzero norm"):
            WalkConfig(2, 0, identity_field(2), initial={"coin": coin})


def test_initial_state_defaults_to_origin_coin_zero():
    vec = initial_state(WalkConfig(2, 0, identity_field(2)))
    assert vec[0] == 1.0 and np.linalg.norm(vec) == 1.0


@pytest.mark.parametrize("builder", ["dense-oracle", "linear"])
def test_initial_position_bounds(builder):
    with pytest.raises(ValueError, match="initial position 4 is outside 0..3"):
        WalkConfig(2, 1, identity_field(2), coin_builder=builder, initial={"position": 4})


def test_zero_coin_amplitudes_rejected():
    with pytest.raises(ValueError):
        WalkConfig(2, 0, identity_field(2), initial={"coin": [0, 0]})


# -- config validation -------------------------------------------------------


def test_config_guards():
    field = identity_field(2)
    with pytest.raises(ValueError):
        WalkConfig(2, -1, field)
    with pytest.raises(ValueError):
        WalkConfig(2, 1, field, coin_builder="grover")
    with pytest.raises(ValueError):
        WalkConfig(2, 1, field, shift_scheme="swap")
    with pytest.raises(ValueError):
        WalkConfig(2, 1, field, shots=0)
    with pytest.raises(ValueError):
        WalkConfig(2, 1, field, shots=1 << 63)  # numpy samples int64 counts
    WalkConfig(2, 1, field, shots=(1 << 63) - 1)
    with pytest.raises(ValueError):
        WalkConfig(3, 1, field)


def test_tvd_values():
    assert tvd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert tvd(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    with pytest.raises(ValueError):
        tvd(np.zeros(2), np.zeros(4))


# -- sampling ----------------------------------------------------------------


def test_sampling_is_seeded_and_consistent():
    config = WalkConfig(
        2, 3, random_field(2, seed=2), shots=500, seed=42, initial=INITIAL
    )
    first = run(config).distribution.counts
    second = run(config).distribution.counts
    assert first is not None and first.sum() == 500
    assert np.array_equal(first, second)


def test_no_shots_means_no_counts():
    config = WalkConfig(2, 1, random_field(2, seed=2))
    assert run(config).distribution.counts is None


# -- serialization -----------------------------------------------------------


def test_config_round_trip():
    config = WalkConfig(
        3,
        5,
        random_field(3, seed=8),
        coin_builder="walsh",
        shift_scheme="id",
        truncation=2,
        initial={"position": 3, "coin": [[1, 0], [0, 1]]},
        shots=100,
        seed=7,
    )
    data = json.loads(json.dumps(config_to_json(config)))
    back = config_from_json(data)
    assert config_to_json(back) == config_to_json(config)
    assert np.allclose(
        run(back).distribution.probabilities, run(config).distribution.probabilities
    )


def test_results_json_payload():
    config = WalkConfig(2, 2, random_field(2, seed=3), shots=50, seed=1)
    result = run(config)
    payload = json.loads(results_to_json(config, result, tvd_vs_oracle=0.0))
    assert payload["steps"] == 2
    assert len(payload["probabilities"]) == 4
    assert sum(payload["counts"]) == 50
    assert payload["tvd_vs_oracle"] == 0.0
    assert payload["config"]["coin_builder"] == "dense-oracle"
    bare = json.loads(results_to_json(config, run(WalkConfig(2, 2, config.field))))
    assert "counts" not in bare and "tvd_vs_oracle" not in bare


@pytest.mark.parametrize("shots,tvd_vs_oracle", [(None, None), (50, None), (None, 0.0), (100, 1.25e-17)])
def test_results_json_is_the_indent_1_document(shots, tvd_vs_oracle):
    config = WalkConfig(3, 2, random_field(3, seed=1), coin_builder="walsh", shots=shots, seed=4)
    result = run(config)
    payload = {"config": config_to_json(config), "steps": 2,
               "probabilities": result.distribution.probabilities.tolist()}
    if shots is not None:
        payload["counts"] = result.distribution.counts.tolist()
    if tvd_vs_oracle is not None:
        payload["tvd_vs_oracle"] = tvd_vs_oracle
    assert results_to_json(config, result, tvd_vs_oracle) == json.dumps(payload, indent=1)


_ANGLES = [[0.1 * k, 0.2, -0.3 * k, 0.4] for k in range(8)]


@pytest.mark.parametrize(
    "field,form",
    [
        (dirac_field(5, 1.0, 0.5, 1.0, 50.0), "parametric"),
        (dirac_field(3, 2, 0.25, -1, 3, "lattice"), "parametric"),
        (walk_module.coin_field_from_json({"n": 3, "kind": "k-params", "angles": _ANGLES}), "parametric"),
        (random_field(4, seed=9), "parametric"),
        (walk_module.coin_field_from_json(coin_field_to_json(random_field(2, seed=1))), "explicit"),
        (identity_field(2), "explicit"),
        # metadata that does not rebuild the coins, or that json cannot write
        (CoinField(2, random_field(2, seed=1).coins, random_field(2, seed=2).meta), "explicit"),
        (CoinField(3, dirac_field(3, 1.0, 0.5, 1.0, 50.0).coins, dirac_field(3, 1.0, 0.5, 1.0, 5.0).meta), "explicit"),
        (dirac_field(2, np.int64(1), 0.5, 1.0, 2.0), "explicit"),
        (CoinField(2, random_field(2, seed=1).coins, {"kind": "k-params", "angles": _ANGLES}), "explicit"),
        (CoinField(2, random_field(2, seed=1).coins, {"kind": "k-params", "seed": 1}), "explicit"),
    ],
    ids=["dirac", "dirac-lattice-ints", "k-params", "random-field", "explicit", "identity",
         "wrong-angles", "wrong-dirac", "numpy-int-meta", "angles-of-another-n", "seed-only"],
)
def test_results_echo_rebuilds_the_field(field, form):
    config = WalkConfig(field.n, 2, field)
    echo = json.loads(results_to_json(config, run(config)))["config"]
    assert np.array_equal(config_from_json(echo).field.coins, field.coins)
    if form == "explicit":
        assert echo["field"] == coin_field_to_json(field)
    elif field.meta["kind"] == "dirac":
        assert echo["field"] == json.dumps({"n": field.n, **field.meta})
    else:
        assert echo["field"] == json.dumps({"n": field.n, "kind": "k-params", "angles": field.meta["angles"]})


def test_results_csv_layout():
    config = WalkConfig(2, 1, random_field(2, seed=3))
    text = results_to_csv(run(config))
    lines = text.strip().splitlines()
    assert lines[0] == "k,p_k,count"
    assert len(lines) == 5
    # no shots: count column stays empty but the comma survives
    assert lines[1].endswith(",")
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
