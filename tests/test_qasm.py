"""OPENQASM 2.0 emission and the matching subset parser."""

import numpy as np
import pytest

from coinwalk import (
    Circuit,
    GateInstance,
    RegisterMap,
    ToolkitError,
    build_naive,
    build_shift_id,
    build_shift_qft,
    build_walsh_coin,
    circuit_unitary,
    compile_circuit,
    from_qasm,
    random_field,
    to_qasm,
)


def unitary_with_phase(circuit):
    phase = float(circuit.metadata.get("global_phase", 0.0))
    return np.exp(1j * phase) * circuit_unitary(circuit)


def round_trip_error(circuit):
    back = from_qasm(to_qasm(circuit))
    return np.max(np.abs(unitary_with_phase(back) - unitary_with_phase(circuit)))


def test_round_trip_compiled_circuits():
    assert round_trip_error(compile_circuit(build_walsh_coin(random_field(2, seed=6)))) <= 1e-12
    assert round_trip_error(compile_circuit(build_shift_qft(3))) <= 1e-12
    assert round_trip_error(compile_circuit(build_shift_id(2))) <= 1e-12


def test_repeated_gate_objects_emit_the_text_of_fresh_ones():
    compiled = compile_circuit(build_naive(random_field(3, seed=2)))
    assert len(dict.fromkeys(compiled.gates)) < len(compiled.gates)
    fresh = Circuit(
        compiled.registers,
        [GateInstance(g.kind, g.controls, g.targets, g.angle, g.matrix, g.label) for g in compiled.gates],
        dict(compiled.metadata),
    )
    assert len(dict.fromkeys(fresh.gates)) == len(fresh.gates)
    assert to_qasm(fresh) == to_qasm(compiled)


def test_header_and_register_lines():
    circuit = compile_circuit(build_shift_qft(2))
    text = to_qasm(circuit)
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert any(line.startswith("// layout walk n=2") for line in lines)
    assert "qreg coin[1];" in lines
    assert "qreg position[2];" in lines


def test_global_phase_comment_round_trips():
    regs = RegisterMap.walk(1)
    circuit = Circuit(
        regs,
        (GateInstance("rz", (), (regs.coin(),), 0.8),),
        {"global_phase": 0.25, "n": 1},
    )
    text = to_qasm(circuit)
    assert "// global-phase 0.25" in text
    back = from_qasm(text)
    assert back.metadata["global_phase"] == pytest.approx(0.25)
    assert np.max(np.abs(unitary_with_phase(back) - unitary_with_phase(circuit))) <= 1e-14


def test_rz_is_the_symmetric_rotation():
    # diag(e^{-ia/2}, e^{ia/2}): the parser must not reinterpret the angle.
    regs = RegisterMap.walk(1)
    circuit = Circuit(regs, (GateInstance("rz", (), (0,), 1.3),), {"n": 1})
    back = from_qasm(to_qasm(circuit))
    gate = back.gates[0]
    assert gate.kind == "rz" and gate.angle == pytest.approx(1.3)
    top_left = circuit_unitary(back)[0, 0]
    assert top_left == pytest.approx(np.exp(-1j * 0.65))


def test_phase_gates_spelled_u1_cu1():
    regs = RegisterMap.walk(2)
    circuit = Circuit(
        regs,
        (
            GateInstance("p", (), (1,), 0.3),
            GateInstance("cp", (2,), (1,), -0.4),
        ),
        {"n": 2},
    )
    text = to_qasm(circuit)
    assert "u1(0.3) position[0];" in text
    assert "cu1(-0.4) position[1],position[0];" in text
    assert round_trip_error(circuit) <= 1e-14


def test_uncompiled_gates_are_refused():
    with pytest.raises(ToolkitError) as err:
        to_qasm(build_naive(random_field(2, seed=6)))  # multi-controlled coins
    assert err.value.code == "not-in-basis"
    with pytest.raises(ToolkitError):
        to_qasm(build_shift_qft(2))  # swaps and explicit matrices inside


def test_parser_rejects_foreign_gates():
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n// layout walk n=1\nqreg coin[1];\nqreg pos[1];\nh coin[0];\n'
    with pytest.raises(ToolkitError) as err:
        from_qasm(text)
    assert err.value.code == "not-in-basis"


def test_parser_rejects_garbage_and_bad_layout():
    with pytest.raises(ValueError):
        from_qasm("// layout walk n=1\nqreg coin[1];\nqreg pos[1];\nnot a line\n")
    with pytest.raises(ValueError):
        from_qasm("// layout ring n=1\nqreg coin[1];\nqreg pos[1];\n")
    # register sizes must match the declared layout
    with pytest.raises(ValueError):
        from_qasm("// layout walk n=2\nqreg coin[1];\nqreg pos[1];\n")


WALK2_HEADER = "// layout walk n=2\nqreg coin[1];\nqreg position[2];\n"


@pytest.mark.parametrize(
    "line",
    [
        "rz(0.5) position[5];",  # past the end of a 2-wire register
        "cx position[0];",  # two-qubit gate with one operand
        "x coin[0],position[1];",  # one-qubit gate with two operands
    ],
)
def test_parser_rejects_bad_operands(line):
    with pytest.raises(ValueError):
        from_qasm(WALK2_HEADER + line + "\n")


def test_parser_tolerates_noise_lines():
    circuit = compile_circuit(build_shift_id(2))
    noisy = "\n\n// a stray remark\n" + to_qasm(circuit).replace("\n", "\n\n")
    back = from_qasm(noisy)
    assert np.max(np.abs(unitary_with_phase(back) - unitary_with_phase(circuit))) <= 1e-12


def test_identical_lines_share_one_gate():
    circuit = compile_circuit(build_naive(random_field(3, seed=2)))
    text = to_qasm(circuit)
    back = from_qasm(text)
    gate_lines = [line for line in text.splitlines() if line and not line.startswith(("//", "OPENQASM", "include", "qreg"))]
    assert len(back.gates) == len(gate_lines)
    assert len(set(back.gates)) == len(set(gate_lines)) < len(gate_lines)
    assert to_qasm(back) == text


def test_a_repeated_bad_line_is_reported_at_its_first_occurrence():
    good = "rz(0.5) position[1];"
    text = WALK2_HEADER + f"{good}\n  bogus line \n{good}\nbogus line\n"
    with pytest.raises(ValueError, match=repr("  bogus line ")):
        from_qasm(text)
    # the first of two different bad gates is reported, wherever either recurs
    text = WALK2_HEADER + f"{good}\nx position[5];\ncx position[0];\n{good}\nx position[5];\n"
    with pytest.raises(ValueError, match="names a wire outside layout"):
        from_qasm(text)
    text = WALK2_HEADER + f"{good}\ncx position[0];\nx position[5];\ncx position[0];\n"
    with pytest.raises(ValueError, match="cx takes 2 operands, got 1"):
        from_qasm(text)
