"""OPENQASM 2.0 emission and a matching subset parser.

Only gates with a direct qelib1 spelling are emitted: x, rx, ry, rz, cx,
cz, and the phase gates as u1/cu1.  Anything else (explicit-matrix gates,
swaps, multi-controls) must be compiled first; the emitter refuses rather
than silently rewriting.  ``rz`` here is the symmetric rotation
diag(e^{-i a/2}, e^{i a/2}); the tracked global phase rides along as a
comment so the parser can restore it.

The parser exists to make serialization testable without an external
toolchain; it reads exactly what the emitter writes (plus whitespace and
comment noise) and nothing more.
"""

from __future__ import annotations

import re

from .errors import ToolkitError, checked
from .circuit import GATE_KINDS, Circuit, GateInstance, RegisterMap
from .statevec import check_document_n

__all__ = ["from_qasm", "to_qasm"]

#: qelib1 spelling of every kind that has one
_QASM_NAME = {
    "x": "x", "rx": "rx", "ry": "ry", "rz": "rz", "p": "u1", "cnot": "cx", "cz": "cz", "cp": "cu1",
}
_KIND_OF = {name: kind for kind, name in _QASM_NAME.items()}


def _fmt(angle: float) -> str:
    return repr(float(angle))


def _wire_names(regs: RegisterMap) -> dict[int, str]:
    """The qasm name ``reg[i]`` of every wire, for the emitter and the parser alike."""
    return {w: f"{name}[{i}]" for name, wires in regs.registers for i, w in enumerate(wires)}


def to_qasm(circuit: Circuit) -> str:
    """Serialize a basis-level circuit; raises "not-in-basis" on anything else.

    Each distinct gate object is formatted once and its line reused wherever
    it recurs, as in a compiled circuit's shared networks; the text is the
    same as formatting every gate afresh.
    """
    regs = circuit.registers
    wire_name = _wire_names(regs)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    phase = circuit.global_phase
    if phase:
        lines.append(f"// global-phase {_fmt(phase)}")
    lines.append(f"// layout {regs.layout} n={regs.n}")
    for name, wires in regs.registers:
        lines.append(f"qreg {name}[{len(wires)}];")
    line_of: dict[GateInstance, str] = {}
    for g in circuit.gates:
        line = line_of.get(g)
        if line is None:
            if g.kind not in _QASM_NAME:
                raise ToolkitError(
                    "not-in-basis", f"gate kind {g.kind!r} has no qasm spelling; compile first"
                )
            wires = ",".join(wire_name[w] for w in g.wires)
            angle = f"({_fmt(g.angle)})" if GATE_KINDS[g.kind][2] == "angle" else ""
            line = line_of[g] = f"{_QASM_NAME[g.kind]}{angle} {wires};"
        lines.append(line)
    lines.append("")  # the final newline, with no second copy of the text
    return "\n".join(lines)


_GATE_RE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?\s+(.+);$")


def from_qasm(text: str) -> Circuit:
    """Parse the emitter's output back into a circuit.

    Each distinct gate line (by its stripped text) is parsed and read once,
    and its gate is shared wherever the line recurs, as in a compiled
    circuit's shared networks.  The distinct lines are read in order of
    first occurrence, so the first bad line is the one reported.
    """
    reg_sizes: dict[str, int] = {}
    parsed: dict[str, tuple] = {}  # each distinct gate line: name, angle, operands
    gate_lines: list[str] = []
    phase = 0.0
    layout, n = None, None
    for raw in text.splitlines():
        line = raw.strip()
        if line in parsed:
            gate_lines.append(line)
            continue
        if not line:
            continue
        if line.startswith("//"):
            directive = line[2:].split()
            if directive[:1] == ["global-phase"]:
                if len(directive) != 2:
                    raise ValueError(f"bad global-phase comment: {raw!r}")
                phase = checked(float(directive[1]), float, "the global-phase comment")
            elif directive[:1] == ["layout"]:
                if len(directive) != 3 or not directive[2].startswith("n="):
                    raise ValueError(f"bad layout comment: {raw!r}")
                layout, n = directive[1], check_document_n(int(directive[2][2:]))
            continue
        if line.startswith("OPENQASM") or line.startswith("include"):
            continue
        if line.startswith("qreg"):
            m = re.match(r"qreg\s+(\w+)\[(\d+)\];", line)
            if not m:
                raise ValueError(f"bad qreg line: {raw!r}")
            reg_sizes[m.group(1)] = int(m.group(2))
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise ValueError(f"unparseable line: {raw!r}")
        name, arg, refs = m.groups()
        if name not in _KIND_OF:
            raise ToolkitError("not-in-basis", f"unsupported qasm gate {name!r}")
        parsed[line] = (name, float(arg) if arg else None, refs.split(","))
        gate_lines.append(line)

    regs = RegisterMap.for_layout(layout, n)
    for name, wires in regs.registers:
        if reg_sizes.get(name) != len(wires):
            raise ValueError(f"register {name} does not match layout {layout}")

    wire_of = {ref: w for w, ref in _wire_names(regs).items()}
    gate_of: dict[str, GateInstance] = {}
    for line, (name, angle, refs) in parsed.items():  # in order of first occurrence
        wires = tuple(wire_of.get(r.strip()) for r in refs)
        if None in wires:
            raise ValueError(f"{name} names a wire outside layout {layout}: {','.join(refs)}")
        kind = _KIND_OF[name]
        n_ctl, n_tgt, _ = GATE_KINDS[kind]
        if len(wires) != n_ctl + n_tgt:
            raise ValueError(f"{name} takes {n_ctl + n_tgt} operands, got {len(wires)}")
        gate_of[line] = GateInstance(kind, wires[:n_ctl], wires[n_ctl:], angle)
    meta = {"global_phase": phase} if phase else {}
    return Circuit(regs, tuple(map(gate_of.__getitem__, gate_lines)), meta)
