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

from .errors import ToolkitError
from .circuit import GATE_KINDS, Circuit, GateInstance, RegisterMap

__all__ = ["from_qasm", "to_qasm"]

#: qelib1 spelling of every kind that has one
_QASM_NAME = {
    "x": "x", "rx": "rx", "ry": "ry", "rz": "rz", "p": "u1", "cnot": "cx", "cz": "cz", "cp": "cu1",
}
_KIND_OF = {name: kind for kind, name in _QASM_NAME.items()}


def _fmt(angle: float) -> str:
    return repr(float(angle))


def to_qasm(circuit: Circuit) -> str:
    """Serialize a basis-level circuit; raises "not-in-basis" on anything else."""
    regs = circuit.registers
    wire_name: dict[int, str] = {}
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    phase = float(circuit.metadata.get("global_phase", 0.0))
    if phase:
        lines.append(f"// global-phase {_fmt(phase)}")
    lines.append(f"// layout {regs.layout} n={regs.n}")
    for name, wires in regs.registers:
        lines.append(f"qreg {name}[{len(wires)}];")
        for i, w in enumerate(wires):
            wire_name[w] = f"{name}[{i}]"
    for g in circuit.gates:
        if g.kind not in _QASM_NAME:
            raise ToolkitError(
                "not-in-basis", f"gate kind {g.kind!r} has no qasm spelling; compile first"
            )
        wires = ",".join(wire_name[w] for w in g.wires)
        angle = f"({_fmt(g.angle)})" if GATE_KINDS[g.kind][2] == "angle" else ""
        lines.append(f"{_QASM_NAME[g.kind]}{angle} {wires};")
    return "\n".join(lines) + "\n"


_GATE_RE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?\s+(.+);$")
_REF_RE = re.compile(r"^(\w+)\[(\d+)\]$")


def from_qasm(text: str) -> Circuit:
    """Parse the emitter's output back into a circuit."""
    reg_sizes: dict[str, int] = {}
    gates: list[tuple] = []
    phase = 0.0
    layout, n = None, None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("//"):
            directive = line[2:].split()
            if directive[:1] == ["global-phase"]:
                if len(directive) != 2:
                    raise ValueError(f"bad global-phase comment: {raw!r}")
                phase = float(directive[1])
            elif directive[:1] == ["layout"]:
                if len(directive) != 3 or not directive[2].startswith("n="):
                    raise ValueError(f"bad layout comment: {raw!r}")
                layout, n = directive[1], int(directive[2][2:])
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
        gates.append((name, float(arg) if arg else None, refs.split(",")))

    if layout == "walk":
        regs = RegisterMap.walk(n)
    elif layout == "linear-ancilla":
        regs = RegisterMap.linear(n)
    else:
        raise ValueError(f"cannot reconstruct layout {layout!r}")
    for name, wires in regs.registers:
        if reg_sizes.get(name) != len(wires):
            raise ValueError(f"register {name} does not match layout {layout}")

    def wire_of(ref: str) -> int:
        m = _REF_RE.match(ref.strip())
        if not m:
            raise ValueError(f"bad wire reference {ref!r}")
        name, idx = m.group(1), int(m.group(2))
        for reg_name, wires in regs.registers:
            if reg_name == name:
                if idx >= len(wires):
                    raise ValueError(f"wire {ref.strip()} past register {name}[{len(wires)}]")
                return wires[idx]
        raise ValueError(f"unknown register {name!r}")

    instances = []
    for name, angle, refs in gates:
        wires = [wire_of(r) for r in refs]
        kind = _KIND_OF[name]
        n_ctl, n_tgt, _ = GATE_KINDS[kind]
        if len(wires) != n_ctl + n_tgt:
            raise ValueError(f"{name} takes {n_ctl + n_tgt} operands, got {len(wires)}")
        instances.append(GateInstance(kind, wires[:n_ctl], wires[n_ctl:], angle))
    meta = {"global_phase": phase} if phase else {}
    return Circuit(regs, tuple(instances), meta)
