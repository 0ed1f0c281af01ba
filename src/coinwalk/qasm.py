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
from .circuit import Circuit, GateInstance, RegisterMap

__all__ = ["from_qasm", "to_qasm"]

_EMITTABLE = {"x", "rx", "ry", "rz", "p", "cnot", "cz", "cp"}


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
        if g.kind not in _EMITTABLE:
            raise ToolkitError(
                "not-in-basis", f"gate kind {g.kind!r} has no qasm spelling; compile first"
            )
        wires = ",".join(wire_name[w] for w in g.wires)
        if g.kind == "x":
            lines.append(f"x {wires};")
        elif g.kind == "cnot":
            lines.append(f"cx {wires};")
        elif g.kind == "cz":
            lines.append(f"cz {wires};")
        elif g.kind == "p":
            lines.append(f"u1({_fmt(g.angle)}) {wires};")
        elif g.kind == "cp":
            lines.append(f"cu1({_fmt(g.angle)}) {wires};")
        else:
            lines.append(f"{g.kind}({_fmt(g.angle)}) {wires};")
    return "\n".join(lines) + "\n"


_GATE_RE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?\s+(.+);$")
_REF_RE = re.compile(r"^(\w+)\[(\d+)\]$")

_KIND_FOR = {
    "x": "x",
    "cx": "cnot",
    "cz": "cz",
    "u1": "p",
    "cu1": "cp",
    "rx": "rx",
    "ry": "ry",
    "rz": "rz",
}

_CONTROLLED = {"cx", "cz", "cu1"}


def from_qasm(text: str) -> Circuit:
    """Parse the emitter's output back into a circuit."""
    reg_sizes: dict[str, int] = {}
    reg_order: list[str] = []
    gates: list[tuple] = []
    phase = 0.0
    layout, n = None, None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("//"):
            body = line[2:].strip()
            if body.startswith("global-phase"):
                phase = float(body.split()[1])
            elif body.startswith("layout"):
                parts = body.split()
                layout = parts[1]
                n = int(parts[2].split("=")[1])
            continue
        if line.startswith("OPENQASM") or line.startswith("include"):
            continue
        if line.startswith("qreg"):
            m = re.match(r"qreg\s+(\w+)\[(\d+)\];", line)
            if not m:
                raise ValueError(f"bad qreg line: {raw!r}")
            reg_sizes[m.group(1)] = int(m.group(2))
            reg_order.append(m.group(1))
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise ValueError(f"unparseable line: {raw!r}")
        name, arg, refs = m.groups()
        if name not in _KIND_FOR:
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
        arity = 2 if name in _CONTROLLED else 1
        if len(wires) != arity:
            raise ValueError(f"{name} takes {arity} operands, got {len(wires)}")
        kind = _KIND_FOR[name]
        if name in _CONTROLLED:
            instances.append(GateInstance(kind, (wires[0],), (wires[1],), angle))
        else:
            instances.append(GateInstance(kind, (), (wires[0],), angle))
    meta = {"global_phase": phase} if phase else {}
    return Circuit(regs, tuple(instances), meta)
