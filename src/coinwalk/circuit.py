"""Circuit intermediate representation.

A :class:`Circuit` is an ordered gate list over a :class:`RegisterMap`.
Layouts:

* ``walk``: coin wire at qubit 0, position wires ``b_p`` at qubits ``1+p``,
  so a basis index reads ``2*k + c`` for position ``k`` and coin bit ``c``.
* ``linear-ancilla``: ancillary positions ``b'_0..b'_{2^n-1}`` at qubits
  ``0..2^n-1``, ancillary coins ``s_1..s_{2^n-1}`` next, the principal coin
  ``s_0`` at qubit ``2^(n+1)-1`` and the position register on top.  With
  qubit 0 as least significant bit this makes a basis index
  ``((2k + s0) << (2^(n+1)-1)) | (s' << 2^n) | b'``.

Depth is greedy as-soon-as-possible layering: a gate starts on the earliest
layer where all of its wires are free.  Layering never reorders gates.  In
the default (block) convention SWAP and controlled-SWAP occupy three layers
and every other gate one; ``expanded=True`` first rewrites SWAP/CSWAP into
their CNOT-basis realizations and then layers with unit weights.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ToolkitError, checked
from . import statevec

__all__ = [
    "BASIS_KINDS",
    "GATE_KINDS",
    "Circuit",
    "GateInstance",
    "RegisterMap",
    "circuit_from_json",
    "circuit_to_json",
    "depth",
    "gate_counts",
    "dagger",
]

#: kinds allowed after compilation
BASIS_KINDS = frozenset({"rx", "ry", "rz", "p", "cnot"})

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(lam: float) -> np.ndarray:
    return np.array([[np.exp(-1j * lam / 2), 0], [0, np.exp(1j * lam / 2)]])


def _p(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * lam)]])


#: Every gate kind: (control count, target count, payload).  A control count
#: of None means one or more.  The payload is "fixed" (the kind names its
#: target matrix), "angle" or "matrix" (explicit, on the targets).
GATE_KINDS = {
    "x": (0, 1, "fixed"), "cnot": (1, 1, "fixed"), "cz": (1, 1, "fixed"),
    "swap": (0, 2, "fixed"), "cswap": (1, 2, "fixed"),
    "rx": (0, 1, "angle"), "ry": (0, 1, "angle"), "rz": (0, 1, "angle"),
    "p": (0, 1, "angle"), "cp": (1, 1, "angle"),
    "u2": (0, 1, "matrix"), "cu2": (1, 1, "matrix"), "mcu2": (None, 1, "matrix"),
}
_FIXED = {"x": _X, "cnot": _X, "cz": _Z, "swap": _SWAP, "cswap": _SWAP}
_ANGLED = {"rx": _rx, "ry": _ry, "rz": _rz, "p": _p, "cp": _p}


@dataclass(frozen=True, eq=False)
class GateInstance:
    """One gate: a kind, control wires, target wires and its payload.

    ``matrix`` (when present) is the unitary on the target wires only;
    controls are implicit.  ``label`` names explicit-matrix gates for
    reporting ("h", coin index, ...).
    """

    kind: str
    controls: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    angle: float | None = None
    matrix: np.ndarray | None = None
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(map(int, self.controls)))
        object.__setattr__(self, "targets", tuple(map(int, self.targets)))
        controls, targets = self.controls, self.targets
        wires = controls + targets
        if len(set(wires)) != len(wires):
            raise ToolkitError("duplicate-qubit", f"gate {self.kind} wires {wires}")
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_ctl, n_tgt, payload = GATE_KINDS[self.kind]
        if payload == "angle":
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle")
        elif payload == "matrix":
            if self.matrix is None:
                raise ValueError(f"{self.kind} needs an explicit matrix")
            mat = np.asarray(self.matrix, dtype=complex)
            if mat.shape != (1 << len(targets),) * 2:
                raise ToolkitError(
                    "gate-arity-mismatch",
                    f"{self.kind} matrix {mat.shape} on {len(targets)} targets",
                )
            if not statevec.is_unitary(mat):
                raise ToolkitError("not-unitary", f"{self.kind} matrix is not unitary")
            object.__setattr__(self, "matrix", mat)
        if len(targets) != n_tgt or (
            len(controls) != n_ctl if n_ctl is not None else not controls
        ):
            raise ToolkitError(
                "gate-arity-mismatch",
                f"{self.kind} takes {'>=1' if n_ctl is None else n_ctl} controls and "
                f"{n_tgt} targets, got {(len(controls), len(targets))}",
            )

    @property
    def wires(self) -> tuple[int, ...]:
        return self.controls + self.targets

    def matrix_on_targets(self) -> np.ndarray:
        """Unitary on the target wires (controls handled by the applier)."""
        if self.kind in _FIXED:
            return _FIXED[self.kind]
        if self.kind in _ANGLED:
            return _ANGLED[self.kind](self.angle)
        return self.matrix


def dagger(gate: GateInstance) -> GateInstance:
    """Inverse of a single gate instance."""
    payload = GATE_KINDS[gate.kind][2]
    if payload == "fixed":
        return gate
    if payload == "angle":
        return GateInstance(gate.kind, gate.controls, gate.targets, -gate.angle,
                            label=gate.label)
    return GateInstance(gate.kind, gate.controls, gate.targets, None,
                        gate.matrix.conj().T, gate.label)


@dataclass(frozen=True)
class RegisterMap:
    """Named registers mapped onto contiguous wire indices."""

    n: int
    layout: str
    num_wires: int
    registers: tuple[tuple[str, tuple[int, ...]], ...]

    @classmethod
    def walk(cls, n: int) -> "RegisterMap":
        if n < 1:
            raise ValueError("need n >= 1 position qubits")
        return cls(
            n,
            "walk",
            n + 1,
            (
                ("coin", (0,)),
                ("position", tuple(range(1, n + 1))),
            ),
        )

    @classmethod
    def linear(cls, n: int) -> "RegisterMap":
        if n < 1:
            raise ValueError("need n >= 1 position qubits")
        npos = 1 << n
        apos = tuple(range(npos))
        acoin = tuple(range(npos, 2 * npos - 1))
        coin = 2 * npos - 1
        pos = tuple(range(2 * npos, 2 * npos + n))
        return cls(
            n,
            "linear-ancilla",
            2 * npos + n,
            (
                ("apos", apos),
                ("acoin", acoin),
                ("coin", (coin,)),
                ("position", pos),
            ),
        )

    def _reg(self, name: str) -> tuple[int, ...]:
        for reg_name, wires in self.registers:
            if reg_name == name:
                return wires
        raise KeyError(name)

    def position(self, p: int) -> int:
        return self._reg("position")[p]

    def coin(self) -> int:
        return self._reg("coin")[0]

    def acoin(self, m: int) -> int:
        """Ancillary coin s_m; s_0 is the principal coin."""
        if m == 0:
            return self.coin()
        return self._reg("acoin")[m - 1]

    def apos(self, m: int) -> int:
        return self._reg("apos")[m]

    def embed(self, k: int, c: int) -> int:
        """Basis index of position ``k`` and coin bit ``c``, every other wire at 0."""
        index = c << self.coin()
        for p in range(self.n):
            if (k >> p) & 1:
                index |= 1 << self.position(p)
        return index


@dataclass
class Circuit:
    registers: RegisterMap
    gates: tuple[GateInstance, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.gates = tuple(self.gates)
        for g in self.gates:
            for w in g.wires:
                if not 0 <= w < self.registers.num_wires:
                    raise ToolkitError(
                        "index-out-of-range",
                        f"wire {w} outside 0..{self.registers.num_wires - 1}",
                    )

    @property
    def num_wires(self) -> int:
        return self.registers.num_wires

    @property
    def n(self) -> int:
        return self.registers.n

    def extended(self, more_gates: Iterable[GateInstance]) -> "Circuit":
        return Circuit(self.registers, self.gates + tuple(more_gates), dict(self.metadata))


_BLOCK_WEIGHT = {"swap": 3, "cswap": 3}


def depth(circuit: Circuit, expanded: bool = False) -> int:
    """ASAP layer count; see the module docstring for the two conventions."""
    if expanded:
        from . import transpile  # deferred: transpile builds on this module

        gates = []
        for g in circuit.gates:
            if g.kind == "swap":
                gates.extend(transpile.swap_gates(*g.targets))
            elif g.kind == "cswap":
                gates.extend(transpile.cswap_gates(g.controls[0], *g.targets))
            else:
                gates.append(g)
        weight = lambda g: 1
    else:
        gates = circuit.gates
        weight = lambda g: _BLOCK_WEIGHT.get(g.kind, 1)
    free = [0] * circuit.num_wires
    total = 0
    for g in gates:
        start = max((free[w] for w in g.wires), default=0)
        end = start + weight(g)
        for w in g.wires:
            free[w] = end
        total = max(total, end)
    return total


def gate_counts(circuit: Circuit) -> dict[str, int]:
    return dict(Counter(g.kind for g in circuit.gates))


def _gate_to_dict(g: GateInstance) -> dict:
    d: dict = {"kind": g.kind}
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


def _gate_from_dict(d) -> GateInstance:
    d = checked(d, dict, "a gate")
    angle, matrix, label = d.get("angle"), d.get("matrix"), d.get("label")
    if matrix is not None:
        pairs = statevec.float_array(matrix, "a gate matrix")
        if pairs.ndim != 3 or pairs.shape[2] != 2:
            raise ValueError("a gate matrix must be rows of [re, im] pairs")
        matrix = pairs.view(complex)[..., 0]
    return GateInstance(
        checked(d.get("kind"), str, "a gate kind"),
        _wires_from_list(d.get("controls", []), "controls"),
        _wires_from_list(d.get("targets", []), "targets"),
        None if angle is None else checked(angle, float, "a gate angle"),
        matrix,
        None if label is None else checked(label, str, "a gate label"),
    )


def _wires_from_list(wires, what: str) -> tuple[int, ...]:
    return tuple(checked(w, int, f"a wire in {what}") for w in checked(wires, list, what))


def circuit_to_json(circuit: Circuit) -> str:
    payload = {
        "format": "coinwalk-circuit/1",
        "n": circuit.registers.n,
        "layout": circuit.registers.layout,
        "metadata": _jsonable_metadata(circuit.metadata),
        "gates": [_gate_to_dict(g) for g in circuit.gates],
    }
    return json.dumps(payload, indent=1)


def _jsonable_metadata(meta: dict) -> dict:
    out = {}
    for key, val in meta.items():
        if isinstance(val, np.ndarray):
            out[key] = val.tolist()
        elif isinstance(val, (np.floating, np.integer)):
            out[key] = val.item()
        else:
            out[key] = val
    return out


def circuit_from_json(text: str) -> Circuit:
    """Read a circuit document; ``ValueError`` if it is malformed."""
    payload = checked(json.loads(text), dict, "a circuit document")
    if payload.get("format") != "coinwalk-circuit/1":
        raise ValueError("not a coinwalk circuit document")
    layout = payload.get("layout")
    n = checked(payload.get("n"), int, "n")
    if layout == "walk":
        registers = RegisterMap.walk(n)
    elif layout == "linear-ancilla":
        registers = RegisterMap.linear(n)
    else:
        raise ValueError(f"unknown circuit layout {layout!r}")
    gates = tuple(_gate_from_dict(d) for d in checked(payload.get("gates"), list, "gates"))
    meta = checked(payload.get("metadata", {}), dict, "metadata")
    checked(meta.get("global_phase", 0.0), float, "metadata.global_phase")
    walsh = meta.get("walsh")
    if walsh is not None:
        terms = checked(checked(walsh, dict, "metadata.walsh").get("terms", []), list, "walsh terms")
        meta["walsh"] = dict(walsh, terms=[tuple(checked(t, list, "a walsh term")) for t in terms])
    return Circuit(registers, gates, meta)
