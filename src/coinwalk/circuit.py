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
layer where all of its wires are free.  Layering never reorders gates.  SWAP
and controlled-SWAP occupy three layers (the block convention) and every
other gate one; ``depth(transpile.expand_swaps(c))`` layers the circuit
with SWAP/CSWAP rewritten into their CNOT-basis realizations instead.

Every whole-circuit pass does its per-gate work once per distinct gate
object: the wire check, :func:`depth`, :func:`gate_counts`,
:func:`circuit_to_json` and ``qasm.to_qasm`` read or format a gate the first
time it occurs and reuse that wherever the same object recurs.  A compiled
circuit reuses the objects of its shared networks, and
:func:`circuit_from_json` gives identical gate records one shared object, so
a document of tens of thousands of gates costs a pass over its few thousand
distinct ones.  Every result is the same as a pass gate by gate.

:func:`circuit_from_json` has two paths.  Text in :func:`circuit_to_json`'s
own layout is cut on the separators that writer joins the gate list with;
the header and each distinct record text are parsed alone, once.  Any other
text, and any such text whose header or a record does not parse alone or
does not read, is parsed whole with ``json.loads``, so each error is the one
that path gives.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable

import numpy as np

from .errors import ToolkitError, check_n, checked, float_array, read_json
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


#: plain ints: wires of this one type skip the slower reads of a wire
_EXACT_INT = frozenset({int})


def _wire_tuple(kind: str, wires) -> tuple[int, ...]:
    """``wires`` read by ``operator.index`` (numpy integers pass); ``ValueError``
    for a bool, a float, a string or anything else that is not an integer."""
    try:
        given = tuple(wires)
        out = tuple(map(operator.index, given))
    except TypeError:
        out = None
    if out is None or bool in map(type, given):
        raise ValueError(f"gate {kind} wires must be integers, got {wires!r:.60}")
    return out


class GateInstance:
    """One gate: a kind, control wires, target wires and its payload.

    ``matrix`` (when present) is the unitary on the target wires only;
    controls are implicit.  ``label`` names explicit-matrix gates for
    reporting ("h", coin index, ...).

    An immutable slotted record.  The constructor is its one check: it reads
    the wires (:func:`_wire_tuple`, skipped for tuples of plain ints) and
    holds the record to its kind's ``GATE_KINDS`` rule, so a kind carries
    exactly its payload (an angle, a unitary matrix or neither).  Assigning
    a field raises ``dataclasses.FrozenInstanceError``; equality and hashing
    are by identity; copies and pickles are rebuilt through the constructor.
    """

    __slots__ = ("kind", "controls", "targets", "angle", "matrix", "label")

    def __init__(self, kind: str, controls=(), targets=(), angle: float | None = None,
                 matrix: np.ndarray | None = None, label: str | None = None):
        # every builder passes tuples of plain ints; any other wires are read one by one
        wires = controls + targets if type(controls) is tuple and type(targets) is tuple else ()
        if not wires or not _EXACT_INT.issuperset(map(type, wires)):
            controls, targets = _wire_tuple(kind, controls), _wire_tuple(kind, targets)
            wires = controls + targets
        if len(set(wires)) != len(wires):
            raise ToolkitError("duplicate-qubit", f"gate {kind} wires {wires}")
        rule = GATE_KINDS.get(kind)
        if rule is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        n_ctl, n_tgt, payload = rule
        if payload == "angle":
            if angle is None or not math.isfinite(angle):
                raise ValueError(f"{kind} needs a finite angle")
        elif angle is not None:
            raise ValueError(f"{kind} takes no angle")
        if payload == "matrix":
            if matrix is None:
                raise ValueError(f"{kind} needs an explicit matrix")
            matrix = np.asarray(matrix, dtype=complex)
            if matrix.shape != (1 << len(targets),) * 2:
                raise ToolkitError(
                    "gate-arity-mismatch",
                    f"{kind} matrix {matrix.shape} on {len(targets)} targets",
                )
            if not statevec.is_unitary(matrix):
                raise ToolkitError("not-unitary", f"{kind} matrix is not unitary")
        elif matrix is not None:
            raise ValueError(f"{kind} takes no matrix")
        if len(targets) != n_tgt or (
            len(controls) != n_ctl if n_ctl is not None else not controls
        ):
            raise ToolkitError(
                "gate-arity-mismatch",
                f"{kind} takes {'>=1' if n_ctl is None else n_ctl} controls and "
                f"{n_tgt} targets, got {(len(controls), len(targets))}",
            )
        _set_kind(self, kind)
        _set_controls(self, controls)
        _set_targets(self, targets)
        _set_angle(self, angle)
        _set_matrix(self, matrix)
        _set_label(self, label)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.kind, self.controls, self.targets, self.angle, self.matrix, self.label)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

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


# the slot setters, the constructor's way past the raising __setattr__
_set_kind, _set_controls, _set_targets, _set_angle, _set_matrix, _set_label = (
    vars(GateInstance)[name].__set__ for name in GateInstance.__slots__
)


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
    """Named registers mapped onto contiguous wire ranges."""

    n: int
    layout: str
    num_wires: int
    registers: tuple[tuple[str, range], ...]

    @classmethod
    def walk(cls, n: int) -> "RegisterMap":
        return cls(
            check_n(n),
            "walk",
            n + 1,
            (
                ("coin", range(1)),
                ("position", range(1, n + 1)),
            ),
        )

    @classmethod
    def linear(cls, n: int) -> "RegisterMap":
        npos = 1 << check_n(n)
        return cls(
            n,
            "linear-ancilla",
            2 * npos + n,
            (
                ("apos", range(npos)),
                ("acoin", range(npos, 2 * npos - 1)),
                ("coin", range(2 * npos - 1, 2 * npos)),
                ("position", range(2 * npos, 2 * npos + n)),
            ),
        )

    @classmethod
    def for_layout(cls, layout, n: int) -> "RegisterMap":
        """The registers of the layout a document names; ``ValueError`` for any other name."""
        if layout == "walk":
            return cls.walk(n)
        if layout == "linear-ancilla":
            return cls.linear(n)
        raise ValueError(f"unknown circuit layout {layout!r}")

    def __post_init__(self):
        # each register's wires by name, so a lookup is one dict read, not a scan
        object.__setattr__(self, "_wires", dict(self.registers))

    def position(self, p: int) -> int:
        return self._wires["position"][p]

    def coin(self) -> int:
        return self._wires["coin"][0]

    def acoin(self, m: int) -> int:
        """Ancillary coin s_m; s_0 is the principal coin."""
        if m == 0:
            return self.coin()
        return self._wires["acoin"][m - 1]

    def apos(self, m: int) -> int:
        return self._wires["apos"][m]

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
        # once per distinct gate object (a compiled circuit reuses them), in
        # circuit order, so the first bad gate is the one reported
        for g in dict.fromkeys(self.gates):
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
    def global_phase(self) -> float:
        """The tracked scalar phase: the circuit is ``exp(i phase)`` times its gates."""
        return float(self.metadata.get("global_phase", 0.0))

    def extended(self, more_gates: Iterable[GateInstance]) -> "Circuit":
        return Circuit(self.registers, self.gates + tuple(more_gates), dict(self.metadata))


_BLOCK_WEIGHT = {"swap": 3, "cswap": 3}


def depth(circuit: Circuit) -> int:
    """ASAP layer count in the block convention of the module docstring.

    Each distinct gate object's wires and weight are read once; the layering
    loop then takes one-wire and two-wire gates without building a tuple.
    A wire's free layer only grows, so the depth is the largest of them; the
    free layers are kept for the wires up to the highest a gate uses, as an
    untouched wire stays at 0 whatever the layout's width.
    """
    layering = {}
    top = -1
    for g in dict.fromkeys(circuit.gates):
        wires, weight = g.wires, _BLOCK_WEIGHT.get(g.kind, 1)
        top = max(top, *wires)
        if len(wires) == 1:
            layering[g] = (wires[0], None, weight)
        elif len(wires) == 2:
            layering[g] = (wires[0], wires[1], weight)
        else:
            layering[g] = (None, wires, weight)
    free = [0] * (top + 1)
    for a, b, weight in map(layering.__getitem__, circuit.gates):
        if b is None:
            free[a] += weight
        elif a is not None:
            fa, fb = free[a], free[b]
            free[a] = free[b] = (fa if fa > fb else fb) + weight
        else:
            end = max([free[w] for w in b]) + weight
            for w in b:
                free[w] = end
    return max(free, default=0)


def gate_counts(circuit: Circuit) -> dict[str, int]:
    """Gates of each kind, the kinds in order of first occurrence."""
    counts: dict[str, int] = {}
    for g, count in Counter(circuit.gates).items():
        counts[g.kind] = counts.get(g.kind, 0) + count
    return counts


def _json_scalar(value) -> str:
    """``value`` as ``json.dumps`` writes it: a float by ``float.__repr__``,
    a string by the ASCII escaper, anything else by ``json.dumps`` itself."""
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _gate_text(g: GateInstance) -> str:
    """One gate record as ``json.dumps(..., indent=1)`` writes it in the gate
    list, less the braces and line breaks the record separator supplies."""
    fields = [f'   "kind": {_json_scalar(g.kind)}']
    if g.controls:
        fields.append('   "controls": [\n    ' + ",\n    ".join(map(str, g.controls)) + "\n   ]")
    if g.targets:
        fields.append('   "targets": [\n    ' + ",\n    ".join(map(str, g.targets)) + "\n   ]")
    if g.angle is not None:
        fields.append(f'   "angle": {_json_scalar(g.angle)}')
    if g.matrix is not None:
        rows = (
            "    [\n" + ",\n".join(
                f"     [\n      {float.__repr__(re)},\n      {float.__repr__(im)}\n     ]"
                for re, im in zip(re_row, im_row)
            ) + "\n    ]"
            for re_row, im_row in zip(g.matrix.real.tolist(), g.matrix.imag.tolist())
        )
        fields.append('   "matrix": [\n' + ",\n".join(rows) + "\n   ]")
    if g.label is not None:
        fields.append(f'   "label": {_json_scalar(g.label)}')
    return ",\n".join(fields)


def _exact_fields(d: dict) -> tuple | None:
    """A record's ``(kind, controls, targets, angle, label)`` when each has its
    exact JSON type (strings, lists of plain ints, a finite float), else None."""
    kind, controls, targets = d.get("kind"), d.get("controls", []), d.get("targets", [])
    angle, label = d.get("angle"), d.get("label")
    if (
        type(kind) is str and type(controls) is list and type(targets) is list
        and _EXACT_INT.issuperset(map(type, controls)) and _EXACT_INT.issuperset(map(type, targets))
        and (angle is None or type(angle) is float and math.isfinite(angle))
        and (label is None or type(label) is str)
    ):
        return kind, tuple(controls), tuple(targets), angle, label
    return None


def _gate_from_dict(d, fields: tuple | None = None) -> GateInstance:
    """One gate record.  Its :func:`_exact_fields` (given or found) go to the
    constructor as they are; otherwise each field takes the :func:`checked`
    path, which converts an integer angle or raises that field's message."""
    if type(d) is not dict:
        d = checked(d, dict, "a gate")
    matrix = d.get("matrix")
    if matrix is not None:
        pairs = float_array(matrix, "a gate matrix")
        if pairs.ndim != 3 or pairs.shape[2] != 2:
            raise ValueError("a gate matrix must be rows of [re, im] pairs")
        matrix = pairs.view(complex)[..., 0]
    kind, controls, targets, angle, label = fields or _exact_fields(d) or (
        checked(d.get("kind"), str, "a gate kind"),
        _wires_from_list(d.get("controls", []), "controls"),
        _wires_from_list(d.get("targets", []), "targets"),
        None if d.get("angle") is None else checked(d["angle"], float, "a gate angle"),
        None if d.get("label") is None else checked(d["label"], str, "a gate label"),
    )
    return GateInstance(kind, controls, targets, angle, matrix, label)


def _wires_from_list(wires, what: str) -> tuple[int, ...]:
    return tuple(checked(w, int, f"a wire in {what}") for w in checked(wires, list, what))


#: The writer's layout of a gate list, stated once for the writer and the
#: reader: the text that opens the list and its first record, the text
#: between two records and the text that closes the last record, the list and
#: the document (:func:`_split_records`).  A header written with an empty
#: list ends ``_NO_GATES``.
_GATES_OPEN = '\n "gates": [\n  {\n'
_RECORD_SEP = '\n  },\n  {\n'
_GATES_CLOSE = '\n  }\n ]\n}'
_NO_GATES = '\n "gates": []\n}'


def circuit_to_json(circuit: Circuit) -> str:
    """The circuit document, the same text as ``json.dumps(..., indent=1)``.

    ``json.dumps`` writes the header (format, n, layout, metadata); each
    distinct gate object's record is formatted once, as that encoder would
    (floats by ``float.__repr__``, strings ASCII-escaped), and the records
    are joined into the gate list.
    """
    header = json.dumps({
        "format": "coinwalk-circuit/1",
        "n": circuit.registers.n,
        "layout": circuit.registers.layout,
        "metadata": _jsonable_metadata(circuit.metadata),
        "gates": [],
    }, indent=1)
    if not circuit.gates:
        return header
    text_of = {g: _gate_text(g) for g in dict.fromkeys(circuit.gates)}
    return (header[:-len(_NO_GATES)] + _GATES_OPEN
            + _RECORD_SEP.join(map(text_of.__getitem__, circuit.gates)) + _GATES_CLOSE)


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


def _gates_from_list(records) -> tuple[GateInstance, ...]:
    """Each gate record read once: identical records share one gate.

    A record is keyed by its :func:`_exact_fields` and its angle's sign
    (``0.0 == -0.0``), or else by its ``repr``, which tells ``1``, ``1.0``,
    ``True`` and ``"1"`` apart; only a record read without error is kept, so
    the first bad record raises as it would alone.  A record with a matrix
    is read on its own.
    """
    read: dict = {}
    gates = []
    for d in checked(records, list, "gates"):
        if type(d) is dict and d.get("matrix") is None:
            fields = _exact_fields(d)
            key = repr(d) if fields is None else (*fields, fields[3] is not None and math.copysign(1.0, fields[3]))
            g = read.get(key)
            if g is None:
                g = read[key] = _gate_from_dict(d, fields)
        else:
            g = _gate_from_dict(d)
        gates.append(g)
    return tuple(gates)


def _split_records(text) -> tuple[str, list[str]] | None:
    """The header, closed with an empty gate list, and the record texts of
    text in :func:`circuit_to_json`'s layout; None for any other text.

    The text must be the header, ``_GATES_OPEN`` at its first occurrence,
    the records joined by ``_RECORD_SEP``, and ``_GATES_CLOSE``.  A JSON
    string holds no raw line break, so these cuts fall between tokens: when
    the header and each record text, in braces, parse alone, the whole text
    parses to that header with these records.  A cut inside a nested value
    leaves some part with unbalanced brackets, which does not parse.
    """
    if not isinstance(text, str):
        return None
    start, end = text.find(_GATES_OPEN), len(text) - len(_GATES_CLOSE)
    if start < 0 or start + len(_GATES_OPEN) > end or not text.endswith(_GATES_CLOSE):
        return None
    return text[:start] + _NO_GATES, text[start + len(_GATES_OPEN):end].split(_RECORD_SEP)


def _read_header(payload) -> tuple[RegisterMap, dict]:
    """The registers and metadata of a parsed document; ``ValueError`` if malformed."""
    payload = checked(payload, dict, "a circuit document")
    if payload.get("format") != "coinwalk-circuit/1":
        raise ValueError("not a coinwalk circuit document")
    n = statevec.check_document_n(checked(payload.get("n"), int, "n"))
    registers = RegisterMap.for_layout(payload.get("layout"), n)
    meta = checked(payload.get("metadata", {}), dict, "metadata")
    checked(meta.get("global_phase", 0.0), float, "metadata.global_phase")
    walsh = meta.get("walsh")
    if walsh is not None:
        terms = checked(checked(walsh, dict, "metadata.walsh").get("terms", []), list, "walsh terms")
        meta["walsh"] = dict(walsh, terms=[tuple(checked(t, list, "a walsh term")) for t in terms])
    return registers, meta


def _read_split(header: str, pieces: list[str]) -> Circuit:
    """The circuit of :func:`_split_records`' parts: the header and each
    distinct record text parsed alone, and one gate per record text, shared
    wherever that text recurs (equal texts parse to equal records).  A record
    is parsed two lists deep, as deep as it sits in the whole document, so
    the decoder's nesting limit refuses here whatever it refuses there; a
    text that parses to more than the one record there is a ``ValueError``."""
    registers, meta = _read_header(read_json(header))
    gate_of = dict.fromkeys(pieces)
    for piece in gate_of:
        (record,), = read_json("[[{" + piece + "}]]")
        gate_of[piece] = _gate_from_dict(record)
    return Circuit(registers, tuple(map(gate_of.__getitem__, pieces)), meta)


def circuit_from_json(text: str) -> Circuit:
    """Read a circuit document; ``ValueError`` if it is malformed.

    Text in :func:`circuit_to_json`'s own layout is read record text by
    record text (:func:`_read_split`).  Any other text, or one in that layout
    that does not read so (a part that does not parse alone, or any error),
    is parsed whole and its records read by :func:`_gates_from_list`, so every
    error is the one that path raises.  A record that breaks a gate rule (a
    repeated wire, a wrong arity, a matrix that is not unitary, a wire
    outside the layout) is malformed too: its ``ToolkitError`` is raised as a
    ``ValueError`` with the code in its text.
    """
    split = _split_records(text)
    if split is not None:
        try:
            return _read_split(*split)
        except (ValueError, ToolkitError):  # read again whole, for the error that path gives
            pass
    payload = read_json(text)
    registers, meta = _read_header(payload)
    try:
        return Circuit(registers, _gates_from_list(payload.get("gates")), meta)
    except ToolkitError as exc:  # a record that breaks a gate rule
        raise ValueError(str(exc)) from exc
