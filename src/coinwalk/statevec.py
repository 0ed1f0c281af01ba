"""Dense and sparse statevector machinery.

Basis convention: qubit ``i`` is bit ``i`` of a basis-state index (qubit 0
is the least significant bit).  A gate acting on ``targets = (t0, .., tm-1)``
uses tensor-product order, i.e. ``t0`` addresses the most significant bit of
the gate's own :math:`2^m \\times 2^m` matrix.  Control wires condition on
:math:`|1\\rangle`.

Dense objects are plain ``numpy`` complex arrays; the cap on dense work is
``2**DENSE_QUBITS_MAX`` amplitudes per axis, and a square matrix must also
fit in :data:`MATRIX_BYTES_MAX`; :func:`check_dense_vector` and
:func:`check_dense_matrix` hold them, and :func:`check_bytes` is the one
check against the byte budget.  Every circuit gate kind updates strided
slices of a dense array in place, with no ``tensordot`` (see ``_apply_matrix_inplace``).

A :class:`SparseState` keeps only its nonzero amplitudes, as arrays: one bit
row per amplitude and a complex vector beside them, so it reaches any number
of wires.  A gate takes one of two paths: an exact X or SWAP (x, cnot, swap,
cswap) XORs the bit columns it changes into a copy of the bit matrix and
shares the amplitude vector; any other matrix mixes the selected rows that
differ only on its targets.  The library runs it in one place:
``walk.coin_deviation`` sends a probe vector over a linear-ancilla circuit's
data inputs through it, a check by simulation independent of the bit-column
reading (``linear.coin_blocks``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .errors import ToolkitError, check_n

__all__ = [
    "ATOL_UNITARY",
    "DENSE_QUBITS_MAX",
    "DOCUMENT_N_MAX",
    "MATRIX_BYTES_MAX",
    "PRUNE_TOL",
    "SparseState",
    "apply_gate",
    "apply_circuit",
    "check_bytes",
    "check_dense_matrix",
    "check_dense_vector",
    "check_document_n",
    "circuit_unitary",
    "full_unitary",
    "is_unitary",
]

ATOL_UNITARY = 1e-10
PRUNE_TOL = 1e-14

_X_ROWS = [[0, 1], [1, 0]]
_SWAP_ROWS = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]

#: Largest qubit count of a dense vector, and of each axis of a dense matrix.
DENSE_QUBITS_MAX = 14

#: Largest dense square matrix, in bytes: a complex 2^13 x 2^13 matrix.
MATRIX_BYTES_MAX = 1 << 30

#: Largest ``n`` a circuit or coin-field document may name: the 2^n complex
#: 2x2 blocks of a coin field must fit in :data:`MATRIX_BYTES_MAX` (n = 24).
DOCUMENT_N_MAX = (MATRIX_BYTES_MAX // 64).bit_length() - 1


def check_dense_vector(num_qubits: int, what: str) -> None:
    """Refuse, before allocating, a dense vector (or a few columns) over ``2^DENSE_QUBITS_MAX``."""
    if num_qubits > DENSE_QUBITS_MAX:
        raise ToolkitError("dense-limit-exceeded", f"{what} on {num_qubits} qubits is over the dense cap")


def check_bytes(size: int, what: str) -> None:
    """Refuse, before allocating, ``size`` bytes over :data:`MATRIX_BYTES_MAX`."""
    if size > MATRIX_BYTES_MAX:
        raise ToolkitError(
            "dense-limit-exceeded",
            f"{what} needs {size / 2**30:g} GiB, over the {MATRIX_BYTES_MAX / 2**30:g} GiB budget",
        )


def check_dense_matrix(num_qubits: int, what: str) -> None:
    """Refuse, before allocating, a ``2^q``-square complex matrix over either cap."""
    check_dense_vector(num_qubits, what)
    check_bytes(16 << (2 * num_qubits), f"{what} on {num_qubits} qubits")


def check_document_n(n: int) -> int:
    """``n`` if a document may name it, 1 to :data:`DOCUMENT_N_MAX`; ``ValueError`` otherwise."""
    if check_n(n) > DOCUMENT_N_MAX:
        raise ValueError(f"n={n} is over {DOCUMENT_N_MAX}, the largest a document may name")
    return n


def is_unitary(m: np.ndarray, atol: float = ATOL_UNITARY):
    """Whether ``U^H U = I`` within ``atol`` in every entry (a NaN misses): a
    bool for one ``(d, d)`` matrix, a boolean array over the leading axes of a
    ``(..., d, d)`` stack, and False for anything not square.  A huge finite
    entry overflows the product to inf or NaN, which fails the comparison
    without a warning.  One ``(2, 2)`` matrix, every gate's check, takes
    Python floats: the column norms and the columns' inner product, where an
    overflow reads inf and a NaN fails the comparison, with no warning."""
    m = np.asarray(m, dtype=complex)
    if m.shape == (2, 2):
        (a, b), (c, d) = m.tolist()
        norm0 = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
        norm1 = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
        re = a.real * b.real + a.imag * b.imag + c.real * d.real + c.imag * d.imag
        im = a.real * b.imag - a.imag * b.real + c.real * d.imag - c.imag * d.real
        return abs(norm0 - 1.0) <= atol and abs(norm1 - 1.0) <= atol and math.hypot(re, im) <= atol
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m.conj().swapaxes(-1, -2) @ m
        ok = np.abs(gram - np.eye(m.shape[-1])).max(axis=(-2, -1)) <= atol
    return bool(ok) if m.ndim == 2 else ok


def _validate_wires(num_qubits: int, targets, controls, dim: int):
    wires = tuple(targets) + tuple(controls)
    if len(set(wires)) != len(wires):
        raise ToolkitError("duplicate-qubit", f"wires {wires} repeat a qubit")
    for w in wires:
        if not 0 <= w < num_qubits:
            raise ToolkitError(
                "index-out-of-range", f"wire {w} outside 0..{num_qubits - 1}"
            )
    if dim != 1 << len(targets):
        raise ToolkitError(
            "gate-arity-mismatch",
            f"matrix dimension {dim} does not match {len(targets)} target wires",
        )


def _apply_matrix_inplace(arr, mat, targets, controls, num_qubits):
    """Apply a (controlled) gate to axis 0 of a dense array, in place.

    Axis 0 is viewed as one axis per wire (wire ``w`` at axis
    ``num_qubits - 1 - w``), which is a view whatever the array's strides.
    A slice fixes each control axis at 1 and each target axis at 0 or 1;
    its trailing ``Ellipsis`` keeps it a view even when no axis is left.
    The matrix entries, compared exactly, choose the path:

    - one target, diagonal: scale each slice in place, skipping a factor 1;
    - one target, exactly X: swap the two slices;
    - one target, any other 2x2: mix the two slices, copying one;
    - two targets, exactly SWAP: exchange the ``|01>`` and ``|10>`` slices;
    - anything else (an explicit multi-target matrix): move the target axes
      to the front and ``tensordot`` them.
    """
    view = arr.reshape((2,) * num_qubits + arr.shape[1:])
    index = [slice(None)] * num_qubits + [Ellipsis]
    for w in controls:
        index[num_qubits - 1 - w] = 1
    axes = [num_qubits - 1 - t for t in targets]
    if len(targets) == 1:
        (a, b), (c, d) = mat.tolist()
        index[axes[0]] = 0
        s0 = view[tuple(index)]
        index[axes[0]] = 1
        s1 = view[tuple(index)]
        if b == 0 and c == 0:
            if a != 1:
                s0 *= a
            if d != 1:
                s1 *= d
            return arr
        if not (a == 0 and d == 0 and b == 1 and c == 1):
            old0 = s0.copy()
            s0 *= a
            s0 += b * s1
            s1 *= d
            old0 *= c
            s1 += old0
            return arr
    elif len(targets) == 2 and mat.tolist() == _SWAP_ROWS:
        index[axes[0]], index[axes[1]] = 0, 1
        s0 = view[tuple(index)]
        index[axes[0]], index[axes[1]] = 1, 0
        s1 = view[tuple(index)]
    else:
        m = len(targets)
        wires = axes + [num_qubits - 1 - w for w in controls]
        block = np.moveaxis(view, wires, range(len(wires)))[(slice(None),) * m + (1,) * len(controls)]
        block[...] = np.tensordot(mat.reshape((2,) * 2 * m), block, axes=(range(m, 2 * m), range(m)))
        return arr
    old0 = s0.copy()  # an exact X or SWAP: exchange the two slices
    s0[...] = s1
    s1[...] = old0
    return arr


def apply_gate(state, gate: np.ndarray, targets, controls=()):
    """A copy of the dense vector ``state`` (a 1-D complex array) with
    ``gate`` applied to the given target wires; a :class:`SparseState` has
    its own :meth:`SparseState.apply_gate`."""
    vec = np.array(state, dtype=complex, copy=True)
    num_qubits = _num_qubits_of(vec.shape[0])
    mat = np.asarray(gate, dtype=complex)
    _validate_wires(num_qubits, targets, controls, mat.shape[0])
    return _apply_matrix_inplace(vec, mat, tuple(targets), tuple(controls), num_qubits)


def _num_qubits_of(dim: int) -> int:
    q = dim.bit_length() - 1
    if 1 << q != dim:
        raise ValueError(f"state dimension {dim} is not a power of two")
    return q


class _AmplitudeView(Mapping):
    """Read-only ``{basis index: amplitude}`` view of a :class:`SparseState`.

    ``len`` is the row count.  The first lookup or iteration turns every bit
    row into its integer index, once, and keeps the resulting dict.
    """

    __slots__ = ("_bits", "_amps", "_dict")

    def __init__(self, bits: np.ndarray, amps: np.ndarray):
        self._bits = bits
        self._amps = amps
        self._dict: dict[int, complex] | None = None

    def _lookup(self) -> dict[int, complex]:
        if self._dict is None:
            self._dict = dict(zip(_indices(self._bits), self._amps.tolist()))
        return self._dict

    def __len__(self) -> int:
        return self._amps.size

    def __getitem__(self, index: int) -> complex:
        return self._lookup()[index]

    def __iter__(self):
        return iter(self._lookup())

    def items(self):
        return self._lookup().items()


def _indices(bits: np.ndarray) -> list[int]:
    """Integer basis index of every bit row (column ``w`` is wire ``w``)."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(len(packed))]


def _bit_rows(indices: list[int], num_qubits: int) -> np.ndarray:
    """Bool matrix whose row ``r`` holds the bits of ``indices[r]``."""
    width = (num_qubits + 7) // 8
    raw = b"".join(i.to_bytes(width, "little") for i in indices)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(indices), width)
    return np.unpackbits(packed, axis=1, count=num_qubits, bitorder="little").view(bool)


def _row_keys(bits: np.ndarray) -> np.ndarray:
    """One opaque, comparable key per bit row, equal exactly when the rows are."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def _local_index(bits: np.ndarray, targets: tuple) -> np.ndarray:
    """Gate-local index of every bit row, ``targets[0]`` the top bit."""
    col = bits[:, targets[0]].astype(np.intp)
    for t in targets[1:]:
        col = (col << 1) | bits[:, t]
    return col


class SparseState:
    """State over ``num_qubits`` wires, stored as its nonzero amplitudes.

    Row ``r`` of a bool matrix of shape ``(rows, num_qubits)`` holds the bits
    of one basis index, column ``w`` being wire ``w``; entry ``r`` of a
    complex vector is its amplitude.  Rows are distinct.  Each gate acts on
    every row at once, and its matrix entries, compared exactly, choose one
    of two paths:

    - exactly X on one target or SWAP on two, with any controls (x, cnot,
      swap, cswap): copy the bit matrix once and XOR the target columns of
      the selected rows; the new state shares this one's amplitude vector;
    - anything else: group the selected rows that differ only on the
      targets, multiply each group's amplitudes by the matrix, and keep the
      outputs over :data:`PRUNE_TOL` in magnitude.

    Memory therefore tracks the support rather than the full Hilbert space,
    and indices may exceed 64 bits.  A state never changes, and no gate
    writes to an array of an existing state: :meth:`apply_gate` returns the
    state after the gate.
    """

    __slots__ = ("num_qubits", "_bits", "_amps", "_view")

    def __init__(self, num_qubits: int, amplitudes: Mapping[int, complex] | None = None):
        self.num_qubits = int(num_qubits)
        top = 1 << self.num_qubits
        indices, amps = [], []
        for idx, amp in (amplitudes or {}).items():
            if not 0 <= idx < top:
                raise ToolkitError(
                    "index-out-of-range",
                    f"basis index {idx} outside {self.num_qubits} qubits",
                )
            if abs(amp) > PRUNE_TOL:
                indices.append(int(idx))
                amps.append(complex(amp))
        self._set_rows(_bit_rows(indices, self.num_qubits), np.array(amps, dtype=complex))

    def _set_rows(self, bits: np.ndarray, amps: np.ndarray) -> None:
        self._bits = bits
        self._amps = amps
        self._view = _AmplitudeView(bits, amps)

    def _with_bits(self, bits: np.ndarray, amps: np.ndarray) -> "SparseState":
        """A state over ``bits`` and ``amps`` as given."""
        state = SparseState.__new__(SparseState)
        state.num_qubits = self.num_qubits
        state._set_rows(bits, amps)
        return state

    @property
    def amplitudes(self) -> Mapping[int, complex]:
        """Read-only ``{basis index: amplitude}`` view; ``len`` is O(1)."""
        return self._view

    @classmethod
    def from_basis(cls, num_qubits: int, index: int) -> "SparseState":
        return cls(num_qubits, {index: 1.0})

    def norm(self) -> float:
        return float(np.linalg.norm(self._amps))

    def apply_gate(self, gate: np.ndarray, targets, controls=()) -> "SparseState":
        mat = np.asarray(gate, dtype=complex)
        targets = tuple(targets)
        controls = tuple(controls)
        _validate_wires(self.num_qubits, targets, controls, mat.shape[0])
        bits, amps = self._bits, self._amps
        if controls:  # rows with every control set; one control is a column view
            on = bits[:, controls[0]]
            for c in controls[1:]:
                on = on & bits[:, c]
            if not np.count_nonzero(on):
                return self
        else:
            on = np.ones(amps.size, dtype=bool)
        rows = mat.tolist()
        if len(targets) == 1 and rows == _X_ROWS or len(targets) == 2 and rows == _SWAP_ROWS:
            # An exact X or SWAP only moves bits: XOR the columns it changes
            # into one copy of the bit matrix and share the amplitude vector.
            flip = on if len(targets) == 1 else (bits[:, targets[0]] ^ bits[:, targets[1]]) & on
            new_bits = bits.copy()
            for t in targets:
                new_bits[:, t] ^= flip
            return self._with_bits(new_bits, amps)
        # Any other matrix: selected rows that differ only on the targets
        # share a base row and mix; vals[u, j] is the amplitude of base u
        # with its targets at j.  Only outputs over PRUNE_TOL are kept, and
        # the unselected rows are the input's own, so the result needs no
        # prune pass.
        sel = np.flatnonzero(on)
        base = bits[sel]
        col = _local_index(base, targets)
        base[:, targets] = False
        _, first, inverse = np.unique(_row_keys(base), return_index=True, return_inverse=True)
        vals = np.zeros((first.size, len(rows)), dtype=complex)
        vals[inverse, col] = amps[sel]
        out = vals @ mat.T
        u, row = np.nonzero(np.abs(out) > PRUNE_TOL)
        grown = base[first[u]]
        for i, t in enumerate(reversed(targets)):
            grown[:, t] = (row >> i) & 1
        off = ~on
        return self._with_bits(
            np.concatenate([bits.compress(off, axis=0), grown]),
            np.concatenate([amps.compress(off), out[u, row]]),
        )

    def amplitude(self, index: int) -> complex:
        return self.amplitudes.get(index, 0.0)

    def to_dense(self) -> np.ndarray:
        check_dense_vector(self.num_qubits, "a dense copy of a sparse state")
        vec = np.zeros(1 << self.num_qubits, dtype=complex)
        vec[_indices(self._bits)] = self._amps
        return vec

    def items(self):
        return self.amplitudes.items()


def apply_circuit(state, circuit):
    """Run every gate of a circuit over a dense vector or SparseState, one
    :func:`apply_gate` or :meth:`SparseState.apply_gate` call per gate."""
    if isinstance(state, SparseState):
        for gate in circuit.gates:
            state = state.apply_gate(gate.matrix_on_targets(), gate.targets, gate.controls)
        return state
    for gate in circuit.gates:
        state = apply_gate(state, gate.matrix_on_targets(), gate.targets, gate.controls)
    return state


def circuit_unitary(circuit, columns: np.ndarray | None = None) -> np.ndarray:
    """Exact unitary ``U`` of the gate list, or ``U @ columns`` computed in
    place on ``columns`` (axis 0 the basis index), tracked global phase
    excluded.  Only ``U`` itself, a square matrix, must pass
    :func:`check_dense_matrix`.  Wires are not checked here: a
    :class:`Circuit` has already checked its gates against its registers.
    """
    q = circuit.num_wires
    if columns is None:
        check_dense_matrix(q, "circuit unitary")
        columns = np.eye(1 << q, dtype=complex)
    for gate in circuit.gates:
        _apply_matrix_inplace(columns, gate.matrix_on_targets(), gate.targets, gate.controls, q)
    return columns


def full_unitary(circuit) -> np.ndarray:
    """Circuit unitary with the tracked global phase multiplied back in."""
    return np.exp(1j * circuit.global_phase) * circuit_unitary(circuit)

