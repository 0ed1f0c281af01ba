"""Dense and sparse statevector machinery.

Basis convention: qubit ``i`` is bit ``i`` of a basis-state index (qubit 0
is the least significant bit).  A gate acting on ``targets = (t0, .., tm-1)``
uses tensor-product order, i.e. ``t0`` addresses the most significant bit of
the gate's own :math:`2^m \\times 2^m` matrix.  Control wires condition on
:math:`|1\\rangle`.

Dense objects are plain ``numpy`` complex arrays; the cap on dense work is
``2**dense_limit()`` amplitudes per axis and can be raised or lowered with
the ``QWALK_DENSE_LIMIT`` environment variable.  A square matrix must also
fit in :data:`MATRIX_BYTES_MAX`, whatever that variable says.
"""

from __future__ import annotations

import os
from typing import Mapping

import numpy as np

from .errors import ToolkitError

__all__ = [
    "ATOL_ENTRY",
    "ATOL_NORM",
    "ATOL_UNITARY",
    "MATRIX_BYTES_MAX",
    "PRUNE_TOL",
    "SparseState",
    "apply_gate",
    "apply_circuit",
    "check_dense_matrix",
    "circuit_unitary",
    "dense_limit",
    "float_array",
    "full_unitary",
    "is_unitary",
    "spectral_norm_diff",
]

ATOL_UNITARY = 1e-10
ATOL_NORM = 1e-10
ATOL_ENTRY = 1e-12
PRUNE_TOL = 1e-14

_DEFAULT_DENSE_LIMIT = 14

#: Largest dense square matrix, in bytes: a complex 2^13 x 2^13 matrix.
MATRIX_BYTES_MAX = 1 << 30


def dense_limit() -> int:
    """Largest qubit count allowed for dense vectors and matrices."""
    raw = os.environ.get("QWALK_DENSE_LIMIT")
    if raw is None:
        return _DEFAULT_DENSE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise ToolkitError(
            "dense-limit-exceeded",
            f"QWALK_DENSE_LIMIT must be an integer, got {raw!r}",
        ) from None


def check_dense_matrix(num_qubits: int, what: str) -> None:
    """Refuse, before allocating, a ``2^q``-square complex matrix over either cap."""
    size = 16 << (2 * num_qubits)
    if num_qubits > dense_limit() or size > MATRIX_BYTES_MAX:
        raise ToolkitError(
            "dense-limit-exceeded",
            f"{what} on {num_qubits} qubits ({size / 2**30:g} GiB) is over the dense cap "
            f"{dense_limit()} or the {MATRIX_BYTES_MAX / 2**30:g} GiB matrix budget",
        )


def float_array(data, what: str) -> np.ndarray:
    """Nested JSON lists of numbers as a float array; ``ValueError`` otherwise."""
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be nested lists of numbers") from None


def is_unitary(m: np.ndarray, atol: float = ATOL_UNITARY) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m.conj().T @ m - eye)) <= atol)


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
    """Apply a (controlled) gate to axis 0 of a dense array, in place."""
    m = len(targets)
    dim = 1 << num_qubits
    idx = np.arange(dim, dtype=np.int64)
    mask = np.ones(dim, dtype=bool)
    for c in controls:
        mask &= ((idx >> c) & 1).astype(bool)
    for t in targets:
        mask &= ~((idx >> t) & 1).astype(bool)
    base = idx[mask]
    if base.size == 0:
        return arr
    rows = np.empty((1 << m, base.size), dtype=np.int64)
    for j in range(1 << m):
        off = 0
        for i in range(m):
            if (j >> (m - 1 - i)) & 1:
                off |= 1 << targets[i]
        rows[j] = base | off
    block = arr[rows]
    arr[rows] = np.tensordot(mat, block, axes=([1], [0]))
    return arr


def apply_gate(state, gate: np.ndarray, targets, controls=()):
    """Apply ``gate`` to the given target wires of a state.

    ``state`` may be a dense vector (1-D complex array) or a
    :class:`SparseState`; a new state of the same kind is returned.
    """
    if isinstance(state, SparseState):
        return state.apply_gate(gate, targets, controls)
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


class SparseState:
    """Map-based state over ``num_qubits`` wires.

    Amplitudes below :data:`PRUNE_TOL` in magnitude are dropped after every
    gate, so memory tracks the support rather than the full Hilbert space.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: Mapping[int, complex] | None = None):
        self.num_qubits = int(num_qubits)
        self.amplitudes: dict[int, complex] = {}
        if amplitudes:
            top = 1 << self.num_qubits
            for idx, amp in amplitudes.items():
                if not 0 <= idx < top:
                    raise ToolkitError(
                        "index-out-of-range",
                        f"basis index {idx} outside {self.num_qubits} qubits",
                    )
                if abs(amp) > PRUNE_TOL:
                    self.amplitudes[int(idx)] = complex(amp)

    @classmethod
    def from_basis(cls, num_qubits: int, index: int) -> "SparseState":
        return cls(num_qubits, {index: 1.0})

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values())))

    def support(self) -> int:
        return len(self.amplitudes)

    def apply_gate(self, gate: np.ndarray, targets, controls=()) -> "SparseState":
        mat = np.asarray(gate, dtype=complex)
        targets = tuple(targets)
        controls = tuple(controls)
        _validate_wires(self.num_qubits, targets, controls, mat.shape[0])
        m = len(targets)
        tmask = 0
        for t in targets:
            tmask |= 1 << t
        out: dict[int, complex] = {}
        for idx, amp in self.amplitudes.items():
            if any(not (idx >> c) & 1 for c in controls):
                out[idx] = out.get(idx, 0.0) + amp
                continue
            col = 0
            for i in range(m):
                col |= ((idx >> targets[i]) & 1) << (m - 1 - i)
            base = idx & ~tmask
            for row in range(1 << m):
                coeff = mat[row, col]
                if coeff == 0:
                    continue
                off = 0
                for i in range(m):
                    if (row >> (m - 1 - i)) & 1:
                        off |= 1 << targets[i]
                key = base | off
                out[key] = out.get(key, 0.0) + coeff * amp
        pruned = {k: v for k, v in out.items() if abs(v) > PRUNE_TOL}
        result = SparseState(self.num_qubits)
        result.amplitudes = pruned
        return result

    def amplitude(self, index: int) -> complex:
        return self.amplitudes.get(index, 0.0)

    def to_dense(self) -> np.ndarray:
        if self.num_qubits > dense_limit():
            raise ToolkitError(
                "dense-limit-exceeded",
                f"{self.num_qubits} qubits exceed the dense cap {dense_limit()}",
            )
        vec = np.zeros(1 << self.num_qubits, dtype=complex)
        for idx, amp in self.amplitudes.items():
            vec[idx] = amp
        return vec

    def items(self):
        return self.amplitudes.items()


def apply_circuit(state, circuit):
    """Run every gate of a circuit over a dense vector or SparseState."""
    for gate in circuit.gates:
        state = apply_gate(state, gate.matrix_on_targets(), gate.targets, gate.controls)
    return state


def circuit_unitary(circuit) -> np.ndarray:
    """Exact unitary of the gate list (tracked global phase excluded)."""
    q = circuit.num_wires
    check_dense_matrix(q, "circuit unitary")
    return _apply_circuit_to_columns(np.eye(1 << q, dtype=complex), circuit)


def _apply_circuit_to_columns(block: np.ndarray, circuit) -> np.ndarray:
    """Apply every gate of a circuit, in place, to each column of a 2-D block.

    Axis 0 of ``block`` is the basis index over ``circuit.num_wires`` wires;
    the tracked global phase is not applied.  Wires are not checked here:
    a :class:`Circuit` has already checked its gates against its registers.
    """
    q = circuit.num_wires
    for gate in circuit.gates:
        _apply_matrix_inplace(
            block, gate.matrix_on_targets(), gate.targets, gate.controls, q
        )
    return block


def full_unitary(circuit) -> np.ndarray:
    """Circuit unitary with the tracked global phase multiplied back in."""
    phase = float(circuit.metadata.get("global_phase", 0.0))
    return np.exp(1j * phase) * circuit_unitary(circuit)


def spectral_norm_diff(
    a: np.ndarray,
    b: np.ndarray,
    rel_tol: float = 1e-8,
    max_iter: int = 10_000,
) -> float:
    """Largest singular value of ``a - b`` by power iteration on (a-b)†(a-b).

    Raises ``ToolkitError("power-iteration-stall")`` if the dominant
    eigenvalue estimate has not settled to ``rel_tol`` after ``max_iter``
    iterations.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    d = a - b
    scale = float(np.max(np.abs(d)))
    if scale == 0.0:
        return 0.0
    d = d / scale
    g = d.conj().T @ d
    k = g.shape[0]
    v = (1.0 + np.linspace(0.0, 1.0, k)).astype(complex)
    v /= np.linalg.norm(v)
    lam_prev = None
    restarted = False
    for it in range(max_iter):
        w = g @ v
        lam = float(np.real(np.vdot(v, w)))
        if lam_prev is not None and abs(lam - lam_prev) <= rel_tol * max(abs(lam), 1e-300):
            return float(np.sqrt(max(lam, 0.0))) * scale
        nw = float(np.linalg.norm(w))
        if nw == 0.0 or (not restarted and it == max_iter // 2):
            # start vector was (numerically) orthogonal to the top eigenspace
            rng = np.random.default_rng(0)
            v = rng.normal(size=k) + 1j * rng.normal(size=k)
            v /= np.linalg.norm(v)
            lam_prev = None
            restarted = True
            continue
        v = w / nw
        lam_prev = lam
    raise ToolkitError(
        "power-iteration-stall",
        f"no convergence to rel_tol={rel_tol} within {max_iter} iterations",
    )
