"""Coin-conditioned cyclic shift: coin |0> walks left, coin |1> walks right.

Two constructions.  The Fourier route conjugates a phase gradient by the
QFT; wrapping it in coin-controlled bit-complements makes one gradient
serve both directions.  The cascade route implements increment and
decrement directly as multi-controlled X ripples, one conditioned on each
coin value.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, GateInstance, RegisterMap, dagger
from . import statevec

__all__ = [
    "build_shift_id",
    "build_shift_qft",
    "omega_phase_gates",
    "predicted_cost",
    "qft_gates",
    "shift_permutation_matrix",
]

_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def shift_permutation_matrix(n: int) -> np.ndarray:
    """Ground-truth permutation on the walk layout (basis index 2k + coin)."""
    statevec.check_dense_matrix(n + 1, "shift matrix")
    size = 1 << (n + 1)
    big_n = 1 << n
    mat = np.zeros((size, size), dtype=complex)
    for k in range(big_n):
        mat[2 * ((k - 1) % big_n), 2 * k] = 1.0
        mat[2 * ((k + 1) % big_n) + 1, 2 * k + 1] = 1.0
    return mat


def qft_gates(n: int, regs: RegisterMap | None = None) -> list[GateInstance]:
    """Fourier transform on the position wires, no final reversal swaps.

    Output wire order is bit-reversed relative to the defining matrix
    F[q, k] = exp(2 pi i q k / N) / sqrt(N); consumers compensate by
    reversing whatever diagonal they sandwich in between.
    """
    regs = regs or RegisterMap.walk(n)
    gates: list[GateInstance] = []
    for j in range(n - 1, -1, -1):
        gates.append(GateInstance("u2", (), (regs.position(j),), matrix=_H, label="h"))
        for i in range(j - 1, -1, -1):
            gates.append(
                GateInstance(
                    "cp",
                    (regs.position(i),),
                    (regs.position(j),),
                    2 * np.pi / (1 << (j - i + 1)),
                )
            )
    return gates


def omega_phase_gates(
    n: int, sign: int = 1, reversed_wires: bool = False, regs: RegisterMap | None = None
) -> list[GateInstance]:
    """Phase gradient diag(exp(sign 2 pi i q / N)) as n one-qubit phases.

    The gradient splits over bits, P(sign 2 pi 2^p / N) on the wire carrying
    bit p of q; ``reversed_wires`` re-targets it for the bit-reversed order
    the swapless QFT leaves behind.
    """
    regs = regs or RegisterMap.walk(n)
    gates = []
    for p in range(n):
        weight = n - 1 - p if reversed_wires else p
        angle = sign * 2 * np.pi * (1 << weight) / (1 << n)
        gates.append(GateInstance("p", (), (regs.position(p),), angle))
    return gates


def build_shift_qft(n: int) -> Circuit:
    """Shift via phase gradient in the Fourier basis.

    The left shift (a -1 gradient) runs unconditionally; coin-controlled
    bit-complements on both sides turn it into a right shift exactly on the
    coin |1> branch, since complement-shift-complement reverses direction.
    """
    regs = RegisterMap.walk(n)
    coin = regs.coin()
    complement = [
        GateInstance("cnot", (coin,), (regs.position(p),)) for p in range(n)
    ]
    fwd = qft_gates(n, regs)
    gates = (
        complement
        + fwd
        + omega_phase_gates(n, sign=-1, reversed_wires=True, regs=regs)
        + [dagger(g) for g in reversed(fwd)]
        + complement
    )
    return Circuit(regs, tuple(gates), {"builder": "shift-qft", "n": n})


def _ripple(regs: RegisterMap, n: int, coin: int, decrement: bool) -> list[GateInstance]:
    """Coin-controlled +-1 counter: X ripples with growing control sets.

    Decrement fires low bits first (borrow propagates up through the just
    flipped bits); increment is the exact mirror.
    """
    steps: list[GateInstance] = []
    for hi in range(n):
        controls = (coin,) + tuple(regs.position(p) for p in range(hi))
        target = (regs.position(hi),)
        if len(controls) == 1:
            steps.append(GateInstance("cnot", controls, target))
        else:
            steps.append(GateInstance("mcu2", controls, target, matrix=_X2, label="x"))
    return steps if decrement else steps[::-1]


def build_shift_id(n: int) -> Circuit:
    """Shift via explicit increment/decrement cascades, one per coin value."""
    regs = RegisterMap.walk(n)
    coin = regs.coin()
    flip = GateInstance("x", (), (coin,))
    gates = (
        [flip]
        + _ripple(regs, n, coin, decrement=True)
        + [flip]
        + _ripple(regs, n, coin, decrement=False)
    )
    return Circuit(regs, tuple(gates), {"builder": "shift-id", "n": n})


def predicted_cost(scheme: str, n: int) -> tuple[int, int]:
    """Reference (size, depth) closed forms for each scheme."""
    if n < 1:
        raise ValueError("need n >= 1")
    if scheme == "qft":
        return (n * n + 4 * n + 1, 2 * n + 3)
    if scheme == "id":
        return (n * (2 * n * n - 6 * n + 7) // 3, 2 * (2 * n * n - 8 * n + 9))
    raise ValueError(f"unknown shift scheme {scheme!r}")
