"""Reference constructions the tests compare the library against.

None of these is read by the library's pipeline: each is either an
independent, written-out statement of something the library computes
another way (the Euler product, the dyadic coordinate, the Walsh
functions, the cascade Q1) or a side construction only the tests build.
"""

import numpy as np

from coinwalk import Circuit, CoinField, GateInstance, RegisterMap, ToolkitError, transpile, walsh
from coinwalk.coins import bit_reversal


def dyadic_coordinate(k: int, n: int) -> float:
    """Map node ``k`` to ``sum_p b_p 2^-(p+1)`` with ``b_p`` the bits of k.

    This is the bit-reversal of ``k / 2^n``; it is injective on ``[0, 2^n)``
    and is the sampling grid the Walsh machinery assumes.
    """
    if not 0 <= k < (1 << n):
        raise ToolkitError("index-out-of-range", f"node {k} outside 0..{(1 << n) - 1}")
    return bit_reversal(k, n) / (1 << n)


def euler_matrix(f0: float, f1: float, f2: float, f3: float) -> np.ndarray:
    """``exp(i f0) exp(i f1 Z) exp(i f2 Y) exp(i f3 Z)`` written out."""
    c, s = np.cos(f2), np.sin(f2)
    return np.exp(1j * f0) * np.array(
        [
            [np.exp(1j * (f1 + f3)) * c, np.exp(1j * (f1 - f3)) * s],
            [-np.exp(-1j * (f1 - f3)) * s, np.exp(-1j * (f1 + f3)) * c],
        ]
    )


def identity_field(n: int) -> CoinField:
    coins = np.broadcast_to(np.eye(2, dtype=complex), (1 << n, 2, 2)).copy()
    return CoinField(n, coins, {"kind": "identity"})


def walsh_function(j: int, x) -> np.ndarray | int:
    """w_j(x) in {+1, -1}; bit i of j pairs with the dyadic digit of weight 2^-(i+1)."""
    if j < 0:
        raise ToolkitError("index-out-of-range", "walsh index must be nonnegative")
    xs = np.asarray(x, dtype=float)
    exponent = np.zeros(xs.shape, dtype=np.int64)
    frac = np.mod(xs, 1.0)
    i = 0
    while j >> i:
        frac = frac * 2.0
        digit = frac.astype(np.int64)
        if (j >> i) & 1:
            exponent += digit
        frac -= digit
        i += 1
    out = 1 - 2 * (exponent & 1)
    return out if out.shape else int(out)


def build_linear_phase(a: float, sigma: str, n: int) -> Circuit:
    """e^{i a x(hat) (x) sigma} with exactly n two-qubit gates.

    The dyadic coordinate splits over bits, so one controlled e^{i a 2^-(p+1)
    sigma} per position wire suffices; no series expansion and no error.
    """
    pauli = walsh._PAULI[walsh._sigma_key(sigma)]
    regs = RegisterMap.walk(n)
    gates = []
    for p in range(n):
        theta = a / (1 << (p + 1))
        block = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * pauli
        gates.append(GateInstance("cu2", (regs.position(p),), (regs.coin(),), matrix=block, label=f"phase{p}"))
    return Circuit(regs, tuple(gates), {"builder": "linear-phase", "n": n, "global_phase": 0.0})


def build_q1_naive(n: int) -> Circuit:
    """The paper's cascade Q1: mark b'_k by a binary cascade of controlled swaps.

    After X on b'_0 the lone 1 sits at index 0; level m swaps the lower and
    upper halves of each 2^(m+1) block when position bit m is set, walking
    the 1 to index k.  Cheap to state, depth O(2^n) since every level's
    swaps share the same control wire.
    """
    regs = RegisterMap.linear(n)
    gates = [GateInstance("x", (), (regs.apos(0),))]
    for m in range(n):
        for i in range(1 << m):
            gates.append(GateInstance("cswap", (regs.position(m),), (regs.apos(i), regs.apos(i + (1 << m)))))
    return Circuit(regs, tuple(gates), {"builder": "q1-naive", "n": n})


def walsh_product_gates(regs, sigma, terms):
    """Fragment-per-term gate list, in the given term order (the builder's product form)."""
    return walsh._gates(walsh._product_specs(walsh._Wires(regs), sigma, terms))


def decompose_mcu(controls, target: int, u: np.ndarray) -> list[GateInstance]:
    """k-controlled U(2) as basis gates, lowered as ``compile_circuit`` lowers an mcu2, with a fresh memo."""
    return transpile._decompose_mcu(controls, target, u, transpile._Shared())
