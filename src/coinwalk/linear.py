"""Constant-towers-free coin application in depth linear in n.

Layout (see circuit.RegisterMap.linear): 2^n ancillary position wires b',
2^n-1 ancillary coins s_1.., the principal coin s_0 and the n position
wires.  The pipeline U = Q1 -> Q2 -> Q0 -> Q2^dag -> Q1^dag

* Q1 marks b'_k = 1 for the walker's position k,
* Q2 routes the principal coin state onto ancillary coin s_k,
* Q0 applies every C_k at once, each singly controlled by its b'_k,

then the conjugate half un-routes and un-marks, so ancillae end at |0>
exactly and the net effect on the walker is the block-diagonal total coin.
"""

from __future__ import annotations

import numpy as np

from . import statevec
from .errors import ToolkitError, check_n
from .circuit import Circuit, GateInstance, RegisterMap, dagger
from .coins import CoinField

__all__ = [
    "build_linear",
    "build_q0",
    "build_q1_parallel",
    "build_q2",
    "check_collapse_budget",
    "coin_blocks",
    "predicted_depth",
]


def build_q0(field: CoinField) -> Circuit:
    """All 2^n coins in one layer: coin k controlled by b'_k, acting on s_k."""
    n = field.n
    regs = RegisterMap.linear(n)
    gates = tuple(
        GateInstance(
            "cu2",
            (regs.apos(k),),
            (regs.acoin(k),),
            matrix=np.ascontiguousarray(field.coin(k)),
            label=f"coin{k}",
        )
        for k in range(1 << n)
    )
    return Circuit(regs, gates, {"builder": "q0", "n": n})


def _copy_offset(m: int) -> int:
    # s-register offset of the copy block for level m: 1, 2, 5, 12, ...
    off = 1
    for j in range(2, m + 1):
        off += (1 << (j - 1)) - 1
    return off


def build_q1_parallel(n: int) -> Circuit:
    """Same action as the naive marker in depth 5n - 2 (+1 when n = 1).

    Level m of the swap cascade needs its control bit b_m on 2^m distinct
    wires.  A CNOT doubling tree copies b_m onto 2^m - 1 ancillary coins
    (all levels' trees run in parallel on disjoint wires), the swap layer
    fires, and the mirrored tree erases the copies.
    """
    regs = RegisterMap.linear(n)
    copy_stages: list[list[GateInstance]] = [[] for _ in range(max(n - 1, 0))]
    for m in range(1, n):
        off = _copy_offset(m)
        copy_stages[0].append(
            GateInstance("cnot", (regs.position(m),), (regs.acoin(off),))
        )
        for i in range(1, m):
            stage = copy_stages[i]
            for back in range((1 << i) - 1):
                stage.append(
                    GateInstance(
                        "cnot",
                        (regs.acoin(off + back),),
                        (regs.acoin(off + back + (1 << i)),),
                    )
                )
            stage.append(
                GateInstance(
                    "cnot",
                    (regs.position(m),),
                    (regs.acoin(off + (1 << i) - 1),),
                )
            )
    copies = [g for stage in copy_stages for g in stage]

    swaps: list[GateInstance] = []
    for m in range(n):
        off = _copy_offset(m) if m else 0
        for i in range(1 << m):
            control = regs.position(m) if i == 0 else regs.acoin(off + i - 1)
            swaps.append(
                GateInstance("cswap", (control,), (regs.apos(i), regs.apos(i + (1 << m))))
            )

    gates = [GateInstance("x", (), (regs.apos(0),))]
    gates += copies + swaps + copies[::-1]
    return Circuit(regs, tuple(gates), {"builder": "q1-parallel", "n": n})


def _q2_abstract(nu: int) -> list[tuple]:
    """Q2 recursion over abstract indices ("b", i) / ("s", i).

    Step nu embeds the previous stage by doubling indices (b' to odd slots,
    s to even slots), brackets it with a CNOT pairing layer V, and finishes
    with a controlled-swap layer M that peels the lowest surviving bit.
    """
    if nu == 1:
        return [("cswap", ("b", 1), ("s", 0), ("s", 1))]

    def dilate(op):
        def remap(w):
            reg, i = w
            return (reg, 2 * i + 1) if reg == "b" else (reg, 2 * i)

        return (op[0],) + tuple(remap(w) for w in op[1:])

    inner = [dilate(op) for op in _q2_abstract(nu - 1)]
    v = [("cnot", ("b", 2 * m), ("b", 2 * m + 1)) for m in range(1, 1 << (nu - 1))]
    m_layer = [
        ("cswap", ("b", 2 * l + 1), ("s", 2 * l), ("s", 2 * l + 1))
        for l in range(1 << (nu - 1))
    ]
    return v + inner + v + m_layer


def build_q2(n: int) -> Circuit:
    """Route the principal coin state to s_k, addressed by the b' one-hot mark."""
    regs = RegisterMap.linear(n)

    def wire(w):
        reg, i = w
        return regs.apos(i) if reg == "b" else regs.acoin(i)

    gates = []
    for op in _q2_abstract(n):
        if op[0] == "cnot":
            gates.append(GateInstance("cnot", (wire(op[1]),), (wire(op[2]),)))
        else:
            gates.append(
                GateInstance("cswap", (wire(op[1]),), (wire(op[2]), wire(op[3])))
            )
    return Circuit(regs, tuple(gates), {"builder": "q2", "n": n})


def build_linear(field: CoinField) -> Circuit:
    """Full sandwich Q1 -> Q2 -> Q0 -> Q2^dag -> Q1^dag on the ancilla layout,
    Q1 being :func:`build_q1_parallel`."""
    n = field.n
    q1 = build_q1_parallel(n)
    q2 = build_q2(n)
    q0 = build_q0(field)
    gates = (
        list(q1.gates)
        + list(q2.gates)
        + list(q0.gates)
        + [dagger(g) for g in reversed(q2.gates)]
        + [dagger(g) for g in reversed(q1.gates)]
    )
    meta = {"builder": "linear", "n": n}
    return Circuit(q1.registers, tuple(gates), meta)


def check_collapse_budget(n: int) -> None:
    """Refuse, from ``n`` alone and before any circuit exists, a sparse probe of
    the linear circuit (``walk.coin_deviation``) whose rows overrun
    :data:`statevec.MATRIX_BYTES_MAX`.

    The probe holds ``2^(n+1)`` rows, one per data input, each one byte per
    wire of the layout plus a 16-byte amplitude, and each gate of the sparse
    kernel writes its output beside its input: a new bit matrix on either
    path, and a new amplitude vector on the mixing path (an exact X or SWAP
    shares it): ``2 * 2^(n+1) * (wires + 16)`` bytes; ``"dense-limit-exceeded"``
    over it (:func:`statevec.check_bytes`).
    """
    statevec.check_bytes(2 * (2 << n) * (RegisterMap.linear(n).num_wires + 16), f"the probe of n={n}")


def _refused(index: int, gate: GateInstance, why: str) -> ToolkitError:
    return ToolkitError(
        "coin-not-block-diagonal", f"gate {index} ({gate.kind} on wires {gate.wires}) {why}")


def coin_blocks(circuit: Circuit) -> tuple[np.ndarray, float]:
    """The ``(2^n, 2, 2)`` coin array a linear circuit applies, and its residual.

    The circuit is read over bit columns, not simulated.  For each data input
    ``|k, c>`` every wire but one holds a classical bit and one wire holds the
    coin qubit, so each wire keeps two columns over the ``2^n`` positions,
    Python ints with bit ``k`` for position ``k``: its bits, and where it
    holds the coin (its bit there reads 0).  ``x`` and ``cnot`` XOR bit
    columns; ``cswap`` exchanges the bits of both columns of its targets
    where its control is set; ``cu2`` multiplies the block of each position
    where it fires, ``blocks[k] = U @ blocks[k]`` (a copy of ``U`` the first
    time, so the coins are exact).  Any other gate kind, a control on a wire
    that holds the coin, an ``x`` or ``cnot`` onto it, or a ``cu2`` that fires
    where its target does not hold it is refused with
    ``"coin-not-block-diagonal"``.  A position whose bits do not end as
    ``|k>`` with every ancilla at 0, or whose coin does not end on the
    principal coin wire, is residual: its block is zeroed, and ``residual``
    is the largest entry it had.  No global phase is applied:
    :func:`build_linear` tracks none.  The two columns of every wire must
    fit :data:`statevec.MATRIX_BYTES_MAX`: ``2 * wires * 2^n`` bits.
    """
    regs = circuit.registers
    statevec.check_bytes((2 * regs.num_wires << regs.n) // 8, f"the bit columns of n={regs.n}")
    nodes = np.arange(1 << regs.n)
    everywhere = (1 << nodes.size) - 1
    home = [0] * regs.num_wires  # the bits every wire must end with
    for p in range(regs.n):
        bits = np.packbits((nodes >> p) & 1 == 1, bitorder="little")
        home[regs.position(p)] = int.from_bytes(bits.tobytes(), "little")
    value = list(home)
    holds = [0] * regs.num_wires
    holds[regs.coin()] = everywhere
    blocks = np.zeros((nodes.size, 2, 2), dtype=complex)
    fired = np.zeros(nodes.size, dtype=bool)
    for index, gate in enumerate(circuit.gates):
        kind, targets = gate.kind, gate.targets
        if gate.controls:
            c = gate.controls[0]
            if holds[c]:
                raise _refused(index, gate, "is controlled by a wire that holds the coin")
            on = value[c]
        else:
            on = everywhere
        if kind in ("x", "cnot"):
            t = targets[0]
            if holds[t] & on:
                raise _refused(index, gate, "flips the coin")
            value[t] ^= on
        elif kind == "cswap":
            a, b = targets
            d = (value[a] ^ value[b]) & on
            value[a] ^= d
            value[b] ^= d
            d = (holds[a] ^ holds[b]) & on
            holds[a] ^= d
            holds[b] ^= d
        elif kind == "cu2":
            if on & ~holds[targets[0]]:
                raise _refused(index, gate, "fires where its target does not hold the coin")
            u = gate.matrix
            while on:
                k = (on & -on).bit_length() - 1
                on &= on - 1
                blocks[k] = u @ blocks[k] if fired[k] else u
                fired[k] = True
        else:
            raise _refused(index, gate, "is not a gate of the linear coin")
    blocks[~fired] = np.eye(2)
    off = everywhere ^ holds[regs.coin()]
    for got, want in zip(value, home):
        off |= got ^ want
    stray = np.unpackbits(
        np.frombuffer(off.to_bytes((nodes.size + 7) // 8, "little"), dtype=np.uint8),
        count=nodes.size, bitorder="little").view(bool)
    residual = float(np.abs(blocks[stray]).max(initial=0.0))
    blocks[stray] = 0.0
    return blocks, residual


def predicted_depth(n: int) -> int:
    """Block-convention depth cap for the full sandwich: 20n + 2*[n=1] - 7."""
    return 20 * check_n(n) + (2 if n == 1 else 0) - 7
