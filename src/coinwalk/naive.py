"""Sequential position-selected coin circuit.

One multiply-controlled coin gate per node, preceded by an X "tower" that
rotates the control pattern from the previous node's index to the current
one.  Tower i flips position wires 0..t, t = trailing zeros of i (i >= 1);
tower 0 flips every position wire.  Gate count is exponential in n by
construction, but a build makes only n + 2^n gate objects: one X per
position wire, shared by every tower that flips it, and one coin gate per
node.
"""

from __future__ import annotations

import numpy as np

from .errors import ToolkitError, check_n
from .circuit import Circuit, GateInstance, RegisterMap
from .coins import CoinField

__all__ = ["build_naive", "tower_flips"]


def tower_flips(n: int, i: int) -> list[int]:
    """Position-wire indices flipped by tower i, 0 <= i < 2^(n-1) (i = 0 for n = 1)."""
    if not 0 <= i < 1 << (check_n(n) - 1):
        raise ToolkitError("index-out-of-range", f"tower index {i} invalid for n={n}")
    if i == 0:
        return list(range(n))
    t = (i & -i).bit_length() - 1  # trailing zeros
    return list(range(t + 1))


def build_naive(field: CoinField) -> Circuit:
    """Circuit for the block-diagonal total coin, one controlled gate per node.

    Walking k = 0..2^n-1, the tower before node k maps the all-ones control
    pattern onto the bits of k, so every coin gate controls on all position
    wires.  The X count per wire over the whole loop is even, so the
    position register ends exactly where it started.  Each position wire's
    X is one immutable gate, shared by every tower.
    """
    n = field.n
    regs = RegisterMap.walk(n)
    pos = tuple(regs.position(p) for p in range(n))
    coin = (regs.coin(),)
    flip = [GateInstance("x", (), (w,)) for w in pos]
    kind = "cu2" if n == 1 else "mcu2"
    half = 1 << (n - 1)
    gates: list[GateInstance] = []
    for k in range(1 << n):
        gates.extend(map(flip.__getitem__, tower_flips(n, k % half)))
        gates.append(
            GateInstance(kind, pos, coin, matrix=np.ascontiguousarray(field.coin(k)), label=f"coin{k}")
        )
    return Circuit(regs, tuple(gates), {"builder": "naive", "n": n})
