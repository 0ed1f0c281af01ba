"""Independent references for the benchmark's output checks.

Nothing here calls coinwalk's circuit, simulator or oracle code: a walk is
evolved with a batched 2x2 coin and ``np.roll``, a truncated Walsh coin is
rebuilt from the coin field's Euler angles, and emitted OPENQASM is run by a
small interpreter of its own.
"""

from __future__ import annotations

import re

import numpy as np

WALK_TVD_TOL = 1e-9
QASM_TOL = 1e-9


def walk_distribution(coins: np.ndarray, steps: int, position: int, amps) -> np.ndarray:
    """Position distribution after ``steps`` of coin-then-shift on a cycle.

    ``coins`` is the ``(2^n, 2, 2)`` per-node coin array; coin 0 moves the
    walker to k-1 and coin 1 to k+1.
    """
    psi = np.zeros((coins.shape[0], 2), dtype=complex)
    psi[position] = amps
    for _ in range(steps):
        psi = np.einsum("kij,kj->ki", coins, psi)
        psi[:, 0] = np.roll(psi[:, 0], -1)
        psi[:, 1] = np.roll(psi[:, 1], 1)
    return (np.abs(psi) ** 2).sum(axis=1)


def tvd(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def _euler_coins(angles: np.ndarray) -> np.ndarray:
    f0, f1, f2, f3 = angles.T
    c, s = np.cos(f2), np.sin(f2)
    out = np.empty((angles.shape[0], 2, 2), dtype=complex)
    out[:, 0, 0] = np.exp(1j * (f1 + f3)) * c
    out[:, 0, 1] = np.exp(1j * (f1 - f3)) * s
    out[:, 1, 0] = -np.exp(-1j * (f1 - f3)) * s
    out[:, 1, 1] = np.exp(-1j * (f1 + f3)) * c
    return np.exp(1j * f0)[:, None, None] * out


def truncated_walsh_coins(angles: np.ndarray, m: int) -> np.ndarray:
    """Coins a Walsh coin circuit cut at order ``m`` implements.

    ``angles`` is the field's own ``(2^n, 4)`` factorization F0..F3 with
    C = e^{iF0} e^{iF1 Z} e^{iF2 Y} e^{iF3 Z}.  It is taken from the field,
    not recomputed, because angle jumps of exactly pi sit on ``np.unwrap``'s
    threshold, where a last-bit difference flips the unwrapped branch.  Each
    angle function is unwrapped along the dyadic coordinate of node k (the
    bit reversal of k) and then cut to Walsh indices below 2^m.  That cut
    keeps exactly the dependence on the low m bits of k, so it is the mean
    over all nodes that share them.
    """
    size = angles.shape[0]
    n = size.bit_length() - 1
    dyadic_order = np.array([int(format(k, f"0{n}b")[::-1], 2) for k in range(size)])
    unwrapped = np.empty_like(angles)
    unwrapped[dyadic_order] = np.unwrap(angles[dyadic_order], axis=0)
    means = unwrapped.reshape(size >> m, 1 << m, 4).mean(axis=0)
    return _euler_coins(means[np.arange(size) % (1 << m)])


def linear_depth_bound(n: int) -> int:
    """Block depth bound of the linear-ancilla construction, 20n + 2[n=1] - 7."""
    return 20 * n + (2 if n == 1 else 0) - 7


# -- OPENQASM interpreter for the compiled basis {rx, ry, rz, p, cnot} ----------

_GATE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?\s+(.+);$")
_QREG = re.compile(r"^qreg\s+(\w+)\[(\d+)\];$")
_REF = re.compile(r"^(\w+)\[(\d+)\]$")


def _one_qubit(name: str, a: float) -> np.ndarray:
    c, s = np.cos(a / 2), np.sin(a / 2)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])
    return np.diag([1.0, np.exp(1j * a)])  # u1, the phase gate p


class Qasm:
    """A parsed program: register offsets, gate list and the global phase."""

    def __init__(self, text: str):
        self.phase = 0.0
        self.registers: dict[str, tuple[int, int]] = {}
        self.ops: list[tuple] = []
        width = 0
        for raw in text.splitlines():
            line = raw.strip()
            if line.startswith("// global-phase"):
                self.phase = float(line.split()[2])
            if not line or line.startswith(("//", "OPENQASM", "include")):
                continue
            reg = _QREG.match(line)
            if reg:
                self.registers[reg.group(1)] = (width, int(reg.group(2)))
                width += int(reg.group(2))
                continue
            gate = _GATE.match(line)
            if not gate:
                raise ValueError(f"unparseable line {raw!r}")
            name, arg, refs = gate.groups()
            wires = [self._wire(r) for r in refs.split(",")]
            if name == "cx" and len(wires) == 2:
                self.ops.append(("cx", wires[0], wires[1]))
            elif name in ("rx", "ry", "rz", "u1") and len(wires) == 1 and arg:
                self.ops.append(("u", wires[0], _one_qubit(name, float(arg))))
            else:
                raise ValueError(f"gate {name!r} is outside the compiled basis")
        self.num_wires = width

    def _wire(self, ref: str) -> int:
        m = _REF.match(ref.strip())
        if not m or m.group(1) not in self.registers:
            raise ValueError(f"bad wire reference {ref!r}")
        offset, size = self.registers[m.group(1)]
        if int(m.group(2)) >= size:
            raise ValueError(f"wire {ref!r} outside its register")
        return offset + int(m.group(2))

    def wire(self, register: str, index: int) -> int:
        return self.registers[register][0] + index

    def run(self, index: int) -> dict[int, complex]:
        """Sparse evolution of one basis state, global phase included."""
        state = {index: complex(np.exp(1j * self.phase))}
        for op in self.ops:
            if op[0] == "cx":
                cbit, tbit = 1 << op[1], 1 << op[2]
                state = {(k ^ tbit if k & cbit else k): a for k, a in state.items()}
                continue
            bit, mat = 1 << op[1], op[2]
            out: dict[int, complex] = {}
            for k, a in state.items():
                col = 1 if k & bit else 0
                for row in (0, 1):
                    coeff = mat[row, col]
                    if coeff != 0:
                        key = (k | bit) if row else (k & ~bit)
                        out[key] = out.get(key, 0.0) + coeff * a
            state = {k: a for k, a in out.items() if abs(a) > 1e-15}
        return state


def qasm_coin_deviation(text: str, coins: np.ndarray) -> float:
    """Largest amplitude error of a compiled coin program against its coins.

    Every position k and coin value c is run with all other wires at |0>;
    the output must be sum_c' coins[k][c', c] |k, c'> with those wires back
    at |0>, for the walk and the linear-ancilla layouts alike.
    """
    prog = Qasm(text)
    n = prog.registers["position"][1]
    coin = 1 << prog.wire("coin", 0)
    pos = [1 << prog.wire("position", p) for p in range(n)]

    def basis(k: int, c: int) -> int:
        return (coin if c else 0) | sum(b for p, b in enumerate(pos) if (k >> p) & 1)

    worst = 0.0
    for k in range(1 << n):
        for c in (0, 1):
            got = prog.run(basis(k, c))
            want = {basis(k, out): coins[k][out, c] for out in (0, 1)}
            for key in set(got) | set(want):
                worst = max(worst, abs(got.get(key, 0.0) - want.get(key, 0.0)))
    return worst
