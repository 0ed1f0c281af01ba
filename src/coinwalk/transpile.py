"""Lowering to the {Rx, Ry, Rz, P, CNOT} basis.

This module only lowers gates, one at a time; it never re-synthesizes a
circuit (the Walsh builder picks its Gray or product form itself).  All
rewrites are exact gate identities; the only non-gate artifact is a scalar
phase, which is accumulated in circuit metadata under ``"global_phase"`` and
never dropped.

A 2x2 block is lowered through :func:`coins.euler_factorization`, the
package's one U(2) factorization: its angles ``(F0, F1, F2, F3)`` give
``u = e^{i F0} Rz(-2 F1) Ry(-2 F2) Rz(-2 F3)``.

Multi-controlled gates use the ancilla-free split: ``C^k(U)`` peels one
control at a time through ``V = sqrt(U)`` conjugations, and the inner
multi-controlled X gates borrow already-present wires (in whatever state)
as scratch, giving an overall gate count quadratic in the control count.

Expansions that depend only on wires (X, CZ, SWAP, CSWAP, Toffoli and the
borrowed-wire X networks) are built once per :func:`compile_circuit` or
:func:`expand_swaps` call and shared: every later occurrence reuses the same
immutable :class:`GateInstance` objects, so the naive coin's 2^n gates with
one set of controls share one set of networks.  Only the angle-bearing parts
(``controlled_u2_gates``, ``sqrt_u2``, ``decompose_su2``) are built per
gate; a k-controlled gate takes its ``sqrt_u2`` chain first and factors its
2k-1 blocks in one batch.  The memo lives for one call; two calls share no
gate object.
"""

from __future__ import annotations

import numpy as np

from .errors import ToolkitError
from .circuit import BASIS_KINDS, Circuit, GateInstance
from .coins import euler_factorization
from . import statevec
from .walsh import gray_code_optimize  # noqa: F401  (perfbench/tracing.py wraps it here)

__all__ = [
    "compile_circuit",
    "controlled_u2_gates",
    "cswap_gates",
    "cz_gates",
    "decompose_su2",
    "expand_swaps",
    "sqrt_u2",
    "swap_gates",
    "toffoli_gates",
    "x_gates",
]

_ANGLE_EPS = 1e-13


def _rot(kind: str, wire: int, angle: float) -> list[GateInstance]:
    if abs(angle) <= _ANGLE_EPS:
        return []
    return [GateInstance(kind, (), (wire,), angle)]


def decompose_su2(u: np.ndarray, wire: int) -> tuple[list[GateInstance], float]:
    """One-qubit unitary as Rz/Ry gates plus an explicit scalar phase."""
    f0, f1, f2, f3 = euler_factorization(u).tolist()
    gates = _rot("rz", wire, -2 * f3) + _rot("ry", wire, -2 * f2) + _rot("rz", wire, -2 * f1)
    return gates, f0


def x_gates(wire: int) -> list[GateInstance]:
    """X = Ry(pi) P(pi), exactly (no leftover phase)."""
    return [
        GateInstance("p", (), (wire,), np.pi),
        GateInstance("ry", (), (wire,), np.pi),
    ]


def _h_gates(wire: int) -> list[GateInstance]:
    # H = Ry(pi/2) P(pi), exact
    return [
        GateInstance("p", (), (wire,), np.pi),
        GateInstance("ry", (), (wire,), np.pi / 2),
    ]


def swap_gates(a: int, b: int) -> list[GateInstance]:
    return [
        GateInstance("cnot", (a,), (b,)),
        GateInstance("cnot", (b,), (a,)),
        GateInstance("cnot", (a,), (b,)),
    ]


def cz_gates(a: int, b: int) -> list[GateInstance]:
    return _h_gates(b) + [GateInstance("cnot", (a,), (b,))] + _h_gates(b)


def cp_gates(control: int, target: int, lam: float) -> list[GateInstance]:
    return (
        _rot("p", control, lam / 2)
        + _rot("p", target, lam / 2)
        + [GateInstance("cnot", (control,), (target,))]
        + _rot("p", target, -lam / 2)
        + [GateInstance("cnot", (control,), (target,))]
    )


def toffoli_gates(a: int, b: int, target: int) -> list[GateInstance]:
    """Exact 2-control X in the basis (standard T/T-dagger network)."""
    t, tdg = np.pi / 4, -np.pi / 4
    cx = lambda c, w: GateInstance("cnot", (c,), (w,))
    seq = _h_gates(target)
    seq += [cx(b, target)] + _rot("p", target, tdg)
    seq += [cx(a, target)] + _rot("p", target, t)
    seq += [cx(b, target)] + _rot("p", target, tdg)
    seq += [cx(a, target)] + _rot("p", b, t) + _rot("p", target, t)
    seq += _h_gates(target) + [cx(a, b)] + _rot("p", a, t) + _rot("p", b, tdg) + [cx(a, b)]
    return seq


def cswap_gates(control: int, a: int, b: int) -> list[GateInstance]:
    pre = GateInstance("cnot", (b,), (a,))
    return [pre] + toffoli_gates(control, a, b) + [pre]


class _Shared(dict):
    """One lowering call's wire-only expansions: ``(builder, wires) -> gates``.

    Each is built on first use and the same tuple is returned after; the
    gates are immutable, so one copy serves every occurrence.
    """

    def __call__(self, build, *wires) -> tuple[GateInstance, ...]:
        key = (build, wires)
        gates = self.get(key)
        if gates is None:
            gates = self[key] = tuple(build(*wires))
        return gates

    def mcx(self, controls, target, pool) -> tuple[GateInstance, ...]:
        """The :func:`_mcx_ops` network as gates, its Toffolis shared too."""
        key = (_mcx_ops, controls, target, pool)
        gates = self.get(key)
        if gates is None:
            built: list[GateInstance] = []
            for op in _mcx_ops(controls, target, pool):
                if op[0] == "cx":
                    built.append(GateInstance("cnot", (op[1],), (op[2],)))
                else:
                    built.extend(self(toffoli_gates, *op[1:]))
            gates = self[key] = tuple(built)
        return gates


def expand_swaps(circuit: Circuit) -> Circuit:
    """The circuit with every SWAP and CSWAP rewritten into its basis gates,
    each distinct expansion built once for the call (module docstring)."""
    gates: list[GateInstance] = []
    shared = _Shared()
    for g in circuit.gates:
        if g.kind == "swap":
            gates.extend(shared(swap_gates, *g.targets))
        elif g.kind == "cswap":
            gates.extend(shared(cswap_gates, g.controls[0], *g.targets))
        else:
            gates.append(g)
    return Circuit(circuit.registers, tuple(gates), dict(circuit.metadata))


def controlled_u2_gates(control: int, target: int, u: np.ndarray) -> list[GateInstance]:
    """Exact singly controlled U(2): ABC conjugation plus P(phase) on the control."""
    return _abc_gates(control, target, euler_factorization(u).tolist())


def _abc_gates(control: int, target: int, angles) -> list[GateInstance]:
    """:func:`controlled_u2_gates` from the block's ``euler_factorization`` angles."""
    f0, f1, f2, f3 = angles
    cx = GateInstance("cnot", (control,), (target,))
    c_part = _rot("rz", target, f1 - f3)
    b_part = _rot("rz", target, f1 + f3) + _rot("ry", target, f2)
    a_part = _rot("ry", target, -f2) + _rot("rz", target, -2 * f1)
    return c_part + [cx] + b_part + [cx] + a_part + _rot("p", control, f0)


def sqrt_u2(u: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 unitary."""
    vals, vecs = np.linalg.eig(np.asarray(u, dtype=complex))
    roots = np.exp(0.5j * np.angle(vals))
    return vecs @ np.diag(roots) @ np.linalg.inv(vecs)


# -- multi-controlled X with borrowed scratch wires ---------------------------
#
# Internal op tuples: ("cx", c, t) | ("ccx", a, b, t).


def _mcx_chain(controls, target, dirty):
    """m-control X using m-2 borrowed wires (restored, any initial state)."""
    m = len(controls)
    block = [("ccx", controls[m - 1], dirty[m - 3], target)]
    for i in range(m - 2, 1, -1):
        block.append(("ccx", controls[i], dirty[i - 2], dirty[i - 1]))
    block.append(("ccx", controls[1], controls[0], dirty[0]))
    for i in range(2, m - 1):
        block.append(("ccx", controls[i], dirty[i - 2], dirty[i - 1]))
    return block + block


def _mcx_ops(controls, target, pool):
    """m-control X on ``target``, m >= 1; ``pool`` wires are borrowable scratch."""
    controls = tuple(controls)
    m = len(controls)
    if m == 1:
        return [("cx", controls[0], target)]
    if m == 2:
        return [("ccx", controls[0], controls[1], target)]
    pool = tuple(pool)
    if len(pool) >= m - 2:
        return _mcx_chain(controls, target, pool[: m - 2])
    if not pool:
        raise ValueError("multi-controlled X needs at least one borrowable wire")
    # split into halves; each half borrows the other half's controls
    b = pool[0]
    m1 = (m + 1) // 2
    first, rest = controls[:m1], controls[m1:]
    a_ops = _mcx_ops(first, b, rest + (target,))
    b_ops = _mcx_ops(rest + (b,), target, first)
    return b_ops + a_ops + b_ops + a_ops


def _ck_u2(u, controls, target, pool, shared: _Shared) -> list[GateInstance]:
    """C^k(u): each level peels its last control through ``v = sqrt`` of the
    level above, between two borrowed-wire X networks; the last control left
    takes the deepest root.  The ``sqrt_u2`` chain is taken first and its
    2k-1 blocks are factored in one :func:`euler_factorization` call."""
    k = len(controls)
    roots = [u]
    for _ in range(k - 1):
        roots.append(sqrt_u2(roots[-1]))
    blocks = [block for v in roots[1:] for block in (v, v.conj().T)] + [roots[-1]]
    angles = euler_factorization(np.array(blocks)).tolist()
    gates: list[GateInstance] = []
    for level in range(k - 1):
        last, rest = controls[k - 1 - level], controls[: k - 1 - level]
        mcx = shared.mcx(rest, last, pool + (target,))
        gates += _abc_gates(last, target, angles[2 * level])
        gates += mcx
        gates += _abc_gates(last, target, angles[2 * level + 1])
        gates += mcx
        pool += (last,)
    return gates + _abc_gates(controls[0], target, angles[-1])


def _decompose_mcu(controls, target: int, u, shared: _Shared) -> list[GateInstance]:
    """k-controlled U(2) as basis gates, ancilla free, O(k^2) gate count.

    The X networks depend only on the wires: ``shared`` builds each once and
    reuses its gate objects; the ``sqrt_u2`` rotations are built per gate.
    """
    controls = tuple(controls)
    if not controls:
        raise ToolkitError("gate-arity-mismatch", "need at least one control wire")
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not statevec.is_unitary(u):
        raise ToolkitError("not-unitary", "a multi-controlled U(2) needs a 2x2 unitary")
    x_like = np.allclose(u, np.array([[0, 1], [1, 0]]), atol=1e-14)
    if x_like and len(controls) <= 2:
        if len(controls) == 1:
            return [GateInstance("cnot", controls, (target,))]
        return list(shared(toffoli_gates, controls[0], controls[1], target))
    return _ck_u2(u, controls, target, (), shared)


def compile_circuit(circuit: Circuit) -> Circuit:
    """Rewrite every gate into the basis; returns a new circuit.

    The output's ``metadata["global_phase"]`` reconciles it with the input:
    ``exp(i phase) * U_out == U_in_full`` up to numerical error.  Every
    wire-only expansion is built once for the call and its gate objects
    reused wherever it recurs (module docstring).
    """
    out: list[GateInstance] = []
    phase = circuit.global_phase
    shared = _Shared()
    for g in circuit.gates:
        kind = g.kind
        if kind in BASIS_KINDS:
            if g.angle is not None and abs(g.angle) <= _ANGLE_EPS:
                continue
            out.append(g)
        elif kind == "x":
            out.extend(shared(x_gates, g.targets[0]))
        elif kind == "u2":
            gates, ph = decompose_su2(g.matrix, g.targets[0])
            out.extend(gates)
            phase += ph
        elif kind == "cz":
            out.extend(shared(cz_gates, g.controls[0], g.targets[0]))
        elif kind == "cp":
            out.extend(cp_gates(g.controls[0], g.targets[0], g.angle))
        elif kind == "swap":
            out.extend(shared(swap_gates, *g.targets))
        elif kind == "cswap":
            out.extend(shared(cswap_gates, g.controls[0], *g.targets))
        elif kind == "cu2":
            out.extend(controlled_u2_gates(g.controls[0], g.targets[0], g.matrix))
        elif kind == "mcu2":
            out.extend(_decompose_mcu(g.controls, g.targets[0], g.matrix, shared))
        else:
            raise ValueError(f"cannot lower gate kind {kind!r}")
    meta = dict(circuit.metadata)
    meta["global_phase"] = phase
    meta["compiled"] = True
    meta.pop("walsh", None)
    return Circuit(circuit.registers, tuple(out), meta)
