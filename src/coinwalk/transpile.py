"""Lowering to the {Rx, Ry, Rz, P, CNOT} basis.

This module only lowers gates, one at a time; it never re-synthesizes a
circuit (the Walsh builder picks its Gray or product form itself).  All
rewrites are exact gate identities; the only non-gate artifact is a scalar
phase, which is accumulated in circuit metadata under ``"global_phase"`` and
never dropped.

Multi-controlled gates use the ancilla-free split: ``C^k(U)`` peels one
control at a time through ``V = sqrt(U)`` conjugations, and the inner
multi-controlled X gates borrow already-present wires (in whatever state)
as scratch, giving an overall gate count quadratic in the control count.
"""

from __future__ import annotations

import numpy as np

from .errors import ToolkitError
from .circuit import BASIS_KINDS, Circuit, GateInstance
from . import statevec
from .walsh import gray_code_optimize  # noqa: F401  (perfbench/tracing.py wraps it here)

__all__ = [
    "compile_circuit",
    "controlled_u2_gates",
    "cswap_gates",
    "cz_gates",
    "decompose_mcu",
    "decompose_su2",
    "sqrt_u2",
    "swap_gates",
    "toffoli_gates",
    "x_gates",
    "zyz_angles",
]

_ANGLE_EPS = 1e-13


def zyz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """Return (phase, beta, gamma, delta) with u = e^{i phase} Rz(beta) Ry(gamma) Rz(delta)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not statevec.is_unitary(u):
        raise ToolkitError("not-unitary", "zyz decomposition needs a 2x2 unitary")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    phase = 0.5 * float(np.arctan2(det.imag, det.real))
    v = np.exp(-1j * phase) * u
    a, b = abs(v[0, 0]), abs(v[1, 0])
    gamma = 2.0 * float(np.arctan2(b, a))
    if b <= 1e-14:
        beta, delta = -2.0 * float(np.angle(v[0, 0])), 0.0
    elif a <= 1e-14:
        beta, delta = 2.0 * float(np.angle(v[1, 0])), 0.0
    else:
        s, t = float(np.angle(v[0, 0])), float(np.angle(v[1, 0]))
        beta, delta = t - s, -t - s
    return phase, beta, gamma, delta


def _rot(kind: str, wire: int, angle: float) -> list[GateInstance]:
    if abs(angle) <= _ANGLE_EPS:
        return []
    return [GateInstance(kind, (), (wire,), angle)]


def decompose_su2(u: np.ndarray, wire: int) -> tuple[list[GateInstance], float]:
    """One-qubit unitary as Rz/Ry gates plus an explicit scalar phase."""
    phase, beta, gamma, delta = zyz_angles(u)
    gates = _rot("rz", wire, delta) + _rot("ry", wire, gamma) + _rot("rz", wire, beta)
    return gates, phase


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


def controlled_u2_gates(control: int, target: int, u: np.ndarray) -> list[GateInstance]:
    """Exact singly controlled U(2): ABC conjugation plus P(phase) on the control."""
    phase, beta, gamma, delta = zyz_angles(u)
    cx = GateInstance("cnot", (control,), (target,))
    c_part = _rot("rz", target, (delta - beta) / 2)
    b_part = _rot("rz", target, -(delta + beta) / 2) + _rot("ry", target, -gamma / 2)
    a_part = _rot("ry", target, gamma / 2) + _rot("rz", target, beta)
    gates = c_part + [cx] + b_part + [cx] + a_part + _rot("p", control, phase)
    return gates


def sqrt_u2(u: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 unitary."""
    vals, vecs = np.linalg.eig(np.asarray(u, dtype=complex))
    roots = np.exp(0.5j * np.angle(vals))
    return vecs @ np.diag(roots) @ np.linalg.inv(vecs)


# -- multi-controlled X with borrowed scratch wires ---------------------------
#
# Internal op tuples: ("x", t) | ("cx", c, t) | ("ccx", a, b, t).


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
    """m-control X on ``target``; ``pool`` wires are borrowable scratch."""
    controls = tuple(controls)
    m = len(controls)
    if m == 0:
        return [("x", target)]
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


def _render_mcx(ops) -> list[GateInstance]:
    gates: list[GateInstance] = []
    for op in ops:
        if op[0] == "x":
            gates.extend(x_gates(op[1]))
        elif op[0] == "cx":
            gates.append(GateInstance("cnot", (op[1],), (op[2],)))
        else:
            gates.extend(toffoli_gates(op[1], op[2], op[3]))
    return gates


def _ck_u2(u, controls, target, pool) -> list[GateInstance]:
    if len(controls) == 1:
        return controlled_u2_gates(controls[0], target, u)
    v = sqrt_u2(u)
    last, rest = controls[-1], controls[:-1]
    mcx = _render_mcx(_mcx_ops(rest, last, pool + (target,)))
    gates = controlled_u2_gates(last, target, v)
    gates += mcx
    gates += controlled_u2_gates(last, target, v.conj().T)
    gates += mcx
    gates += _ck_u2(v, rest, target, pool + (last,))
    return gates


def decompose_mcu(controls, target: int, u: np.ndarray) -> list[GateInstance]:
    """k-controlled U(2) as basis gates, ancilla free, O(k^2) gate count."""
    controls = tuple(controls)
    if not controls:
        raise ToolkitError("gate-arity-mismatch", "need at least one control wire")
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not statevec.is_unitary(u):
        raise ToolkitError("not-unitary", "decompose_mcu needs a 2x2 unitary")
    x_like = np.allclose(u, np.array([[0, 1], [1, 0]]), atol=1e-14)
    if x_like and len(controls) <= 2:
        if len(controls) == 1:
            return [GateInstance("cnot", controls, (target,))]
        return toffoli_gates(controls[0], controls[1], target)
    return _ck_u2(u, controls, target, ())


def compile_circuit(circuit: Circuit) -> Circuit:
    """Rewrite every gate into the basis; returns a new circuit.

    The output's ``metadata["global_phase"]`` reconciles it with the input:
    ``exp(i phase) * U_out == U_in_full`` up to numerical error.
    """
    out: list[GateInstance] = []
    phase = float(circuit.metadata.get("global_phase", 0.0))
    for g in circuit.gates:
        kind = g.kind
        if kind in BASIS_KINDS:
            if g.angle is not None and abs(g.angle) <= _ANGLE_EPS:
                continue
            out.append(g)
        elif kind == "x":
            out.extend(x_gates(g.targets[0]))
        elif kind == "u2":
            gates, ph = decompose_su2(g.matrix, g.targets[0])
            out.extend(gates)
            phase += ph
        elif kind == "cz":
            out.extend(cz_gates(g.controls[0], g.targets[0]))
        elif kind == "cp":
            out.extend(cp_gates(g.controls[0], g.targets[0], g.angle))
        elif kind == "swap":
            out.extend(swap_gates(*g.targets))
        elif kind == "cswap":
            out.extend(cswap_gates(g.controls[0], *g.targets))
        elif kind == "cu2":
            out.extend(controlled_u2_gates(g.controls[0], g.targets[0], g.matrix))
        elif kind == "mcu2":
            out.extend(decompose_mcu(g.controls, g.targets[0], g.matrix))
        else:
            raise ValueError(f"cannot lower gate kind {kind!r}")
    meta = dict(circuit.metadata)
    meta["global_phase"] = phase
    meta["compiled"] = True
    meta.pop("walsh", None)
    return Circuit(circuit.registers, tuple(out), meta)
