"""Position-dependent coin fields.

A coin field assigns one 2x2 unitary ``C_k`` to every node ``k`` of the
cycle with ``N = 2^n`` nodes.  The full coin operator is block diagonal,
``C = sum_k |k><k| (x) C_k``, in the walk layout where the coin wire is the
least significant qubit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ToolkitError, checked, float_array
from . import statevec

__all__ = [
    "CoinField",
    "bit_reversal",
    "coin_field_from_json",
    "coin_field_to_json",
    "coin_from_k_params",
    "dirac_field",
    "dyadic_coordinate",
    "euler_factorization",
    "euler_matrix",
    "identity_field",
    "random_field",
    "total_coin_matrix",
]


def bit_reversal(k, n: int):
    """``k`` (an int or an integer array) with its ``n`` low bits reversed:
    bit ``p`` moves to bit ``n-1-p``."""
    return sum((((k >> p) & 1) << (n - 1 - p) for p in range(n)), 0 * k)


def dyadic_coordinate(k: int, n: int) -> float:
    """Map node ``k`` to ``sum_p b_p 2^-(p+1)`` with ``b_p`` the bits of k.

    This is the bit-reversal of ``k / 2^n``; it is injective on ``[0, 2^n)``
    and is the sampling grid the Walsh machinery assumes.
    """
    if not 0 <= k < (1 << n):
        raise ToolkitError("index-out-of-range", f"node {k} outside 0..{(1 << n) - 1}")
    return bit_reversal(k, n) / (1 << n)


def coin_from_k_params(alpha: float, theta: float, phi: float, lam: float) -> np.ndarray:
    """General U(2) coin in the (alpha, theta, phi, lambda) parametrization.

    ``coin_from_k_params(0, pi, 0, 0)`` is ``[[0, -1], [1, 0]]``.
    """
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.exp(1j * alpha) * np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


def euler_matrix(f0: float, f1: float, f2: float, f3: float) -> np.ndarray:
    """``exp(i f0) exp(i f1 Z) exp(i f2 Y) exp(i f3 Z)`` written out."""
    c, s = np.cos(f2), np.sin(f2)
    return np.exp(1j * f0) * np.array(
        [
            [np.exp(1j * (f1 + f3)) * c, np.exp(1j * (f1 - f3)) * s],
            [-np.exp(-1j * (f1 - f3)) * s, np.exp(-1j * (f1 + f3)) * c],
        ]
    )


def euler_factorization(u: np.ndarray) -> tuple[float, float, float, float]:
    """Angles (F0, F1, F2, F3) with ``euler_matrix(*angles) == u``.

    As ``exp(i f Z) = Rz(-2f)`` and ``exp(i f Y) = Ry(-2f)``, this is also
    ``u = exp(i F0) Rz(-2 F1) Ry(-2 F2) Rz(-2 F3)``, the form the transpiler
    lowers every 2x2 block to.  Branch choices: F0 in (-pi/2, pi/2] from the
    principal argument of ``det u``, F2 in [-pi/2, 0]; when
    ``cos(F2) sin(F2) = 0`` one relative phase is unconstrained and F3 is
    fixed to 0.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not statevec.is_unitary(u):
        raise ToolkitError("not-unitary", "euler factorization needs a 2x2 unitary")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    f0 = 0.5 * float(np.arctan2(det.imag, det.real))
    v = np.exp(-1j * f0) * u
    a, b = abs(v[0, 0]), abs(v[1, 0])
    f2 = -float(np.arctan2(b, a))
    s, t = float(np.angle(v[0, 0])), float(np.angle(v[1, 0]))
    if b <= 1e-14:
        return f0, s, f2, 0.0
    if a <= 1e-14:
        return f0, -t, f2, 0.0
    return f0, (s - t) / 2, f2, (s + t) / 2


@dataclass
class CoinField:
    """``2^n`` coin unitaries, one per node, with optional origin metadata."""

    n: int
    coins: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        coins = np.asarray(self.coins, dtype=complex)
        if coins.shape != (1 << self.n, 2, 2):
            raise ValueError(
                f"expected {(1 << self.n, 2, 2)} coin array, got {coins.shape}"
            )
        for k, c in enumerate(coins):
            if not statevec.is_unitary(c):
                raise ToolkitError("not-unitary", f"coin {k} is not unitary")
        self.coins = coins

    def coin(self, k: int) -> np.ndarray:
        return self.coins[k]

    def euler_angles(self) -> np.ndarray:
        """(2^n, 4) array of per-node factorization angles F0..F3."""
        return np.array([euler_factorization(c) for c in self.coins])


def total_coin_matrix(field: CoinField) -> np.ndarray:
    """Block-diagonal coin operator on ``n + 1`` qubits (coin = qubit 0)."""
    statevec.check_dense_matrix(field.n + 1, "total coin matrix")
    dim = 2 << field.n
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(1 << field.n):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = field.coins[k]
    return out


def identity_field(n: int) -> CoinField:
    coins = np.broadcast_to(np.eye(2, dtype=complex), (1 << n, 2, 2)).copy()
    return CoinField(n, coins, {"kind": "identity"})


def random_field(n: int, seed: int) -> CoinField:
    """Seeded random field; per node alpha, theta ~ U[0, pi), phi, lambda ~ U[-pi, pi)."""
    rng = np.random.default_rng(seed)
    angles = np.column_stack(
        [
            rng.uniform(0.0, np.pi, 1 << n),
            rng.uniform(0.0, np.pi, 1 << n),
            rng.uniform(-np.pi, np.pi, 1 << n),
            rng.uniform(-np.pi, np.pi, 1 << n),
        ]
    )
    coins = np.array([coin_from_k_params(*row) for row in angles])
    return CoinField(n, coins, {"kind": "k-params", "angles": angles.tolist(), "seed": seed})


def _harmonic(x: np.ndarray, v0: float) -> np.ndarray:
    return v0 * (x - 0.5) ** 2


def dirac_field(
    n: int,
    mass: float,
    step: float,
    charge: float,
    v0: float,
    coordinate_map: str = "normalized",
) -> CoinField:
    """Coin family ``exp(-i q V(x_k) a) * Rx(-2 m a)`` with harmonic V.

    ``coordinate_map`` picks the node coordinate fed into the potential:
    ``"normalized"`` uses ``x_k = k / 2^n`` (potential spans one period of
    the lattice), ``"lattice"`` uses ``x_k = k * a``.
    """
    if coordinate_map not in ("normalized", "lattice"):
        raise ValueError(f"unknown coordinate map {coordinate_map!r}")
    ks = np.arange(1 << n)
    xs = ks / (1 << n) if coordinate_map == "normalized" else ks * step
    ma = mass * step
    rx = np.array(
        [[np.cos(ma), 1j * np.sin(ma)], [1j * np.sin(ma), np.cos(ma)]]
    )
    phases = np.exp(-1j * charge * _harmonic(xs, v0) * step)
    coins = phases[:, None, None] * rx[None, :, :]
    return CoinField(
        n,
        coins,
        {
            "kind": "dirac",
            "mass": mass,
            "step": step,
            "charge": charge,
            "v0": v0,
            "coordinate_map": coordinate_map,
        },
    )


def coin_field_to_json(field: CoinField) -> str:
    """The explicit form, compact: each coin is four ``[re, im]`` pairs, row-major."""
    coins = np.stack([field.coins.real, field.coins.imag], axis=-1).reshape(-1, 4, 2).tolist()
    return json.dumps({"n": field.n, "coins": coins})


def coin_field_from_json(source: str | dict) -> CoinField:
    """Load a field from the explicit or parametric JSON forms; ``ValueError`` if malformed."""
    obj = checked(json.loads(source) if isinstance(source, str) else source, dict, "a coin field")
    n = statevec.check_document_n(checked(obj.get("n"), int, "n"))
    kind = obj.get("kind")
    if kind is None:
        pairs = float_array(obj.get("coins"), "coins")
        if pairs.shape != (1 << n, 4, 2):
            raise ValueError(f"expected {1 << n} coins of four [re, im] pairs, got {pairs.shape}")
        return CoinField(n, pairs.view(complex).reshape(1 << n, 2, 2), {"kind": "explicit"})
    if kind == "k-params":
        if "angles" in obj:
            angles = float_array(obj["angles"], "angles")
            if angles.shape != (1 << n, 4):
                raise ValueError(f"expected {(1 << n, 4)} angles, got {angles.shape}")
            coins = np.array([coin_from_k_params(*row) for row in angles])
            return CoinField(n, coins, {"kind": "k-params", "angles": angles.tolist()})
        return random_field(n, checked(obj.get("seed"), int, "seed"))
    if kind == "dirac":
        return dirac_field(
            n,
            *(checked(obj.get(key), float, key) for key in ("mass", "step", "charge", "v0")),
            obj.get("coordinate_map", "normalized"),
        )
    raise ValueError(f"unknown coin field kind {kind!r}")
