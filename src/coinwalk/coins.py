"""Position-dependent coin fields.

A coin field assigns one 2x2 unitary ``C_k`` to every node ``k`` of the
cycle with ``N = 2^n`` nodes.  The full coin operator is block diagonal,
``C = sum_k |k><k| (x) C_k``, in the walk layout where the coin wire is the
least significant qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ToolkitError, checked, float_array, read_json
from . import statevec

__all__ = [
    "CoinField",
    "bit_reversal",
    "coin_field_from_json",
    "coin_field_to_json",
    "coin_from_k_params",
    "dirac_field",
    "euler_factorization",
    "random_field",
    "total_coin_matrix",
]


def bit_reversal(k, n: int):
    """``k`` (an int or an integer array) with its ``n`` low bits reversed:
    bit ``p`` moves to bit ``n-1-p``."""
    return sum((((k >> p) & 1) << (n - 1 - p) for p in range(n)), 0 * k)


def coin_from_k_params(alpha, theta, phi, lam) -> np.ndarray:
    """General U(2) coins in the (alpha, theta, phi, lambda) parametrization.

    The four parameters broadcast against each other, shape ``S``, and the
    coins come back as a ``(*S, 2, 2)`` stack; four scalars are a batch of
    one and give one 2x2 coin.  Each entry is the same expression for every
    shape, so a batch is bit for bit its rows made one at a time.
    ``coin_from_k_params(0, pi, 0, 0)`` is ``[[0, -1], [1, 0]]``.
    """
    alpha, theta, phi, lam = (np.asarray(v, dtype=float) for v in (alpha, theta, phi, lam))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    out = np.empty(np.broadcast(alpha, theta, phi, lam).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -np.exp(1j * lam) * s
    out[..., 1, 0] = np.exp(1j * phi) * s
    out[..., 1, 1] = np.exp(1j * (phi + lam)) * c
    return np.exp(1j * alpha)[..., None, None] * out


def euler_factorization(u: np.ndarray) -> np.ndarray:
    """Angles ``(..., 4)``, F0..F3 of each 2x2 block of ``u`` ``(..., 2, 2)``,
    with ``block == exp(i F0) exp(i F1 Z) exp(i F2 Y) exp(i F3 Z)``; a single
    2x2 unitary is a batch of one and gives four angles.

    As ``exp(i f Z) = Rz(-2f)`` and ``exp(i f Y) = Ry(-2f)``, this is also
    ``u = exp(i F0) Rz(-2 F1) Ry(-2 F2) Rz(-2 F3)``, the form the transpiler
    lowers every 2x2 block to.  Branch choices: F0 in (-pi/2, pi/2] from the
    principal argument of ``det u``, F2 in [-pi/2, 0]; when
    ``cos(F2) sin(F2) = 0`` one relative phase is unconstrained and F3 is
    fixed to 0.  Every block gets, bit for bit, the angles of the same steps
    run on its own complex scalars: numpy's complex array product can round
    differently from the scalar one, so ``det u`` is written out in real
    arithmetic, and the magnitudes are ``np.hypot``, as a scalar ``abs`` is.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (2, 2) or not np.all(statevec.is_unitary(u)):
        raise ToolkitError("not-unitary", "euler factorization needs 2x2 unitaries")
    u00, u01, u10, u11 = (u[..., i, j] for i in (0, 1) for j in (0, 1))
    det_re = (u00.real * u11.real - u00.imag * u11.imag) - (u01.real * u10.real - u01.imag * u10.imag)
    det_im = (u00.real * u11.imag + u00.imag * u11.real) - (u01.real * u10.imag + u01.imag * u10.real)
    f0 = 0.5 * np.arctan2(det_im, det_re)
    v = np.exp(-1j * f0)[..., None] * u[..., 0]  # exp(-i F0) u, column 0
    v0, v1 = v[..., 0], v[..., 1]
    a, b = np.hypot(v0.real, v0.imag), np.hypot(v1.real, v1.imag)
    f2 = -np.arctan2(b, a)
    s, t = np.arctan2(v0.imag, v0.real), np.arctan2(v1.imag, v1.real)
    diagonal, anti = b <= 1e-14, a <= 1e-14
    f1 = np.where(diagonal, s, np.where(anti, -t, (s - t) / 2))
    f3 = np.where(diagonal | anti, 0.0, (s + t) / 2)
    angles = np.empty(np.shape(f0) + (4,))
    angles[..., 0], angles[..., 1], angles[..., 2], angles[..., 3] = f0, f1, f2, f3
    return angles


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
        bad = np.flatnonzero(~statevec.is_unitary(coins))
        if bad.size:
            raise ValueError(f"coin {bad[0]} is not unitary")
        self.coins = coins

    def coin(self, k: int) -> np.ndarray:
        return self.coins[k]

    def euler_angles(self) -> np.ndarray:
        """(2^n, 4) array of per-node factorization angles F0..F3."""
        return euler_factorization(self.coins)


def total_coin_matrix(field: CoinField) -> np.ndarray:
    """Block-diagonal coin operator on ``n + 1`` qubits (coin = qubit 0)."""
    statevec.check_dense_matrix(field.n + 1, "total coin matrix")
    dim = 2 << field.n
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(1 << field.n):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = field.coins[k]
    return out


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
    return CoinField(n, coin_from_k_params(*angles.T), {"kind": "k-params", "angles": angles.tolist(), "seed": seed})


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
    """The explicit form, compact: each coin is four ``[re, im]`` pairs, row-major.

    The text is what ``json.dumps`` writes, but each distinct number (by its
    bits, so -0.0 keeps its sign) is formatted once: shortest-repr formatting
    is most of the cost, and a field drawn from a potential repeats entries
    (the n=10 trapping field has 2,051 distinct numbers of 8,192).  The text
    is filled in by one format, with no list per coin: a walk result embeds
    the field, and thousands of small lists set off the garbage collector.
    """
    bits = np.stack([field.coins.real, field.coins.imag], axis=-1).reshape(-1).view(np.int64)
    values, index = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, values.view(float).tolist())), dtype=object)[index]
    coins = ", ".join(["[[%s, %s], [%s, %s], [%s, %s], [%s, %s]]"] * (1 << field.n)) % tuple(text.tolist())
    return f'{{"n": {field.n}, "coins": [{coins}]}}'


def coin_field_from_json(source: str | dict) -> CoinField:
    """Load a field from the explicit or parametric JSON forms; ``ValueError`` if malformed."""
    obj = checked(read_json(source) if isinstance(source, str) else source, dict, "a coin field")
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
            return CoinField(n, coin_from_k_params(*angles.T), {"kind": "k-params", "angles": angles.tolist()})
        return random_field(n, checked(obj.get("seed"), int, "seed"))
    if kind == "dirac":
        return dirac_field(
            n,
            *(checked(obj.get(key), float, key) for key in ("mass", "step", "charge", "v0")),
            obj.get("coordinate_map", "normalized"),
        )
    raise ValueError(f"unknown coin field kind {kind!r}")
