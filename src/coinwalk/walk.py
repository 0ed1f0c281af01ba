"""Step composition W = S * C, evolution, and distribution extraction.

Any builder's coin circuit (:func:`build_coin`) is collapsed once into its
``(2^n, 2, 2)`` coin array (:func:`collapse`, which ``coinwalk verify`` also
runs).  A walk-layout circuit (naive, Walsh) is read gate by gate as parity
frames, each position wire a parity of the input bits and the coin a Pauli
frame, with one fast Walsh-Hadamard transform per run of same-axis coin
rotations; the reading certifies block-diagonality by structure, so its
residual is 0.  A linear-ancilla circuit is read over bit columns, each
wire a classical bit per position or the coin's holder, with every ancilla
checked back at |0> (:func:`linear.coin_blocks`).  ``coinwalk verify`` also
simulates either circuit on a probe vector (:func:`coin_deviation`), a check
independent of the reading.
The shift circuit is read once per run as a permutation with phases: run
once through the dense kernel on three columns, the labels ``1..2N``, the
all-ones vector that carries the phases, and the seeded probe, it is
certified by the probe and refused with
``shift-not-permutation`` otherwise (:func:`_read_shift`).  Each step of the
dense walk-layout vector is then a batched 2x2 coin followed by that
gather, scaled by the phases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ToolkitError, checked
from . import statevec
from .circuit import Circuit
# total_coin_matrix is imported for perfbench's tracer test, which reads
# walk.total_coin_matrix.
from .coins import CoinField, coin_field_from_json, coin_field_to_json, total_coin_matrix  # noqa: F401
from . import naive as naive_mod
from . import linear as linear_mod
from . import walsh as walsh_mod
from . import shift as shift_mod

__all__ = [
    "CONSTRUCTIONS",
    "Distribution",
    "SHIFT_TOL",
    "WalkConfig",
    "WalkResult",
    "build_coin",
    "coin_deviation",
    "collapse",
    "config_from_json",
    "config_to_json",
    "initial_state",
    "matrix_oracle_run",
    "results_to_csv",
    "results_to_json",
    "run",
    "shift_deviation",
    "tvd",
]

#: Each coin construction and its limit: the largest collapse residual a walk
#: admits, and the largest deviation ``coinwalk verify`` admits.
CONSTRUCTIONS = {"naive": 1e-10, "linear": 1e-10, "walsh": 1e-9}

#: The largest probe deviation a shift circuit admits, against the rolls in
#: ``coinwalk shift --verify`` and against its own reading in a walk.
SHIFT_TOL = 1e-9

_NORM_SLACK = 1e-9
_PROBE_SEED = 20220101


@dataclass(frozen=True)
class WalkConfig:
    n: int
    steps: int
    field: CoinField
    coin_builder: str = "dense-oracle"
    shift_scheme: str = "qft"
    truncation: int | None = None
    initial: dict | None = None
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.coin_builder not in (*CONSTRUCTIONS, "dense-oracle"):
            raise ValueError(f"unknown coin builder {self.coin_builder!r}")
        if self.shift_scheme not in shift_mod.SCHEMES:
            raise ValueError(f"unknown shift scheme {self.shift_scheme!r}")
        if self.shots is not None and not 1 <= self.shots < 1 << 63:
            # numpy's multinomial draws take an int64 count
            raise ValueError("shots must be between 1 and 2**63 - 1 when sampling")
        if self.field.n != self.n:
            raise ValueError("coin field size does not match n")
        _check_truncation(self.coin_builder, self.truncation, self.n)
        _start(self)


@dataclass(frozen=True)
class Distribution:
    probabilities: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if np.any(p < -1e-12) or abs(float(p.sum()) - 1.0) > 1e-10:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "probabilities", np.maximum(p, 0.0))


@dataclass
class WalkResult:
    distribution: Distribution
    final_state: np.ndarray


def tvd(p, q) -> float:
    """Total variation distance (1/2) sum |p_k - q_k|."""
    pa = p.probabilities if isinstance(p, Distribution) else np.asarray(p, dtype=float)
    qa = q.probabilities if isinstance(q, Distribution) else np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError(f"distribution size mismatch {pa.shape} vs {qa.shape}")
    return 0.5 * float(np.abs(pa - qa).sum())


def _start(config: WalkConfig) -> tuple[int, np.ndarray]:
    """``config.initial`` as (position, unit coin amplitudes); ``ValueError`` if either is bad."""
    # a null entry means the same as an absent one
    spec = {key: value for key, value in (config.initial or {}).items() if value is not None}
    k = int(spec.get("position", 0))
    if not 0 <= k < 1 << config.n:
        raise ValueError(f"initial position {k} is outside 0..{(1 << config.n) - 1}")
    raw = spec.get("coin", [1, 0])
    amps = np.array([complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c) for c in raw],
                    dtype=complex)
    parts = amps.view(float)  # the real and imaginary parts
    top = np.abs(parts).max() if amps.shape == (2,) else 0.0
    if not 0 < top < np.inf:
        raise ValueError("coin amplitude spec must be two entries of finite, nonzero norm")
    # Scaled by a power of two near the largest part, the norm cannot
    # overflow, and the quotient is exactly amps / norm(amps) wherever that
    # does not overflow or underflow.
    amps = np.ldexp(parts, -np.frexp(top)[1]).view(complex)
    return k, amps / np.linalg.norm(amps)


def initial_state(config: WalkConfig) -> np.ndarray:
    """Dense walk-layout vector: |position> (x) (coin amplitudes)."""
    k, amps = _start(config)
    vec = np.zeros(2 << config.n, dtype=complex)
    vec[2 * k:2 * k + 2] = amps
    return vec


def _marginal_walk(vec: np.ndarray) -> np.ndarray:
    pairs = vec.reshape(-1, 2)
    return np.abs(pairs[:, 0]) ** 2 + np.abs(pairs[:, 1]) ** 2


def _sample(probs: np.ndarray, config: WalkConfig) -> np.ndarray | None:
    if config.shots is None:
        return None
    rng = np.random.default_rng(config.seed)
    return rng.multinomial(config.shots, probs / probs.sum())


def _apply_coins(coins: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Coin k applied to the (2k, 2k+1) amplitude pair, for every node k."""
    return np.einsum("kij,kj->ki", coins, vec.reshape(-1, 2)).reshape(-1)


def _norm_checked(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= _NORM_SLACK:
        raise ToolkitError("norm-drift", f"norm drifted to {norm}")
    return vec


def _shift_rolls(vec: np.ndarray) -> np.ndarray:
    pairs = vec.reshape(-1, 2)
    return np.stack([np.roll(pairs[:, 0], -1), np.roll(pairs[:, 1], 1)], axis=1).reshape(-1)


def _evolve(vec: np.ndarray, steps: int, coins: np.ndarray, shift) -> np.ndarray:
    """The final vector, each step the coins then the function ``shift``."""
    for _ in range(steps):
        vec = shift(_apply_coins(coins, vec))
    return vec


def matrix_oracle_run(field: CoinField, steps: int, init: np.ndarray) -> WalkResult:
    """Reference evolution in O(N) per step, no circuits involved.

    Each step applies ``field.coins`` to the amplitude pairs, then rolls the
    coin-0 column one node down and the coin-1 column one node up.
    """
    statevec.check_dense_vector(field.n + 1, "an oracle run")
    vec = _evolve(np.asarray(init, dtype=complex), steps, field.coins, _shift_rolls)
    return WalkResult(Distribution(_marginal_walk(vec)), vec)


def _check_truncation(construction: str, truncation: int | None, n: int) -> None:
    """``ValueError`` unless ``truncation`` is ``None`` or a Walsh order (:func:`walsh.check_order`)."""
    if truncation is None:
        return
    if construction != "walsh":
        raise ValueError(f"truncation={truncation} applies only to walsh, not {construction}")
    walsh_mod.check_order(truncation, n)


def build_coin(construction: str, field: CoinField, truncation: int | None = None) -> Circuit:
    """The coin circuit of one of :data:`CONSTRUCTIONS` for ``field``, each
    builder looked up on its module at call time; ``truncation`` is the Walsh
    series order (``None``: the full series).  ``ValueError`` for any other
    construction, or a truncation outside ``[0, n]`` or not for walsh."""
    _check_truncation(construction, truncation, field.n)
    if construction == "naive":
        return naive_mod.build_naive(field)
    if construction == "linear":
        return linear_mod.build_linear(field)
    if construction == "walsh":
        return walsh_mod.build_walsh_coin(field, m=truncation)
    raise ValueError(f"unknown construction {construction!r}, not one of {tuple(CONSTRUCTIONS)}")


# -- parity frames ---------------------------------------------------------------
#
# After each gate of a walk-layout coin circuit, |k>|c> has gone to
# e^{i phi(k)} |L(k)> F(k) B_k |c>.  Position wire w holds the parity
# mask[w] . (k, 1): bit p of a mask is bit p of k and bit n the constant 1,
# so an X gate flips bit n.  F(k) = X^(a . (k, 1)) is the coin's Pauli frame
# and B_k the block read so far.  A coin rotation R moves through the frame
# as F R F, the same rotation by +-theta with the sign a parity of k, so a
# run of rotations about one axis is a Walsh series over k, and so is phi.
# The builders emit no cz, so the frame needs no Z part.


def _not_block_diagonal(why: str) -> ToolkitError:
    return ToolkitError("coin-not-block-diagonal", why)


def _read_frames(circuit: Circuit) -> np.ndarray:
    """The ``(2^n, 2, 2)`` blocks of a walk-layout coin circuit, read as parity frames.

    The gates read are ``x``, ``cnot`` controlled by a position wire, ``rz``
    on any wire, ``rx`` and ``ry`` on the coin, and ``cu2``/``mcu2`` on the
    coin controlled by every position wire, each of which must then hold its
    own bit of k, so that the gate touches the one node its controls select.
    Any other gate, or a circuit that does not end with every position wire
    back to its own bit and the frame the identity, is refused with
    ``coin-not-block-diagonal``.
    """
    n = circuit.registers.n
    one, low = 1 << n, (1 << n) - 1
    mask = [0] + [1 << p for p in range(n)]  # wire 1 + p holds bit p of k
    a = 0
    phase: dict[int, float] = {}
    run: dict[int, float] = {}  # the pending rotations about one axis
    axis = None
    blocks = np.tile(np.eye(2, dtype=complex), (1 << n, 1, 1))

    def add(series: dict, m: int, angle: float) -> None:
        """Add the term ``angle * (-1)^(m . (k, 1))`` to a series over k."""
        series[m & low] = series.get(m & low, 0.0) + (-angle if m & one else angle)

    def summed(series: dict) -> np.ndarray:
        values = np.zeros(1 << n)
        values[list(series)] = list(series.values())
        return walsh_mod._fwht(values)

    def flush() -> None:
        nonlocal blocks
        if run:
            half = summed(run)[:, None, None] / 2
            pauli = walsh_mod._PAULI[axis[1]]
            blocks = (np.cos(half) * np.eye(2) - 1j * np.sin(half) * pauli) @ blocks
            run.clear()

    for index, gate in enumerate(circuit.gates):
        kind, controls, t = gate.kind, gate.controls, gate.targets[0]
        if kind in ("rx", "ry", "rz") and t == 0:
            if kind != axis:
                flush()
                axis = kind
            add(run, 0 if kind == "rx" else a, gate.angle)  # X flips ry and rz, not rx
        elif kind == "rz":
            add(phase, mask[t], -gate.angle / 2)
        elif kind == "x":
            if t == 0:
                a ^= one
            else:
                mask[t] ^= one
        elif kind == "cnot" and controls[0] != 0:
            if t == 0:
                a ^= mask[controls[0]]
            else:
                mask[t] ^= mask[controls[0]]
        elif kind in ("cu2", "mcu2") and t == 0 and len(controls) == n:
            node = 0
            for w in controls:
                if mask[w] & low != 1 << (w - 1):
                    raise _not_block_diagonal(
                        f"gate {index} ({kind}) is controlled by wire {w}, "
                        "which holds a parity of other position bits")
                node |= (0 if mask[w] & one else 1) << (w - 1)
            flush()
            u = gate.matrix
            if (a & (node | one)).bit_count() & 1:
                u = u[::-1, ::-1]  # X u X
            blocks[node] = u @ blocks[node]
        else:
            raise _not_block_diagonal(
                f"gate {index} ({kind} on wires {gate.wires}) is not a walk-layout coin gate")
    for w in range(1, n + 1):
        if mask[w] != 1 << (w - 1):
            raise _not_block_diagonal(f"position wire {w} does not end holding its own bit")
    if a:
        raise _not_block_diagonal("the coin's Pauli frame does not end as the identity")
    flush()
    return blocks * np.exp(1j * (summed(phase) + circuit.global_phase))[:, None, None]


def collapse(circuit: Circuit) -> tuple[np.ndarray, float]:
    """The ``(2^n, 2, 2)`` coin array a coin circuit applies, and its residual.

    A ``linear-ancilla`` circuit is read over bit columns
    (:func:`linear.coin_blocks`), its residual the largest amplitude that
    does not come home.
    A walk-layout one is read as parity frames (:func:`_read_frames`), and
    its residual is 0.0: the reading is exact, and it certifies that the
    circuit is block-diagonal by its structure, refusing with
    ``coin-not-block-diagonal`` a circuit it cannot certify.  A walk-layout
    circuit is still held to the dense vector cap.
    """
    if circuit.registers.layout == "linear-ancilla":
        return linear_mod.coin_blocks(circuit)
    statevec.check_dense_vector(circuit.num_wires, "a coin collapse")
    return _read_frames(circuit), 0.0


def _probe(size: int) -> np.ndarray:
    """The seeded complex Gaussian probe vector of ``size`` entries."""
    rng = np.random.default_rng(_PROBE_SEED)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def coin_deviation(circuit: Circuit, coins: np.ndarray) -> float:
    """``max|U z - blockdiag(coins) z| / max|z|`` for a coin circuit ``U`` run
    on the seeded probe ``z``: a check of ``U`` against ``coins`` by
    simulation, independent of :func:`collapse`'s reading, which any other
    ``U`` fails with probability one.  A walk-layout circuit runs through the
    dense kernel.  A linear-ancilla one runs through the sparse kernel, ``z``
    spread over its ``2^(n+1)`` data inputs with every ancilla at |0>; any
    amplitude left off them counts whole (:func:`linear.check_collapse_budget`
    holds its rows)."""
    if circuit.registers.layout == "linear-ancilla":
        return _linear_probe_deviation(circuit, coins)
    return _probe_deviation(circuit, lambda z: _apply_coins(coins, z))


def _linear_probe_deviation(circuit: Circuit, coins: np.ndarray) -> float:
    regs = circuit.registers
    linear_mod.check_collapse_budget(regs.n)
    z = _probe(2 << regs.n)
    data = {regs.embed(j >> 1, j & 1): j for j in range(z.size)}
    out = statevec.apply_circuit(statevec.SparseState(regs.num_wires, dict(zip(data, z))), circuit)
    got = np.zeros_like(z)
    off = 0.0
    for index, amp in out.items():
        j = data.get(index)
        if j is None:
            off = max(off, abs(amp))
        else:
            got[j] = amp
    got *= np.exp(1j * circuit.global_phase)
    return max(float(np.max(np.abs(got - _apply_coins(coins, z)))), off) / float(np.max(np.abs(z)))


def shift_deviation(circuit: Circuit) -> float:
    """``max|S z - rolls(z)| / max|z|`` for a walk-layout shift circuit ``S``,
    the seeded probe ``z`` and the shift of :func:`matrix_oracle_run`."""
    return _probe_deviation(circuit, _shift_rolls)


def _probe_deviation(circuit: Circuit, expected) -> float:
    """``max|U z - expected(z)| / max|z|`` for a walk-layout circuit ``U``, its
    tracked global phase included, run through the dense kernel on a seeded
    complex Gaussian probe ``z`` over its wires.  A shift circuit tracks no
    phase, so for it the phase factor is exactly 1."""
    q = circuit.num_wires
    statevec.check_dense_vector(q, "a probe")
    z = _probe(1 << q)
    got = np.exp(1j * circuit.global_phase) * statevec.circuit_unitary(circuit, z.copy())
    return float(np.max(np.abs(got - expected(z)))) / float(np.max(np.abs(z)))


def _read_shift(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """``(source, phase)`` with ``S v == phase * v[source]`` for a walk-layout
    shift circuit ``S``.

    ``S`` runs once through the dense kernel on three columns: the labels
    ``1..2N``, which a permutation with phases carries to
    ``phase * (source + 1)``, the all-ones vector, which it carries to
    ``phase``, and the seeded probe ``z``.  The phases are read from the ones
    column, not as ``label / (source + 1)``: the labels' rounding error scales
    with the largest label, so the small labels would carry relative phase
    errors near 1e-12 into every step.  The reading is
    refused with ``shift-not-permutation`` unless ``source`` is a permutation
    and ``max|S z - phase * z[source]| / max|z|`` is within :data:`SHIFT_TOL`,
    which any other ``S`` fails with probability one.
    """
    size = 1 << circuit.num_wires
    z = _probe(size)
    out = statevec.apply_circuit(np.column_stack([np.arange(1.0, size + 1), np.ones(size), z]), circuit)
    source = np.rint(np.abs(out[:, 0])).astype(np.intp) - 1
    if not np.array_equal(np.sort(source), np.arange(size)):
        raise ToolkitError("shift-not-permutation", "the shift circuit does not permute the basis")
    phase = out[:, 1]
    deviation = float(np.max(np.abs(out[:, 2] - phase * z[source]))) / float(np.max(np.abs(z)))
    if not deviation <= SHIFT_TOL:
        raise ToolkitError(
            "shift-not-permutation", f"the probe deviates {deviation:.3e} from the permutation read")
    return source, phase


def _coin_array(config: WalkConfig) -> np.ndarray:
    """The walk's ``(2^n, 2, 2)`` coin array: the field, or its builder's circuit collapsed."""
    if config.coin_builder == "dense-oracle":
        return config.field.coins
    coins, residual = collapse(build_coin(config.coin_builder, config.field, config.truncation))
    if not residual <= CONSTRUCTIONS[config.coin_builder]:
        raise ToolkitError(
            "ancilla-residual" if config.coin_builder == "linear" else "coin-not-block-diagonal",
            f"coin circuit leaves residual {residual:.3e}",
        )
    return coins


def run(config: WalkConfig) -> WalkResult:
    """Evolve per step as coin then shift; exact marginals, optional sampling."""
    statevec.check_dense_vector(config.n + 1, "the walk layout")
    source, phase = _read_shift(shift_mod.build_shift(config.shift_scheme, config.n))
    vec = _evolve(initial_state(config), config.steps, _coin_array(config),
                  lambda v: _norm_checked(phase * v[source]))
    probs = _marginal_walk(vec)
    return WalkResult(Distribution(probs, _sample(probs, config)), vec)


# -- serialization -------------------------------------------------------------


def config_to_json(config: WalkConfig) -> dict:
    return {
        "n": config.n,
        "steps": config.steps,
        "coin_builder": config.coin_builder,
        "shift_scheme": config.shift_scheme,
        "truncation": config.truncation,
        "initial": config.initial,
        "shots": config.shots,
        "seed": config.seed,
        "field": _field_to_json(config.field),
    }


def _field_to_json(field: CoinField) -> str:
    """The field as a walk config echoes it: its parametric form, a dirac
    field's parameters or a k-params field's angles, when reading that text
    back rebuilds coins equal to ``field.coins``; else the explicit form
    (:func:`coin_field_to_json`), which formats every number of every coin."""
    kind = field.meta.get("kind")
    if kind == "dirac":
        spec = {"n": field.n, **field.meta}
    elif kind == "k-params" and "angles" in field.meta:
        spec = {"n": field.n, "kind": kind, "angles": field.meta["angles"]}
    else:
        return coin_field_to_json(field)
    try:
        text = json.dumps(spec)
        if np.array_equal(coin_field_from_json(text).coins, field.coins):
            return text
    except (TypeError, ValueError):  # metadata json cannot write, or that does not read back
        pass
    return coin_field_to_json(field)


def _optional(data: dict, key: str, kind: type):
    value = data.get(key)
    return None if value is None else checked(value, kind, key)


def config_from_json(data) -> WalkConfig:
    """A walk config from its JSON object; ``ValueError`` on a malformed field."""
    data = checked(data, dict, "a walk config")
    initial = _optional(data, "initial", dict)
    if initial is not None:
        _optional(initial, "position", int)
        for amp in _optional(initial, "coin", list) or ():
            # a number, or a [re, im] pair of numbers
            for part in amp if isinstance(amp, list) and len(amp) == 2 else [amp]:
                checked(part, float, "a coin amplitude")
    return WalkConfig(
        n=checked(data.get("n"), int, "n"),
        steps=checked(data.get("steps"), int, "steps"),
        field=coin_field_from_json(data.get("field")),
        coin_builder=checked(data.get("coin_builder", "dense-oracle"), str, "coin_builder"),
        shift_scheme=checked(data.get("shift_scheme", "qft"), str, "shift_scheme"),
        truncation=_optional(data, "truncation", int),
        initial=initial,
        shots=_optional(data, "shots", int),
        seed=_optional(data, "seed", int),
    )


def _json_list(values: list) -> str:
    """A list of numbers laid out as ``json.dumps(..., indent=1)`` lays out a
    list one level down, without the pure-Python encoder that ``indent`` selects."""
    return "[\n  " + ",\n  ".join(map(repr, values)) + "\n ]"


def results_to_json(config: WalkConfig, result: WalkResult, tvd_vs_oracle: float | None = None) -> str:
    """The run as JSON: its config, the steps, the final probabilities and any counts and TVD."""
    head = json.dumps({"config": config_to_json(config), "steps": config.steps}, indent=1)
    parts = [head[:-2], f'"probabilities": {_json_list(result.distribution.probabilities.tolist())}']
    if result.distribution.counts is not None:
        parts.append(f'"counts": {_json_list(result.distribution.counts.tolist())}')
    if tvd_vs_oracle is not None:
        parts.append(f'"tvd_vs_oracle": {json.dumps(tvd_vs_oracle)}')
    return ",\n ".join(parts) + "\n}"


def results_to_csv(result: WalkResult) -> str:
    lines = ["k,p_k,count"]
    counts = result.distribution.counts
    for k, p in enumerate(result.distribution.probabilities):
        c = "" if counts is None else str(int(counts[k]))
        lines.append(f"{k},{float(p)!r},{c}")
    return "\n".join(lines) + "\n"
