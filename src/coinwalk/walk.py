"""Step composition W = S * C, evolution, and distribution extraction.

The coin circuit may come from any builder.  Walk-layout builders (naive,
Walsh) are collapsed once into their ``(2^n, 2, 2)`` coin array, certified
block-diagonal with a random probe, and each step of the dense vector is then
a batched 2x2 coin followed by the shift circuit.  The linear-ancilla builder
evolves a sparse state on its own layout with the shift gates remapped onto
the principal coin and position wires, relying on the per-step ancilla
restoration that the construction guarantees (and checking it numerically).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ToolkitError
from . import statevec
from .statevec import SparseState
from .circuit import Circuit
# total_coin_matrix is imported for perfbench's tracer test, which reads
# walk.total_coin_matrix.
from .coins import CoinField, coin_field_from_json, coin_field_to_json, total_coin_matrix  # noqa: F401
from . import naive as naive_mod
from . import linear as linear_mod
from . import walsh as walsh_mod
from . import shift as shift_mod

__all__ = [
    "Distribution",
    "WalkConfig",
    "WalkResult",
    "config_from_json",
    "config_to_json",
    "initial_state",
    "matrix_oracle_run",
    "results_to_csv",
    "results_to_json",
    "run",
    "tvd",
]

COIN_BUILDERS = ("naive", "linear", "walsh", "dense-oracle")
SHIFT_SCHEMES = ("qft", "id")

# linear layout needs 2^(n+1)+n wires; past this the bookkeeping is pointless
_MAX_LINEAR_WIRES = 160

_NORM_SLACK = 1e-9
_ANCILLA_SLACK = 1e-8
# largest |U z - blockdiag(B) z| / max|z| a collapsed coin may leave
_COLLAPSE_SLACK = 1e-9
_COLLAPSE_SEED = 20220101


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
        if self.coin_builder not in COIN_BUILDERS:
            raise ValueError(f"unknown coin builder {self.coin_builder!r}")
        if self.shift_scheme not in SHIFT_SCHEMES:
            raise ValueError(f"unknown shift scheme {self.shift_scheme!r}")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1 when sampling")
        if self.field.n != self.n:
            raise ValueError("coin field size does not match n")


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
    final_state: object
    history: list[np.ndarray] = dc_field(default_factory=list)


def tvd(p, q) -> float:
    """Total variation distance (1/2) sum |p_k - q_k|."""
    pa = p.probabilities if isinstance(p, Distribution) else np.asarray(p, dtype=float)
    qa = q.probabilities if isinstance(q, Distribution) else np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError(f"distribution size mismatch {pa.shape} vs {qa.shape}")
    return 0.5 * float(np.abs(pa - qa).sum())


def _coin_amplitudes(spec: dict | None) -> np.ndarray:
    raw = (spec or {}).get("coin", [1, 0])
    amps = np.array(
        [complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c) for c in raw]
    )
    if amps.shape != (2,) or np.linalg.norm(amps) == 0:
        raise ValueError("coin amplitude spec must be two nonzero-norm entries")
    return amps / np.linalg.norm(amps)


def initial_state(config: WalkConfig) -> np.ndarray:
    """Dense walk-layout vector: |position> (x) (coin amplitudes)."""
    n = config.n
    spec = config.initial or {}
    k = int(spec.get("position", 0))
    if not 0 <= k < 1 << n:
        raise ToolkitError("index-out-of-range", f"initial position {k} for n={n}")
    amps = _coin_amplitudes(spec)
    vec = np.zeros(1 << (n + 1), dtype=complex)
    vec[2 * k] = amps[0]
    vec[2 * k + 1] = amps[1]
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


def _check_norm(norm: float) -> None:
    if not abs(norm - 1.0) <= _NORM_SLACK:
        raise ToolkitError("norm-drift", f"norm drifted to {norm}")


def matrix_oracle_run(field: CoinField, steps: int, init: np.ndarray) -> WalkResult:
    """Reference evolution in O(N) per step, no circuits involved.

    Each step applies ``field.coins`` to the amplitude pairs, then rolls the
    coin-0 column one node down and the coin-1 column one node up.
    """
    if field.n + 1 > statevec.dense_limit():
        raise ToolkitError("dense-limit-exceeded", "oracle run needs n under the dense cap")
    vec = np.asarray(init, dtype=complex)
    history = [_marginal_walk(vec)]
    for _ in range(steps):
        pairs = _apply_coins(field.coins, vec).reshape(-1, 2)
        vec = np.stack([np.roll(pairs[:, 0], -1), np.roll(pairs[:, 1], 1)], axis=1).reshape(-1)
        history.append(_marginal_walk(vec))
    return WalkResult(Distribution(history[-1]), vec, history)


def _collapse_coin(circuit: Circuit, n: int) -> np.ndarray:
    """The ``(2^n, 2, 2)`` coin array of a walk-layout coin circuit.

    One pass of the circuit over three columns: coin 0 at every node, coin 1
    at every node, and a complex Gaussian vector ``z``.  The first two give
    each node's coin if the operator is block-diagonal; ``z`` certifies that
    it is (Freivalds): any other operator moves ``U z`` away from
    ``blockdiag(B) z`` with probability one.
    """
    regs = circuit.registers
    if regs.layout != "walk" or regs.num_wires != n + 1:
        raise ToolkitError(
            "coin-not-block-diagonal",
            f"coin circuit on a {regs.layout} layout of {regs.num_wires} wires, not walk n={n}",
        )
    size = 1 << (n + 1)
    rng = np.random.default_rng(_COLLAPSE_SEED)
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    block = np.zeros((size, 3), dtype=complex)
    block[0::2, 0] = 1.0
    block[1::2, 1] = 1.0
    block[:, 2] = z
    statevec._apply_circuit_to_columns(block, circuit)
    block *= np.exp(1j * float(circuit.metadata.get("global_phase", 0.0)))
    coins = block[:, :2].reshape(-1, 2, 2)  # row 2k+i, column j -> coins[k, i, j]
    residual = float(np.max(np.abs(block[:, 2] - _apply_coins(coins, z))))
    if not residual <= _COLLAPSE_SLACK * float(np.max(np.abs(z))):
        raise ToolkitError(
            "coin-not-block-diagonal",
            f"coin circuit leaves residual {residual:.3e} off the 2x2 blocks",
        )
    return coins


def _run_dense_circuit(config: WalkConfig, coin_circuit: Circuit | None) -> WalkResult:
    """Dense walk; the coin is the field itself when no circuit is given."""
    n = config.n
    if n + 1 > statevec.dense_limit():
        raise ToolkitError("dense-limit-exceeded", f"walk layout for n={n} is over the cap")
    shift_circuit = _shift_circuit(config)
    vec = initial_state(config)
    coins = config.field.coins if coin_circuit is None else _collapse_coin(coin_circuit, n)
    history = [_marginal_walk(vec)]
    for _ in range(config.steps):
        vec = statevec.apply_circuit(_apply_coins(coins, vec), shift_circuit)
        _check_norm(float(np.linalg.norm(vec)))
        history.append(_marginal_walk(vec))
    probs = history[-1]
    return WalkResult(Distribution(probs, _sample(probs, config)), vec, history)


def _shift_circuit(config: WalkConfig) -> Circuit:
    if config.shift_scheme == "qft":
        return shift_mod.build_shift_qft(config.n)
    return shift_mod.build_shift_id(config.n)


def _run_linear(config: WalkConfig) -> WalkResult:
    n = config.n
    coin_circuit = linear_mod.build_linear(config.field)
    regs = coin_circuit.registers
    if regs.num_wires > _MAX_LINEAR_WIRES:
        raise ToolkitError(
            "backend-infeasible",
            f"linear layout needs {regs.num_wires} wires, cap {_MAX_LINEAR_WIRES}",
        )
    wire_map = {0: regs.coin()}
    for p in range(n):
        wire_map[1 + p] = regs.position(p)
    shift_gates = [g.remapped(wire_map) for g in _shift_circuit(config).gates]

    ancilla_mask = 0
    for m in range(1 << n):
        ancilla_mask |= 1 << regs.apos(m)
    for m in range(1, 1 << n):
        ancilla_mask |= 1 << regs.acoin(m)

    spec = config.initial or {}
    k = int(spec.get("position", 0))
    if not 0 <= k < 1 << n:
        raise ToolkitError("index-out-of-range", f"initial position {k} for n={n}")
    amps = _coin_amplitudes(spec)
    base = 0
    for p in range(n):
        if (k >> p) & 1:
            base |= 1 << regs.position(p)
    state = SparseState(
        regs.num_wires,
        {base: amps[0], base | (1 << regs.coin()): amps[1]},
    )

    def marginal(s: SparseState) -> np.ndarray:
        probs = np.zeros(1 << n)
        for idx, amp in s.items():
            kk = 0
            for p in range(n):
                if (idx >> regs.position(p)) & 1:
                    kk |= 1 << p
            probs[kk] += abs(amp) ** 2
        return probs

    history = [marginal(state)]
    for _ in range(config.steps):
        state = statevec.apply_circuit(state, coin_circuit)
        residual = max(
            (abs(a) for idx, a in state.items() if idx & ancilla_mask), default=0.0
        )
        if not residual <= _ANCILLA_SLACK:
            raise ToolkitError("ancilla-residual", f"ancilla residual {residual}")
        for g in shift_gates:
            state = state.apply_gate(g.matrix_on_targets(), g.targets, g.controls)
        _check_norm(state.norm())
        history.append(marginal(state))
    probs = history[-1]
    return WalkResult(Distribution(probs, _sample(probs, config)), state, history)


def run(config: WalkConfig) -> WalkResult:
    """Evolve per step as coin then shift; exact marginals, optional sampling."""
    if config.coin_builder == "dense-oracle":
        return _run_dense_circuit(config, None)
    if config.coin_builder == "naive":
        return _run_dense_circuit(config, naive_mod.build_naive(config.field))
    if config.coin_builder == "walsh":
        circuit = walsh_mod.build_walsh_coin(config.field, m=config.truncation)
        return _run_dense_circuit(config, circuit)
    return _run_linear(config)


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
        "field": coin_field_to_json(config.field),
    }


def config_from_json(data: dict) -> WalkConfig:
    field = coin_field_from_json(data["field"])
    return WalkConfig(
        n=int(data["n"]),
        steps=int(data["steps"]),
        field=field,
        coin_builder=data.get("coin_builder", "dense-oracle"),
        shift_scheme=data.get("shift_scheme", "qft"),
        truncation=data.get("truncation"),
        initial=data.get("initial"),
        shots=data.get("shots"),
        seed=data.get("seed"),
    )


def results_to_json(config: WalkConfig, result: WalkResult, tvd_vs_oracle: float | None = None) -> str:
    payload = {
        "config": config_to_json(config),
        "steps": config.steps,
        "probabilities": [float(p) for p in result.distribution.probabilities],
    }
    if result.distribution.counts is not None:
        payload["counts"] = [int(c) for c in result.distribution.counts]
    if tvd_vs_oracle is not None:
        payload["tvd_vs_oracle"] = tvd_vs_oracle
    return json.dumps(payload, indent=1)


def results_to_csv(result: WalkResult) -> str:
    lines = ["k,p_k,count"]
    counts = result.distribution.counts
    for k, p in enumerate(result.distribution.probabilities):
        c = "" if counts is None else str(int(counts[k]))
        lines.append(f"{k},{float(p)!r},{c}")
    return "\n".join(lines) + "\n"
