"""Coined walks on a cycle of 2**n nodes: circuit synthesis and verification.

The walk step is W = S C with C block-diagonal over positions (one 2x2 coin
per node) and S the coin-conditioned cyclic shift.  Three coin constructions
(naive multiplexer, linear-depth with ancillas, Walsh-series rotations), two
shift schemes (QFT conjugation, increment/decrement ripple), a transpiler to
the {Rx, Ry, Rz, P, CNOT} basis, and dense/sparse simulators for checking
everything against matrix oracles.
"""

from .circuit import (
    Circuit,
    GateInstance,
    RegisterMap,
    circuit_from_json,
    circuit_to_json,
    dagger,
    depth,
    gate_counts,
)
from .coins import (
    CoinField,
    coin_field_from_json,
    coin_field_to_json,
    coin_from_k_params,
    dirac_field,
    euler_factorization,
    random_field,
    total_coin_matrix,
)
from .errors import ToolkitError
from .linear import (
    build_linear,
    build_q0,
    build_q1_parallel,
    build_q2,
    coin_blocks,
    predicted_depth,
)
from .naive import build_naive
from .qasm import from_qasm, to_qasm
from .shift import (
    build_shift_id,
    build_shift_qft,
    predicted_cost,
    shift_permutation_matrix,
)
from .statevec import (
    SparseState,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    full_unitary,
)
from .transpile import compile_circuit
from .walk import (
    Distribution,
    WalkConfig,
    WalkResult,
    config_from_json,
    config_to_json,
    initial_state,
    matrix_oracle_run,
    results_to_csv,
    results_to_json,
    run,
    tvd,
)
from .walsh import (
    WalshSeries,
    build_walsh,
    build_walsh_coin,
    derivative_sup_estimate,
    gray_code_optimize,
    truncate,
    truncation_error_bound,
    unwrap_angles,
    walsh_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "apply_circuit",
    "apply_gate",
    "build_linear",
    "build_naive",
    "build_q0",
    "build_q1_parallel",
    "build_q2",
    "build_shift_id",
    "build_shift_qft",
    "build_walsh",
    "build_walsh_coin",
    "Circuit",
    "circuit_from_json",
    "circuit_to_json",
    "circuit_unitary",
    "coin_blocks",
    "coin_field_from_json",
    "coin_field_to_json",
    "coin_from_k_params",
    "CoinField",
    "compile_circuit",
    "config_from_json",
    "config_to_json",
    "dagger",
    "depth",
    "derivative_sup_estimate",
    "dirac_field",
    "Distribution",
    "euler_factorization",
    "from_qasm",
    "full_unitary",
    "gate_counts",
    "GateInstance",
    "gray_code_optimize",
    "initial_state",
    "matrix_oracle_run",
    "predicted_cost",
    "predicted_depth",
    "random_field",
    "RegisterMap",
    "results_to_csv",
    "results_to_json",
    "run",
    "shift_permutation_matrix",
    "SparseState",
    "to_qasm",
    "ToolkitError",
    "total_coin_matrix",
    "truncate",
    "truncation_error_bound",
    "tvd",
    "unwrap_angles",
    "WalkConfig",
    "WalkResult",
    "walsh_coefficients",
    "WalshSeries",
]
