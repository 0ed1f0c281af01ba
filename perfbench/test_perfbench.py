"""Tests of the benchmark itself: counts repeat, references and checks hold.

Run from the repository root with ``python3 -m pytest -q perfbench``.
No test asserts a timing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from coinwalk import coins, shift, statevec, walk, walsh  # noqa: E402
from workloads import Compile, Verify, Walk  # noqa: E402

# Every operation kind of the three workloads, at small n.
SMALL_ROUND = (
    Walk("walk.walsh", 3, "walsh", "qft", 4),
    Walk("walk.naive", 3, "naive", "id", 4),
    Walk("walk.trap", 5, "walsh", "id", 6, truncation=2, trap=True),
    Verify("verify.linear", "linear", 2),
    Walk("walk.linear", 2, "linear", "id", 4),
    Compile("compile.naive", "naive", 3),
    Compile("compile.walsh", "walsh", 4),
    Compile("compile.linear", "linear", 2),
    Verify("verify.naive", "naive", 3),
    Verify("verify.walsh", "walsh", 3),
)

COUNT_SUFFIXES = (".calls", ".gates", ".peak_support", ".kept_ratio", ".attempted")


def _traced_round(seed: int, work: Path) -> dict[str, float]:
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.current_op = -1
        ops = workloads.prepare("", seed, work, SMALL_ROUND)
        samples = workloads.run_rounds(ops, 0.0, tracer)
    finally:
        uninstall()
    assert [s.op for s in samples] == [spec.name for spec in SMALL_ROUND]
    assert [s.error for s in samples] == [None] * len(samples)
    values, errors = tracing.round_values(tracer, samples)
    # CLI_SHARE_MAX fits the workloads' sizes; at small n the CLI's own
    # parsing and verify loop weigh more, so only nesting is checked here.
    assert [e for e in errors if e and "negative" in e] == []
    for key in ("basis_gates", "basis_depth"):
        values[key] = workloads.round_count(samples, key)
    return values


def test_counts_repeat_across_traced_runs(tmp_path):
    first = _traced_round(5, tmp_path)
    second = _traced_round(5, tmp_path)
    counts = {k for k in first if k.endswith(COUNT_SUFFIXES) or k.startswith("basis_")}
    assert {"statevec.apply_gate.calls", "statevec.sparse_apply.calls", "statevec.circuit_unitary.calls",
            "walsh.gray.kept_ratio", "statevec.sparse.peak_support", "basis_gates"} <= counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["basis_gates"] > 0 and first["statevec.sparse.peak_support"] > 0


def _one_op_trace(children):
    """A tracer holding one operation: a 1 s ``cli`` span and the given child spans."""
    tracer = tracing.Tracer()
    tracer.current_op = 0
    root = tracer.begin("cli")
    for name, start, end in children:
        tracer.finish(tracer.begin(name))
        tracer.start[-1], tracer.end[-1] = start, end
    tracer.finish(root)
    tracer.start[root], tracer.end[root] = 0.0, 1.0
    return tracer, [workloads.Sample("op", 1.0, None)]


def test_span_checks_catch_a_lost_layer_and_broken_nesting():
    covered = _one_op_trace([("walk.run", 0.0, 0.9)])
    assert tracing.round_values(*covered)[1] == [None]
    lost = _one_op_trace([])
    assert "cli.self_s" in tracing.round_values(*lost)[1][0]
    overlapping = _one_op_trace([("walk.run", 0.0, 0.7), ("walk.run", 0.2, 0.9)])
    assert "negative" in tracing.round_values(*overlapping)[1][0]


def test_tracing_leaves_no_wrapper_behind():
    before = (statevec.apply_gate, statevec.SparseState.apply_gate, walk.run, walk.total_coin_matrix)
    tracing.install(tracing.Tracer())()
    assert (statevec.apply_gate, statevec.SparseState.apply_gate, walk.run, walk.total_coin_matrix) == before


def test_reference_walk_matches_matrix_oracle():
    field = coins.random_field(4, seed=3)
    config = walk.WalkConfig(4, 7, field, initial={"position": 5, "coin": [[0.6, 0], [0, 0.8]]})
    oracle = walk.matrix_oracle_run(field, shift.shift_permutation_matrix(4), 7, walk.initial_state(config))
    mine = reference.walk_distribution(field.coins, 7, 5, np.array([0.6, 0.8j]))
    assert reference.tvd(mine, oracle.distribution.probabilities) <= 1e-12


def test_truncated_reference_matches_walsh_circuit():
    field = coins.dirac_field(5, 1.0, 0.5, 1.0, 50.0)
    u = statevec.full_unitary(walsh.build_walsh_coin(field, m=2))
    circuit_coins = np.array([u[2 * k:2 * k + 2, 2 * k:2 * k + 2] for k in range(32)])
    mine = reference.truncated_walsh_coins(field.euler_angles(), 2)
    assert np.max(np.abs(mine - circuit_coins)) <= 1e-12
    assert np.max(np.abs(mine - field.coins)) > 1e-3  # the cut is not the identity


@pytest.mark.parametrize("construction", ["naive", "walsh", "linear"])
def test_qasm_interpreter_accepts_compiled_coin_and_rejects_a_changed_one(construction, tmp_path):
    field = coins.random_field(2, seed=7)
    coin_path = tmp_path / "coin.json"
    coin_path.write_text(json.dumps(workloads.field_spec(field)))
    argvs, qasm_path = workloads.compile_argvs(construction, str(coin_path), tmp_path, construction)
    assert workloads.call_cli(argvs[0])[0] == 0
    text = qasm_path.read_text()
    assert reference.qasm_coin_deviation(text, field.coins) <= reference.QASM_TOL
    changed = field.coins.copy()
    changed[1] = changed[1] @ np.diag([1, 1j])
    assert reference.qasm_coin_deviation(text, changed) > 0.1


def test_checks_reject_wrong_outputs(tmp_path):
    walk_op, verify_op = workloads.prepare("", 2, tmp_path, SMALL_ROUND[:1] + SMALL_ROUND[3:4])
    assert workloads.execute(walk_op).error is None
    out = tmp_path / "walk.walsh.out.json"
    payload = json.loads(out.read_text())
    payload["probabilities"] = list(np.roll(payload["probabilities"], 1))
    out.write_text(json.dumps(payload))
    error, _ = walk_op.check([(0, "")])
    assert error and error.startswith("tvd")
    assert verify_op.check([(1, "max deviation 1")])[0]


def test_reference_depth_bound():
    assert [reference.linear_depth_bound(n) for n in (1, 2, 6)] == [15, 33, 113]


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
