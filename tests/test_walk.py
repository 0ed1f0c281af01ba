"""End-to-end walk runner: backends against the matrix oracle."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coinwalk.walk as walk_module
from coinwalk import (
    GateInstance,
    ToolkitError,
    WalkConfig,
    build_linear,
    build_naive,
    build_walsh_coin,
    config_from_json,
    config_to_json,
    full_unitary,
    identity_field,
    initial_state,
    matrix_oracle_run,
    random_field,
    results_to_csv,
    results_to_json,
    run,
    shift_permutation_matrix,
    total_coin_matrix,
    tvd,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def oracle(config):
    return matrix_oracle_run(config.field, config.steps, initial_state(config))


INITIAL = {"position": 1, "coin": [[0.7071067811865476, 0.0], [0.0, 0.7071067811865476]]}


# -- reference evolution -----------------------------------------------------


def test_identity_coin_single_step_moves_by_coin_value():
    # Coin 0 steps down, coin 1 steps up; identity coins leave it classical.
    n = 2
    field = identity_field(n)
    down = WalkConfig(n, 1, field, initial={"position": 0, "coin": [1, 0]})
    up = WalkConfig(n, 1, field, initial={"position": 0, "coin": [0, 1]})
    assert np.allclose(oracle(down).distribution.probabilities, [0, 0, 0, 1])
    assert np.allclose(oracle(up).distribution.probabilities, [0, 1, 0, 0])


def test_oracle_history_tracks_every_step():
    config = WalkConfig(2, 5, random_field(2, seed=0), initial=INITIAL)
    result = oracle(config)
    assert len(result.history) == 6
    assert np.allclose(result.history[-1], result.distribution.probabilities)
    for marginal in result.history:
        assert marginal.sum() == pytest.approx(1.0, abs=1e-10)


def test_oracle_respects_dense_cap(monkeypatch):
    monkeypatch.setenv("QWALK_DENSE_LIMIT", "3")
    config = WalkConfig(3, 1, random_field(3, seed=1))
    with pytest.raises(ToolkitError) as err:
        oracle(config)
    assert err.value.code == "dense-limit-exceeded"


def test_oracle_matches_dense_matrix_product():
    for n in range(1, 6):
        config = WalkConfig(n, 7, random_field(n, seed=40 + n), initial=INITIAL)
        w = shift_permutation_matrix(n) @ total_coin_matrix(config.field)
        want = np.linalg.matrix_power(w, config.steps) @ initial_state(config)
        got = oracle(config).final_state
        assert np.max(np.abs(got - want)) <= 1e-12


# -- coin collapse -----------------------------------------------------------


@pytest.mark.parametrize(
    "extra",
    [GateInstance("x", (), (1,)), GateInstance("rx", (), (2,), 1e-6)],
    ids=["x-on-position", "tiny-rx-on-position"],
)
def test_collapse_rejects_a_coin_off_the_blocks(monkeypatch, extra):
    monkeypatch.setattr(
        walk_module.naive_mod, "build_naive", lambda field: build_naive(field).extended([extra])
    )
    config = WalkConfig(2, 1, random_field(2, seed=9), coin_builder="naive")
    with pytest.raises(ToolkitError) as err:
        run(config)
    assert err.value.code == "coin-not-block-diagonal"


def test_collapse_rejects_a_circuit_off_the_walk_layout():
    field = random_field(2, seed=9)
    for circuit, n in ((build_naive(field), 3), (build_linear(field), 2)):
        with pytest.raises(ToolkitError) as err:
            walk_module._collapse_coin(circuit, n)
        assert err.value.code == "coin-not-block-diagonal"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "build",
    [build_naive, build_walsh_coin, lambda field: build_walsh_coin(field, m=min(2, field.n))],
    ids=["naive", "walsh", "walsh-m2"],
)
def test_collapse_matches_full_unitary_blocks(n, build):
    # Walsh circuits carry a nonzero tracked global phase: the collapse must apply it.
    circuit = build(random_field(n, seed=60 + n))
    u = full_unitary(circuit)
    want = np.array([u[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] for k in range(1 << n)])
    got = walk_module._collapse_coin(circuit, n)
    assert np.max(np.abs(got - want)) <= 1e-12


# -- runtime invariants ------------------------------------------------------


@pytest.mark.parametrize("builder", ["dense-oracle", "naive", "linear"])
def test_norm_drift_raises(monkeypatch, builder):
    monkeypatch.setattr(walk_module, "_NORM_SLACK", -1.0)
    with pytest.raises(ToolkitError) as err:
        run(WalkConfig(2, 1, random_field(2, seed=4), coin_builder=builder))
    assert err.value.code == "norm-drift"


def test_ancilla_residual_raises(monkeypatch):
    monkeypatch.setattr(walk_module, "_ANCILLA_SLACK", -1.0)
    with pytest.raises(ToolkitError) as err:
        run(WalkConfig(2, 1, random_field(2, seed=4), coin_builder="linear"))
    assert err.value.code == "ancilla-residual"


def test_norm_check_raises_under_python_O(tmp_path):
    code = "\n".join([
        "import coinwalk.walk as w",
        "from coinwalk import ToolkitError, identity_field",
        "w._NORM_SLACK = -1.0",
        "print(__debug__)",
        "try:",
        "    w.run(w.WalkConfig(2, 1, identity_field(2)))",
        "except ToolkitError as exc:",
        "    print(exc.code)",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "norm-drift"]


def test_dense_oracle_walk_memory(tmp_path):
    # A dense 2^(n+1) square matrix at n=11 is 268 MB; the walk needs none.
    pytest.importorskip("resource")
    n = 11
    config_path = tmp_path / "walk.json"
    config_path.write_text(json.dumps(config_to_json(WalkConfig(n, 3, random_field(n, seed=1)))))
    walk_cmd = [
        sys.executable, "-m", "coinwalk.cli", "walk",
        "--config", str(config_path), "--out", str(tmp_path / "out.json"),
    ]
    # a wrapper process, so RUSAGE_CHILDREN sees this walk and no other child
    measure = (
        "import resource, subprocess, sys; "
        "code = subprocess.run(sys.argv[1:]).returncode; "
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", measure, *walk_cmd],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, maxrss_kb = (int(v) for v in proc.stdout.split()[-2:])
    assert code == 0, proc.stderr
    assert maxrss_kb * 1024 < 200 * 10**6, f"walk peak RSS {maxrss_kb / 1024:.0f} MiB"


# -- backends agree ----------------------------------------------------------


@pytest.mark.parametrize("scheme", ["qft", "id"])
@pytest.mark.parametrize("builder", ["dense-oracle", "naive", "walsh", "linear"])
def test_backends_match_oracle(builder, scheme):
    for n in (2, 3):
        field = random_field(n, seed=17 + n)
        config = WalkConfig(
            n, 4, field, coin_builder=builder, shift_scheme=scheme, initial=INITIAL
        )
        got = run(config).distribution.probabilities
        want = oracle(config).distribution.probabilities
        assert tvd(got, want) <= 1e-10
        assert np.max(np.abs(got - want)) <= 1e-10


def test_walsh_truncation_degrades_then_recovers():
    n = 3
    field = random_field(n, seed=23)
    want = oracle(WalkConfig(n, 3, field, initial=INITIAL)).distribution
    full = run(
        WalkConfig(n, 3, field, coin_builder="walsh", truncation=n, initial=INITIAL)
    ).distribution
    assert tvd(full, want) <= 1e-10
    rough = run(
        WalkConfig(n, 3, field, coin_builder="walsh", truncation=1, initial=INITIAL)
    ).distribution
    assert rough.probabilities.sum() == pytest.approx(1.0, abs=1e-10)


def test_linear_backend_keeps_history_and_state_sparse():
    config = WalkConfig(2, 3, random_field(2, seed=5), coin_builder="linear")
    result = run(config)
    assert len(result.history) == 4
    assert result.final_state.norm() == pytest.approx(1.0, abs=1e-9)


def test_linear_backend_wire_cap():
    # 2^(n+1) + n wires at n = 7 is past the sparse-route cap.
    config = WalkConfig(7, 1, identity_field(7), coin_builder="linear")
    with pytest.raises(ToolkitError) as err:
        run(config)
    assert err.value.code == "backend-infeasible"


# -- initial state -----------------------------------------------------------


def test_initial_state_layout_and_normalization():
    config = WalkConfig(2, 0, identity_field(2), initial={"position": 2, "coin": [1, 1j]})
    vec = initial_state(config)
    assert vec.shape == (8,)
    assert vec[4] == pytest.approx(1 / np.sqrt(2))
    assert vec[5] == pytest.approx(1j / np.sqrt(2))
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_initial_state_defaults_to_origin_coin_zero():
    vec = initial_state(WalkConfig(2, 0, identity_field(2)))
    assert vec[0] == 1.0 and np.linalg.norm(vec) == 1.0


@pytest.mark.parametrize("builder", ["dense-oracle", "linear"])
def test_initial_position_bounds(builder):
    config = WalkConfig(
        2, 1, identity_field(2), coin_builder=builder, initial={"position": 4}
    )
    with pytest.raises(ToolkitError) as err:
        run(config)
    assert err.value.code == "index-out-of-range"


def test_zero_coin_amplitudes_rejected():
    config = WalkConfig(2, 0, identity_field(2), initial={"coin": [0, 0]})
    with pytest.raises(ValueError):
        initial_state(config)


# -- config validation -------------------------------------------------------


def test_config_guards():
    field = identity_field(2)
    with pytest.raises(ValueError):
        WalkConfig(2, -1, field)
    with pytest.raises(ValueError):
        WalkConfig(2, 1, field, coin_builder="grover")
    with pytest.raises(ValueError):
        WalkConfig(2, 1, field, shift_scheme="swap")
    with pytest.raises(ValueError):
        WalkConfig(2, 1, field, shots=0)
    with pytest.raises(ValueError):
        WalkConfig(3, 1, field)


def test_tvd_values():
    assert tvd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert tvd(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    with pytest.raises(ValueError):
        tvd(np.zeros(2), np.zeros(4))


# -- sampling ----------------------------------------------------------------


def test_sampling_is_seeded_and_consistent():
    config = WalkConfig(
        2, 3, random_field(2, seed=2), shots=500, seed=42, initial=INITIAL
    )
    first = run(config).distribution.counts
    second = run(config).distribution.counts
    assert first is not None and first.sum() == 500
    assert np.array_equal(first, second)


def test_no_shots_means_no_counts():
    config = WalkConfig(2, 1, random_field(2, seed=2))
    assert run(config).distribution.counts is None


# -- serialization -----------------------------------------------------------


def test_config_round_trip():
    config = WalkConfig(
        3,
        5,
        random_field(3, seed=8),
        coin_builder="walsh",
        shift_scheme="id",
        truncation=2,
        initial={"position": 3, "coin": [[1, 0], [0, 1]]},
        shots=100,
        seed=7,
    )
    data = json.loads(json.dumps(config_to_json(config)))
    back = config_from_json(data)
    assert config_to_json(back) == config_to_json(config)
    assert np.allclose(
        run(back).distribution.probabilities, run(config).distribution.probabilities
    )


def test_results_json_payload():
    config = WalkConfig(2, 2, random_field(2, seed=3), shots=50, seed=1)
    result = run(config)
    payload = json.loads(results_to_json(config, result, tvd_vs_oracle=0.0))
    assert payload["steps"] == 2
    assert len(payload["probabilities"]) == 4
    assert sum(payload["counts"]) == 50
    assert payload["tvd_vs_oracle"] == 0.0
    assert payload["config"]["coin_builder"] == "dense-oracle"
    bare = json.loads(results_to_json(config, run(WalkConfig(2, 2, config.field))))
    assert "counts" not in bare and "tvd_vs_oracle" not in bare


def test_results_csv_layout():
    config = WalkConfig(2, 1, random_field(2, seed=3))
    text = results_to_csv(run(config))
    lines = text.strip().splitlines()
    assert lines[0] == "k,p_k,count"
    assert len(lines) == 5
    # no shots: count column stays empty but the comma survives
    assert lines[1].endswith(",")
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
