"""Command-line interface, exercised in-process plus console-script runs."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from coinwalk import (
    circuit_from_json,
    coin_field_to_json,
    config_to_json,
    from_qasm,
    predicted_depth,
    random_field,
    WalkConfig,
)
from coinwalk.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def coin_spec(tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(coin_field_to_json(random_field(2, seed=0)))
    return str(path)


def test_build_writes_circuit_json(tmp_path, coin_spec, capsys):
    out = tmp_path / "naive.json"
    rc = main(["build", "--construction", "naive", "--coin", coin_spec, "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    circ = circuit_from_json(out.read_text())
    assert circ.metadata["builder"] == "naive"
    assert circ.registers.n == 2


def test_build_emits_compiled_qasm(tmp_path, coin_spec):
    out, qasm_path = tmp_path / "walsh.json", tmp_path / "walsh.qasm"
    rc = main(
        [
            "build",
            "--construction",
            "walsh",
            "--coin",
            coin_spec,
            "--out",
            str(out),
            "--qasm",
            str(qasm_path),
        ]
    )
    assert rc == 0
    text = qasm_path.read_text()
    assert text.startswith("OPENQASM 2.0;")
    assert from_qasm(text).registers.n == 2


def test_analyze_reports_counts_and_predictions(tmp_path, coin_spec, capsys):
    out = tmp_path / "linear.json"
    main(["build", "--construction", "linear", "--coin", coin_spec, "--out", str(out)])
    capsys.readouterr()
    rc = main(["analyze", "--circuit", str(out), "--compile"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["builder"] == "linear"
    assert report["layout"] == "linear-ancilla"
    assert report["predicted_depth"] == predicted_depth(2)
    assert report["depth"] <= report["predicted_depth"]
    assert report["compiled"]["gates"] >= report["gates"]
    assert sum(report["gate_counts"].values()) == report["gates"]


@pytest.mark.parametrize("construction", ["naive", "linear", "walsh"])
def test_verify_passes_for_each_construction(construction, capsys):
    rc = main(["verify", "--construction", construction, "--n", "2", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max deviation" in out


def test_walk_reports_oracle_distance(tmp_path, capsys):
    config = WalkConfig(
        2,
        3,
        random_field(2, seed=4),
        coin_builder="walsh",
        initial={"position": 1},
        shots=64,
        seed=9,
    )
    cfg = write_json(tmp_path / "config.json", config_to_json(config))
    out = tmp_path / "result.json"
    extra = tmp_path / "extra.csv"
    rc = main(["walk", "--config", cfg, "--out", str(out), "--csv", str(extra)])
    assert rc == 0
    assert "tvd vs oracle" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["tvd_vs_oracle"] <= 1e-10
    assert sum(payload["counts"]) == 64
    assert extra.read_text().startswith("k,p_k,count")


def test_walk_csv_extension_switches_format(tmp_path):
    config = WalkConfig(2, 1, random_field(2, seed=4))
    cfg = write_json(tmp_path / "config.json", config_to_json(config))
    out = tmp_path / "result.csv"
    assert main(["walk", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,p_k,count"
    assert len(lines) == 5


def test_scaling_table(tmp_path):
    out = tmp_path / "linear.csv"
    rc = main(
        ["scaling", "--construction", "linear", "--n-range", "1..3", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,gates,depth,gates_compiled,depth_compiled,predicted"
    assert len(lines) == 4
    for line, n in zip(lines[1:], (1, 2, 3)):
        cells = line.split(",")
        assert int(cells[0]) == n
        assert int(cells[4]) >= int(cells[2])  # compiled depth counts basis gates
        assert int(cells[5]) == predicted_depth(n)

    naive_out = tmp_path / "naive.csv"
    main(["scaling", "--construction", "naive", "--n-range", "1..2", "--out", str(naive_out)])
    assert all(line.endswith(",") for line in naive_out.read_text().strip().splitlines()[1:])


def test_shift_report_and_verification(capsys):
    rc = main(["shift", "--scheme", "qft", "--n", "3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["predicted_cost"] == {"size": 22, "depth": 9}
    assert report["gates_compiled"] >= report["gates"]

    rc = main(["shift", "--scheme", "id", "--n", "2", "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max deviation vs permutation oracle" in out


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    rc = main(["analyze", "--circuit", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_broken_coin_spec_maps_to_toolkit_error(tmp_path, capsys):
    spec = json.loads(coin_field_to_json(random_field(1, seed=0)))
    spec["coins"][0][0] = [9.0, 0.0]  # breaks unitarity
    path = write_json(tmp_path / "bad.json", spec)
    rc = main(["build", "--construction", "naive", "--coin", path, "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "error [not-unitary]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(layout="ring"),
        lambda doc: doc["gates"].append({"kind": "rz", "targets": [0], "angle": "abc"}),
        lambda doc: doc["gates"].append({"kind": "x", "targets": 0}),
    ],
    ids=["unknown-layout", "string-angle", "integer-targets"],
)
def test_bad_circuit_json_is_a_usage_error(tmp_path, capsys, edit):
    doc = {"format": "coinwalk-circuit/1", "n": 2, "layout": "walk", "metadata": {}, "gates": []}
    edit(doc)
    rc = main(["analyze", "--circuit", write_json(tmp_path / "bad.json", doc)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_shift_verify_over_the_matrix_budget_exits_1(capsys, monkeypatch, no_large_matrices):
    # n=13 is 14 wires, inside the default qubit cap, but each 2^14-square
    # matrix would take 4 GiB.
    monkeypatch.delenv("QWALK_DENSE_LIMIT", raising=False)
    rc = main(["shift", "--scheme", "qft", "--n", "13", "--verify"])
    assert rc == 1
    assert "error [dense-limit-exceeded]" in capsys.readouterr().err


def test_unknown_choice_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--construction", "magic", "--coin", "x", "--out", "y"])
    assert exc.value.code == 2


REPO_ROOT = Path(__file__).resolve().parents[1]
SHIFT_ARGS = ["shift", "--scheme", "qft", "--n", "2"]


def assert_shift_report(proc):
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["scheme"] == "qft"


def test_console_script_entry_point(tmp_path):
    """Run the `coinwalk` entry point declared in pyproject.toml as pip's
    generated wrapper would, in a fresh interpreter on this checkout's src."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["coinwalk"]
    module, attr = entry.split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'coinwalk'\n"
        f"sys.exit({attr}())\n"
    )
    # This checkout's src goes ahead of any installed copy, and tmp_path as
    # cwd keeps the interpreter from importing from the invoking directory.
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *SHIFT_ARGS],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert_shift_report(proc)


@pytest.mark.skipif(
    shutil.which("coinwalk") is None, reason="coinwalk console script not on PATH"
)
def test_installed_console_script(tmp_path):
    proc = subprocess.run(
        [shutil.which("coinwalk"), *SHIFT_ARGS],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert_shift_report(proc)
