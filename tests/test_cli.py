"""Command-line interface, exercised in-process plus console-script runs."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from coinwalk import (
    GateInstance,
    circuit_from_json,
    circuit_to_json,
    coin_field_to_json,
    config_to_json,
    from_qasm,
    predicted_depth,
    random_field,
    WalkConfig,
)
from coinwalk import circuit as cir
from coinwalk import coins, compile_circuit, linear, naive, shift, statevec, walk, walsh
from coinwalk.cli import _make_parser, main


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


def test_an_output_is_rewritten_without_o_trunc_and_cut_at_its_new_end(tmp_path, monkeypatch):
    # cli._write never truncates to zero (ext4 flushes such a file on close);
    # a longer old output is cut, so the file holds exactly the new text.
    config = WalkConfig(2, 1, random_field(2, seed=4))
    cfg = write_json(tmp_path / "config.json", config_to_json(config))
    out = tmp_path / "result.json"
    argv = ["walk", "--config", cfg, "--out", str(out)]
    assert main(argv) == 0
    fresh = out.read_bytes()
    out.write_bytes(b"x" * 100_000)
    flags = []
    os_open = os.open
    monkeypatch.setattr(os, "open", lambda path, flag, *rest: flags.append(flag) or os_open(path, flag, *rest))
    assert main(argv) == 0
    assert out.read_bytes() == fresh
    assert flags and not any(flag & os.O_TRUNC for flag in flags)
    assert main(["walk", "--config", cfg, "--out", os.devnull]) == 0  # a device is only written


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


@pytest.mark.parametrize("text", ["3..1", "3", "1..", "..3", "1..2..3", "a..b"])
def test_scaling_refuses_a_malformed_n_range(tmp_path, capsys, text):
    out = tmp_path / "table.csv"
    assert main(["scaling", "--construction", "naive", "--n-range", text, "--out", str(out)]) == 2
    assert "--n-range must read LO..HI" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("truncation", [-2, -1, 3, 100])
def test_build_with_a_truncation_outside_0_to_n_exits_2(tmp_path, coin_spec, capsys, truncation):
    out = tmp_path / "walsh.json"
    argv = ["build", "--construction", "walsh", "--coin", coin_spec, "--out", str(out)]
    assert main(argv + ["--truncation", str(truncation)]) == 2
    assert f"truncation={truncation} is not in [0, 2]" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--truncation", "2"]) == 0


@pytest.mark.parametrize("construction", ["naive", "linear"])
@pytest.mark.parametrize("truncation", [0, 2, 100])
def test_build_with_a_truncation_for_a_non_walsh_construction_exits_2(
        tmp_path, coin_spec, capsys, construction, truncation):
    out = tmp_path / f"{construction}.json"
    argv = ["build", "--construction", construction, "--coin", coin_spec, "--out", str(out)]
    assert main(argv + ["--truncation", str(truncation)]) == 2
    assert f"truncation={truncation} applies only to walsh, not {construction}" in (
        capsys.readouterr().err)
    assert not out.exists()
    assert main(argv) == 0


def test_broken_coin_spec_is_a_usage_error(tmp_path, capsys):
    spec = json.loads(coin_field_to_json(random_field(1, seed=0)))
    spec["coins"][1][0] = [9.0, 0.0]  # breaks unitarity
    path = write_json(tmp_path / "bad.json", spec)
    rc = main(["build", "--construction", "naive", "--coin", path, "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert capsys.readouterr().err == "error: coin 1 is not unitary\n"
    assert not (tmp_path / "x.json").exists()


def test_a_huge_coin_entry_is_a_usage_error_with_no_warning(tmp_path, capsys):
    spec = json.loads(coin_field_to_json(random_field(1, seed=0)))
    spec["coins"][0][0] = [1e300, 0.0]
    path = write_json(tmp_path / "huge.json", spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["build", "--construction", "walsh", "--coin", path, "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert capsys.readouterr().err == "error: coin 0 is not unitary\n"
    assert not (tmp_path / "x.json").exists()


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


@pytest.mark.parametrize(
    "record,text",
    [
        ({"kind": "cnot", "controls": [1], "targets": [1]}, "duplicate-qubit"),
        ({"kind": "cswap", "controls": [0], "targets": [1]}, "gate-arity-mismatch"),
        ({"kind": "x", "targets": [3]}, "index-out-of-range"),
        ({"kind": "u2", "targets": [0], "matrix": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
         "not-unitary"),
        ({"kind": "x", "targets": [0], "angle": 0.3}, "x takes no angle"),
    ],
    ids=["duplicate-wire", "wrong-arity", "wire-out-of-range", "non-unitary-matrix", "stray-angle"],
)
def test_a_gate_record_that_breaks_a_gate_rule_exits_2(tmp_path, capsys, record, text):
    # a malformed document exits 2, not 1, the code of a failed verification
    doc = {"format": "coinwalk-circuit/1", "n": 2, "layout": "walk", "metadata": {}, "gates": [record]}
    rc = main(["analyze", "--circuit", write_json(tmp_path / "bad.json", doc)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and text in err


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command,text",
    [
        ("analyze", '{"format": "coinwalk-circuit/1", "n": 1, "layout": "walk", "gates": %s}'),
        ("build", '{"n": 1, "coins": %s}'),
        ("walk", '{"n": 1, "steps": 1, "field": %s}'),
        ("walk", '{"n": 1, "steps": 1, "field": "{\\"n\\": 1, \\"coins\\": %s}"}'),
    ],
    ids=["analyze", "build", "walk", "walk-field-text"],
)
def test_json_nested_past_the_recursion_limit_exits_2(tmp_path, capsys, command, text):
    doc = tmp_path / "deep.json"
    doc.write_text(text % DEEP)
    flag, out = {"analyze": ("--circuit", []), "build": ("--coin", ["--construction", "naive"]),
                 "walk": ("--config", [])}[command]
    argv = [command, flag, str(doc), *out] + ([] if command == "analyze" else ["--out", str(tmp_path / "out.json")])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: JSON nested too deeply") and "Traceback" not in err


@pytest.mark.parametrize("construction,basis", [("walsh", True), ("naive", False)])
def test_analyze_reuses_counts_and_depth_when_the_compile_changes_nothing(
        tmp_path, coin_spec, capsys, monkeypatch, construction, basis):
    out = tmp_path / "c.json"
    main(["build", "--construction", construction, "--coin", coin_spec, "--out", str(out)])
    capsys.readouterr()
    calls = []
    for name in ("depth", "gate_counts"):
        real = getattr(cir, name)
        monkeypatch.setattr(cir, name, lambda c, real=real, name=name: calls.append(name) or real(c))
    assert main(["analyze", "--circuit", str(out), "--compile"]) == 0
    assert sorted(calls) == sorted(["depth", "gate_counts"] * (1 if basis else 2))
    report = json.loads(capsys.readouterr().out)
    circ = circuit_from_json(out.read_text())
    compiled = compile_circuit(circ)
    assert (compiled.gates == circ.gates) is basis
    assert report["compiled"] == {"gates": len(compiled.gates), "gate_counts": cir.gate_counts(compiled),
                                  "depth": cir.depth(compiled)}


def test_shift_verify_past_the_matrix_budget_exits_0(capsys, no_large_matrices):
    # n=13 is 14 wires, inside the qubit cap; a 2^14-square matrix would
    # take 4 GiB, and the probe needs none.
    rc = main(["shift", "--scheme", "qft", "--n", "13", "--verify"])
    assert rc == 0
    assert "max deviation vs permutation oracle" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,code",
    [
        (["walk", "linear", "4"], "dense-limit-exceeded"),
        (["walk", "dense-oracle", "4"], "dense-limit-exceeded"),
        (["verify", "--construction", "naive", "--n", "4"], "dense-limit-exceeded"),
        (["verify", "--construction", "walsh", "--n", "4"], "dense-limit-exceeded"),
        (["shift", "--scheme", "qft", "--n", "4", "--verify"], "dense-limit-exceeded"),
        # 32,782 wires and 2 GiB of probe rows at n=14; the refusal reads n alone
        (["verify", "--construction", "linear", "--n", "14"], "dense-limit-exceeded"),
        (["verify", "--construction", "linear", "--n", "24"], "dense-limit-exceeded"),
    ],
    ids=["linear-walk", "oracle-walk", "verify-naive", "verify-walsh", "shift-verify",
         "verify-linear-14", "verify-linear-24"],
)
def test_a_request_refused_for_its_size_exits_2_before_any_coin_is_built(
    tmp_path, monkeypatch, capsys, argv, code
):
    if argv[0] == "walk":
        n = int(argv[2])
        config = {"n": n, "steps": 1, "coin_builder": argv[1],
                  "field": {"n": n, "kind": "k-params", "seed": 1}}
        argv = ["walk", "--config", write_json(tmp_path / "walk.json", config),
                "--out", str(tmp_path / "out.json")]
    if code == "dense-limit-exceeded":
        # n = 4 puts the walk layout on 5 qubits, over a dense cap of 4
        monkeypatch.setattr(statevec, "DENSE_QUBITS_MAX", 4)

    def refuse(*args, **kwargs):
        raise AssertionError(f"built a coin field or circuit for {argv}")

    for module, name in ((naive, "build_naive"), (linear, "build_linear"), (walsh, "build_walsh_coin")):
        monkeypatch.setattr(module, name, refuse)
    if argv[0] == "verify":  # refused before its field is drawn: 1 GiB of coins at n=24
        monkeypatch.setattr(coins, "random_field", refuse)
    assert main(argv) == 2
    assert capsys.readouterr().err.count(code) == 1


def refuse_square_matrices(monkeypatch):
    def refuse(num_qubits, what):
        raise AssertionError(f"the CLI built a square matrix: {what} on {num_qubits} qubits")

    monkeypatch.setattr(statevec, "check_dense_matrix", refuse)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("construction", ["naive", "linear", "walsh"])
def test_verify_builds_no_square_matrix(monkeypatch, construction, n):
    refuse_square_matrices(monkeypatch)
    assert main(["verify", "--construction", construction, "--n", str(n), "--seed", "5"]) == 0


@pytest.mark.parametrize("scheme", ["qft", "id"])
def test_shift_verify_builds_no_square_matrix(monkeypatch, scheme):
    refuse_square_matrices(monkeypatch)
    assert main(["shift", "--scheme", scheme, "--n", "4", "--verify"]) == 0


def with_gate(build, gate_on):
    def built(*args, **kwargs):
        circuit = build(*args, **kwargs)
        return circuit.extended([gate_on(circuit.registers)])

    return built


def tiny_rx(regs):
    return GateInstance("rx", (), (regs.position(0),), 1e-6)


@pytest.mark.parametrize(
    "construction,module,name,gate_on",
    [
        ("naive", naive, "build_naive", tiny_rx),
        ("walsh", walsh, "build_walsh_coin", tiny_rx),
        ("linear", linear, "build_linear", lambda regs: GateInstance("x", (), (regs.apos(0),))),
        ("linear", linear, "build_linear", tiny_rx),
    ],
    ids=["naive-rx", "walsh-rx", "linear-x-on-ancilla", "linear-rx"],
)
def test_verify_fails_a_coin_circuit_with_one_extra_gate(
    monkeypatch, capsys, construction, module, name, gate_on
):
    monkeypatch.setattr(module, name, with_gate(getattr(module, name), gate_on))
    assert main(["verify", "--construction", construction, "--n", "3", "--seed", "1"]) == 1
    assert "max deviation" in capsys.readouterr().out


def test_verify_reports_a_circuit_the_parity_frames_refuse(monkeypatch, capsys):
    stray = lambda regs: GateInstance("cnot", (regs.position(0),), (regs.coin(),))  # noqa: E731
    monkeypatch.setattr(walsh, "build_walsh_coin", with_gate(walsh.build_walsh_coin, stray))
    assert main(["verify", "--construction", "walsh", "--n", "3"]) == 1
    assert capsys.readouterr().out == (
        "walsh n=3 seed=0: max deviation inf (tolerance 1.0e-09): "
        "the coin's Pauli frame does not end as the identity\n")


@pytest.mark.parametrize("construction,module,name", [("naive", naive, "build_naive"),
                                                      ("walsh", walsh, "build_walsh_coin")])
def test_verify_simulates_the_coin_circuit_besides_reading_it(monkeypatch, construction, module, name):
    # A reading that returned the field's own coins must not pass a changed circuit.
    monkeypatch.setattr(walk, "collapse", lambda circuit: (random_field(3, seed=1).coins, 0.0))
    assert main(["verify", "--construction", construction, "--n", "3", "--seed", "1"]) == 0
    tiny_rz = lambda regs: GateInstance("rz", (), (regs.coin(),), 1e-6)  # noqa: E731
    monkeypatch.setattr(module, name, with_gate(getattr(module, name), tiny_rz))
    assert main(["verify", "--construction", construction, "--n", "3", "--seed", "1"]) == 1


def test_shift_verify_fails_a_tiny_phase(monkeypatch, capsys):
    monkeypatch.setattr(
        shift, "build_shift_qft",
        with_gate(shift.build_shift_qft, lambda regs: GateInstance("p", (), (regs.position(0),), 1e-6)),
    )
    assert main(["shift", "--scheme", "qft", "--n", "3", "--verify"]) == 1
    assert "max deviation vs permutation oracle" in capsys.readouterr().out


def test_parsers_take_their_choices_from_the_owners():
    commands = next(a for a in _make_parser()._actions if a.dest == "command").choices
    choices = {
        (name, action.dest): list(action.choices)
        for name, parser in commands.items()
        for action in parser._actions
        if action.choices is not None
    }
    assert choices == {
        ("build", "construction"): list(walk.CONSTRUCTIONS),
        ("verify", "construction"): list(walk.CONSTRUCTIONS),
        ("scaling", "construction"): list(walk.CONSTRUCTIONS),
        ("shift", "scheme"): list(shift.SCHEMES),
    }


@pytest.mark.parametrize("scheme", ["qft", "id"])
def test_analyze_predicts_the_cost_of_a_shift_circuit(tmp_path, capsys, scheme):
    path = tmp_path / "shift.json"
    path.write_text(circuit_to_json(shift.build_shift(scheme, 3)))
    assert main(["analyze", "--circuit", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    size, depth = shift.predicted_cost(scheme, 3)
    assert report["builder"] == f"shift-{scheme}"
    assert report["predicted_cost"] == {"size": size, "depth": depth}
    assert "predicted_depth" not in report


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
