"""Malformed input documents raise ValueError or ToolkitError, never another error."""

import copy
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    Circuit,
    GateInstance,
    RegisterMap,
    ToolkitError,
    circuit_from_json,
    circuit_to_json,
    coin_field_from_json,
    coin_field_to_json,
    compile_circuit,
    from_qasm,
    random_field,
    to_qasm,
)
from coinwalk import WalkConfig, coins, config_from_json, config_to_json, initial_state
from coinwalk import linear, naive, shift
from coinwalk.cli import main
from coinwalk.statevec import DOCUMENT_N_MAX, check_document_n

def circuit_doc():
    circ = Circuit(
        RegisterMap.walk(2),
        [
            GateInstance("cnot", controls=(1,), targets=(0,)),
            GateInstance("rz", targets=(2,), angle=0.5),
            GateInstance("u2", targets=(1,), matrix=[[0, 1], [1, 0]], label="x"),
        ],
        {"builder": "test", "global_phase": 0.25,
         "walsh": {"sigma": "z", "terms": [[1, 0.5]], "optimized": False}},
    )
    return json.loads(circuit_to_json(circ))


def coin_docs():
    explicit = json.loads(coin_field_to_json(random_field(1, seed=0)))
    return [
        explicit,
        {"n": 1, "kind": "k-params", "seed": 3},
        {"n": 1, "kind": "k-params", "angles": [[0.1, 0.2, 0.3, 0.4]] * 2},
        {"n": 1, "kind": "dirac", "mass": 1.0, "step": 0.5, "charge": 1.0, "v0": 2.0},
    ]


def edited(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path,value",
    [
        pytest.param(("gates", 0, "targets"), 0, id="integer-targets"),
        pytest.param(("gates", 0, "controls"), 1, id="integer-controls"),
        pytest.param(("gates", 0, "targets"), "0", id="string-targets"),
        pytest.param(("n",), "2", id="string-n"),
        pytest.param(("n",), True, id="boolean-n"),
        pytest.param(("n",), 2.0, id="float-n"),
        pytest.param(("n",), None, id="null-n"),
        pytest.param(("n",), [2], id="list-n"),
        pytest.param(("gates",), None, id="null-gates"),
        pytest.param(("gates",), {"kind": "x"}, id="object-gates"),
        pytest.param(("gates", 0), "cnot", id="string-gate"),
        pytest.param(("gates", 1, "angle"), [0.5], id="list-angle"),
        pytest.param(("gates", 1, "angle"), {"a": 0.5}, id="object-angle"),
        pytest.param(("gates", 1, "angle"), 10**400, id="huge-integer-angle"),
        pytest.param(("gates", 2, "matrix"), [0.0, 1.0, 1.0, 0.0], id="flat-matrix"),
        pytest.param(("gates", 2, "label"), ["x"], id="list-label"),
        pytest.param(("metadata",), [1, 2], id="list-metadata"),
        pytest.param(("metadata", "walsh"), 5, id="integer-walsh"),
        pytest.param(("metadata", "walsh", "terms"), [5], id="integer-walsh-term"),
        pytest.param(("metadata", "global_phase"), [0.25], id="list-global-phase"),
    ],
)
def test_malformed_circuit_document_is_a_value_error(path, value):
    text = json.dumps(edited(circuit_doc(), path, value))
    with pytest.raises(ValueError):
        circuit_from_json(text)


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


NOT_NUMBERS = [
    pytest.param("1", id="string"),
    pytest.param(True, id="true"),
    pytest.param("nan", id="string-nan"),
    pytest.param(float("nan"), id="nan"),
    pytest.param(float("-inf"), id="infinity"),
]


@pytest.mark.parametrize("value", NOT_NUMBERS)
@pytest.mark.parametrize(
    "doc,path,field",
    [
        pytest.param(0, ("coins", 1, 2, 0), "coins", id="explicit-coin"),
        pytest.param(2, ("angles", 1, 3), "angles", id="k-params-angle"),
        pytest.param(3, ("mass",), "mass", id="dirac-mass"),
    ],
)
def test_a_coin_field_number_that_is_no_finite_number_exits_2(tmp_path, capsys, doc, path, field, value):
    spec = write_doc(tmp_path / "field.json", edited(coin_docs()[doc], path, value))
    assert main(["build", "--construction", "naive", "--coin", spec, "--out", str(tmp_path / "c.json")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("value", NOT_NUMBERS)
@pytest.mark.parametrize(
    "path,field",
    [
        pytest.param(("gates", 2, "matrix", 0, 1, 0), "a gate matrix", id="gate-matrix"),
        pytest.param(("gates", 1, "angle"), "angle", id="gate-angle"),
        pytest.param(("metadata", "global_phase"), "metadata.global_phase", id="global-phase"),
    ],
)
def test_a_circuit_number_that_is_no_finite_number_exits_2(tmp_path, capsys, path, field, value):
    doc = write_doc(tmp_path / "circuit.json", edited(circuit_doc(), path, value))
    assert main(["analyze", "--circuit", doc]) == 2
    assert field in capsys.readouterr().err


def test_circuit_document_must_be_an_object():
    with pytest.raises(ValueError):
        circuit_from_json(json.dumps([circuit_doc()]))


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({"n": 1, "kind": "dirac", "mass": None, "step": 0.5, "charge": 1.0, "v0": 2.0},
                     id="null-mass"),
        pytest.param({"n": 1, "coins": 4}, id="integer-coins"),
        pytest.param({"n": 1, "coins": [[[1.0, 0.0]] * 4] * 3}, id="three-coins"),
        pytest.param({"n": 1, "kind": "k-params"}, id="no-seed"),
        pytest.param({"n": 1, "kind": "k-params", "seed": None}, id="null-seed"),
        pytest.param({"n": 1, "kind": "k-params", "angles": [[{}] * 4] * 2}, id="object-angles"),
        pytest.param({"n": "1", "kind": "k-params", "seed": 3}, id="string-n"),
        pytest.param({"kind": "k-params", "seed": 3}, id="no-n"),
        pytest.param([1, 2], id="top-level-list"),
    ],
)
def test_malformed_coin_field_is_a_value_error(doc):
    with pytest.raises(ValueError):
        coin_field_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "layout,n",
    [("linear-ancilla", 70), ("linear-ancilla", DOCUMENT_N_MAX + 1), ("walk", 10**6)],
)
def test_circuit_document_over_the_n_bound_is_a_value_error(layout, n):
    doc = dict(circuit_doc(), layout=layout, n=n)
    with pytest.raises(ValueError, match="largest a document may name"):
        circuit_from_json(json.dumps(doc))


def test_circuit_document_at_the_n_bound_lists_no_wires():
    # 2^25 + 24 wires: the registers are ranges, so reading costs nothing.
    doc = dict(circuit_doc(), layout="linear-ancilla", n=DOCUMENT_N_MAX)
    assert DOCUMENT_N_MAX == 24
    assert circuit_from_json(json.dumps(doc)).num_wires == (2 << DOCUMENT_N_MAX) + DOCUMENT_N_MAX


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({"n": 40, "kind": "dirac", "mass": 1.0, "step": 0.5, "charge": 1.0, "v0": 2.0},
                     id="dirac-n40"),
        pytest.param({"n": 70, "kind": "k-params", "seed": 3}, id="k-params-n70"),
        pytest.param({"n": DOCUMENT_N_MAX + 1, "coins": []}, id="explicit-over-bound"),
    ],
)
def test_coin_field_over_the_n_bound_is_a_value_error(doc, no_large_matrices):
    with pytest.raises(ValueError, match="largest a document may name"):
        coin_field_from_json(json.dumps(doc))


def test_build_on_a_coin_field_over_the_n_bound_exits_2(tmp_path, capsys, no_large_matrices):
    spec = tmp_path / "dirac.json"
    spec.write_text(json.dumps(
        {"n": 40, "kind": "dirac", "mass": 1.0, "step": 0.5, "charge": 1.0, "v0": 2.0}
    ))
    rc = main(["build", "--construction", "walsh", "--coin", str(spec), "--out", str(tmp_path / "c.json")])
    assert rc == 2
    assert "largest a document may name" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--construction", "naive", "--n", "30"],
        ["scaling", "--construction", "walsh", "--n-range", "30..31"],
        ["shift", "--scheme", "id", "--n", "1000"],
    ],
    ids=["verify", "scaling", "shift"],
)
def test_cli_n_over_the_bound_exits_2(tmp_path, monkeypatch, capsys, argv):
    draw, build = coins.random_field, shift.build_shift

    def bounded(n, seed):
        assert n <= DOCUMENT_N_MAX, f"drew a field at n={n}"
        return draw(n, seed)

    def bounded_shift(scheme, n):
        assert n <= DOCUMENT_N_MAX, f"built a shift at n={n}"
        return build(scheme, n)

    monkeypatch.setattr(coins, "random_field", bounded)
    monkeypatch.setattr(shift, "build_shift", bounded_shift)
    out = ["--out", str(tmp_path / "scaling.csv")] if argv[0] == "scaling" else []
    assert main(argv + out) == 2
    assert "largest a document may name" in capsys.readouterr().err


@pytest.mark.parametrize("n", [-1, 0])
@pytest.mark.parametrize("command", ["verify", "shift", "coin-document"])
def test_cli_n_under_1_exits_2(tmp_path, capsys, command, n):
    spec = tmp_path / "field.json"
    spec.write_text(json.dumps({"n": n, "coins": []}))
    argv = {
        "verify": ["verify", "--construction", "naive", "--n", str(n)],
        "shift": ["shift", "--scheme", "id", "--n", str(n)],
        "coin-document": ["build", "--construction", "naive", "--coin", str(spec),
                          "--out", str(tmp_path / "c.json")],
    }[command]
    assert main(argv) == 2
    assert f"n={n} is under 1" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize(
    "entry",
    [
        RegisterMap.walk,
        RegisterMap.linear,
        linear.predicted_depth,
        lambda n: shift.predicted_cost("qft", n),
        lambda n: naive.tower_flips(n, 0),
        check_document_n,
    ],
    ids=["walk-registers", "linear-registers", "linear-depth", "shift-cost", "tower", "document"],
)
def test_n_under_1_is_one_value_error_at_every_entry(entry, n):
    with pytest.raises(ValueError, match=f"^n={n} is under 1$"):
        entry(n)


def walk_config_doc():
    return json.loads(json.dumps(config_to_json(WalkConfig(
        1, 2, random_field(1, seed=0), coin_builder="walsh", truncation=1,
        initial={"position": 1, "coin": [[0.6, 0.0], 0.8]}, shots=8, seed=3,
    ))))


@pytest.mark.parametrize(
    "path,value",
    [
        pytest.param(("coin_builder",), "naive", id="truncation-for-naive"),
        pytest.param(("coin_builder",), "linear", id="truncation-for-linear"),
        pytest.param(("coin_builder",), "dense-oracle", id="truncation-for-dense-oracle"),
        pytest.param(("truncation",), "1", id="string-truncation"),
        pytest.param(("shots",), "8", id="string-shots"),
        pytest.param(("steps",), [2], id="list-steps"),
        pytest.param(("seed",), "3", id="string-seed"),
        pytest.param(("initial",), [1, 0], id="list-initial"),
        pytest.param(("steps",), 2.7, id="float-steps"),
        pytest.param(("n",), "1", id="string-n"),
        pytest.param(("initial", "position"), [1], id="list-position"),
        pytest.param(("initial", "coin"), 5, id="integer-coin"),
        pytest.param(("initial", "coin", 0), [0.6], id="short-amplitude-pair"),
        pytest.param(("initial", "coin", 1), {"re": 0.8}, id="object-amplitude"),
        pytest.param(("shots",), 10**30, id="shots-over-int64"),
        pytest.param(("truncation",), -1, id="negative-truncation"),
        pytest.param(("truncation",), 2, id="truncation-over-n"),
        pytest.param(("truncation",), 100, id="truncation-100"),
        pytest.param(("initial", "position"), 99, id="position-out-of-range"),
        pytest.param(("initial", "position"), -1, id="negative-position"),
    ],
)
def test_malformed_walk_config_exits_2(tmp_path, capsys, path, value):
    config = tmp_path / "walk.json"
    config.write_text(json.dumps(edited(walk_config_doc(), path, value)))
    assert main(["walk", "--config", str(config), "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    if path == ("coin_builder",):
        assert f"truncation=1 applies only to walsh, not {value}" in err
    if path == ("initial", "position") and isinstance(value, int):
        assert f"initial position {value} is outside 0..1" in err


@pytest.mark.parametrize("key", ["position", "coin"])
def test_null_initial_entry_reads_as_absent(tmp_path, capsys, key):
    doc = walk_config_doc()
    doc["initial"][key] = None
    absent = walk_config_doc()
    del absent["initial"][key]
    want = initial_state(config_from_json(absent))
    assert np.array_equal(initial_state(config_from_json(doc)), want)
    config = tmp_path / "walk.json"
    config.write_text(json.dumps(doc))
    assert main(["walk", "--config", str(config), "--out", str(tmp_path / "out.json")]) == 0


def test_walk_config_must_be_an_object(tmp_path, capsys):
    config = tmp_path / "walk.json"
    config.write_text(json.dumps([walk_config_doc()]))
    assert main(["walk", "--config", str(config), "--out", str(tmp_path / "out.json")]) == 2


def test_readers_still_read_their_writers():
    back = circuit_from_json(json.dumps(circuit_doc()))
    assert [g.kind for g in back.gates] == ["cnot", "rz", "u2"]
    assert back.metadata["walsh"]["terms"] == [(1, 0.5)]
    for doc in coin_docs():
        assert coin_field_from_json(json.dumps(doc)).n == 1


ZERO_MATRIX = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize(
    "record,message",
    [
        ({"kind": "x", "targets": [0], "angle": 0.3}, "x takes no angle"),
        ({"kind": "cnot", "controls": [1], "targets": [0], "angle": 0.0}, "cnot takes no angle"),
        ({"kind": "rz", "targets": [0], "angle": 0.3, "matrix": ZERO_MATRIX}, "rz takes no matrix"),
        ({"kind": "x", "targets": [0], "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
         "x takes no matrix"),
    ],
)
def test_a_record_with_a_payload_its_kind_does_not_take_is_refused(record, message):
    doc = circuit_doc()
    for gates in ([record], [record, record], doc["gates"] + [record]):
        with pytest.raises(ValueError, match=message) as err:
            circuit_from_json(json.dumps(dict(doc, gates=gates)))
        assert type(err.value) is ValueError


@pytest.mark.parametrize(
    "record,code",
    [
        ({"kind": "cnot", "controls": [1], "targets": [1]}, "duplicate-qubit"),
        ({"kind": "cnot", "targets": [1]}, "gate-arity-mismatch"),
        ({"kind": "x", "targets": [3]}, "index-out-of-range"),
        ({"kind": "u2", "targets": [0], "matrix": ZERO_MATRIX}, "not-unitary"),
    ],
)
def test_a_record_that_breaks_a_gate_rule_is_a_value_error_with_its_code(record, code):
    doc = circuit_doc()
    with pytest.raises(ValueError, match=code) as err:
        circuit_from_json(json.dumps(dict(doc, gates=doc["gates"] + [record])))
    assert isinstance(err.value.__cause__, ToolkitError) and err.value.__cause__.code == code


def test_identical_gate_records_share_one_gate():
    doc = circuit_doc()
    doc["gates"] += copy.deepcopy(doc["gates"])
    gates = circuit_from_json(json.dumps(doc)).gates
    assert gates[0] is gates[3] and gates[1] is gates[4]
    assert gates[0] is not gates[1]
    assert np.array_equal(gates[2].matrix, gates[5].matrix)


def read_outcome(doc):
    """The gates a document reads to, or the type and text of its error."""
    try:
        return circuit_from_json(json.dumps(doc)).gates
    except (ValueError, ToolkitError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "field,first,second",
    [
        ("angle", 1.0, True), ("angle", 1, True), ("angle", 1, "1"), ("angle", 0.5, [0.5]),
        ("angle", 0.5, 10**400), ("targets", [2], [2.0]), ("targets", [1], [True]),
        ("targets", [2], ["2"]), ("kind", "rz", ["rz"]),
    ],
)
def test_a_record_equal_to_a_read_one_but_for_a_type_is_read_on_its_own(field, first, second):
    doc = circuit_doc()
    rz = doc["gates"][1]
    doc["gates"] = [dict(rz, **{field: first}), dict(rz, **{field: second})]
    outcome = read_outcome(doc)
    assert outcome[0] is ValueError
    assert outcome == read_outcome(dict(doc, gates=doc["gates"][1:]))


def test_an_angle_past_the_float_range_is_a_value_error_not_an_overflow():
    doc = circuit_doc()
    for gates in ([dict(doc["gates"][1], angle=10**400)], [doc["gates"][1], dict(doc["gates"][1], angle=10**400)]):
        with pytest.raises(ValueError) as err:
            circuit_from_json(json.dumps(dict(doc, gates=gates)))
        assert type(err.value) is ValueError and "a gate angle" in str(err.value)


def test_records_equal_as_numbers_keep_their_own_values():
    doc = circuit_doc()
    rz = doc["gates"][1]
    doc["gates"] = [dict(rz, angle=a) for a in (0.0, -0.0, 1, 1.0)]
    angles = [g.angle for g in circuit_from_json(json.dumps(doc)).gates]
    assert list(map(repr, angles)) == ["0.0", "-0.0", "1.0", "1.0"]
    assert all(type(a) is float for a in angles)


RECORD_VALUES = {
    "kind": st.sampled_from(["rz", "x", "cnot", 1]),
    "targets": st.sampled_from([[0], [1], [1.0], [True], ["1"], [0, 1]]),
    "controls": st.sampled_from([[2], [2.0], [False], []]),
    "angle": st.sampled_from([None, 1, 1.0, True, "1", 0.0, -0.0, 10**400, [1], float("nan")]),
    "label": st.sampled_from([None, "a", "\u00e9", "\"", 1]),
}


@st.composite
def gate_records(draw):
    """Gate records, each one field away from an earlier one, so near twins are common."""
    records = [draw(st.sampled_from([
        {"kind": "rz", "targets": [1], "angle": 1},
        {"kind": "rz", "targets": [0], "angle": -0.0, "label": "a"},
        {"kind": "cnot", "controls": [2], "targets": [1]},
    ]))]
    for _ in range(draw(st.integers(1, 5))):
        key = draw(st.sampled_from(sorted(RECORD_VALUES)))
        records.append(dict(draw(st.sampled_from(records)), **{key: draw(RECORD_VALUES[key])}))
    return draw(st.permutations(records))


@settings(max_examples=300, deadline=None)
@given(gate_records())
def test_a_document_reads_as_its_records_read_one_by_one(records):
    doc = circuit_doc()
    whole = read_outcome(dict(doc, gates=records))
    alone = [read_outcome(dict(doc, gates=[r])) for r in records]
    failed = [o for o in alone if not isinstance(o[0], GateInstance)]
    if failed:
        assert whole == failed[0]
        return
    assert [exact(g) for g in whole] == [exact(o[0]) for o in alone]
    for i, j in itertools.combinations(range(len(records)), 2):
        if json.dumps(records[i]) == json.dumps(records[j]):
            assert whole[i] is whole[j]


def exact(g):
    return g.kind, g.controls, g.targets, repr(g.angle), type(g.angle), g.label


# Integers stay small: under DOCUMENT_N_MAX a document's n still sizes what
# it builds (a coin field of 2^n coins), so a large n is a resource
# question, not a parsing one.
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["walk", "linear-ancilla", "coinwalk-circuit/1", "k-params", "dirac", "rz", "u2"])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def paths(node, prefix=()):
    """Every path into a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def only_input_errors(read, text):
    try:
        read(text)
    except (ValueError, ToolkitError):
        pass


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_arbitrary_json_gives_only_input_errors(value):
    text = json.dumps(value)
    only_input_errors(circuit_from_json, text)
    only_input_errors(coin_field_from_json, text)
    only_input_errors(from_qasm, text)


@settings(max_examples=300, deadline=None)
@given(st.data(), json_values)
def test_edited_documents_give_only_input_errors(data, value):
    doc = circuit_doc()
    path = data.draw(st.sampled_from(list(paths(doc))))
    only_input_errors(circuit_from_json, json.dumps(edited(doc, path, value)))
    coin = data.draw(st.sampled_from(coin_docs()))
    path = data.draw(st.sampled_from(list(paths(coin))))
    only_input_errors(coin_field_from_json, json.dumps(edited(coin, path, value)))


@settings(max_examples=300, deadline=None)
@given(st.data(), json_values)
def test_edited_walk_configs_give_only_input_errors(data, value):
    doc = walk_config_doc()
    path = data.draw(st.sampled_from(list(paths(doc))))
    only_input_errors(lambda text: initial_state(config_from_json(json.loads(text))),
                      json.dumps(edited(doc, path, value)))


QASM_LINES = to_qasm(compile_circuit(Circuit(
    RegisterMap.walk(2),
    [GateInstance("cp", controls=(1,), targets=(0,), angle=0.3), GateInstance("x", targets=(2,))],
    {"global_phase": 0.5},
))).splitlines()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, len(QASM_LINES) - 1),
    st.sampled_from(["", "// global-phase", "// layout walk", "qreg coin[", "cx coin[0],",
                     "rz(", "u1(", "x "]),
    st.text(max_size=12),
)
def test_edited_qasm_gives_only_input_errors(index, prefix, tail):
    lines = list(QASM_LINES)
    lines[index] = prefix + tail
    only_input_errors(from_qasm, "\n".join(lines))


@pytest.mark.parametrize("phase", ["nan", "inf", "-inf"])
def test_qasm_global_phase_that_is_no_finite_number_is_a_value_error(phase):
    lines = [f"// global-phase {phase}" if line.startswith("// global-phase") else line
             for line in QASM_LINES]
    with pytest.raises(ValueError, match="the global-phase comment"):
        from_qasm("\n".join(lines))


@pytest.mark.parametrize("n", [70, DOCUMENT_N_MAX + 1])
def test_qasm_layout_over_the_n_bound_is_a_value_error(n):
    lines = [f"// layout linear-ancilla n={n}" if line.startswith("// layout") else line
             for line in QASM_LINES]
    with pytest.raises(ValueError, match="largest a document may name"):
        from_qasm("\n".join(lines))
