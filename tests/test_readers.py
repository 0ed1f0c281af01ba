"""Malformed input documents raise ValueError or ToolkitError, never another error."""

import copy
import json

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


def test_readers_still_read_their_writers():
    back = circuit_from_json(json.dumps(circuit_doc()))
    assert [g.kind for g in back.gates] == ["cnot", "rz", "u2"]
    assert back.metadata["walsh"]["terms"] == [(1, 0.5)]
    for doc in coin_docs():
        assert coin_field_from_json(json.dumps(doc)).n == 1


# Integers stay small: a document's n sizes its registers (2^(n+1) wires in
# the linear-ancilla layout), so a large n is a resource question, not a
# parsing one.
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
