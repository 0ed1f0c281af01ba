"""The circuit reader's two paths: text in the writer's own layout is read
record text by record text, any other text is parsed whole, and both give
the same circuit or the same error."""

import importlib.util
import json
import math
import shutil
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    Circuit,
    GateInstance,
    RegisterMap,
    build_shift_id,
    build_shift_qft,
    circuit_from_json,
    circuit_to_json,
    compile_circuit,
    random_field,
)
from coinwalk import circuit as circuit_module
from coinwalk.walk import CONSTRUCTIONS, build_coin


def whole_text_read(text, module=circuit_module):
    """``circuit_from_json`` with the record-by-record path turned off."""
    with mock.patch.object(module, "_split_records", lambda text: None):
        return module.circuit_from_json(text)


def gate_fields(g):
    matrix = None if g.matrix is None else g.matrix.tobytes()
    return g.kind, g.controls, g.targets, repr(g.angle), matrix, g.label


def outcome(read, text, module=circuit_module):
    """The gates and metadata a text reads to, or the type and text of its error."""
    try:
        circ = read(text)
    except (ValueError, module.ToolkitError) as exc:
        return type(exc), str(exc)
    return [gate_fields(g) for g in circ.gates], repr(circ.metadata), circ.registers


def assert_paths_agree(text):
    assert outcome(circuit_from_json, text) == outcome(whole_text_read, text)


# -- writer texts read the same through both paths ---------------------------

WIDTH = 4  # the walk layout at n=3
LABELS = st.none() | st.text(
    alphabet=st.sampled_from(['"', "}", "{", "\n", "\\", " ", "a", ",", "é", "☃"]), max_size=8
) | st.just("\n  },\n  {\n")
ANGLES = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, math.pi, -math.pi, 0.5]) | st.floats(
    allow_nan=False, allow_infinity=False
)


def unitary(a, b, c):
    return np.array([[math.cos(a), -math.sin(a) * np.exp(1j * b)],
                     [math.sin(a) * np.exp(1j * c), math.cos(a) * np.exp(1j * (b + c))]])


@st.composite
def gates(draw):
    kind = draw(st.sampled_from(sorted(circuit_module.GATE_KINDS)))
    n_ctl, n_tgt, payload = circuit_module.GATE_KINDS[kind]
    n_ctl = draw(st.integers(1, WIDTH - n_tgt)) if n_ctl is None else n_ctl
    wires = draw(st.permutations(range(WIDTH)))[: n_ctl + n_tgt]
    angle = draw(ANGLES) if payload == "angle" else None
    matrix = unitary(*draw(st.tuples(*[st.floats(-4, 4)] * 3))) if payload == "matrix" else None
    return GateInstance(kind, tuple(wires[:n_ctl]), tuple(wires[n_ctl:]), angle, matrix, draw(LABELS))


@st.composite
def circuits(draw):
    pool = draw(st.lists(gates(), min_size=1, max_size=5))
    order = draw(st.lists(st.sampled_from(pool), max_size=12))
    meta = draw(st.fixed_dictionaries({}, optional={
        "builder": st.sampled_from(["walsh", "naive", "t\n  },\n  {\n"]),
        "global_phase": ANGLES,
        "walsh": st.just({"sigma": "z", "terms": [[1, 0.5], [3, -0.0]], "optimized": True}),
        "note": LABELS,
    }))
    return Circuit(RegisterMap.walk(3), order, meta)


@settings(max_examples=300, deadline=None)
@given(circuits())
def test_a_written_circuit_reads_the_same_through_both_paths(circ):
    text = circuit_to_json(circ)
    fast = circuit_from_json(text)
    whole = circuit_from_json(json.dumps(json.loads(text)))  # another layout: parsed whole
    assert [gate_fields(g) for g in fast.gates] == [gate_fields(g) for g in circ.gates]
    assert [gate_fields(g) for g in whole.gates] == [gate_fields(g) for g in circ.gates]
    assert repr(fast.metadata) == repr(whole.metadata)
    assert circuit_to_json(fast) == text


# -- edited writer texts read as the whole text reads ------------------------

def base_circuit():
    cnot = GateInstance("cnot", (1,), (0,))
    rz = GateInstance("rz", (), (2,), 0.5)
    u2 = GateInstance("u2", (), (1,), matrix=[[0, 1], [1, 0]], label="x }\n")
    return Circuit(RegisterMap.walk(2), [cnot, rz, u2, rz, cnot, rz], {
        "builder": "test", "global_phase": 0.25,
        "walsh": {"sigma": "z", "terms": [[1, 0.5]], "optimized": False},
    })


BASE = circuit_to_json(base_circuit())
RZ = '   "kind": "rz",\n   "targets": [\n    2\n   ],\n   "angle": 0.5'
CNOT_TARGETS = '"targets": [\n    0\n   ]'
METADATA = '"metadata": {\n'
DEEP = "[" * 100_000 + "]" * 100_000


def nth_replaced(text, old, new, nth=1):
    """``text`` with the ``nth`` occurrence of ``old`` replaced by ``new``."""
    at = -1
    for _ in range(nth):
        at = text.index(old, at + 1)
    return text[:at] + new + text[at + len(old):]


EDITS = {
    "unedited": BASE,
    "record-whitespace": nth_replaced(BASE, '"kind": "rz"', '"kind":   "rz"', 2),
    "record-key-order": nth_replaced(BASE, RZ, '   "angle": 0.5,\n   "kind": "rz",\n   "targets": [2]', 2),
    "record-cut-short": nth_replaced(BASE, RZ, RZ[:30], 2),
    "record-emptied": nth_replaced(BASE, RZ, "", 2),
    "records-joined-otherwise": nth_replaced(BASE, "\n  },\n  {\n", "\n  }, {\n", 2),
    "trailing-junk": BASE + "x",
    "trailing-list-close": BASE + "]",
    "trailing-newline": BASE + "\n",
    "crlf-line-ends": BASE.replace("\n", "\r\n"),
    "second-gates-key": BASE.replace("{\n", '{\n "gates": 5,\n', 1),
    "second-gates-list": BASE.replace("{\n", '{\n "gates": [{"kind": "x", "targets": [0]}],\n', 1),
    "gates-opening-in-metadata": BASE.replace(
        METADATA, METADATA + '  "x": {\n "gates": [\n  {\n   "kind": "x"\n  }\n ]},\n', 1),
    "header-closed-early": nth_replaced(BASE, '\n },\n "gates"', '\n }}\n "gates"'),
    "nested-object-holding-the-separator": nth_replaced(
        BASE, RZ, '   "extra": [{\n  },\n  {\n}],\n' + RZ, 2),
    "nested-past-the-recursion-limit": nth_replaced(BASE, RZ, f'   "extra": {DEEP},\n' + RZ, 2),
    "header-past-the-recursion-limit": BASE.replace(METADATA, METADATA + f'  "x": {DEEP},\n', 1),
    "repeated-wire": nth_replaced(BASE, CNOT_TARGETS, '"targets": [\n    1\n   ]', 2),
    "wire-outside-the-layout": nth_replaced(BASE, CNOT_TARGETS, '"targets": [\n    7\n   ]', 2),
    "not-unitary": BASE.replace("      1.0,", "      2.0,", 1),
    "unknown-layout": BASE.replace('"layout": "walk"', '"layout": "ring"', 1),
    "angle-integer": nth_replaced(BASE, '"angle": 0.5', '"angle": 1', 2),
    "angle-float": nth_replaced(BASE, '"angle": 0.5', '"angle": 1.0', 2),
    "angle-true": nth_replaced(BASE, '"angle": 0.5', '"angle": true', 2),
    "angles-integer-float-true": nth_replaced(nth_replaced(nth_replaced(
        BASE, '"angle": 0.5', '"angle": 1', 1), '"angle": 0.5', '"angle": 1.0', 1), '"angle": 0.5', '"angle": true', 1),
    "angle-negative-zero": nth_replaced(BASE, '"angle": 0.5', '"angle": -0.0', 2),
}


def test_the_edits_leave_some_texts_in_the_layout_and_take_others_out():
    layout = {name for name, text in EDITS.items() if circuit_module._split_records(text) is not None}
    assert {"record-whitespace", "record-cut-short", "second-gates-key", "angle-true"} <= layout
    assert {"trailing-junk", "crlf-line-ends"}.isdisjoint(layout)


@pytest.mark.parametrize("name", sorted(EDITS))
def test_an_edited_writer_text_reads_as_the_whole_text_reads(name):
    assert_paths_agree(EDITS[name])


@pytest.mark.parametrize("name", ["record-cut-short", "trailing-junk", "header-closed-early",
                                  "nested-past-the-recursion-limit", "angle-true", "repeated-wire"])
def test_an_edited_writer_text_that_is_malformed_is_still_a_value_error(name):
    with pytest.raises(ValueError):
        circuit_from_json(EDITS[name])


def test_record_texts_equal_but_for_a_number_type_keep_their_own_values():
    circ = circuit_from_json(EDITS["angle-integer"])
    assert [repr(g.angle) for g in circ.gates if g.kind == "rz"] == ["0.5", "1.0", "0.5"]
    assert circ.gates[1] is circ.gates[5] and circ.gates[1] is not circ.gates[3]


def test_a_record_nested_to_the_decoders_limit_reads_as_the_whole_text_reads():
    # A record is parsed as deep as it sits in the document; parsed at the
    # top, a record a level or two short of the limit would read here while
    # the whole text is refused.  Both reads start from this frame.
    for levels in range(975, 1000):
        text = nth_replaced(BASE, RZ, f'   "extra": {"[" * levels + "]" * levels},\n' + RZ, 2)
        with mock.patch.object(circuit_module, "_split_records", lambda text: None):
            whole = outcome(circuit_from_json, text)
        assert outcome(circuit_from_json, text) == whole, levels
    assert whole[0] is ValueError


# -- the writer's output never takes the whole-text path ---------------------

def written_circuits():
    for construction in CONSTRUCTIONS:
        for n in range(1, 6):
            for seed in (0, 1):
                circ = build_coin(construction, random_field(n, seed=seed))
                yield f"{construction}-n{n}-s{seed}", circ
                if n <= 3:
                    yield f"{construction}-n{n}-s{seed}-compiled", compile_circuit(circ)
    yield "shift-qft-n3", build_shift_qft(3)
    yield "shift-id-n3", build_shift_id(3)
    yield "no-gates", Circuit(RegisterMap.walk(1), ())


def test_the_writer_output_is_read_record_text_by_record_text():
    spy = mock.Mock(wraps=circuit_module._gates_from_list)
    with mock.patch.object(circuit_module, "_gates_from_list", spy):
        for name, circ in written_circuits():
            text = circuit_to_json(circ)
            spy.reset_mock()
            back = circuit_from_json(text)
            assert spy.called is not bool(circ.gates), name  # an empty gate list is parsed whole
            assert circuit_to_json(back) == text, name
            assert [gate_fields(g) for g in back.gates] == [gate_fields(g) for g in circ.gates], name


def test_identical_record_texts_share_one_gate():
    circ = circuit_from_json(BASE)
    assert circ.gates[0] is circ.gates[4]
    assert circ.gates[1] is circ.gates[3] is circ.gates[5]
    assert len(set(circ.gates)) == 3


# -- the edits catch a reader that skips one of its checks -------------------

PACKAGE = Path(circuit_module.__file__).parent


def mutated_copy(tmp_path, old, new):
    """A copy of the package, imported as ``coinwalk_mutant``, whose
    ``circuit.py`` has its one ``old`` replaced by ``new``; its circuit module."""
    package = tmp_path / "coinwalk_mutant"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / "circuit.py"
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))
    spec = importlib.util.spec_from_file_location(
        package.name, package / "__init__.py", submodule_search_locations=[str(package)])
    sys.modules[package.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[package.name])
    return sys.modules[f"{package.name}.circuit"]


@pytest.fixture
def drop_mutant():
    yield
    for name in [name for name in sys.modules if name.split(".")[0] == "coinwalk_mutant"]:
        del sys.modules[name]


def edits_read_otherwise(module):
    """The edits whose outcome through ``module``'s reader is not that of its
    whole-text path, or that raise past it (a ``RecursionError``, say)."""
    differ = []
    for name, text in EDITS.items():
        try:
            fast = outcome(module.circuit_from_json, text, module)
        except Exception:
            fast = None
        if fast != outcome(lambda text: whole_text_read(text, module), text, module):
            differ.append(name)
    return sorted(differ)


@pytest.mark.parametrize(
    "old,new,caught",
    [
        # the header need not parse alone: one closed early reads with text after it
        ("_read_header(read_json(header))", "_read_header(json.JSONDecoder().raw_decode(header)[0])",
         ["header-closed-early", "header-past-the-recursion-limit"]),
        # the text need not end as the writer ends it: the last record takes the rest
        (" or not text.endswith(_GATES_CLOSE)", "", ["trailing-junk", "trailing-list-close"]),
        # a record text may hold more than one record: the first is kept
        ('(record,), = read_json("[[{" + piece + "}]]")', 'record = read_json("[[{" + piece + "}]]")[0][0]',
         ["records-joined-otherwise"]),
    ],
    ids=["header-parsed-in-part", "end-unchecked", "one-record-unchecked"],
)
def test_the_edits_fail_a_copy_whose_splitter_skips_a_check(tmp_path, drop_mutant, old, new, caught):
    assert edits_read_otherwise(circuit_module) == []
    assert edits_read_otherwise(mutated_copy(tmp_path, old, new)) == caught
