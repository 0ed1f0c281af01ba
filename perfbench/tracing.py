"""Spans and counters around calls into coinwalk's modules, for traced runs.

``install`` swaps timing wrappers onto module attributes (and onto
``SparseState.apply_gate``) and returns a function that puts the originals
back.  Nothing under ``src/`` knows about it.  Spans record name, start,
end, parent span and operation id in flat arrays that stay in memory until
the run ends.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

from coinwalk import circuit, coins, linear, naive, qasm, shift, statevec, transpile, walk, walsh

# (name, unit, better): every per-layer metric a traced run reports, per round.
LAYER_METRICS = [
    ("statevec.apply_gate.calls", "count", "lower"),
    ("statevec.apply_gate.self_s", "s", "lower"),
    ("statevec.apply_gate.bytes", "B", "lower"),
    ("statevec.sparse_apply.calls", "count", "lower"),
    ("statevec.sparse_apply.self_s", "s", "lower"),
    ("statevec.sparse.peak_support", "count", "lower"),
    ("statevec.circuit_unitary.calls", "count", "lower"),
    ("statevec.circuit_unitary.self_s", "s", "lower"),
    ("statevec.circuit_unitary.gates", "count", "lower"),
    ("statevec.circuit_unitary.bytes", "B", "lower"),
    ("walk.matrix_oracle_run.self_s", "s", "lower"),
    ("coins.total_coin_matrix.self_s", "s", "lower"),
    ("shift.shift_permutation_matrix.self_s", "s", "lower"),
    ("walk.run.self_s", "s", "lower"),
    ("shift.build.self_s", "s", "lower"),
    ("naive.build_naive.self_s", "s", "lower"),
    ("naive.build_naive.gates", "count", "lower"),
    ("linear.build_linear.self_s", "s", "lower"),
    ("linear.build_linear.gates", "count", "lower"),
    ("walsh.build_walsh_coin.self_s", "s", "lower"),
    ("walsh.build_walsh_coin.gates", "count", "lower"),
    ("walsh.gray.kept_ratio", "ratio", "higher"),
    ("walsh.gray.attempted", "count", "lower"),
    ("transpile.compile_circuit.calls", "count", "lower"),
    ("transpile.compile_circuit.self_s", "s", "lower"),
    ("transpile.expansion", "ratio", "lower"),
    ("circuit.depth.self_s", "s", "lower"),
    ("circuit.json.self_s", "s", "lower"),
    ("qasm.to_qasm.self_s", "s", "lower"),
    ("qasm.to_qasm.bytes", "B", "lower"),
    ("coins.field.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("basis_gates", "count", "lower"),
    ("basis_depth", "count", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.cli_share", "ratio", "lower"),
]

# Counters that keep a maximum rather than a sum.
_PEAKS = {"statevec.sparse.peak_support"}

# Rounding error allowed on a self time; nested spans cannot go below it.
NEGATIVE_SELF_TOL_S = 1e-9
# Largest share of an operation's wall time that no traced layer may cover.
CLI_SHARE_MAX = 0.5


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = -1
        self.counts: dict[tuple[int, str], float] = {}
        self._stack = [-1]

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        k = (self.current_op, key)
        if key in _PEAKS:
            self.counts[k] = max(self.counts.get(k, 0), value)
        else:
            self.counts[k] = self.counts.get(k, 0) + value

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def per_op(self) -> dict[int, dict[str, float]]:
        """Self time, calls and counters of every operation id.

        ``trace.negative_spans`` counts spans whose children cover more than
        the span itself, which only broken nesting can cause.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
        self_s = dur - covered
        out: dict[int, dict[str, float]] = {}
        for op, nid, s in zip(a["op"].tolist(), a["name"].tolist(), self_s.tolist()):
            row = out.setdefault(op, {})
            name = self.names[nid]
            row[f"{name}.self_s"] = row.get(f"{name}.self_s", 0.0) + s
            row[f"{name}.calls"] = row.get(f"{name}.calls", 0) + 1
            if s < -NEGATIVE_SELF_TOL_S:
                row["trace.negative_spans"] = row.get("trace.negative_spans", 0) + 1
        for (op, key), value in self.counts.items():
            out.setdefault(op, {})[key] = value
        return out


def _spanned(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(index)
        if count is not None:
            count(args, result)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap the traced functions everywhere coinwalk refers to them."""
    add = tracer.add

    def gates_of(key):
        return lambda args, out: add(key, len(out.gates))

    def unitary_counts(args, out):
        circ = args[0]
        q = circ.num_wires
        add("statevec.circuit_unitary.gates", len(circ.gates))
        add("statevec.circuit_unitary.bytes", sum(32 << (2 * q - len(g.controls)) for g in circ.gates))

    def compile_counts(args, out):
        add("transpile.gates_in", len(args[0].gates))
        add("transpile.gates_out", len(out.gates))

    dense_apply = statevec.apply_gate
    traced_dense = _spanned(tracer, "statevec.apply_gate", dense_apply)

    def apply_gate(state, gate, targets, controls=()):
        if isinstance(state, statevec.SparseState):
            return dense_apply(state, gate, targets, controls)
        add("statevec.apply_gate.bytes", 32 << (len(state).bit_length() - 1 - len(controls)))
        return traced_dense(state, gate, targets, controls)

    gray = transpile.gray_code_optimize

    def gray_code_optimize(circ):
        out = gray(circ)
        add("walsh.gray.attempted", 1)
        add("walsh.gray.kept", out is not circ)
        return out

    sparse_apply = statevec.SparseState.apply_gate
    wrappers = {
        statevec.apply_gate: apply_gate,
        statevec.circuit_unitary: _spanned(tracer, "statevec.circuit_unitary", statevec.circuit_unitary, unitary_counts),
        walk.matrix_oracle_run: _spanned(tracer, "walk.matrix_oracle_run", walk.matrix_oracle_run),
        coins.total_coin_matrix: _spanned(tracer, "coins.total_coin_matrix", coins.total_coin_matrix),
        shift.shift_permutation_matrix: _spanned(tracer, "shift.shift_permutation_matrix", shift.shift_permutation_matrix),
        walk.run: _spanned(tracer, "walk.run", walk.run),
        shift.build_shift_qft: _spanned(tracer, "shift.build", shift.build_shift_qft),
        shift.build_shift_id: _spanned(tracer, "shift.build", shift.build_shift_id),
        naive.build_naive: _spanned(tracer, "naive.build_naive", naive.build_naive, gates_of("naive.build_naive.gates")),
        linear.build_linear: _spanned(tracer, "linear.build_linear", linear.build_linear, gates_of("linear.build_linear.gates")),
        walsh.build_walsh_coin: _spanned(
            tracer, "walsh.build_walsh_coin", walsh.build_walsh_coin, gates_of("walsh.build_walsh_coin.gates")
        ),
        transpile.gray_code_optimize: gray_code_optimize,
        transpile.compile_circuit: _spanned(tracer, "transpile.compile_circuit", transpile.compile_circuit, compile_counts),
        circuit.depth: _spanned(tracer, "circuit.depth", circuit.depth),
        circuit.circuit_to_json: _spanned(tracer, "circuit.json", circuit.circuit_to_json),
        circuit.circuit_from_json: _spanned(tracer, "circuit.json", circuit.circuit_from_json),
        qasm.to_qasm: _spanned(tracer, "qasm.to_qasm", qasm.to_qasm, lambda args, out: add("qasm.to_qasm.bytes", len(out))),
        coins.random_field: _spanned(tracer, "coins.field", coins.random_field),
        coins.dirac_field: _spanned(tracer, "coins.field", coins.dirac_field),
        coins.coin_field_from_json: _spanned(tracer, "coins.field", coins.coin_field_from_json),
    }
    by_id = {id(fn): (fn, wrapper) for fn, wrapper in wrappers.items()}
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "coinwalk" or mod_name.startswith("coinwalk.")):
            continue
        for attr, value in list(vars(mod).items()):
            fn, wrapper = by_id.get(id(value), (None, None))
            if fn is value:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, value))

    statevec.SparseState.apply_gate = _spanned(
        tracer, "statevec.sparse_apply", sparse_apply,
        lambda args, out: add("statevec.sparse.peak_support", len(out.amplitudes)),
    )
    undo.append((statevec.SparseState, "apply_gate", sparse_apply))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def round_values(tracer: Tracer, samples) -> tuple[dict[str, float], list[str | None]]:
    """Per-round layer numbers, and a check of each traced operation's spans.

    ``samples[i]`` ran as operation id i and set-up as operation id -1.
    The self times of an operation's spans add up to its ``cli`` span by
    construction, so that sum checks nothing.  What can fail is checked
    instead: no self time may be negative, which only broken nesting
    causes, and ``cli.self_s`` (the time no traced layer covers) may be at
    most ``CLI_SHARE_MAX`` of the operation's wall time, which a layer whose
    span went missing would exceed.
    """
    per_op = tracer.per_op()
    per_kind = {"setup": [per_op.get(-1, {})]}
    errors: list[str | None] = []
    shares = []
    for op_id, sample in enumerate(samples):
        row = per_op.get(op_id, {})
        per_kind.setdefault(sample.op, []).append(row)
        share = row.get("cli.self_s", 0.0) / sample.seconds
        shares.append(share)
        if row.get("trace.negative_spans"):
            errors.append(f"{row['trace.negative_spans']} spans have a negative self time")
        elif share > CLI_SHARE_MAX:
            errors.append(f"cli.self_s is {share:.0%} of the wall time, over {CLI_SHARE_MAX:.0%}")
        else:
            errors.append(None)
    values = _round_metrics(per_kind)
    values["trace.cli_share"] = max(shares)
    return values, errors


def _round_metrics(per_kind: dict[str, list[dict[str, float]]]) -> dict[str, float]:
    """One round's layer numbers: each kind's median execution, summed.

    Counts repeat exactly between executions of one kind, so their median
    is that count; peaks take the maximum over kinds instead of the sum.
    """
    total: dict[str, float] = {}
    for rows in per_kind.values():
        keys = set().union(*rows)
        for key in keys:
            value = float(np.median([row.get(key, 0.0) for row in rows]))
            if key in _PEAKS:
                total[key] = max(total.get(key, 0.0), value)
            else:
                total[key] = total.get(key, 0.0) + value
    attempted = total.get("walsh.gray.attempted", 0.0)
    total["walsh.gray.kept_ratio"] = total.get("walsh.gray.kept", 0.0) / attempted if attempted else 0.0
    gates_in = total.get("transpile.gates_in", 0.0)
    total["transpile.expansion"] = total.get("transpile.gates_out", 0.0) / gates_in if gates_in else 0.0
    return total
