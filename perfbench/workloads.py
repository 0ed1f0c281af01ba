"""Workloads: seeded inputs, the round of CLI operations, and their checks.

Every operation is one or two calls of ``coinwalk.cli.main`` made in this
process.  Each workload is a fixed round of operations that is repeated; the
sizes below are part of the benchmark's definition and do not change when
a library cap is raised.  ``linear`` stays at n=6 (134 wires), the largest
size the walk's ``_MAX_LINEAR_WIRES`` allowed when the benchmark was set.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from coinwalk import cli, coins

import reference

# The trapping study's field, a harmonic well; the walk sets n.
TRAP_FIELD = {"kind": "dirac", "mass": 1.0, "step": 0.5, "charge": 1.0, "v0": 50.0}


@dataclass(frozen=True)
class Walk:
    name: str
    n: int
    builder: str
    shift: str
    steps: int
    truncation: int | None = None
    trap: bool = False


@dataclass(frozen=True)
class Verify:
    name: str
    construction: str
    n: int


@dataclass(frozen=True)
class Compile:
    name: str
    construction: str
    n: int


WORKLOADS = {
    "walk": (
        Walk("walk.walsh", 8, "walsh", "qft", 20),
        Walk("walk.naive", 8, "naive", "id", 20),
        Walk("walk.trap", 10, "walsh", "id", 50, truncation=4, trap=True),
    ),
    "linear": (
        Verify("verify.linear", "linear", 6),
        Walk("walk.linear", 6, "linear", "id", 20),
    ),
    "synth": (
        Compile("compile.naive", "naive", 7),
        Compile("compile.walsh", "walsh", 12),
        Compile("compile.linear", "linear", 8),
        Verify("verify.naive", "naive", 8),
        Verify("verify.walsh", "walsh", 7),
    ),
}

# The compile path checked end to end by the QASM interpreter, after timing.
QASM_CHECK_N = 3
QASM_CONSTRUCTIONS = ("naive", "walsh", "linear")


@dataclass
class Op:
    """One operation: CLI calls plus a check of what they produced.

    ``check`` gets ``(exit code, stdout)`` per call and returns an error
    message or None, and the exact counts the operation reports.
    """

    name: str
    argvs: tuple[tuple[str, ...], ...]
    check: Callable[[list[tuple[int, str]]], tuple[str | None, dict]]


@dataclass
class Sample:
    """One execution: wall seconds, and seconds scaled to the probe's host speed."""

    op: str
    seconds: float
    error: str | None
    counts: dict = field(default_factory=dict)
    scaled: float = 0.0


# The same operation on the same input ran in 0.35 s or in 0.65 s on a
# shared two-vCPU host, depending on what else the host ran, in episodes of
# seconds to minutes.  Its CPU time (time.process_time) swung with its wall
# time, so the host ran slower rather than taking the CPU away.  So a fixed
# probe that calls no coinwalk code runs before and after every operation,
# and times are scaled by PROBE_REF_S / (mean of those two probe times):
# seconds at the host speed where the probe takes PROBE_REF_S.  Over ten
# 30 s runs per workload, the quartile spread of ops_per_s was 0.18, 0.16
# and 0.22 of the median (walk, linear, synth) from wall-time medians, 0.18,
# 0.15 and 0.22 from CPU-time medians, 0.16, 0.03 and 0.16 from each
# operation's fastest run, and 0.07, 0.04 and 0.05 scaled.
PROBE_REF_S = 0.012
_PROBE_MATRIX = np.full((128, 128), 0.5 + 0.5j)
_PROBE_INDEX = np.arange(1 << 15)


def probe() -> float:
    """Seconds of a fixed mix of dict-heavy Python and small numpy kernels."""
    t0 = time.perf_counter()
    amps = {i: complex(i) for i in range(2000)}
    for _ in range(12):
        out: dict[int, complex] = {}
        for k, a in amps.items():
            out[k ^ 5] = out.get(k ^ 5, 0.0) + a * 0.5
        amps = out
    m = _PROBE_MATRIX
    for _ in range(6):
        m = (m @ _PROBE_MATRIX) * 0.01
    vec = np.ones(_PROBE_INDEX.size, dtype=complex)
    for _ in range(6):
        rows = _PROBE_INDEX[((_PROBE_INDEX >> 3) & 1).astype(bool)]
        vec[rows] = vec[rows] * 1.0001
    return time.perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    """Factor that turns wall seconds between two probes into scaled seconds."""
    return PROBE_REF_S / ((before + after) / 2)


def call_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def field_spec(f: coins.CoinField) -> dict:
    return {"n": f.n, "kind": "k-params", "angles": f.meta["angles"]}


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _walk_op(spec: Walk, rng, work: Path) -> Op:
    # The walker starts mid-cycle on every seed: a drawn start changed the
    # linear walk's time by a fifth at the same gate calls and support.
    position = 1 << (spec.n - 1)
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps /= np.linalg.norm(amps)
    if spec.trap:
        fspec = dict(TRAP_FIELD, n=spec.n)
        field_ = coins.coin_field_from_json(fspec)
    else:
        field_ = coins.random_field(spec.n, seed=int(rng.integers(2**31)))
        fspec = field_spec(field_)
    config = {
        "n": spec.n,
        "steps": spec.steps,
        "coin_builder": spec.builder,
        "shift_scheme": spec.shift,
        "truncation": spec.truncation,
        "initial": {"position": position, "coin": [[a.real, a.imag] for a in amps]},
        "field": fspec,
    }
    cfg = _write_json(work / f"{spec.name}.config.json", config)
    out = work / f"{spec.name}.out.json"
    expected = []

    def check(results):
        rc, _ = results[0]
        if rc != 0:
            return f"exit code {rc}", {}
        if not expected:
            coin_array = field_.coins
            if spec.truncation is not None:
                coin_array = reference.truncated_walsh_coins(field_.euler_angles(), spec.truncation)
            expected.append(reference.walk_distribution(coin_array, spec.steps, position, amps))
        got = json.loads(out.read_text(encoding="utf-8"))["probabilities"]
        dist = reference.tvd(got, expected[0])
        if not dist <= reference.WALK_TVD_TOL:
            return f"tvd {dist:.3e} against the reference walk", {}
        return None, {}

    return Op(spec.name, (("walk", "--config", cfg, "--out", str(out)),), check)


def _verify_op(spec: Verify, rng, work: Path) -> Op:
    seed = str(int(rng.integers(2**31)))
    argv = ("verify", "--construction", spec.construction, "--n", str(spec.n), "--seed", seed)

    def check(results):
        rc, text = results[0]
        return (None if rc == 0 else f"verdict exit {rc}: {text.strip()}"), {}

    return Op(spec.name, (argv,), check)


def compile_argvs(construction: str, coin_path: str, work: Path, stem: str):
    circ, qasm = str(work / f"{stem}.circuit.json"), str(work / f"{stem}.qasm")
    return (
        ("build", "--construction", construction, "--coin", coin_path, "--out", circ, "--qasm", qasm),
        ("analyze", "--circuit", circ, "--compile"),
    ), Path(qasm)


def _compile_op(spec: Compile, rng, work: Path) -> Op:
    field_ = coins.random_field(spec.n, seed=int(rng.integers(2**31)))
    coin_path = _write_json(work / f"{spec.name}.coin.json", field_spec(field_))
    argvs, qasm_path = compile_argvs(spec.construction, coin_path, work, spec.name)

    def check(results):
        for rc, text in results:
            if rc != 0:
                return f"exit code {rc}: {text.strip()}", {}
        report = json.loads(results[1][1])
        compiled = report["compiled"]
        counts = {"basis_gates": compiled["gates"], "basis_depth": compiled["depth"]}
        qasm_gates = sum(
            1 for line in qasm_path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith(("//", "OPENQASM", "include", "qreg"))
        )
        if qasm_gates != compiled["gates"]:
            return f"qasm has {qasm_gates} gates, analyze compiled {compiled['gates']}", counts
        if set(compiled["gate_counts"]) - {"rx", "ry", "rz", "p", "cnot"}:
            return f"compiled kinds {sorted(compiled['gate_counts'])} outside the basis", counts
        bound = reference.linear_depth_bound(spec.n)
        if spec.construction == "linear" and report["depth"] > bound:
            return f"linear depth {report['depth']} over the bound {bound}", counts
        return None, counts

    return Op(spec.name, argvs, check)


def prepare(workload: str, seed: int, work: Path, specs=None) -> list[Op]:
    """Draw the workload's fields from ``seed`` and write its input files."""
    ops = []
    for index, spec in enumerate(specs or WORKLOADS[workload]):
        rng = np.random.default_rng([seed, index])
        if isinstance(spec, Walk):
            ops.append(_walk_op(spec, rng, work))
        elif isinstance(spec, Verify):
            ops.append(_verify_op(spec, rng, work))
        else:
            ops.append(_compile_op(spec, rng, work))
    return ops


def qasm_checks(seed: int, work: Path) -> list[str]:
    """Compile each construction at n=3 and run its QASM against the coins."""
    errors = []
    for index, construction in enumerate(QASM_CONSTRUCTIONS):
        field_ = coins.random_field(QASM_CHECK_N, seed=int(np.random.default_rng([seed, 99, index]).integers(2**31)))
        coin_path = _write_json(work / f"qasm-{construction}.coin.json", field_spec(field_))
        argvs, qasm_path = compile_argvs(construction, coin_path, work, f"qasm-{construction}")
        try:
            rc, text = call_cli(argvs[0])
            if rc != 0:
                errors.append(f"qasm check {construction}: exit {rc}: {text.strip()}")
                continue
            dev = reference.qasm_coin_deviation(qasm_path.read_text(encoding="utf-8"), field_.coins)
        except (Exception, SystemExit) as exc:  # a crash is a failed check, not a benchmark crash
            errors.append(f"qasm check {construction}: {type(exc).__name__}: {exc}")
            continue
        if not dev <= reference.QASM_TOL:
            errors.append(f"qasm check {construction}: deviation {dev:.3e}")
    return errors


def execute(op: Op, tracer=None) -> Sample:
    """Run one operation, timed; the check runs after the clock stops."""
    results = []
    error = None
    t0 = time.perf_counter()
    span = tracer.begin("cli") if tracer else None
    try:
        for argv in op.argvs:
            results.append(call_cli(argv))
    except (Exception, SystemExit) as exc:  # the program crashed: count it as failed
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.finish(span)
    seconds = time.perf_counter() - t0
    counts = {}
    if error is None:
        try:
            error, counts = op.check(results)
        except (ValueError, KeyError, OSError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    return Sample(op.name, seconds, error, counts)


def seconds_by_op(samples, raw: bool = False) -> dict[str, list[float]]:
    """Scaled (or wall) seconds of each operation's executions."""
    by_op: dict[str, list[float]] = {}
    for s in samples:
        by_op.setdefault(s.op, []).append(s.seconds if raw else s.scaled)
    return by_op


def throughput(samples) -> float:
    """Operations per second of a round made of each operation's median scaled time.

    Not the operations completed over the loop's wall time: that follows the
    host's speed, and a partial last round would weigh one kind more.
    """
    by_op = seconds_by_op(samples)
    return len(by_op) / sum(statistics.median(v) for v in by_op.values())


def round_count(samples, key: str) -> float:
    """A count per round: each operation's median count, summed."""
    by_op: dict[str, list[float]] = {}
    for s in samples:
        by_op.setdefault(s.op, []).append(s.counts.get(key, 0))
    return sum(statistics.median(v) for v in by_op.values())


def run_rounds(ops: list[Op], seconds: float, tracer=None) -> list[Sample]:
    """Closed loop: repeat the round until ``seconds`` pass, at least once.

    A new operation starts only while time remains, so the last round may
    be partial; every operation kind gets at least one sample.  The host
    probe runs before the first operation and after each one.
    """
    samples: list[Sample] = []
    t0 = time.perf_counter()
    before = probe()
    while True:
        for op in ops:
            if len(samples) >= len(ops) and time.perf_counter() - t0 >= seconds:
                return samples
            if tracer:
                tracer.current_op = len(samples)
            sample = execute(op, tracer)
            after = probe()
            sample.scaled = sample.seconds * host_scale(before, after)
            samples.append(sample)
            before = after
