"""coinwalk benchmark: drive the CLI in-process and report end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload walk --seed 1 --seconds 35 --trace 0

``--workload`` is ``walk``, ``linear``, ``synth`` or ``all`` (each of the
three in turn, in its own process).  One client runs in one process with no
extra threads: each operation starts when the previous one ends.  Inputs
are drawn from ``--seed`` and written under ``perfbench/work/``.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  The lines
before it give every metric with its unit and sample count, and the
environment.  See ``perfbench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("walk", "linear", "synth")
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit) of the end-to-end metrics every untraced run reports.
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_geomean_s", "s"), ("peak_rss_mb", "MB")]


def _import_program() -> None:
    """Import coinwalk from this checkout's ``src``, or exit with an error."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import coinwalk.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import coinwalk from {ROOT / 'src'}: {exc}")
    if Path(coinwalk.cli.__file__).resolve().parents[2] != ROOT:
        sys.exit(f"perfbench: coinwalk came from {coinwalk.cli.__file__}, not this checkout")


def _environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "commit": commit,
        "seed": seed,
    }


def _work_dir(args) -> Path:
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return work


def _setup_only(args) -> int:
    """Set up as a timed run does, print ``ready``, and clean up."""
    _import_program()
    import workloads

    work = _work_dir(args)
    try:
        workloads.prepare(args.workload, args.seed, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _setup_seconds(args, workloads) -> tuple[float, list[float]]:
    """Set-up time at the probe's host speed, and the wall seconds behind it.

    Each set-up runs in a fresh process and is timed from its start until
    its first operation is ready, so every one pays the interpreter start
    and a cold import of numpy and coinwalk, as a user's run does.  Probes
    run here between the set-ups; the median wall time is scaled by their
    median.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    wall, probes = [], [workloads.probe()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            wall.append(time.perf_counter() - t0)
            child.stdout.read()
        if ready != "ready\n" or child.returncode != 0:
            sys.exit(f"perfbench: set-up in a fresh process failed (exit {child.returncode})")
        probes.append(workloads.probe())
    return statistics.median(wall) * workloads.PROBE_REF_S / statistics.median(probes), wall


def _run(args) -> int:
    _import_program()

    import numpy as np

    import tracing
    import workloads

    env = _environment(args.seed)
    work_root = HERE / "work"
    setup_s, setup_wall_s = (0.0, []) if args.trace else _setup_seconds(args, workloads)
    work = _work_dir(args)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            # Set-up runs traced once, as operation id -1, for coins.field.self_s.
            uninstall = tracing.install(tracer)
            try:
                ops = workloads.prepare(args.workload, args.seed, work)
            finally:
                uninstall()
            # Half the time untraced, half traced: their ratio is the overhead.
            plain = workloads.run_rounds(ops, args.seconds / 2)
            uninstall = tracing.install(tracer)
            try:
                samples = workloads.run_rounds(ops, args.seconds / 2, tracer)
            finally:
                uninstall()
        else:
            ops = workloads.prepare(args.workload, args.seed, work)
            plain = []
            samples = workloads.run_rounds(ops, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra_checks = workloads.qasm_checks(args.seed, work) if args.workload == "synth" else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table = []  # (name, value, unit, sample count)
    if tracer:
        values, span_errors = tracing.round_values(tracer, samples)
        for s, error in zip(samples, span_errors):
            if error and s.error is None:
                s.error = error
        values["trace.ops_per_s"] = workloads.throughput(samples)
        values["trace.untraced_ops_per_s"] = workloads.throughput(plain)
        values["trace.overhead"] = values["trace.untraced_ops_per_s"] / values["trace.ops_per_s"] - 1
        for key in ("basis_gates", "basis_depth"):
            values[key] = workloads.round_count(samples, key)
        for name, unit, _ in tracing.LAYER_METRICS:
            table.append((name, values.get(name, 0.0), unit, len(samples)))
        metric_names = [name for name, _, _ in tracing.LAYER_METRICS]
        np.savez(
            work_root / f"trace-{args.workload}-s{args.seed}.npz",
            names=np.array(tracer.names),
            kinds=np.array([s.op for s in samples]),
            **tracer.arrays(),
        )
    else:
        by_op = workloads.seconds_by_op(samples)
        values = {
            "setup_s": setup_s,
            "ops_per_s": workloads.throughput(samples),
            "op_geomean_s": math.exp(statistics.fmean(math.log(statistics.median(v)) for v in by_op.values())),
            "peak_rss_mb": peak_rss_mb,
        }
        count = {"setup_s": len(setup_wall_s), "peak_rss_mb": 1}
        for name, unit in END_TO_END:
            table.append((name, values[name], unit, count.get(name, len(samples))))
        metric_names = [name for name, _ in END_TO_END]

    failures = [f"{s.op}: {s.error}" for s in plain + samples if s.error] + extra_checks
    attempted = len(plain) + len(samples) + (len(workloads.QASM_CONSTRUCTIONS) if args.workload == "synth" else 0)
    if not tracer:
        # Shown, not on the result line: the per-operation medians and the
        # synth counts exist on one workload only, and fail_ratio is 0 when
        # the program is correct.
        table.append(("fail_ratio", len(failures) / attempted, "ratio", attempted))
        wall = workloads.seconds_by_op(samples, raw=True)
        for op, secs in by_op.items():
            table.append((f"{op}_s", statistics.median(secs), "s", len(secs)))
        for op, secs in wall.items():
            table.append((f"{op}_wall_s", statistics.median(secs), "s", len(secs)))
        if args.workload == "synth":
            for key in ("basis_gates", "basis_depth"):
                table.append((key, workloads.round_count(samples, key), "count", len(samples)))

    rounds = len(samples) / len(ops)
    report = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds, "rounds": rounds,
        "environment": env, "failures": failures,
        "setup_wall_seconds": setup_wall_s,
        "op_seconds": workloads.seconds_by_op(plain + samples),
        "op_wall_seconds": workloads.seconds_by_op(plain + samples, raw=True),
        "metrics": [{"name": n, "value": v, "unit": u, "samples": c} for n, v, u, c in table],
    }
    (work_root / f"report-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(f"coinwalk benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={rounds:.2f}")
    print("environment: " + json.dumps(env))
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"{'metric':40} {'value':>14} {'unit':>6} {'samples':>8}")
    for name, value, unit, n in table:
        print(f"{name:40} {value:14.6g} {unit:>6} {n:8d}")
    units = {name: unit for name, _, unit, _ in table}
    values = {name: value for name, value, _, _ in table}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in metric_names},
    }))
    return 0


def _run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, then print 'ready' (used to time set-up in fresh processes)")
    args = parser.parse_args(argv)
    # One client and no extra threads: a threaded BLAS on two shared cores
    # made small matrix products swing between 1 ms and 180 ms.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_only:
        return _setup_only(args)
    if args.workload == "all":
        return _run_all(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
