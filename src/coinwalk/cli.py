"""Command-line front end.

Subcommands mirror the library surface: build writes circuit JSON (and
optionally compiled QASM), analyze reports depth/counts next to the
closed-form predictions, verify compares a builder's collapsed coins with
the field, walk runs an evolution to JSON/CSV, scaling tabulates circuit
cost against n, and shift builds/probes either shift scheme.  No
subcommand builds a square matrix.

Exit codes: 0 success, 1 verification failure, 2 usage problems (a malformed
document included) and size refusals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import stat
import sys

import numpy as np

from . import circuit as cir
from . import coins, linear, qasm, shift, statevec, transpile, walk
from .errors import ToolkitError, read_json

__all__ = ["main"]

#: The ToolkitError code that refuses a request for its size: exit 2, not 1.
_SIZE_CODE = "dense-limit-exceeded"


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return read_json(fh.read())


def _write(path: str, text: str) -> None:
    """Write ``text`` over ``path``, cutting a regular file at its new end.

    The file is not opened with ``O_TRUNC``: ext4 (``auto_da_alloc``) starts
    writeback when a file truncated to zero is closed, so rewriting the same
    output stalled for up to about 10 ms.  A pipe or device is only written.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _cmd_build(args) -> int:
    field = coins.coin_field_from_json(_load_json(args.coin))
    circ = walk.build_coin(args.construction, field, args.truncation)
    _write(args.out, cir.circuit_to_json(circ))
    print(f"wrote {args.out}: {len(circ.gates)} gates on {circ.num_wires} wires")
    if args.qasm:
        compiled = transpile.compile_circuit(circ)
        _write(args.qasm, qasm.to_qasm(compiled))
        print(f"wrote {args.qasm}: {len(compiled.gates)} basis gates")
    return 0


def _predictions(circ: cir.Circuit) -> dict:
    """The closed-form report fields for a circuit, by its builder tag; the one
    source of predictions for ``analyze``, ``scaling`` and ``shift``."""
    builder = circ.metadata.get("builder")
    n = circ.registers.n
    if builder == "linear":
        return {"predicted_depth": linear.predicted_depth(n)}
    for scheme in shift.SCHEMES:
        if builder == f"shift-{scheme}":
            size, depth_ = shift.predicted_cost(scheme, n)
            return {"predicted_cost": {"size": size, "depth": depth_}}
    return {}


def _cmd_analyze(args) -> int:
    with open(args.circuit, "r", encoding="utf-8") as fh:
        circ = cir.circuit_from_json(fh.read())
    counts, depth = cir.gate_counts(circ), cir.depth(circ)
    report = {
        "n": circ.registers.n,
        "layout": circ.registers.layout,
        "builder": circ.metadata.get("builder"),
        "num_wires": circ.num_wires,
        "gates": len(circ.gates),
        "gate_counts": counts,
        "depth": depth,
        # with no swap to expand, the expanded circuit is the circuit itself
        "depth_expanded": cir.depth(transpile.expand_swaps(circ)) if {"swap", "cswap"} & counts.keys() else depth,
        **_predictions(circ),
    }
    if args.compile:
        compiled = transpile.compile_circuit(circ)
        # a circuit already in the basis (the Walsh coin) compiles to its own
        # gate objects, whose counts and depth are those just reported
        same = compiled.gates == circ.gates  # gates compare by identity
        report["compiled"] = {
            "gates": len(compiled.gates),
            "gate_counts": counts if same else cir.gate_counts(compiled),
            "depth": depth if same else cir.depth(compiled),
        }
    print(json.dumps(report, indent=1))
    return 0


def _cmd_verify(args) -> int:
    tol = walk.CONSTRUCTIONS[args.construction]
    n = statevec.check_document_n(args.n)
    if args.construction == "linear":  # the linear probe is sparse, with its own budget
        linear.check_collapse_budget(n)
    else:
        statevec.check_dense_vector(n + 1, "the walk layout")
    field = coins.random_field(n, seed=args.seed)
    circ = walk.build_coin(args.construction, field)
    why = ""
    try:
        got, residual = walk.collapse(circ)
        # the reading against the field, and the circuit simulated against it
        deviation = max(float(np.max(np.abs(got - field.coins))), residual,
                        walk.coin_deviation(circ, field.coins))
    except ToolkitError as exc:  # a circuit the reading refuses
        if exc.code != "coin-not-block-diagonal":
            raise
        deviation, why = math.inf, f": {exc.message}"
    print(f"{args.construction} n={args.n} seed={args.seed}: "
          f"max deviation {deviation:.3e} (tolerance {tol:.1e}){why}")
    return 0 if deviation <= tol else 1


def _cmd_walk(args) -> int:
    config = walk.config_from_json(_load_json(args.config))
    result = walk.run(config)
    tvd_vs_oracle = None
    if config.coin_builder != "dense-oracle":
        oracle = walk.matrix_oracle_run(config.field, config.steps, walk.initial_state(config))
        tvd_vs_oracle = walk.tvd(result.distribution, oracle.distribution)
    if args.out.endswith(".csv"):
        _write(args.out, walk.results_to_csv(result))
    else:
        _write(args.out, walk.results_to_json(config, result, tvd_vs_oracle))
    if args.csv:
        _write(args.csv, walk.results_to_csv(result))
    msg = f"wrote {args.out}"
    if tvd_vs_oracle is not None:
        msg += f" (tvd vs oracle {tvd_vs_oracle:.3e})"
    print(msg)
    return 0


def _parse_range(text: str) -> range:
    """``--n-range LO..HI`` as the n from LO to HI, each one a document may name."""
    match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    lo, hi = map(int, match.groups()) if match else (1, 0)
    if lo > hi:
        raise ValueError(f"--n-range must read LO..HI, integers with LO <= HI, got {text!r}")
    return range(statevec.check_document_n(lo), statevec.check_document_n(hi) + 1)


def _cmd_scaling(args) -> int:
    rows = ["n,gates,depth,gates_compiled,depth_compiled,predicted"]
    for n in _parse_range(args.n_range):
        field = coins.random_field(n, seed=args.seed)
        circ = walk.build_coin(args.construction, field)
        compiled = transpile.compile_circuit(circ)
        predicted = _predictions(circ).get("predicted_depth", "")
        rows.append(
            f"{n},{len(circ.gates)},{cir.depth(circ)},"
            f"{len(compiled.gates)},{cir.depth(compiled)},{predicted}"
        )
    _write(args.out, "\n".join(rows) + "\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_shift(args) -> int:
    circ = shift.build_shift(args.scheme, statevec.check_document_n(args.n))
    compiled = transpile.compile_circuit(circ)
    print(json.dumps({
        "scheme": args.scheme,
        "n": args.n,
        "gates": len(circ.gates),
        "depth": cir.depth(circ),
        "gates_compiled": len(compiled.gates),
        "depth_compiled": cir.depth(compiled),
        **_predictions(circ),
    }, indent=1))
    if args.verify:
        deviation = walk.shift_deviation(circ)
        print(f"max deviation vs permutation oracle: {deviation:.3e}")
        return 0 if deviation <= walk.SHIFT_TOL else 1
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinwalk",
        description="Circuit synthesis and verification for coined walks on a cycle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a coin circuit from a coin-field spec")
    p.add_argument("--construction", required=True, choices=walk.CONSTRUCTIONS)
    p.add_argument("--coin", required=True, help="coin-field spec JSON path")
    p.add_argument("--truncation", type=int, default=None, help="walsh series order")
    p.add_argument("--out", required=True, help="circuit JSON output path")
    p.add_argument("--qasm", default=None, help="also write compiled OPENQASM 2.0")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("analyze", help="depth/size report for a circuit JSON")
    p.add_argument("--circuit", required=True)
    p.add_argument("--compile", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="builder-vs-oracle equivalence check")
    p.add_argument("--construction", required=True, choices=walk.CONSTRUCTIONS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("walk", help="run an evolution from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="results path (.json or .csv)")
    p.add_argument("--csv", default=None, help="optional extra CSV output")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("scaling", help="cost-vs-n table for a construction")
    p.add_argument("--construction", required=True, choices=walk.CONSTRUCTIONS)
    p.add_argument("--n-range", default="1..6")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("shift", help="build a shift circuit, optionally verify")
    p.add_argument("--scheme", required=True, choices=shift.SCHEMES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_shift)

    return parser


#: built once, at import: built per call, it cost 1-1.5 ms of every call to main
_PARSER = _make_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 2 if exc.code == _SIZE_CODE else 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
