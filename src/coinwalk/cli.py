"""Command-line front end.

Subcommands mirror the library surface: build writes circuit JSON (and
optionally compiled QASM), analyze reports depth/counts next to the
closed-form predictions, verify replays a builder's oracle equivalence,
walk runs an evolution to JSON/CSV, scaling tabulates circuit cost against
n, and shift builds/checks either shift scheme.

Exit codes: 0 success, 1 verification failure, 2 usage problems.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import circuit as cir
from . import coins, linear, naive, qasm, shift, statevec, transpile, walk, walsh
from .errors import ToolkitError

__all__ = ["main"]


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _build_coin_circuit(construction: str, field: coins.CoinField, truncation):
    if construction == "naive":
        return naive.build_naive(field)
    if construction == "linear":
        return linear.build_linear(field)
    return walsh.build_walsh_coin(field, m=truncation)


def _cmd_build(args) -> int:
    field = coins.coin_field_from_json(_load_json(args.coin))
    circ = _build_coin_circuit(args.construction, field, args.truncation)
    _write(args.out, cir.circuit_to_json(circ))
    print(f"wrote {args.out}: {len(circ.gates)} gates on {circ.num_wires} wires")
    if args.qasm:
        compiled = transpile.compile_circuit(circ)
        _write(args.qasm, qasm.to_qasm(compiled))
        print(f"wrote {args.qasm}: {len(compiled.gates)} basis gates")
    return 0


def _predictions(circ: cir.Circuit) -> dict:
    builder = circ.metadata.get("builder")
    n = circ.registers.n
    out: dict = {}
    if builder == "linear":
        out["predicted_depth"] = linear.predicted_depth(n)
    elif builder == "shift-qft":
        size, depth_ = shift.predicted_cost("qft", n)
        out["predicted_cost"] = {"size": size, "depth": depth_}
    elif builder == "shift-id":
        size, depth_ = shift.predicted_cost("id", n)
        out["predicted_cost"] = {"size": size, "depth": depth_}
    return out


def _cmd_analyze(args) -> int:
    with open(args.circuit, "r", encoding="utf-8") as fh:
        circ = cir.circuit_from_json(fh.read())
    report = {
        "n": circ.registers.n,
        "layout": circ.registers.layout,
        "builder": circ.metadata.get("builder"),
        "num_wires": circ.num_wires,
        "gates": len(circ.gates),
        "gate_counts": cir.gate_counts(circ),
        "depth": cir.depth(circ),
        "depth_expanded": cir.depth(circ, expanded=True),
    }
    report.update(_predictions(circ))
    if args.compile:
        compiled = transpile.compile_circuit(circ)
        report["compiled"] = {
            "gates": len(compiled.gates),
            "gate_counts": cir.gate_counts(compiled),
            "depth": cir.depth(compiled),
        }
    print(json.dumps(report, indent=1))
    return 0


def _verify_naive(n: int, seed: int) -> float:
    field = coins.random_field(n, seed=seed)
    u = statevec.circuit_unitary(naive.build_naive(field))
    return float(np.max(np.abs(u - coins.total_coin_matrix(field))))


def _verify_linear(n: int, seed: int) -> float:
    field = coins.random_field(n, seed=seed)
    circ = linear.build_linear(field)
    regs = circ.registers
    c_mat = coins.total_coin_matrix(field)
    worst = 0.0
    for k in range(1 << n):
        base = 0
        for p in range(n):
            if (k >> p) & 1:
                base |= 1 << regs.position(p)
        for s0 in (0, 1):
            init = base | (s0 << regs.coin())
            state = statevec.SparseState.from_basis(regs.num_wires, init)
            state = statevec.apply_circuit(state, circ)
            want = {}
            for c in (0, 1):
                amp = c_mat[2 * k + c, 2 * k + s0]
                if abs(amp) > 1e-14:
                    want[base | (c << regs.coin())] = amp
            for key in set(state.amplitudes) | set(want):
                worst = max(worst, abs(state.amplitude(key) - want.get(key, 0.0)))
    return worst


def _verify_walsh(n: int, seed: int) -> float:
    field = coins.random_field(n, seed=seed)
    u = statevec.full_unitary(walsh.build_walsh_coin(field))
    return float(np.max(np.abs(u - coins.total_coin_matrix(field))))


_VERIFIERS = {
    "naive": (_verify_naive, 1e-10),
    "linear": (_verify_linear, 1e-10),
    "walsh": (_verify_walsh, 1e-9),
}


def _cmd_verify(args) -> int:
    checker, tol = _VERIFIERS[args.construction]
    deviation = checker(args.n, args.seed)
    print(f"{args.construction} n={args.n} seed={args.seed}: "
          f"max deviation {deviation:.3e} (tolerance {tol:.1e})")
    return 0 if deviation <= tol else 1


def _cmd_walk(args) -> int:
    config = walk.config_from_json(_load_json(args.config))
    result = walk.run(config)
    tvd_vs_oracle = None
    if config.coin_builder != "dense-oracle" and config.n + 1 <= statevec.dense_limit():
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
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi) + 1)


def _cmd_scaling(args) -> int:
    rows = ["n,gates,depth,gates_compiled,depth_compiled,predicted"]
    for n in _parse_range(args.n_range):
        field = coins.random_field(n, seed=args.seed)
        circ = _build_coin_circuit(args.construction, field, None)
        compiled = transpile.compile_circuit(circ)
        predicted = linear.predicted_depth(n) if args.construction == "linear" else ""
        rows.append(
            f"{n},{len(circ.gates)},{cir.depth(circ)},"
            f"{len(compiled.gates)},{cir.depth(compiled)},{predicted}"
        )
    _write(args.out, "\n".join(rows) + "\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_shift(args) -> int:
    builder = shift.build_shift_qft if args.scheme == "qft" else shift.build_shift_id
    circ = builder(args.n)
    size, depth_ = shift.predicted_cost(args.scheme, args.n)
    compiled = transpile.compile_circuit(circ)
    print(json.dumps({
        "scheme": args.scheme,
        "n": args.n,
        "gates": len(circ.gates),
        "depth": cir.depth(circ),
        "gates_compiled": len(compiled.gates),
        "depth_compiled": cir.depth(compiled),
        "predicted_cost": {"size": size, "depth": depth_},
    }, indent=1))
    if args.verify:
        want = shift.shift_permutation_matrix(args.n)
        got = statevec.circuit_unitary(circ)
        deviation = float(np.max(np.abs(got - want)))
        print(f"max deviation vs permutation oracle: {deviation:.3e}")
        return 0 if deviation <= 1e-9 else 1
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinwalk",
        description="Circuit synthesis and verification for coined walks on a cycle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a coin circuit from a coin-field spec")
    p.add_argument("--construction", required=True, choices=["naive", "linear", "walsh"])
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
    p.add_argument("--construction", required=True, choices=sorted(_VERIFIERS))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("walk", help="run an evolution from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="results path (.json or .csv)")
    p.add_argument("--csv", default=None, help="optional extra CSV output")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("scaling", help="cost-vs-n table for a construction")
    p.add_argument("--construction", required=True, choices=["naive", "linear", "walsh"])
    p.add_argument("--n-range", default="1..6")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("shift", help="build a shift circuit, optionally verify")
    p.add_argument("--scheme", required=True, choices=["qft", "id"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_shift)

    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
