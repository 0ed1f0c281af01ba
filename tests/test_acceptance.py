"""Acceptance checks, one verdict line per criterion.

Each test prints a single "criterion N: PASS/FAIL" line outside pytest's
capture so the run log always carries all nine verdicts, then asserts.
Tolerances and runtime caps are part of the contract and are asserted,
not just reported.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from coinwalk import (
    Circuit,
    RegisterMap,
    SparseState,
    WalkConfig,
    WalshSeries,
    apply_circuit,
    build_linear,
    build_naive,
    build_q0,
    build_q1_parallel,
    build_q2,
    build_shift_id,
    build_shift_qft,
    build_walsh,
    build_walsh_coin,
    circuit_unitary,
    depth,
    dirac_field,
    gate_counts,
    initial_state,
    matrix_oracle_run,
    predicted_cost,
    predicted_depth,
    random_field,
    run as run_walk,
    shift_permutation_matrix,
    total_coin_matrix,
    truncate,
    walsh_coefficients,
)
from coinwalk.cli import main as cli_main
from oracles import build_linear_phase, dyadic_coordinate, walsh_product_gates

FIXTURES = Path(__file__).parent / "fixtures"

_PAULI = {
    "i": np.eye(2),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@pytest.fixture()
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def exponential_oracle(samples, sigma):
    pauli = _PAULI[sigma]
    dim = 2 * len(samples)
    out = np.zeros((dim, dim), dtype=complex)
    for k, f in enumerate(samples):
        block = np.cos(f) * np.eye(2) + 1j * np.sin(f) * pauli
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return out


def unitary_with_phase(circuit):
    phase = float(circuit.metadata.get("global_phase", 0.0))
    return np.exp(1j * phase) * circuit_unitary(circuit)


def test_criterion_1_sequential_coin_equivalence(report):
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 5):
        for seed in range(10):
            field = random_field(n, seed=seed)
            u = circuit_unitary(build_naive(field))
            worst = max(worst, float(np.max(np.abs(u - total_coin_matrix(field)))))
    elapsed = time.perf_counter() - started
    report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"n=1..4 x 10 seeds, max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_parallel_coin_application(report):
    started = time.perf_counter()
    worst = 0.0
    residual_worst = 0.0

    # n = 1..3: dense state vectors, every data basis input plus random
    # zero-ancilla superpositions.
    for n in (1, 2, 3):
        field = random_field(n, seed=n)
        circ = build_linear(field)
        regs = circ.registers
        c_mat = total_coin_matrix(field)
        dim = 1 << regs.num_wires
        ancilla_mask = 0
        for m in range(1 << n):
            ancilla_mask |= 1 << regs.apos(m)
        for m in range(1, 1 << n):
            ancilla_mask |= 1 << regs.acoin(m)

        inputs = []
        for k in range(1 << n):
            for c in (0, 1):
                data = np.zeros(1 << (n + 1), dtype=complex)
                data[2 * k + c] = 1.0
                inputs.append(data)
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            data = rng.normal(size=1 << (n + 1)) + 1j * rng.normal(size=1 << (n + 1))
            inputs.append(data / np.linalg.norm(data))

        for data in inputs:
            vec = np.zeros(dim, dtype=complex)
            for k in range(1 << n):
                for c in (0, 1):
                    vec[regs.embed(k, c)] = data[2 * k + c]
            out = apply_circuit(vec, circ)
            applied = c_mat @ data
            want = np.zeros(dim, dtype=complex)
            for k in range(1 << n):
                for c in (0, 1):
                    want[regs.embed(k, c)] = applied[2 * k + c]
            worst = max(worst, float(np.max(np.abs(out - want))))
            lifted = np.flatnonzero(np.abs(out) > 1e-13)
            residual = max(
                (abs(out[i]) for i in lifted if int(i) & ancilla_mask), default=0.0
            )
            residual_worst = max(residual_worst, float(residual))

    # n = 4, 5: sparse amplitudes, every data basis input (the 64-input
    # budget covers both spaces completely).
    for n in (4, 5):
        field = random_field(n, seed=n)
        circ = build_linear(field)
        regs = circ.registers
        c_mat = total_coin_matrix(field)
        ancilla_mask = 0
        for m in range(1 << n):
            ancilla_mask |= 1 << regs.apos(m)
        for m in range(1, 1 << n):
            ancilla_mask |= 1 << regs.acoin(m)
        for k in range(1 << n):
            for c in (0, 1):
                state = SparseState.from_basis(regs.num_wires, regs.embed(k, c))
                state = apply_circuit(state, circ)
                want = {
                    regs.embed(k, out_c): c_mat[2 * k + out_c, 2 * k + c]
                    for out_c in (0, 1)
                }
                for key in set(state.amplitudes) | set(want):
                    worst = max(
                        worst, abs(state.amplitude(key) - want.get(key, 0.0))
                    )
                    if key & ancilla_mask:
                        residual_worst = max(residual_worst, abs(state.amplitude(key)))

    elapsed = time.perf_counter() - started
    report(
        2,
        worst <= 1e-10 and residual_worst <= 1e-10 and elapsed < 60.0,
        f"max deviation {worst:.2e}, ancilla residual {residual_worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_depth_bounds(report):
    rows = []
    ok = True
    for n in range(1, 6):
        bump = 1 if n == 1 else 0
        field = random_field(n, seed=n)
        measured = depth(build_linear(field))
        bound = predicted_depth(n)
        ok &= measured <= bound
        ok &= depth(build_q0(field)) == 1
        ok &= depth(build_q2(n)) <= 5 * n - 2
        ok &= depth(build_q1_parallel(n)) <= 5 * n - 2 + bump
        rows.append(f"n={n}:{measured}{'=' if measured == bound else '<'}{bound}")
    report(3, ok, "block depth vs 20n+2[n=1]-7: " + " ".join(rows))


def test_criterion_4_shift_schemes(report):
    worst = 0.0
    for n in range(1, 5):
        want = shift_permutation_matrix(n)
        for builder in (build_shift_qft, build_shift_id):
            got = circuit_unitary(builder(n))
            worst = max(worst, float(np.max(np.abs(got - want))))
    forms = predicted_cost("qft", 3) == (22, 9) and predicted_cost("id", 4) == (20, 18)
    report(
        4,
        worst <= 1e-9 and forms,
        f"both schemes n=1..4 max deviation {worst:.2e}; "
        f"cost forms qft(3)={predicted_cost('qft', 3)} id(4)={predicted_cost('id', 4)}",
    )


def test_criterion_5_walsh_exactness_and_truncation(report):
    worst = 0.0
    rng = np.random.default_rng(55)
    for n in range(1, 6):
        xs = np.array([dyadic_coordinate(k, n) for k in range(1 << n)])
        functions = {
            "harmonic": 80 * np.pi * (xs - 0.5) ** 2,
            "linear": 2 * np.pi * xs,
            "random": rng.normal(scale=2.0, size=1 << n),
        }
        for samples in functions.values():
            series = walsh_coefficients(samples)
            for sigma in ("i", "x", "y", "z"):
                oracle = exponential_oracle(samples, sigma)
                circ = build_walsh(series, sigma)
                worst = max(
                    worst, float(np.max(np.abs(unitary_with_phase(circ) - oracle)))
                )

    # Truncation: quadratic well with sup|f'| = 80*pi on the 64-point grid.
    n, v0 = 6, 80 * np.pi
    xs = np.array([dyadic_coordinate(k, n) for k in range(1 << n)])
    series = walsh_coefficients(v0 * (xs - 0.5) ** 2)
    reference = exponential_oracle(series.reconstruct(), "z")
    bound_ok = True
    margins = []
    for m in range(1, 7):
        cut = unitary_with_phase(build_walsh(truncate(series, m), "z"))
        err = np.linalg.norm(cut - reference, 2)
        bound = v0 / (1 << m)
        bound_ok &= err <= bound
        margins.append(f"m={m}:{err:.2f}<={bound:.2f}")
    report(
        5,
        worst <= 1e-9 and bound_ok,
        f"full series max deviation {worst:.2e}; " + " ".join(margins),
    )


def test_criterion_6_linear_phase_budget(report):
    worst = 0.0
    budget_ok = True
    for n in range(1, 6):
        xs = np.array([dyadic_coordinate(k, n) for k in range(1 << n)])
        for a in (5.1, -2.7):
            for sigma in ("i", "x", "y", "z"):
                circ = build_linear_phase(a, sigma, n)
                budget_ok &= len(circ.gates) == n
                budget_ok &= all(
                    len(g.controls) + len(g.targets) == 2 for g in circ.gates
                )
                oracle = exponential_oracle(a * xs, sigma)
                worst = max(
                    worst, float(np.max(np.abs(circuit_unitary(circ) - oracle)))
                )
    report(
        6,
        worst <= 1e-10 and budget_ok,
        f"exactly n two-qubit gates for n=1..5, max deviation {worst:.2e}",
    )


def test_criterion_7_quadratic_well_trapping(report):
    started = time.perf_counter()
    pinned = json.loads((FIXTURES / "dirac_trapped.json").read_text())
    n = pinned["n"]
    v0 = pinned["v0_over_pi"] * np.pi
    center = 1 << (n - 1)
    window = pinned["window_halfwidth"]

    def field_for(charge):
        return dirac_field(
            n,
            mass=pinned["mass"],
            step=pinned["step"],
            charge=charge,
            v0=v0,
            coordinate_map=pinned["coordinate_map"],
        )

    def window_mass(probs):
        ks = np.arange(1 << n)
        return float(probs[np.abs(ks - center) <= window].sum())

    masses = {}
    oracle_probs = {}
    for charge in (1, 0, -1):
        config = WalkConfig(n, pinned["steps"], field_for(charge), initial=pinned["initial"])
        result = matrix_oracle_run(config.field, config.steps, initial_state(config))
        oracle_probs[charge] = result.distribution.probabilities
        masses[charge] = window_mass(oracle_probs[charge])

    circuit_cfg = WalkConfig(
        n,
        pinned["steps"],
        field_for(1),
        coin_builder="walsh",
        shift_scheme="qft",
        initial=pinned["initial"],
    )
    circuit_probs = run_walk(circuit_cfg).distribution.probabilities
    route_dev = float(np.max(np.abs(circuit_probs - oracle_probs[1])))

    pin_dev = float(
        np.max(np.abs(oracle_probs[1] - np.asarray(pinned["probabilities_q_plus1"])))
    )
    mass_dev = max(
        abs(masses[q] - pinned["window_mass"][str(q)]) for q in (1, 0, -1)
    )
    elapsed = time.perf_counter() - started
    ok = (
        route_dev <= 1e-8
        and masses[1] >= 0.60
        and masses[0] < masses[1]
        and pin_dev <= 1e-9
        and mass_dev <= 1e-9
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"circuit vs oracle {route_dev:.2e}; window mass q=+1 {masses[1]:.3f} "
        f"(>=0.60), q=0 {masses[0]:.3f} (lower); pinned drift {pin_dev:.1e}; {elapsed:.1f}s",
    )


def test_criterion_8_cost_scaling(report, tmp_path, bench_field_n3):
    from coinwalk import compile_circuit

    tables = {}
    for construction in ("naive", "linear", "walsh"):
        out = tmp_path / f"{construction}.csv"
        rc = cli_main(
            [
                "scaling",
                "--construction",
                construction,
                "--n-range",
                "1..6",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        tables[construction] = {
            "gates": np.array([int(r[1]) for r in rows], dtype=float),
            "gates_compiled": np.array([int(r[3]) for r in rows], dtype=float),
            "depth_compiled": np.array([int(r[4]) for r in rows], dtype=float),
        }
    ns = np.arange(1, 7)

    # naive: compiled count at least c * 2^n with an exponential fit
    naive_gates = tables["naive"]["gates_compiled"]
    logs = np.log2(naive_gates)
    slope, intercept = np.polyfit(ns, logs, 1)
    fit = slope * ns + intercept
    r_squared = 1 - np.sum((logs - fit) ** 2) / np.sum((logs - logs.mean()) ** 2)
    naive_ok = r_squared >= 0.99 and np.min(naive_gates / 2.0**ns) >= 1.0

    # linear: compiled depth affine in n
    depths = tables["linear"]["depth_compiled"]
    co = np.polyfit(ns, depths, 1)
    residual = float(np.max(np.abs(np.polyval(co, ns) - depths) / depths))
    linear_ok = residual <= 0.05

    # walsh: full-series count within a constant of 2^n
    walsh_gates = tables["walsh"]["gates"]
    walsh_ok = bool(np.all(walsh_gates <= 10 * 2.0**ns)) and bool(
        np.all(np.diff(walsh_gates) > 0)
    )

    # reference magnitudes at n = 3 from an external implementation of the
    # same constructions; transpiler differences allowed up to a factor 3
    references = {"linear": 591, "walsh": 103, "shift-qft": 30}
    measured = {
        "linear": len(compile_circuit(build_linear(bench_field_n3)).gates),
        "walsh": len(compile_circuit(build_walsh_coin(bench_field_n3)).gates),
        "shift-qft": len(compile_circuit(build_shift_qft(3)).gates),
    }
    ratios = {
        key: max(measured[key] / references[key], references[key] / measured[key])
        for key in references
    }
    reference_ok = all(ratio <= 3.0 for ratio in ratios.values())

    side_by_side = " ".join(
        f"{key}:{measured[key]}/{references[key]}" for key in references
    )
    report(
        8,
        naive_ok and linear_ok and walsh_ok and reference_ok,
        f"naive R2={r_squared:.4f}, linear affine residual {residual:.3f}, "
        f"walsh ≤ 10*2^n; measured/reference {side_by_side}",
    )


def test_criterion_9_term_order_and_gray_pass(report):
    rng = np.random.default_rng(99)
    n = 3
    regs = RegisterMap.walk(n)
    series = walsh_coefficients(rng.normal(scale=1.2, size=1 << n))
    base = build_walsh(series, "z", optimize=False)
    reference = circuit_unitary(base)
    worst = 0.0
    terms = series.terms()
    for _ in range(20):
        order = [terms[i] for i in rng.permutation(len(terms))]
        shuffled = Circuit(
            regs,
            tuple(walsh_product_gates(regs, "z", order)),
            {"builder": "walsh", "n": n, "global_phase": 0.0},
        )
        worst = max(worst, float(np.max(np.abs(circuit_unitary(shuffled) - reference))))
    gray = build_walsh(series, "z", optimize=True)
    worst = max(worst, float(np.max(np.abs(circuit_unitary(gray) - reference))))

    # strict CNOT reduction; the bare phase series at n = 2 already sits at
    # its two-CNOT parity floor, where the composite coin still gains.
    strict_ok = True
    for sigma in ("x", "y", "z"):
        for size in range(2, 6):
            coeffs = rng.uniform(0.2, 1.0, size=1 << size)
            dense_series = WalshSeries(size, coeffs)
            before = gate_counts(build_walsh(dense_series, sigma, optimize=False))
            after = gate_counts(build_walsh(dense_series, sigma, optimize=True))
            strict_ok &= after.get("cnot", 0) < before.get("cnot", 0)
    for size in range(3, 6):
        coeffs = rng.uniform(0.2, 1.0, size=1 << size)
        dense_series = WalshSeries(size, coeffs)
        before = gate_counts(build_walsh(dense_series, "i", optimize=False))
        after = gate_counts(build_walsh(dense_series, "i", optimize=True))
        strict_ok &= after.get("cnot", 0) < before.get("cnot", 0)
    floor_series = WalshSeries(2, rng.uniform(0.2, 1.0, size=4))
    floor_before = gate_counts(build_walsh(floor_series, "i", optimize=False))
    floor_after = gate_counts(build_walsh(floor_series, "i", optimize=True))
    floor_ok = floor_after.get("cnot", 0) == floor_before.get("cnot", 0) == 2
    field2 = random_field(2, seed=2)
    coin_before = gate_counts(build_walsh_coin(field2, optimize=False)).get("cnot", 0)
    coin_after = gate_counts(build_walsh_coin(field2, optimize=True)).get("cnot", 0)
    composite_ok = coin_after < coin_before

    report(
        9,
        worst <= 1e-9 and strict_ok and floor_ok and composite_ok,
        f"20 term orders + gray max deviation {worst:.2e}; strict CNOT drop for "
        f"sigma in XYZ (n=2..5) and I (n=3..5); phase n=2 parity floor 2->2, "
        f"composite coin {coin_before}->{coin_after}",
    )
