"""Walsh series: transform, truncation, and exponential circuit emission."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import walsh
from coinwalk import (
    GateInstance,
    RegisterMap,
    ToolkitError,
    WalshSeries,
    build_linear_phase,
    build_walsh,
    build_walsh_coin,
    circuit_unitary,
    derivative_sup_estimate,
    dirac_field,
    dyadic_coordinate,
    function_from_spec,
    gate_counts,
    gray_code_optimize,
    gray_walsh_gates,
    random_field,
    series_from_json,
    series_to_json,
    smoothness_check,
    spectral_norm_diff,
    total_coin_matrix,
    truncate,
    truncation_error_bound,
    unwrap_angles,
    walsh_coefficients,
    walsh_function,
    walsh_product_gates,
)

_PAULI = {
    "i": np.eye(2),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def exponential_oracle(samples, sigma):
    """Dense sum_k |k><k| (x) e^{i f_k sigma} on the interleaved 2k+c basis."""
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


def smooth_samples(n, seed):
    rng = np.random.default_rng(seed)
    xs = np.array([dyadic_coordinate(k, n) for k in range(1 << n)])
    a, b, c = rng.uniform(-2.0, 2.0, size=3)
    return a * np.sin(2 * np.pi * xs) + b * xs**2 + c


# -- transform -------------------------------------------------------------


def test_walsh_function_low_indices():
    # w_0 is identically 1; w_1 flips sign on the upper half-interval.
    assert walsh_function(0, 0.3) == 1
    assert walsh_function(1, 0.25) == 1
    assert walsh_function(1, 0.75) == -1
    # w_2 keys on the second dyadic digit.
    assert walsh_function(2, 0.25) == -1
    assert walsh_function(2, 0.5) == 1


def test_walsh_function_vector_input():
    xs = np.array([0.0, 0.25, 0.5, 0.75])
    out = walsh_function(3, xs)
    assert isinstance(out, np.ndarray)
    assert out.tolist() == [1, -1, -1, 1]


def test_walsh_function_rejects_negative_index():
    with pytest.raises(ToolkitError) as err:
        walsh_function(-1, 0.5)
    assert err.value.code == "index-out-of-range"


def test_walsh_kernel_matches_bit_parity():
    # At the dyadic point of position k, w_j evaluates to (-1)^popcount(j & k).
    n = 4
    for k in range(1 << n):
        x = dyadic_coordinate(k, n)
        for j in range(1 << n):
            expected = 1 - 2 * (bin(j & k).count("1") % 2)
            assert walsh_function(j, x) == expected


def test_coefficients_match_direct_projection():
    n = 3
    samples = smooth_samples(n, seed=5)
    series = walsh_coefficients(samples)
    xs = np.array([dyadic_coordinate(k, n) for k in range(1 << n)])
    for j in range(1 << n):
        direct = np.mean(samples * walsh_function(j, xs))
        assert series.coefficients[j] == pytest.approx(direct, abs=1e-12)


@given(st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_reconstruct_inverts_transform(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(0, 5)
    samples = rng.normal(size=1 << n)
    series = walsh_coefficients(samples)
    assert np.allclose(series.reconstruct(), samples, atol=1e-12)


def test_terms_skip_zero_coefficients():
    series = WalshSeries(2, [0.0, 1.5, 0.0, -0.25])
    assert series.terms() == [(1, 1.5), (3, -0.25)]


@pytest.mark.parametrize("count", [3, 6, 0])
def test_bad_sample_counts_rejected(count):
    with pytest.raises(ToolkitError) as err:
        walsh_coefficients(np.zeros(count))
    assert err.value.code == "bad-sample-count"


def test_series_shape_guard():
    with pytest.raises(ToolkitError) as err:
        WalshSeries(3, np.zeros(4))
    assert err.value.code == "bad-sample-count"


# -- truncation ------------------------------------------------------------


def test_truncate_keeps_low_indices_only():
    series = walsh_coefficients(smooth_samples(3, seed=1))
    cut = truncate(series, 1)
    assert np.array_equal(cut.coefficients[:2], series.coefficients[:2])
    assert np.all(cut.coefficients[2:] == 0.0)
    full = truncate(series, 3)
    assert np.array_equal(full.coefficients, series.coefficients)


@pytest.mark.parametrize("m", [-1, 4])
def test_truncate_order_bounds(m):
    series = walsh_coefficients(np.zeros(8))
    with pytest.raises(ToolkitError) as err:
        truncate(series, m)
    assert err.value.code == "index-out-of-range"


def test_truncation_error_bound_value():
    assert truncation_error_bound(6.0, 3) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        truncation_error_bound(-1.0, 2)


def test_truncated_samples_within_bound():
    # Quadratic well V0 (x - 1/2)^2 has derivative sup exactly V0 on [0, 1].
    n, v0 = 6, 3.0
    samples = function_from_spec({"kind": "harmonic", "V0": v0}, n)
    series = walsh_coefficients(samples)
    for m in range(0, n + 1):
        approx = truncate(series, m).reconstruct()
        assert np.max(np.abs(approx - samples)) <= truncation_error_bound(v0, m) + 1e-12


def test_smoothness_check_verdicts():
    # scale = eps * 2^n; efficient below scale/8, fails at or above scale.
    assert smoothness_check(0.5, 1e-2, 10) == "efficient"
    assert smoothness_check(11.0, 1e-2, 10) == "fails"
    assert smoothness_check(3.0, 1e-2, 10) == "marginal"
    with pytest.raises(ValueError):
        smoothness_check(1.0, 0.0, 4)


def test_derivative_estimate_exact_on_linear():
    n, slope = 5, 2.25
    samples = function_from_spec({"kind": "linear", "a": slope}, n)
    assert derivative_sup_estimate(samples) == pytest.approx(slope)
    assert derivative_sup_estimate(np.full(8, 1.3)) == 0.0


def test_unwrap_removes_branch_jumps():
    n = 5
    smooth = function_from_spec({"kind": "linear", "a": 9.0}, n) - 2.0
    wrapped = np.angle(np.exp(1j * smooth))
    fixed = unwrap_angles(wrapped, n)
    # Same exponentials, and the recovered values differ from the smooth
    # source by one global 2-pi multiple.
    assert np.allclose(np.exp(1j * fixed), np.exp(1j * smooth), atol=1e-12)
    offsets = (fixed - smooth) / (2 * np.pi)
    assert np.allclose(offsets, np.round(offsets[0]), atol=1e-9)
    xs = np.array([dyadic_coordinate(k, n) for k in range(1 << n)])
    order = np.argsort(xs)
    assert np.max(np.abs(np.diff(fixed[order]))) < np.pi


# -- circuit emission ------------------------------------------------------


@pytest.mark.parametrize("sigma", ["i", "x", "y", "z"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_walsh_matches_exponential(sigma, n):
    samples = smooth_samples(n, seed=10 * n + ord(sigma))
    series = walsh_coefficients(samples)
    oracle = exponential_oracle(samples, sigma)
    for optimize in (False, True):
        circuit = build_walsh(series, sigma, optimize=optimize)
        assert np.max(np.abs(unitary_with_phase(circuit) - oracle)) <= 1e-9


def test_fragment_structure_single_term():
    # j = 5 touches position wires 0 and 2: ladder, core, mirrored ladder.
    regs = RegisterMap.walk(3)
    gates = walsh_product_gates(regs, "z", [(5, 0.7)])
    kinds = [g.kind for g in gates]
    assert kinds == ["cnot", "cnot", "rz", "cnot", "cnot"]
    assert gates[0].controls == (regs.position(2),)
    assert gates[0].targets == (regs.position(0),)
    assert gates[2].targets == (regs.coin(),)
    assert gates[2].angle == pytest.approx(-1.4)


def test_sigma_x_uses_cz_entanglers():
    regs = RegisterMap.walk(2)
    gates = walsh_product_gates(regs, "x", [(1, 0.3)])
    assert [g.kind for g in gates] == ["cz", "rx", "cz"]


def test_zero_index_term_emission():
    regs = RegisterMap.walk(2)
    assert walsh_product_gates(regs, "i", [(0, 0.4)]) == []
    bare = walsh_product_gates(regs, "y", [(0, 0.4)])
    assert len(bare) == 1 and bare[0].kind == "ry"
    assert bare[0].angle == pytest.approx(-0.8)


def test_phase_series_lands_in_metadata():
    series = walsh_coefficients(smooth_samples(2, seed=3))
    circuit = build_walsh(series, "i")
    assert circuit.metadata["global_phase"] == pytest.approx(series.coefficients[0])


@pytest.mark.parametrize(
    "sigma,n,before,after",
    [
        ("z", 2, 8, 4),
        ("z", 3, 24, 8),
        ("y", 3, 24, 8),
        ("i", 3, 10, 8),
    ],
)
def test_gray_pass_entangler_counts(sigma, n, before, after):
    # Dense series (every coefficient nonzero) so every fragment is emitted.
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(0.2, 1.0, size=1 << n)
    series = WalshSeries(n, coeffs)
    plain = build_walsh(series, sigma, optimize=False)
    tight = build_walsh(series, sigma, optimize=True)
    assert gate_counts(plain).get("cnot", 0) == before
    assert gate_counts(tight).get("cnot", 0) == after
    assert np.allclose(circuit_unitary(plain), circuit_unitary(tight), atol=1e-10)


def test_gray_pass_kept_only_on_strict_gain():
    # Full phase series on two wires already sits at its parity floor of
    # two CNOTs, so the merge pass must hand back the input unchanged.
    series = WalshSeries(2, np.array([0.1, 0.3, 0.4, 0.2]))
    plain = build_walsh(series, "i", optimize=False)
    assert gate_counts(plain).get("cnot", 0) == 2
    assert gray_code_optimize(plain) is plain
    tight = build_walsh(series, "i", optimize=True)
    assert gate_counts(tight).get("cnot", 0) == 2
    assert tight.metadata["walsh"]["optimized"] is False


def test_gray_order_follows_given_terms():
    # Entanglers between consecutive rotations toggle the support difference.
    regs = RegisterMap.walk(2)
    gates = gray_walsh_gates(regs, "z", [(1, 0.1), (3, 0.2), (2, 0.3)])
    kinds = [g.kind for g in gates]
    assert kinds == ["cnot", "rz", "cnot", "rz", "cnot", "rz", "cnot"]


def sparse_series(n, seed):
    """Random series with about half its coefficients zeroed."""
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=1 << n)
    coeffs[rng.random(1 << n) < 0.5] = 0.0
    return WalshSeries(n, coeffs)


def gate_tuples(circuit):
    return [(g.kind, g.controls, g.targets, g.angle) for g in circuit.gates]


@pytest.mark.parametrize("sigma", ["i", "x", "y", "z"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_builder_form_equals_gray_pass_of_product_form(sigma, n):
    rng = np.random.default_rng(n)
    for series in (WalshSeries(n, rng.uniform(0.2, 1.0, size=1 << n)), sparse_series(n, n)):
        for m in range(n + 1):
            cut = truncate(series, m)
            built = build_walsh(cut, sigma)
            passed = gray_code_optimize(build_walsh(cut, sigma, optimize=False))
            assert gate_tuples(built) == gate_tuples(passed)
            assert built.metadata == passed.metadata


@pytest.mark.parametrize("sigma", ["i", "x", "y", "z"])
def test_chooser_closed_forms_count_the_emitted_entanglers(sigma):
    def entanglers(gates):
        return sum(1 for g in gates if g.kind in ("cnot", "cz"))

    for n in range(1, 7):
        for seed in range(3):
            regs = RegisterMap.walk(n)
            terms = sparse_series(n, 10 * n + seed).terms()
            ordered = sorted(terms, key=lambda t: walsh._gray_rank(t[0]))
            product = walsh_product_gates(regs, sigma, terms)
            assert walsh._product_entanglers(sigma, terms) == entanglers(product)
            if sigma != "i":
                gray = gray_walsh_gates(regs, sigma, ordered)
                assert walsh._gray_entanglers(ordered) == entanglers(gray)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_walsh_coin_constructs_each_gate_once(n, monkeypatch):
    built = []
    post_init = GateInstance.__post_init__

    def counting(self):
        built.append(self.kind)
        post_init(self)

    monkeypatch.setattr(GateInstance, "__post_init__", counting)
    circuit = build_walsh_coin(random_field(n, seed=n))
    assert len(built) == len(circuit.gates)


def test_coin_circuit_matches_field_matrix():
    for n, seed in [(1, 0), (2, 4), (3, 9)]:
        field = random_field(n, seed=seed)
        circuit = build_walsh_coin(field)
        target = total_coin_matrix(field)
        assert np.max(np.abs(unitary_with_phase(circuit) - target)) <= 1e-9


def test_coin_circuit_handles_potential_wells(bench_field_n3):
    circuit = build_walsh_coin(bench_field_n3)
    target = total_coin_matrix(bench_field_n3)
    assert np.max(np.abs(unitary_with_phase(circuit) - target)) <= 1e-9
    dirac = dirac_field(3, mass=0.7, step=0.1, charge=1, v0=4.0)
    built = build_walsh_coin(dirac)
    assert np.max(np.abs(unitary_with_phase(built) - total_coin_matrix(dirac))) <= 1e-9


def test_truncated_coin_circuit_spectral_error():
    # Spectral error of the truncated coin is at most the sum over the four
    # angle series of the worst per-position angle error (each factor is a
    # diagonal-angle exponential, and the factors multiply).
    n = 3
    field = dirac_field(n, mass=0.4, step=0.2, charge=1, v0=2.0)
    angles = field.euler_angles()
    series = [
        walsh_coefficients(unwrap_angles(angles[:, i], n)) for i in range(4)
    ]
    full = unitary_with_phase(build_walsh_coin(field))
    for m in range(0, n + 1):
        cut = unitary_with_phase(build_walsh_coin(field, m=m))
        err = spectral_norm_diff(cut, full)
        budget = sum(
            np.max(np.abs(truncate(s, m).reconstruct() - s.reconstruct()))
            for s in series
        )
        assert err <= budget + 1e-9
    assert spectral_norm_diff(unitary_with_phase(build_walsh_coin(field, m=n)), full) <= 1e-9


def test_truncation_metadata_recorded():
    field = random_field(2, seed=11)
    assert build_walsh_coin(field, m=1).metadata["truncation"] == 1
    assert build_walsh_coin(field).metadata["truncation"] is None


# -- linear phase ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_linear_phase_gate_budget(n):
    circuit = build_linear_phase(1.7, "y", n)
    assert len(circuit.gates) == n
    assert all(g.kind == "cu2" for g in circuit.gates)


@pytest.mark.parametrize("sigma", ["i", "x", "y", "z"])
def test_linear_phase_matches_exponential(sigma):
    n, a = 3, 2.3
    samples = a * np.array([dyadic_coordinate(k, n) for k in range(1 << n)])
    circuit = build_linear_phase(a, sigma, n)
    oracle = exponential_oracle(samples, sigma)
    assert np.max(np.abs(circuit_unitary(circuit) - oracle)) <= 1e-10


def test_linear_phase_agrees_with_series_route():
    n, a, sigma = 3, 1.7, "y"
    samples = a * np.array([dyadic_coordinate(k, n) for k in range(1 << n)])
    direct = circuit_unitary(build_linear_phase(a, sigma, n))
    series = circuit_unitary(build_walsh(walsh_coefficients(samples), sigma))
    assert np.max(np.abs(direct - series)) <= 1e-10


# -- serialization and CLI specs -------------------------------------------


def test_series_json_round_trip():
    series = walsh_coefficients(smooth_samples(3, seed=2))
    data = json.loads(json.dumps(series_to_json(series)))
    back = series_from_json(data)
    assert back.n == series.n
    assert np.allclose(back.coefficients, series.coefficients, atol=0)
    assert np.allclose(back.reconstruct(), series.reconstruct(), atol=1e-12)


def test_function_specs():
    n = 3
    xs = np.array([dyadic_coordinate(k, n) for k in range(1 << n)])
    well = function_from_spec({"kind": "harmonic", "V0": 5.0}, n)
    assert np.allclose(well, 5.0 * (xs - 0.5) ** 2)
    ramp = function_from_spec({"kind": "linear", "a": -2.0}, n)
    assert np.allclose(ramp, -2.0 * xs)
    values = list(range(8))
    assert np.array_equal(
        function_from_spec({"kind": "samples", "values": values}, n), values
    )
    with pytest.raises(ToolkitError) as err:
        function_from_spec({"kind": "samples", "values": [1.0, 2.0]}, n)
    assert err.value.code == "bad-sample-count"
    with pytest.raises(ValueError):
        function_from_spec({"kind": "spline"}, n)
