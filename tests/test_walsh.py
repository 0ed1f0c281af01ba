"""Walsh series: transform, truncation, and exponential circuit emission."""

from collections import Counter
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import walsh
from coinwalk import (
    Circuit,
    GateInstance,
    RegisterMap,
    ToolkitError,
    WalshSeries,
    build_walsh,
    build_walsh_coin,
    circuit_unitary,
    compile_circuit,
    derivative_sup_estimate,
    dirac_field,
    gate_counts,
    gray_code_optimize,
    random_field,
    total_coin_matrix,
    truncate,
    truncation_error_bound,
    unwrap_angles,
    walsh_coefficients,
)
from oracles import build_linear_phase, dyadic_coordinate, walsh_function, walsh_product_gates

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
    with pytest.raises(ValueError, match=rf"truncation={m} is not in \[0, 3\]"):
        truncate(series, m)


def test_truncation_error_bound_value():
    assert truncation_error_bound(6.0, 3) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        truncation_error_bound(-1.0, 2)


def test_truncated_samples_within_bound():
    # Quadratic well V0 (x - 1/2)^2 has derivative sup exactly V0 on [0, 1].
    n, v0 = 6, 3.0
    samples = v0 * (np.array([dyadic_coordinate(k, n) for k in range(1 << n)]) - 0.5) ** 2
    series = walsh_coefficients(samples)
    for m in range(0, n + 1):
        approx = truncate(series, m).reconstruct()
        assert np.max(np.abs(approx - samples)) <= truncation_error_bound(v0, m) + 1e-12


def test_derivative_estimate_exact_on_linear():
    n, slope = 5, 2.25
    samples = slope * np.array([dyadic_coordinate(k, n) for k in range(1 << n)])
    assert derivative_sup_estimate(samples) == pytest.approx(slope)
    assert derivative_sup_estimate(np.full(8, 1.3)) == 0.0


def test_unwrap_removes_branch_jumps():
    n = 5
    smooth = 9.0 * np.array([dyadic_coordinate(k, n) for k in range(1 << n)]) - 2.0
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


@pytest.mark.parametrize(
    "terms",
    [[(1, 0.5), (1, 0.25)], [(3, 0.5), (1, 0.25)], [(1, 0.5), (4, 0.25)], [(2, 0.0), (3, 0.5)]],
    ids=["repeated", "descending", "out-of-range", "zero"],
)
def test_gray_code_optimize_refuses_terms_no_series_gives(terms):
    # The Gray order is read off a coefficient array, so the metadata's terms
    # must be a series' own; the gates are the product form of those in range.
    regs = RegisterMap.walk(2)
    gates = walsh_product_gates(regs, "z", [t for t in terms if t[0] < 4])
    circuit = Circuit(regs, gates, {"walsh": {"sigma": "z", "terms": terms, "optimized": False}})
    with pytest.raises(ToolkitError) as err:
        gray_code_optimize(circuit)
    assert err.value.code == "not-walsh-form"


def test_gray_order_follows_given_terms():
    # Entanglers between consecutive rotations toggle the support difference.
    regs = RegisterMap.walk(2)
    gates = walsh._gates(walsh._gray_specs(walsh._Wires(regs), "z", [(1, 0.1), (3, 0.2), (2, 0.3)]))
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
            ordered = sorted(terms, key=lambda t: gray_rank(t[0]))
            product = walsh_product_gates(regs, sigma, terms)
            assert walsh._product_entanglers(sigma, terms) == entanglers(product)
            gray = walsh._gates(walsh._gray_specs(walsh._Wires(regs), sigma, ordered))
            assert walsh._gray_entanglers(sigma, ordered) == entanglers(gray)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_walsh_coin_constructs_each_gate_once(n, monkeypatch):
    # One construction per distinct object, and one object per distinct
    # (kind, controls, targets, angle) record: repeats share their gate.
    built = []
    init = GateInstance.__init__

    def counting(self, kind, *args):
        built.append(kind)
        init(self, kind, *args)

    monkeypatch.setattr(GateInstance, "__init__", counting)
    circuit = build_walsh_coin(random_field(n, seed=n))
    records = set(gate_tuples(circuit))
    assert len(built) == len({id(g) for g in circuit.gates}) == len(records)
    assert len(records) < len(circuit.gates)


def test_gate_sharing_spans_the_four_series_and_the_compiled_circuit():
    circuit = build_walsh_coin(random_field(12, seed=1))
    assert len(circuit.gates) == 51_199
    assert len({id(g) for g in circuit.gates}) == len(set(gate_tuples(circuit))) == 16_461
    compiled = compile_circuit(circuit)
    assert len(compiled.gates) == 51_199
    assert len({id(g) for g in compiled.gates}) == 16_461


def test_gate_keys_never_meet_a_zero_angle():
    # Specs are dict keys, and 0.0 == -0.0; terms() drops zero coefficients,
    # so no emitted angle is zero and no two keys differ only in that sign.
    series = WalshSeries(3, [0.0, -0.0, 0.5, 0.0, -0.25, 0.0, 0.0, 1e-300])
    assert [j for j, _ in series.terms()] == [2, 4, 7]
    for sigma in ("i", "x", "y", "z"):
        for optimize in (False, True):
            angles = [g.angle for g in build_walsh(series, sigma, optimize).gates if g.angle is not None]
            assert angles and all(a != 0.0 for a in angles)


def iterative_cancel(specs):
    """The cancellation's fixed point by repeated passes: every maximal run of
    same-target CNOTs reduced by control parity, until a pass shortens nothing."""
    while True:
        out = []
        for target, run in groupby(specs, key=lambda spec: spec[2] if spec[0] == "cnot" else None):
            if target is None:
                out.extend(run)
                continue
            parity = Counter(spec[1] for spec in run)
            out.extend(("cnot", c, target, None) for c in sorted(parity) if parity[c] % 2)
        if len(out) == len(specs):
            return out
        specs = out


def gray_rank(j):
    """Position of j in the reflected Gray sequence (inverse Gray code)."""
    r = 0
    while j:
        r ^= j
        j >>= 1
    return r


def assert_phase_emission_is_the_cancelled_product(series):
    """The direct sigma = I Gray form is the Gray-ordered product form with
    its CNOT runs cancelled to the fixed point."""
    ordered = sorted(series.terms(), key=lambda t: gray_rank(t[0]))
    wires = walsh._Wires(RegisterMap.walk(series.n))
    direct = walsh._gray_specs(wires, "i", ordered)
    assert direct == iterative_cancel(walsh._product_specs(wires, "i", ordered))
    assert walsh._gray_entanglers("i", ordered) == sum(1 for spec in direct if spec[0] == "cnot")


@st.composite
def sparse_term_sets(draw):
    """Series with a drawn set of nonzero terms, so Gray steps skip, heads
    change and the phase term j = 0 comes and goes."""
    n = draw(st.integers(1, 6))
    js = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=1 << n))
    coeffs = np.zeros(1 << n)
    coeffs[sorted(js)] = draw(st.lists(st.floats(0.1, 2.0), min_size=len(js), max_size=len(js)))
    return WalshSeries(n, coeffs)


@given(sparse_term_sets())
@settings(max_examples=300, deadline=None)
def test_direct_phase_emission_equals_the_iterative_fixed_point(series):
    assert_phase_emission_is_the_cancelled_product(series)


def test_direct_phase_emission_on_phase_series():
    trap = dirac_field(10, 1.0, 0.5, 1.0, 50.0).euler_angles()
    cases = [sparse_series(n, 50 + n) for n in range(1, 11)]
    cases += [WalshSeries(n, np.linspace(0.1, 1.0, 1 << n)) for n in range(1, 11)]
    cases += [walsh_coefficients(unwrap_angles(trap[:, i], 10)) for i in range(4)]
    # j = 0, one head across skipped Gray codes (1 -> 7) and a change of head (7 -> 4)
    cases += [WalshSeries(3, [0.5, 0.25, 0.0, 0.0, -0.75, 0.0, 0.0, 0.125])]
    for series in cases:
        assert_phase_emission_is_the_cancelled_product(series)


@given(sparse_term_sets())
@settings(max_examples=200, deadline=None)
def test_gray_order_is_the_sort_by_inverse_gray_code(series):
    assert walsh._gray_terms(series) == sorted(series.terms(), key=lambda t: gray_rank(t[0]))


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
        err = np.linalg.norm(cut - full, 2)
        budget = sum(
            np.max(np.abs(truncate(s, m).reconstruct() - s.reconstruct()))
            for s in series
        )
        assert err <= budget + 1e-9
    assert np.linalg.norm(unitary_with_phase(build_walsh_coin(field, m=n)) - full, 2) <= 1e-9


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
