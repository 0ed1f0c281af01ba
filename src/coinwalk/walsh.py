"""Walsh-series synthesis of exponentials e^{i f(x) (x) sigma}.

A real function sampled on the 2^n dyadic points expands into +-1-valued
Walsh functions; each series term exponentiates to a commuting circuit
fragment built from a CNOT parity ladder and one rotation.  Truncating the
series at 2^m terms costs at most sup|f'| / 2^m in spectral norm, so smooth
functions compress well.

Sample order convention: samples[k] is f evaluated at the dyadic coordinate
of position index k (bit-reversed fraction), which makes the coefficient
transform a plain natural-order Walsh-Hadamard transform and makes term j's
diagonal operator a Z-tensor on exactly the position wires in j's binary
support.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import groupby

import numpy as np

from .errors import ToolkitError
from .circuit import Circuit, GateInstance, RegisterMap
from .coins import CoinField, dyadic_coordinate

__all__ = [
    "WalshSeries",
    "build_linear_phase",
    "build_walsh",
    "build_walsh_coin",
    "derivative_sup_estimate",
    "function_from_spec",
    "gray_code_optimize",
    "gray_walsh_gates",
    "series_from_json",
    "series_to_json",
    "smoothness_check",
    "truncate",
    "truncation_error_bound",
    "unwrap_angles",
    "walsh_coefficients",
    "walsh_function",
    "walsh_product_gates",
]

SIGMA_KINDS = ("i", "x", "y", "z")

_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _sigma_key(sigma: str) -> str:
    key = str(sigma).lower()
    if key not in SIGMA_KINDS:
        raise ValueError(f"sigma must be one of I, X, Y, Z, got {sigma!r}")
    return key


def walsh_function(j: int, x) -> np.ndarray | int:
    """w_j(x) in {+1, -1}; bit i of j pairs with the dyadic digit of weight 2^-(i+1)."""
    if j < 0:
        raise ToolkitError("index-out-of-range", "walsh index must be nonnegative")
    xs = np.asarray(x, dtype=float)
    exponent = np.zeros(xs.shape, dtype=np.int64)
    frac = np.mod(xs, 1.0)
    i = 0
    while j >> i:
        frac = frac * 2.0
        digit = frac.astype(np.int64)
        if (j >> i) & 1:
            exponent += digit
        frac -= digit
        i += 1
    out = 1 - 2 * (exponent & 1)
    return out if out.shape else int(out)


@dataclass(frozen=True)
class WalshSeries:
    """Coefficients a_j, j = 0..2^n-1, of a function sampled at dyadic points."""

    n: int
    coefficients: np.ndarray
    samples: np.ndarray | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (1 << self.n,):
            raise ToolkitError(
                "bad-sample-count",
                f"need 2^{self.n} coefficients, got shape {coeffs.shape}",
            )
        object.__setattr__(self, "coefficients", coeffs)

    def reconstruct(self) -> np.ndarray:
        """f(x_k) for every position index k (inverse transform, exact)."""
        return _fwht(self.coefficients.copy())

    def terms(self) -> list[tuple[int, float]]:
        """(j, a_j) pairs with a_j != 0, ascending j."""
        return [(j, float(a)) for j, a in enumerate(self.coefficients) if a != 0.0]


def _fwht(a: np.ndarray) -> np.ndarray:
    """In-place natural-order Walsh-Hadamard butterfly (unnormalized)."""
    h = 1
    while h < a.shape[0]:
        a = a.reshape(-1, 2 * h)
        lo, hi = a[:, :h].copy(), a[:, h:].copy()
        a[:, :h] = lo + hi
        a[:, h:] = lo - hi
        a = a.reshape(-1)
        h *= 2
    return a


def walsh_coefficients(samples) -> WalshSeries:
    """Series of the function with value samples[k] at position k's dyadic point."""
    values = np.asarray(samples, dtype=float)
    if values.ndim != 1 or values.size < 1 or values.size & (values.size - 1):
        raise ToolkitError(
            "bad-sample-count", f"sample count must be a power of 2, got {values.size}"
        )
    n = values.size.bit_length() - 1
    coeffs = _fwht(values.copy()) / values.size
    return WalshSeries(n, coeffs, samples=values)


def truncate(series: WalshSeries, m: int) -> WalshSeries:
    """Zero every coefficient with index >= 2^m."""
    if not 0 <= m <= series.n:
        raise ToolkitError("index-out-of-range", f"truncation order {m} not in [0, {series.n}]")
    coeffs = series.coefficients.copy()
    coeffs[1 << m :] = 0.0
    return WalshSeries(series.n, coeffs, samples=series.samples)


def truncation_error_bound(f_prime_sup: float, m: int) -> float:
    """Sup-norm (hence spectral-norm) error cap for a series cut at 2^m terms."""
    if f_prime_sup < 0:
        raise ValueError("derivative bound must be nonnegative")
    return f_prime_sup / (1 << m)


def smoothness_check(f_prime_sup: float, epsilon: float, n: int) -> str:
    """Whether a 1/epsilon-size truncated circuit can reach accuracy epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    scale = epsilon * (1 << n)
    if f_prime_sup <= scale / 8:
        return "efficient"
    if f_prime_sup >= scale:
        return "fails"
    return "marginal"


def derivative_sup_estimate(samples) -> float:
    """sup|f'| estimated from dyadic samples: max adjacent-in-x difference / spacing.

    A finite-difference estimate, not a bound; callers needing a certificate
    must supply the true derivative sup.
    """
    values = np.asarray(samples, dtype=float)
    n = values.size.bit_length() - 1
    if values.size != 1 << n:
        raise ToolkitError("bad-sample-count", "need a power-of-2 sample count")
    if values.size == 1:
        return 0.0
    xs = np.array([dyadic_coordinate(k, n) for k in range(values.size)])
    order = np.argsort(xs)
    return float(np.max(np.abs(np.diff(values[order]))) * values.size)


def unwrap_angles(values: np.ndarray, n: int) -> np.ndarray:
    """Remove 2-pi jumps along increasing dyadic coordinate.

    Angle data from per-position matrix factorizations is only defined mod
    2 pi; adjacent-in-x jumps inflate the effective derivative and ruin
    truncation.  Shifting each value by a whole period changes no
    exponential e^{i F sigma}, so this is free smoothing.
    """
    xs = np.array([dyadic_coordinate(k, n) for k in range(values.size)])
    order = np.argsort(xs)
    unwrapped = np.unwrap(values[order])
    out = np.empty_like(values)
    out[order] = unwrapped
    return out


def function_from_spec(spec: dict, n: int) -> np.ndarray:
    """Dyadic samples for a CLI function spec: harmonic, linear, or literal samples."""
    kind = spec.get("kind")
    xs = np.array([dyadic_coordinate(k, n) for k in range(1 << n)])
    if kind == "harmonic":
        v0 = float(spec["V0"])
        return v0 * (xs - 0.5) ** 2
    if kind == "linear":
        return float(spec["a"]) * xs
    if kind == "samples":
        values = np.asarray(spec["values"], dtype=float)
        if values.size != 1 << n:
            raise ToolkitError(
                "bad-sample-count", f"expected {1 << n} samples, got {values.size}"
            )
        return values
    raise ValueError(f"unknown function spec kind {kind!r}")


def series_to_json(series: WalshSeries) -> dict:
    return {"n": series.n, "coefficients": [float(a) for a in series.coefficients]}


def series_from_json(data: dict) -> WalshSeries:
    return WalshSeries(int(data["n"]), np.asarray(data["coefficients"], dtype=float))


# -- circuit emission ----------------------------------------------------------
#
# Gates are first written as "specs", GateInstance argument tuples (kind,
# controls, targets, angle), so that only the chosen form is instantiated.

_ROT_FOR = {"x": "rx", "y": "ry", "z": "rz"}


def _support(j: int) -> list[int]:
    """Bit positions set in j, ascending."""
    return [p for p in range(j.bit_length()) if (j >> p) & 1]


def _term_specs(regs: RegisterMap, sigma: str, j: int, a: float) -> list[tuple]:
    """One commuting factor e^{i a w_j (x) sigma}; empty for the sigma=I phase term."""
    if j == 0:
        if sigma == "i":
            return []  # scalar phase, tracked in circuit metadata
        return [(_ROT_FOR[sigma], (), (regs.coin(),), -2.0 * a)]
    bits = _support(j)
    head = regs.position(bits[0])
    ladder = [("cnot", (regs.position(p),), (head,), None) for p in bits[1:]]
    if sigma == "i":
        middle = [("rz", (), (head,), -2.0 * a)]
    else:
        coin = regs.coin()
        ent = ("cz" if sigma == "x" else "cnot", (head,), (coin,), None)
        middle = [ent, (_ROT_FOR[sigma], (), (coin,), -2.0 * a), ent]
    return ladder + middle + ladder[::-1]


def _product_specs(regs: RegisterMap, sigma: str, terms) -> list[tuple]:
    return [spec for j, a in terms for spec in _term_specs(regs, sigma, j, a)]


def _cancel_common_target_runs(specs: list[tuple]) -> list[tuple]:
    """Reduce runs of consecutive CNOTs sharing a target by control parity."""
    while True:
        out: list[tuple] = []
        runs = groupby(specs, key=lambda spec: spec[2] if spec[0] == "cnot" else None)
        for target, run in runs:
            if target is None:
                out.extend(run)
                continue
            parity = Counter(spec[1] for spec in run)
            out.extend(("cnot", c, target, None) for c in sorted(parity) if parity[c] % 2)
        if len(out) == len(specs):
            return out
        specs = out


def _gray_specs(regs: RegisterMap, sigma: str, ordered_terms) -> list[tuple]:
    if sigma == "i":
        return _cancel_common_target_runs(_product_specs(regs, sigma, ordered_terms))
    coin = regs.coin()
    rot_kind = _ROT_FOR[sigma]
    ent_kind = "cz" if sigma == "x" else "cnot"
    specs: list[tuple] = []
    current = 0
    for j, a in ordered_terms + [(0, None)]:
        specs.extend((ent_kind, (regs.position(p),), (coin,), None) for p in _support(current ^ j))
        if a is not None:
            specs.append((rot_kind, (), (coin,), -2.0 * a))
        current = j
    return specs


def _gray_rank(j: int) -> int:
    """Position of j in the reflected Gray sequence (inverse Gray code)."""
    r = 0
    while j:
        r ^= j
        j >>= 1
    return r


def _product_entanglers(sigma: str, terms) -> int:
    """2|S_j| entanglers per term j != 0, or 2(|S_j| - 1) for sigma = I."""
    drop = 1 if sigma == "i" else 0
    return sum(2 * (j.bit_count() - drop) for j, _ in terms if j)


def _gray_entanglers(ordered_terms) -> int:
    """Gray-form entanglers for sigma != I: |S_t ^ S_t+1| per step, from and to {}."""
    supports = [0] + [j for j, _ in ordered_terms] + [0]
    return sum((s ^ t).bit_count() for s, t in zip(supports, supports[1:]))


def _choose_form(regs: RegisterMap, sigma: str, terms, optimize: bool = True):
    """(specs, term order, optimized) of the form to emit.

    With ``optimize`` the Gray form is taken when it has strictly fewer
    entangling gates (for sigma = I, counted on its cancelled ladders);
    otherwise, and on a tie, the product form.
    """
    if optimize:
        ordered = sorted(terms, key=lambda t: _gray_rank(t[0]))
        if sigma == "i":
            gray = _gray_specs(regs, sigma, ordered)
            gray_count = sum(1 for spec in gray if spec[0] == "cnot")
        else:
            gray, gray_count = None, _gray_entanglers(ordered)
        if gray_count < _product_entanglers(sigma, terms):
            return gray if gray is not None else _gray_specs(regs, sigma, ordered), ordered, True
    return _product_specs(regs, sigma, terms), terms, False


def _gates(specs) -> list[GateInstance]:
    return [GateInstance(*spec) for spec in specs]


def walsh_product_gates(
    regs: RegisterMap, sigma: str, terms: list[tuple[int, float]]
) -> list[GateInstance]:
    """Fragment-per-term gate list, in the given term order (builder canonical form)."""
    return _gates(_product_specs(regs, _sigma_key(sigma), terms))


def gray_walsh_gates(
    regs: RegisterMap, sigma: str, ordered_terms: list[tuple[int, float]]
) -> list[GateInstance]:
    """Merged emission of the given terms, consecutive parity sets shared.

    For sigma != I every term folds its whole parity set onto the coin wire
    (the entanglers commute pairwise), so adjacent terms only pay for the
    symmetric difference of their index supports.  For sigma = I the
    per-term ladders are emitted and then reduced by the common-target
    cancellation pass.
    """
    return _gates(_gray_specs(regs, _sigma_key(sigma), list(ordered_terms)))


def _phase_of(sigma: str, terms) -> float:
    """The j = 0 coefficient of a sigma = I series, which is a scalar phase."""
    return terms[0][1] if sigma == "i" and terms and terms[0][0] == 0 else 0.0


def build_walsh(series: WalshSeries, sigma: str, optimize: bool = True) -> Circuit:
    """Circuit for e^{i f(x) (x) sigma} on the walk layout (coin wire 0).

    The j = 0 term is a bare coin rotation for sigma in {X, Y, Z} and a
    tracked global phase for sigma = I.  Without ``optimize`` the gates are
    the product form, one fragment per term in ascending j.  With it the
    Gray-code form is emitted instead when its entangling count, known from
    the term supports before any gate is built, is strictly lower;
    ``metadata["walsh"]["optimized"]`` says which form was emitted.
    """
    sigma = _sigma_key(sigma)
    regs = RegisterMap.walk(series.n)
    terms = series.terms()
    phase = _phase_of(sigma, terms)
    specs, terms, optimized = _choose_form(regs, sigma, terms, optimize)
    meta = {
        "builder": "walsh",
        "n": series.n,
        "global_phase": phase,
        "walsh": {"sigma": sigma, "terms": terms, "optimized": optimized},
    }
    return Circuit(regs, tuple(_gates(specs)), meta)


def gray_code_optimize(circuit: Circuit) -> Circuit:
    """The Gray form of a product-form Walsh circuit, when it has fewer entanglers.

    The input must be the fragment-per-term form that ``build_walsh(...,
    optimize=False)`` produces, with its ``"walsh"`` metadata
    (``"not-walsh-form"`` otherwise).  The form is chosen as in
    :func:`build_walsh`; without a strict gain the input circuit itself is
    returned.
    """
    info = circuit.metadata.get("walsh")
    if not isinstance(info, dict) or info.get("optimized"):
        raise ToolkitError("not-walsh-form", "expected an unoptimized Walsh product")
    sigma = _sigma_key(info["sigma"])
    terms = [(int(j), float(a)) for j, a in info["terms"]]
    regs = circuit.registers
    given = [(g.kind, g.controls, g.targets, g.angle) for g in circuit.gates]
    if given != _product_specs(regs, sigma, terms):
        raise ToolkitError("not-walsh-form", "gate list is not the builder's product form")
    specs, ordered, optimized = _choose_form(regs, sigma, terms)
    if not optimized:
        return circuit
    meta = dict(circuit.metadata)
    meta["walsh"] = dict(info, optimized=True, terms=ordered)
    return Circuit(regs, tuple(_gates(specs)), meta)


def build_walsh_coin(field: CoinField, m: int | None = None, optimize: bool = True) -> Circuit:
    """Coin circuit from the field's four per-position angle functions.

    The first angle function becomes a tracked global phase series (sigma =
    I on positions), the other three become Z/Y/Z coin-conjugation series,
    composed in circuit time from the last factor to the first; each series
    is emitted in the form :func:`build_walsh` would choose.  Angle samples
    are unwrapped along x before expansion so branch cuts in the
    factorization do not masquerade as roughness.
    """
    angles = field.euler_angles()
    unwrapped = [unwrap_angles(angles[:, i], field.n) for i in range(4)]
    series = [walsh_coefficients(col) for col in unwrapped]
    if m is not None:
        series = [truncate(s, m) for s in series]
    regs = RegisterMap.walk(field.n)
    specs: list[tuple] = []
    for idx, sigma in [(3, "z"), (2, "y"), (1, "z"), (0, "i")]:
        specs += _choose_form(regs, sigma, series[idx].terms(), optimize)[0]
    meta = {
        "builder": "walsh-coin",
        "n": field.n,
        "truncation": m,
        "global_phase": _phase_of("i", series[0].terms()),
    }
    return Circuit(regs, tuple(_gates(specs)), meta)


def build_linear_phase(a: float, sigma: str, n: int) -> Circuit:
    """e^{i a x(hat) (x) sigma} with exactly n two-qubit gates.

    The dyadic coordinate splits over bits, so one controlled e^{i a 2^-(p+1)
    sigma} per position wire suffices; no series expansion and no error.
    """
    sigma = _sigma_key(sigma)
    regs = RegisterMap.walk(n)
    pauli = _PAULI[sigma]
    gates = []
    for p in range(n):
        theta = a / (1 << (p + 1))
        block = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * pauli
        gates.append(
            GateInstance(
                "cu2",
                (regs.position(p),),
                (regs.coin(),),
                matrix=block,
                label=f"phase{p}",
            )
        )
    meta = {"builder": "linear-phase", "n": n, "global_phase": 0.0}
    return Circuit(regs, tuple(gates), meta)
