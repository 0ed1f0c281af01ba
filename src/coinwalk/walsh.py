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
support.  Every sweep along increasing x visits the samples in the order
:func:`coins.bit_reversal` gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToolkitError
from .circuit import Circuit, GateInstance, RegisterMap
from .coins import CoinField, bit_reversal

__all__ = [
    "WalshSeries",
    "build_walsh",
    "build_walsh_coin",
    "check_order",
    "derivative_sup_estimate",
    "gray_code_optimize",
    "truncate",
    "truncation_error_bound",
    "unwrap_angles",
    "walsh_coefficients",
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


@dataclass(frozen=True)
class WalshSeries:
    """Coefficients a_j, j = 0..2^n-1, of a function sampled at dyadic points."""

    n: int
    coefficients: np.ndarray

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
        js = np.flatnonzero(self.coefficients)
        return list(zip(js.tolist(), self.coefficients[js].tolist()))


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
    return WalshSeries(n, coeffs)


def check_order(m: int, n: int) -> None:
    """``ValueError`` unless a series over ``n`` position bits may be cut at
    2^m terms, ``0 <= m <= n``."""
    if not 0 <= m <= n:
        raise ValueError(f"truncation={m} is not in [0, {n}]")


def truncate(series: WalshSeries, m: int) -> WalshSeries:
    """Zero every coefficient with index >= 2^m (:func:`check_order`)."""
    check_order(m, series.n)
    coeffs = series.coefficients.copy()
    coeffs[1 << m :] = 0.0
    return WalshSeries(series.n, coeffs)


def truncation_error_bound(f_prime_sup: float, m: int) -> float:
    """Sup-norm (hence spectral-norm) error cap for a series cut at 2^m terms."""
    if f_prime_sup < 0:
        raise ValueError("derivative bound must be nonnegative")
    return f_prime_sup / (1 << m)


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
    along_x = values[bit_reversal(np.arange(values.size), n)]
    return float(np.max(np.abs(np.diff(along_x))) * values.size)


def unwrap_angles(values: np.ndarray, n: int) -> np.ndarray:
    """Remove 2-pi jumps along increasing dyadic coordinate.

    Angle data from per-position matrix factorizations is only defined mod
    2 pi; adjacent-in-x jumps inflate the effective derivative and ruin
    truncation.  Shifting each value by a whole period changes no
    exponential e^{i F sigma}, so this is free smoothing.
    """
    order = bit_reversal(np.arange(1 << n), n)
    unwrapped = np.unwrap(values[order])
    out = np.empty_like(values)
    out[order] = unwrapped
    return out


# -- circuit emission ----------------------------------------------------------
#
# Gates are first written as "specs", GateInstance argument tuples (kind,
# controls, targets, angle), so that only the chosen form is instantiated,
# and then only once per distinct spec (:func:`_gates`): a series repeats a
# few parity-ladder CNOTs thousands of times, and every later pass (the wire
# check, documents, compile, QASM, depth) works once per distinct object.

_ROT_FOR = {"x": "rx", "y": "ry", "z": "rz"}


class _Wires(dict):
    """The walk layout's wires as spec fields, for one build.

    ``coin`` is the coin wire as a 1-tuple; ``wires[j]`` lists the position
    wires on the bits of ``j``, ascending, each as a 1-tuple.  A ``j`` is
    worked out the first time it is asked for, so the four series of a coin
    and the steps of a Gray walk read each term's support once.
    """

    def __init__(self, regs: RegisterMap):
        super().__init__()
        self.coin = (regs.coin(),)
        self.position = [(regs.position(p),) for p in range(regs.n)]

    def __missing__(self, j: int) -> list[tuple[int]]:
        support = self[j] = [w for p, w in enumerate(self.position[: j.bit_length()]) if j >> p & 1]
        return support


def _term_specs(wires: _Wires, sigma: str, j: int, a: float) -> list[tuple]:
    """One commuting factor e^{i a w_j (x) sigma}; empty for the sigma=I phase term."""
    if j == 0:
        if sigma == "i":
            return []  # scalar phase, tracked in circuit metadata
        return [(_ROT_FOR[sigma], (), wires.coin, -2.0 * a)]
    head, *rest = wires[j]
    ladder = [("cnot", control, head, None) for control in rest]
    if sigma == "i":
        middle = [("rz", (), head, -2.0 * a)]
    else:
        ent = ("cz" if sigma == "x" else "cnot", head, wires.coin, None)
        middle = [ent, (_ROT_FOR[sigma], (), wires.coin, -2.0 * a), ent]
    return ladder + middle + ladder[::-1]


def _product_specs(wires: _Wires, sigma: str, terms) -> list[tuple]:
    return [spec for j, a in terms for spec in _term_specs(wires, sigma, j, a)]


def _gray_specs(wires: _Wires, sigma: str, ordered_terms) -> list[tuple]:
    """Merged emission of the given terms, consecutive parity sets shared.

    For sigma != I every term folds its whole parity set onto the coin wire
    (the entanglers commute pairwise), so adjacent terms only pay for the
    symmetric difference of their index supports.  For sigma = I term j
    folds the rest of its support onto its lowest wire, its head, which
    takes the rz.  From j to the next term j', a shared head takes CNOTs
    from the wires of j ^ j' (the head bit cancels); otherwise j's ladder
    closes and j''s opens.  That is the product form with every run of CNOTs
    on one target reduced by control parity until nothing cancels.
    """
    specs: list[tuple] = []
    current = 0  # the term emitted last, whose ladder is open; 0 for none
    if sigma == "i":
        for j, a in ordered_terms + [(0, None)]:
            if not j and a is not None:
                continue  # the scalar phase term, tracked in circuit metadata
            if j & -j == current & -current:
                ladders = [(current ^ j, j)]
            else:
                ladders = [(current & (current - 1), current), (j & (j - 1), j)]
            for controls, term in ladders:  # no controls, no head to read
                specs.extend(("cnot", c, wires[term][0], None) for c in wires[controls])
            if a is not None:
                specs.append(("rz", (), wires[j][0], -2.0 * a))
            current = j
        return specs
    coin, rot_kind, ent_kind = wires.coin, _ROT_FOR[sigma], "cz" if sigma == "x" else "cnot"
    for j, a in ordered_terms + [(0, None)]:
        specs.extend((ent_kind, control, coin, None) for control in wires[current ^ j])
        if a is not None:
            specs.append((rot_kind, (), coin, -2.0 * a))
        current = j
    return specs


def _gray_terms(series: WalshSeries) -> list[tuple[int, float]]:
    """:meth:`WalshSeries.terms` in reflected Gray order: the codes
    ``i ^ (i >> 1)``, i = 0, 1, ..., that index a nonzero coefficient."""
    js = np.arange(1 << series.n)
    js ^= js >> 1
    js = js[series.coefficients[js] != 0.0]
    return list(zip(js.tolist(), series.coefficients[js].tolist()))


def _product_entanglers(sigma: str, terms) -> int:
    """2|S_j| entanglers per term j != 0, or 2(|S_j| - 1) for sigma = I."""
    drop = 1 if sigma == "i" else 0
    return sum(2 * (j.bit_count() - drop) for j, _ in terms if j)


def _gray_entanglers(sigma: str, ordered_terms) -> int:
    """Gray-form entanglers, per step from and to {} (:func:`_gray_specs`):
    |S_t ^ S_t+1|, but for sigma = I between terms of different heads the
    closing and opening ladders, one CNOT per support wire but the head."""
    supports = [0] + [j for j, _ in ordered_terms if j] + [0]
    return sum(
        (s ^ t).bit_count() if sigma != "i" or s & -s == t & -t
        else (s & (s - 1)).bit_count() + (t & (t - 1)).bit_count()
        for s, t in zip(supports, supports[1:])
    )


def _choose_form(wires: _Wires, sigma: str, series: WalshSeries, optimize: bool = True):
    """(specs, term order, optimized) of the form to emit for ``series``.

    With ``optimize`` the Gray form is taken when it has strictly fewer
    entangling gates, counted from the term supports before any gate is
    written; otherwise, and on a tie, the product form.
    """
    terms = series.terms()
    if optimize:
        ordered = _gray_terms(series)
        if _gray_entanglers(sigma, ordered) < _product_entanglers(sigma, terms):
            return _gray_specs(wires, sigma, ordered), ordered, True
    return _product_specs(wires, sigma, terms), terms, False


def _gates(specs) -> list[GateInstance]:
    """The gates of ``specs``, one ``GateInstance`` per distinct spec, shared
    by every position that repeats it (gates are immutable).

    Specs are keyed by value, floats by ``==``.  Every angle is ``-2 a`` for a
    coefficient from :meth:`WalshSeries.terms`, which drops zeros, so no key
    has to tell 0.0 from -0.0.
    """
    made = dict.fromkeys(specs)
    for spec in made:
        made[spec] = GateInstance(*spec)
    return list(map(made.__getitem__, specs))


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
    specs, terms, optimized = _choose_form(_Wires(regs), sigma, series, optimize)
    phase = _phase_of(sigma, terms)
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
    optimize=False)`` produces, with its ``"walsh"`` metadata and terms as
    a series gives them (``"not-walsh-form"`` otherwise).  The form is chosen as in
    :func:`build_walsh`; without a strict gain the input circuit itself is
    returned.
    """
    info = circuit.metadata.get("walsh")
    if not isinstance(info, dict) or info.get("optimized"):
        raise ToolkitError("not-walsh-form", "expected an unoptimized Walsh product")
    sigma = _sigma_key(info["sigma"])
    terms = [(int(j), float(a)) for j, a in info["terms"]]
    regs = circuit.registers
    by_index = dict(terms)
    series = WalshSeries(regs.n, [by_index.get(j, 0.0) for j in range(1 << regs.n)])
    wires = _Wires(regs)
    given = [(g.kind, g.controls, g.targets, g.angle) for g in circuit.gates]
    if series.terms() != terms or given != _product_specs(wires, sigma, terms):
        raise ToolkitError("not-walsh-form", "gate list is not the builder's product form")
    specs, ordered, optimized = _choose_form(wires, sigma, series)
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
    factorization do not masquerade as roughness.  The four series share
    one ``GateInstance`` per distinct gate (a random field's n=12 coin is
    51,199 gates and 16,461 objects), and ``compile_circuit``, which passes
    basis gates through, keeps that sharing in its output.
    """
    angles = field.euler_angles()
    unwrapped = [unwrap_angles(angles[:, i], field.n) for i in range(4)]
    series = [walsh_coefficients(col) for col in unwrapped]
    if m is not None:
        series = [truncate(s, m) for s in series]
    regs = RegisterMap.walk(field.n)
    wires = _Wires(regs)
    specs: list[tuple] = []
    for idx, sigma in [(3, "z"), (2, "y"), (1, "z"), (0, "i")]:
        specs += _choose_form(wires, sigma, series[idx], optimize)[0]
    meta = {
        "builder": "walsh-coin",
        "n": field.n,
        "truncation": m,
        "global_phase": _phase_of("i", series[0].terms()),
    }
    return Circuit(regs, tuple(_gates(specs)), meta)
