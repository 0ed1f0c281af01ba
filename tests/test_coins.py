import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import (
    CoinField,
    ToolkitError,
    coin_field_from_json,
    coin_field_to_json,
    coin_from_k_params,
    dirac_field,
    euler_factorization,
    random_field,
    total_coin_matrix,
)
from coinwalk.coins import bit_reversal
from coinwalk.statevec import is_unitary
from oracles import dyadic_coordinate, euler_matrix, identity_field


def test_dyadic_coordinate_values():
    assert dyadic_coordinate(0, 3) == 0.0
    assert dyadic_coordinate(1, 3) == 0.5
    assert dyadic_coordinate(2, 3) == 0.25
    assert dyadic_coordinate(3, 3) == 0.75
    assert dyadic_coordinate(4, 3) == 0.125


def test_dyadic_coordinate_is_bit_reversed_fraction():
    # one bit reversal serves an int and an array; the coordinate is the sum
    # of the bit weights 2^-(p+1), exactly
    for n in range(13):
        rev = [int(f"{k:0{n}b}"[::-1], 2) for k in range(1 << n)]
        assert bit_reversal(np.arange(1 << n), n).tolist() == rev
        for k in range(1 << n):
            assert bit_reversal(k, n) == rev[k]
            assert dyadic_coordinate(k, n) == rev[k] / (1 << n)
            assert dyadic_coordinate(k, n) == sum(2.0 ** -(p + 1) for p in range(n) if k >> p & 1)


def test_dyadic_coordinate_injective_and_bounded():
    n = 4
    xs = {dyadic_coordinate(k, n) for k in range(1 << n)}
    assert len(xs) == 1 << n
    assert all(0.0 <= x < 1.0 for x in xs)
    with pytest.raises(ToolkitError) as err:
        dyadic_coordinate(16, 4)
    assert err.value.code == "index-out-of-range"


def test_coin_from_k_params_reference_points():
    assert np.allclose(coin_from_k_params(0, np.pi, 0, 0), [[0, -1], [1, 0]], atol=1e-12)
    assert np.allclose(coin_from_k_params(0, 0, 0, 0), np.eye(2), atol=1e-12)
    c = coin_from_k_params(0.5, 1.1, -0.3, 2.2)
    assert is_unitary(c)
    assert c[0, 0] == pytest.approx(np.exp(0.5j) * np.cos(0.55))


def scalar_k_params_coin(alpha, theta, phi, lam):
    """One coin from four scalars, the entries written as a nested list."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.exp(1j * alpha) * np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )


def test_coin_from_k_params_batch_is_bit_identical_to_single_coins():
    rng = np.random.default_rng(2024)
    rows = rng.uniform(-10.0, 10.0, size=(20_000, 4))
    edges = np.array([0.0, -0.0, np.pi, -np.pi, 1e-300, -1e-300])
    grid = np.stack(np.meshgrid(edges, edges, edges, edges), axis=-1).reshape(-1, 4)
    rows = np.vstack([rows, grid])
    batch = coin_from_k_params(*rows.T)
    assert batch.shape == (len(rows), 2, 2)
    scalar = np.array([scalar_k_params_coin(*row) for row in rows])
    assert np.array_equal(batch.view(np.uint64), scalar.view(np.uint64))
    for row, coin in zip(rows[::997], batch[::997]):
        one = coin_from_k_params(*row)
        assert one.shape == (2, 2)
        assert np.array_equal(one.view(np.uint64), coin.view(np.uint64))
    grid_batch = coin_from_k_params(*rows.T.reshape(4, -1, 8))
    assert np.array_equal(grid_batch.reshape(-1, 2, 2).view(np.uint64), batch.view(np.uint64))


angle = st.floats(-np.pi, np.pi, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(angle, angle, angle, angle)
def test_euler_factorization_round_trip(a, b, c, d):
    u = coin_from_k_params(abs(a), abs(b), c, d)
    f = euler_factorization(u)
    assert np.max(np.abs(euler_matrix(*f) - u)) < 1e-9
    assert -np.pi / 2 <= f[2] <= 0.0


@pytest.mark.parametrize(
    "u",
    [
        np.eye(2),
        np.diag([1, -1]),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.exp(0.3j) * np.diag([np.exp(0.2j), np.exp(-0.2j)]),
    ],
)
def test_euler_factorization_degenerate_branches(u):
    f = euler_factorization(np.asarray(u, dtype=complex))
    assert np.max(np.abs(euler_matrix(*f) - u)) < 1e-12


def test_euler_factorization_rejects_non_unitary():
    with pytest.raises(ToolkitError) as err:
        euler_factorization(np.ones((2, 2)))
    assert err.value.code == "not-unitary"


def test_coin_field_shape_and_unitarity_guard():
    with pytest.raises(ValueError):
        CoinField(2, np.zeros((3, 2, 2)))
    bad = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
    bad[1] *= 2.0
    bad[3] *= 2.0
    with pytest.raises(ValueError, match="coin 1 is not unitary"):
        CoinField(2, bad)


def test_total_coin_matrix_is_block_diagonal():
    field = random_field(2, seed=0)
    c = total_coin_matrix(field)
    assert is_unitary(c)
    for k in range(4):
        assert np.array_equal(c[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], field.coin(k))
    off = c.copy()
    for k in range(4):
        off[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = 0
    assert np.all(off == 0)


def test_identity_and_seeded_fields():
    assert np.allclose(total_coin_matrix(identity_field(2)), np.eye(8))
    a, b = random_field(3, seed=5), random_field(3, seed=5)
    assert np.array_equal(a.coins, b.coins)
    assert not np.allclose(a.coins, random_field(3, seed=6).coins)


def test_euler_angles_reproduce_field():
    field = random_field(2, seed=9)
    angles = field.euler_angles()
    assert angles.shape == (4, 4)
    for k in range(4):
        assert np.max(np.abs(euler_matrix(*angles[k]) - field.coin(k))) < 1e-10


def test_euler_angles_are_the_per_coin_factorization_bit_for_bit():
    fields = [random_field(n, seed) for n in range(1, 11) for seed in range(3)]
    fields += [dirac_field(n, 1.0, 0.5, 1.0, 50.0) for n in range(1, 13)]
    for field in fields:
        want = np.array([euler_factorization(c) for c in field.coins])
        assert np.array_equal(field.euler_angles(), want), field.meta


@pytest.mark.parametrize("cmap", ["normalized", "lattice"])
def test_dirac_field_entries(cmap):
    n, mass, a, q, v0 = 3, 10.0, 0.05, 1.0, 8.0
    field = dirac_field(n, mass=mass, step=a, charge=q, v0=v0, coordinate_map=cmap)
    ma = mass * a
    for k in range(1 << n):
        x = k / (1 << n) if cmap == "normalized" else k * a
        phase = np.exp(-1j * q * v0 * (x - 0.5) ** 2 * a)
        want = phase * np.array(
            [[np.cos(ma), 1j * np.sin(ma)], [1j * np.sin(ma), np.cos(ma)]]
        )
        assert np.max(np.abs(field.coin(k) - want)) < 1e-12


def test_dirac_field_rejects_unknown_map():
    with pytest.raises(ValueError):
        dirac_field(2, 1.0, 0.1, 1.0, 1.0, coordinate_map="angular")


def test_zero_charge_removes_the_potential():
    free = dirac_field(3, 10.0, 0.05, 0.0, 80 * np.pi)
    assert np.max(np.abs(free.coins - free.coins[0])) < 1e-15


def test_json_round_trip_explicit():
    field = random_field(2, seed=3)
    back = coin_field_from_json(coin_field_to_json(field))
    assert back.n == 2
    assert np.array_equal(back.coins, field.coins)


@pytest.mark.parametrize(
    "field",
    [random_field(5, seed=1), dirac_field(10, 1.0, 0.5, 1.0, 50.0), identity_field(2),
     CoinField(1, -np.array([[[1, -0.0], [0.0, 1]], [[-0.0, 1], [1, 0]]], dtype=complex))],
    ids=["random", "trap", "identity", "signed-zeros"],
)
def test_explicit_json_is_the_json_dumps_text(field):
    pairs = np.stack([field.coins.real, field.coins.imag], axis=-1).reshape(-1, 4, 2).tolist()
    assert coin_field_to_json(field) == json.dumps({"n": field.n, "coins": pairs})


def test_json_parametric_forms():
    by_seed = coin_field_from_json({"n": 2, "kind": "k-params", "seed": 3})
    assert np.array_equal(by_seed.coins, random_field(2, seed=3).coins)
    angles = [[0.1, 0.2, 0.3, 0.4]] * 4
    by_angles = coin_field_from_json({"n": 2, "kind": "k-params", "angles": angles})
    assert np.allclose(by_angles.coin(0), coin_from_k_params(0.1, 0.2, 0.3, 0.4))
    d = coin_field_from_json(
        {"n": 2, "kind": "dirac", "mass": 5.0, "step": 0.1, "charge": -1.0,
         "v0": 2.0, "coordinate_map": "lattice"}
    )
    want = dirac_field(2, 5.0, 0.1, -1.0, 2.0, "lattice")
    assert np.max(np.abs(d.coins - want.coins)) < 1e-15


def test_json_rejects_tampered_payloads():
    field = random_field(1, seed=0)
    obj = json.loads(coin_field_to_json(field))
    obj["coins"][0] = [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]
    with pytest.raises(ValueError, match="coin 0 is not unitary"):
        coin_field_from_json(obj)
    with pytest.raises(ValueError):
        coin_field_from_json({"n": 1, "kind": "mystery"})
