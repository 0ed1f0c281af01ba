import numpy as np
import pytest

from coinwalk import CoinField, coin_from_k_params

# Benchmark coin set for 8 nodes: pseudo-random (alpha, theta, phi, lambda)
# rows, kept fixed so gate-count comparisons are reproducible.
BENCH_ANGLES = [
    (2.79345642, 2.04965065, -1.40857922, -0.92367785),
    (1.06079763, 0.78803616, 2.65787445, -2.41605216),
    (1.37954004, 2.33616145, 1.80543107, 1.62653295),
    (2.19632113, 0.83464054, -0.6205838, -2.18954578),
    (1.68034403, 0.14646079, -1.58351372, 0.15425736),
    (1.87405243, 2.83703533, 1.81087703, -2.22138109),
    (1.10728697, 2.5120075, 0.46211176, 1.15354949),
    (1.97339916, 0.5405225, 2.67464114, -1.52776719),
]


@pytest.fixture(scope="session")
def bench_field_n3() -> CoinField:
    coins = np.array([coin_from_k_params(*row) for row in BENCH_ANGLES])
    return CoinField(3, coins, {"kind": "bench"})


@pytest.fixture()
def no_large_matrices(monkeypatch):
    """Make np.zeros and np.eye fail the test, before allocating, above 1 GiB."""

    def guarded(allocate, square):
        def checked_allocate(shape, *args, **kwargs):
            count = shape * shape if square else int(np.prod(shape))
            assert count * 16 <= 1 << 30, f"{allocate.__name__}({shape}) asked for over 1 GiB"
            return allocate(shape, *args, **kwargs)

        return checked_allocate

    monkeypatch.setattr(np, "zeros", guarded(np.zeros, square=False))
    monkeypatch.setattr(np, "eye", guarded(np.eye, square=True))
