import numpy as np

from cliptrack.rng import SplitMix64, unit_vector


def test_known_stream_values():
    # First outputs for seed 0; pins the generator constants.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_same_seed_same_stream():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_uniform_range_and_determinism():
    rng = SplitMix64(7)
    xs = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    rng2 = SplitMix64(7)
    assert xs == [rng2.uniform() for _ in range(1000)]


def test_randint_bounds():
    rng = SplitMix64(42)
    xs = [rng.randint(7) for _ in range(2000)]
    assert set(xs) == set(range(7))


def test_gauss_moments():
    rng = SplitMix64(3)
    xs = np.array([rng.gauss() for _ in range(20000)])
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03


def test_unit_vector_norm():
    rng = SplitMix64(5)
    for _ in range(20):
        v = unit_vector(rng, 16)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
