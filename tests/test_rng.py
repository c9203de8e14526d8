import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlsub.rng import MAIN_STREAM, PILOT_STREAM, derive_seed, hashes, uniforms

from _oracles import uniform_one

# numpy warns when a uint64 scalar overflows, as the counter hash would if
# its arithmetic left its arrays
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_range_and_determinism():
    idx = np.arange(10_000, dtype=np.int64)
    u1 = uniforms(42, idx)
    u2 = uniforms(42, idx)
    assert np.array_equal(u1, u2)
    assert u1.min() >= 0.0 and u1.max() < 1.0


def test_block_layout_invariance():
    idx = np.arange(5000, dtype=np.int64)
    whole = uniforms(7, idx)
    pieces = np.concatenate([uniforms(7, idx[a:b]) for a, b in [(0, 13), (13, 700), (700, 5000)]])
    assert np.array_equal(whole, pieces)


def test_scalar_matches_vector_path():
    idx = np.arange(200, dtype=np.int64)
    vec = uniforms(3, idx, MAIN_STREAM)
    scalar = np.array([uniform_one(3, int(i), MAIN_STREAM) for i in idx])
    assert np.array_equal(vec, scalar)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_indices_left_unchanged(dtype):
    # the hash rounds run in place on a copy, even when no cast is needed
    idx = np.arange(3000, 6000, dtype=dtype)
    uniforms(8, idx, PILOT_STREAM)
    np.testing.assert_array_equal(idx, np.arange(3000, 6000))


def test_uniforms_are_the_scaled_hashes():
    idx = np.arange(2**40, 2**40 + 3000, dtype=np.int64)
    k = hashes(4, idx, PILOT_STREAM)
    assert k.dtype == np.uint64 and int(k.max()) < 2**53
    np.testing.assert_array_equal(hashes(4, range(2**40, 2**40 + 3000), PILOT_STREAM), k)
    np.testing.assert_array_equal(uniforms(4, idx, PILOT_STREAM), k * 2.0**-53)


def test_streams_are_disjoint():
    idx = np.arange(1000, dtype=np.int64)
    a = uniforms(5, idx, PILOT_STREAM)
    b = uniforms(5, idx, MAIN_STREAM)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_seeds_differ():
    idx = np.arange(1000, dtype=np.int64)
    assert not np.array_equal(uniforms(1, idx), uniforms(2, idx))


def test_rough_uniformity():
    u = uniforms(11, np.arange(200_000, dtype=np.int64))
    # mean 0.5 +/- 4 sigma; variance 1/12
    assert abs(u.mean() - 0.5) < 4 * np.sqrt(1 / 12 / u.size)
    counts, _ = np.histogram(u, bins=10, range=(0, 1))
    assert counts.min() > 0.95 * u.size / 10


def test_derive_seed_order_sensitive():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1) != derive_seed(2)
    assert 0 <= derive_seed(123, 4, 5) < 2**64


@settings(max_examples=50)
@given(
    seed=st.integers(min_value=0, max_value=2**63),
    index=st.integers(min_value=0, max_value=2**40),
)
def test_pointwise_reproducibility(seed, index):
    assert uniform_one(seed, index) == uniform_one(seed, index)
    assert 0.0 <= uniform_one(seed, index) < 1.0
