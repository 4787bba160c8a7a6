import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvsde.errors import CouplingError
from fvsde.noise import NoisePath, TimeGrid, coarsen, sample_path


def test_time_grid_basics():
    grid = TimeGrid(4, 2.0)
    assert grid.tau == 0.5
    with pytest.raises(ValueError):
        TimeGrid(0, 1.0)
    with pytest.raises(ValueError):
        TimeGrid(4, 0.0)


def test_sample_path_deterministic():
    a = sample_path(123, 7, 256, 1.0)
    b = sample_path(123, 7, 256, 1.0)
    assert np.array_equal(a.increments, b.increments)
    c = sample_path(123, 8, 256, 1.0)
    assert not np.array_equal(a.increments, c.increments)


def test_increment_variance_matches_law():
    path = sample_path(2024, 0, 100_000, 2.0)
    target = 2.0 / 100_000
    assert np.var(path.increments) == pytest.approx(target, rel=0.05)
    # standardized mean and variance within 4 sigma of their sampling laws
    z = path.increments / np.sqrt(target)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(np.mean(z**2) - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_paths_are_uncorrelated():
    n = 50_000
    a = sample_path(55, 0, n, 1.0).increments
    b = sample_path(55, 1, n, 1.0).increments
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(n)


def test_coarsen_identity_and_telescoping():
    path = sample_path(9, 0, 64, 1.0)
    np.testing.assert_array_equal(coarsen(path, 64), path.increments)
    single = coarsen(path, 1)
    assert single.shape == (1,)
    assert single[0] == path.increments.sum()        # exact, quantized lattice


def test_coarse_total_equals_fine_total_exactly():
    path = sample_path(31, 4, 1024, 0.5)
    for n in (1, 2, 8, 128, 512):
        assert coarsen(path, n).sum() == path.increments.sum()


def test_coarsen_rejects_non_divisor():
    path = sample_path(1, 0, 1024, 1.0)
    with pytest.raises(CouplingError):
        coarsen(path, 7)
    with pytest.raises(CouplingError):
        coarsen(path, 0)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 6, 24), (1, 2, 6), (8, 128, 1024), (3, 6, 24),
                        (5, 10, 30), (4, 16, 64)]),
       st.integers(min_value=0, max_value=2**32))
def test_coarsen_commutes_along_divisor_chains(chain, seed):
    n0, n1, n_fine = chain
    path = sample_path(seed, 0, n_fine, 1.0)
    direct = coarsen(path, n0)
    mid = NoisePath(path.horizon, n1, coarsen(path, n1), path.seed,
                    path.path_index)
    two_stage = coarsen(mid, n0)
    assert np.array_equal(direct, two_stage)


def test_coarsened_brownian_values_agree_at_shared_nodes():
    path = sample_path(77, 2, 32, 1.0)
    w = np.concatenate([[0.0], np.cumsum(coarsen(path, 32))])
    assert w[0] == 0.0
    assert w[-1] == path.increments.sum()
    coarse = np.concatenate([[0.0], np.cumsum(coarsen(path, 8))])
    # shared nodes agree exactly across resolutions
    np.testing.assert_array_equal(coarse, w[::4])


def test_sample_path_validation():
    with pytest.raises(ValueError):
        sample_path(1, 0, 0, 1.0)
    with pytest.raises(ValueError):
        sample_path(1, 0, 16, -1.0)


def test_sample_path_refuses_inexact_lattice_before_drawing():
    # 2**23 + 1 fine steps break exact partial sums for |z| <= 8; refused
    # before the 64 MB draw
    with pytest.raises(ValueError, match=r"2\*\*23"):
        sample_path(1, 0, 2**23 + 1, 1.0)


def test_sample_path_refuses_oversized_draw(monkeypatch):
    # a draw so far out that n_fine * max|k| reaches 2**53 is refused after
    # drawing; no Philox draw goes that far, so the generator is replaced
    class HugeDraws:
        def __init__(self, bit_generator):
            pass

        def standard_normal(self, n):
            return np.full(n, 1e6)

    monkeypatch.setattr(np.random, "Generator", HugeDraws)
    with pytest.raises(ValueError, match="standard deviations"):
        sample_path(1, 0, 1024, 1.0)
