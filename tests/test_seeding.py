import numpy as np
import pytest

from helssvr.data import kfold_split
from helssvr.seeding import child_seed, make_rng, sample_without_replacement


class TestMakeRng:
    def test_same_entropy_same_stream(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_extra_entropy_changes_stream(self):
        a = make_rng(42).random(5)
        b = make_rng(42, 1).random(5)
        assert not np.array_equal(a, b)


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, 3, 1) == child_seed(7, 3, 1)

    def test_distinct_across_indices(self):
        seeds = {child_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_across_masters(self):
        assert child_seed(1, 5) != child_seed(2, 5)


class TestSampleWithoutReplacement:
    def test_distinct_and_in_range(self):
        rng = make_rng(0)
        for _ in range(200):
            got = sample_without_replacement(rng, 50, 7)
            assert len(set(got.tolist())) == 7
            assert got.min() >= 0 and got.max() < 50

    def test_full_draw_is_permutation(self):
        got = sample_without_replacement(make_rng(3), 12, 12)
        assert np.array_equal(np.sort(got), np.arange(12))

    def test_zero_draw(self):
        assert sample_without_replacement(make_rng(0), 5, 0).size == 0

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            sample_without_replacement(make_rng(0), 5, 6)
        with pytest.raises(ValueError):
            sample_without_replacement(make_rng(0), 5, -1)

    def test_uniform_inclusion(self):
        rng = make_rng(9)
        counts = np.zeros(30)
        trials = 30_000
        for _ in range(trials):
            counts[sample_without_replacement(rng, 30, 6)] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.2) < 0.015)


class TestGoldenDraws:
    """Recorded bits of the sampler; every fold split and Adam seed depends on them."""

    def test_kfold_split(self):
        folds = [fold.tolist() for fold in kfold_split(10, 3, 0)]
        assert folds == [[1, 2, 7, 8], [3, 6, 9], [0, 4, 5]]

    def test_successive_draws(self):
        rng = make_rng(5)
        draws = [sample_without_replacement(rng, 20, 6).tolist() for _ in range(3)]
        assert draws == [[17, 18, 9, 5, 12, 13], [5, 16, 17, 2, 7, 4], [16, 6, 3, 4, 15, 14]]


def one_draw(rng, n, k):
    """The scalar partial Fisher-Yates loop: the reference for block draws."""
    idx = np.arange(n)
    us = rng.random(k)
    for i in range(k):
        j = i + int(us[i] * (n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k].copy()


class TestBlockDraws:
    @pytest.mark.parametrize("n, k", [(1, 1), (5, 0), (5, 5), (33, 32), (160, 32), (2000, 32)])
    @pytest.mark.parametrize("draws", [1, 7, 200])
    def test_rows_are_successive_draws(self, n, k, draws):
        rng, ref = make_rng(n, k, draws), make_rng(n, k, draws)
        block = sample_without_replacement(rng, n, k, draws=draws)
        assert block.shape == (draws, k)
        for row in block:
            assert np.array_equal(row, one_draw(ref, n, k))
        assert rng.random() == ref.random()

    def test_single_draw_matches_reference(self):
        rng, ref = make_rng(11), make_rng(11)
        for _ in range(5):
            got = sample_without_replacement(rng, 40, 9)
            assert got.shape == (9,)
            assert np.array_equal(got, one_draw(ref, 40, 9))
        assert rng.random() == ref.random()
