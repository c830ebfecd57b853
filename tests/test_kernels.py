import math

import numpy as np
import pytest

from helssvr.kernels import GramMatrix, KernelSpec, gram_matrix, kernel_row


class TestKernelEval:
    def test_rbf_zero_distance(self):
        spec = KernelSpec("rbf", sigma=1.0)
        assert kernel_row(spec, [1.0, 2.0], np.array([[1.0, 2.0]]))[0] == 1.0

    def test_rbf_known_value(self):
        spec = KernelSpec("rbf", sigma=2.0)
        # squared distance 4, sigma^2 = 4 -> e^{-1}
        assert kernel_row(spec, [0.0, 0.0], np.array([[2.0, 0.0]]))[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_linear_dot_product(self):
        spec = KernelSpec("linear")
        assert kernel_row(spec, [1.0, 2.0], np.array([[3.0, 4.0]]))[0] == 11.0

    def test_dimension_mismatch(self):
        spec = KernelSpec("rbf", sigma=1.0)
        with pytest.raises(ValueError):
            kernel_row(spec, [1.0, 2.0], np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ValueError):
            kernel_row(spec, [1.0, 2.0, 3.0], np.zeros((4, 2)))

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf")
        with pytest.raises(ValueError):
            KernelSpec("rbf", sigma=0.0)
        with pytest.raises(ValueError):
            KernelSpec("rbf", sigma=-1.0)
        with pytest.raises(ValueError):
            KernelSpec("linear", sigma=1.0)
        with pytest.raises(ValueError):
            KernelSpec("poly")


class TestGram:
    def test_diagonal_is_one_for_rbf(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(17, 3))
        g = gram_matrix(KernelSpec("rbf", sigma=0.7), X)
        assert np.array_equal(np.diag(g.values), np.ones(17))

    def test_duplicate_rows_give_unit_entry(self):
        X = np.array([[0.5, -1.0], [2.0, 2.0], [0.5, -1.0]])
        g = gram_matrix(KernelSpec("rbf", sigma=1.0), X)
        assert g.values[0, 2] == 1.0
        assert g.values[2, 0] == 1.0

    def test_single_row(self):
        g = gram_matrix(KernelSpec("rbf", sigma=1.0), np.array([[1.0, 2.0, 3.0]]))
        assert g.values.shape == (1, 1)
        assert g.values[0, 0] == 1.0
        assert g.n == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gram_matrix(KernelSpec("rbf", sigma=1.0), np.zeros((0, 3)))

    def test_symmetry_and_range_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 25))
            m = int(rng.integers(1, 6))
            sigma = float(rng.uniform(0.2, 5.0))
            X = rng.normal(size=(n, m))
            g = gram_matrix(KernelSpec("rbf", sigma=sigma), X).values
            assert np.array_equal(g, g.T)
            assert np.all(g > 0.0)
            assert np.all(g <= 1.0)

    def test_rows_match_kernel_row_bitwise(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(12, 4))
        for spec in (KernelSpec("rbf", sigma=0.9), KernelSpec("linear")):
            g = gram_matrix(spec, X).values
            for i in range(12):
                assert np.array_equal(g[i], kernel_row(spec, X[i], X))

    def test_rbf_gram_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            X = rng.normal(size=(20, 3))
            sigma = float(rng.uniform(0.3, 3.0))
            g = gram_matrix(KernelSpec("rbf", sigma=sigma), X).values
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() >= -1e-8 * 20

    def test_large_sigma_flattens_kernel(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, size=(10, 2))
        row = kernel_row(KernelSpec("rbf", sigma=1e6), X[0], X)
        assert np.all(np.abs(row - 1.0) < 1e-6)

    def test_gram_matrix_type(self):
        g = gram_matrix(KernelSpec("linear"), np.eye(3))
        assert isinstance(g, GramMatrix)
        assert np.array_equal(g.values, np.eye(3))


class TestSubnormalFlush:
    def test_narrow_rbf_gram_has_no_subnormal_entries(self):
        # at sigma=0.1 on z-scored data most pairs lie far enough apart
        # that exp(-d^2 / sigma^2) falls into the subnormal range
        from helssvr.data import SyntheticSpec, generate_synthetic, scale_features, scale_fit

        ds, _ = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=400, seed=500))
        Xs = scale_features(scale_fit(ds.X, ds.y, "zscore"), ds.X)
        g = gram_matrix(KernelSpec("rbf", sigma=0.1), Xs).values
        tiny = np.finfo(float).tiny
        assert np.count_nonzero((g > 0) & (g < tiny)) == 0
        assert np.count_nonzero(g == 0) > 0  # the flushed entries
        assert np.all(np.diag(g) == 1.0)


class TestGramAlignment:
    @pytest.mark.parametrize("n", [1, 7, 320])
    def test_buffer_starts_on_64_byte_boundary(self, n):
        X = np.linspace(0, 1, n).reshape(-1, 1)
        values = gram_matrix(KernelSpec("rbf", sigma=0.5), X).values
        assert values.ctypes.data % 64 == 0
        assert values.flags.c_contiguous and values.shape == (n, n)


class TestGramBuffer:
    @pytest.mark.parametrize("f, n", [(1, 7), (3, 7), (5, 160), (2, 333)])
    def test_every_matrix_aligned(self, f, n):
        from helssvr.kernels import gram_buffer

        values = gram_buffer(f, n)
        assert values.shape == (f, n, n)
        for k in range(f):
            assert values[k].ctypes.data % 64 == 0 and values[k].flags.c_contiguous
        # the matrices do not overlap
        values[:] = np.arange(f).reshape(-1, 1, 1)
        assert all(np.all(values[k] == k) for k in range(f))

    def test_gram_written_into_out(self):
        from helssvr.kernels import gram_buffer

        X = np.random.default_rng(3).uniform(size=(9, 2))
        spec = KernelSpec("rbf", sigma=0.5)
        values = gram_buffer(2, 9)
        out = values[1]
        assert gram_matrix(spec, X, out=out).values is out
        assert values[1].tobytes() == gram_matrix(spec, X).values.tobytes()
        with pytest.raises(ValueError, match=r"needs an \(9, 9\) output"):
            gram_matrix(spec, X, out=values[:, :8, :8][0])


class TestGramBudget:
    """The memory check runs before anything is allocated."""

    def test_over_budget_raises_before_allocating(self, monkeypatch):
        import helssvr.kernels
        from helssvr.kernels import gram_buffer

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated")

        # 3 matrices of 100 x 100 doubles plus the 64-byte alignment slack
        monkeypatch.setattr(helssvr.kernels, "GRAM_MAX_BYTES", 3 * 80_000 + 63)
        monkeypatch.setattr(helssvr.kernels.np, "empty", no_allocation)
        with pytest.raises(ValueError, match=r"f=3 matrices of N=100 rows needs 240,064 bytes, "
                                             r"more than kernels.GRAM_MAX_BYTES = 240,063"):
            gram_buffer(3, 100)
        # one 174 x 174 Gram: 8 * (174**2 rounded up to 8, plus 8) bytes
        with pytest.raises(ValueError, match="f=1 matrices of N=174 rows needs 242,304 bytes"):
            gram_matrix(KernelSpec("rbf", sigma=1.0), np.zeros((174, 1)))

    def test_buffer_at_budget_allocates(self, monkeypatch):
        import helssvr.kernels
        from helssvr.kernels import gram_buffer

        monkeypatch.setattr(helssvr.kernels, "GRAM_MAX_BYTES", 3 * 80_000 + 64)
        assert gram_buffer(3, 100).shape == (3, 100, 100)

    def test_default_budget_admits_the_benchmark_gram(self):
        from helssvr.kernels import GRAM_MAX_BYTES

        assert 8 * 2000**2 < GRAM_MAX_BYTES

    def test_default_budget_is_physical_memory(self, monkeypatch):
        import os
        import sys

        from helssvr.kernels import GRAM_MAX_BYTES, _physical_memory

        assert GRAM_MAX_BYTES == _physical_memory()
        if hasattr(os, "sysconf"):
            assert GRAM_MAX_BYTES == os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        # a system that does not report its memory sets no limit
        monkeypatch.delattr(os, "sysconf", raising=False)
        assert _physical_memory() == sys.maxsize
