import math

import numpy as np
import pytest

from helssvr.kernels import FACTOR_TOL, GramMatrix, KernelSpec, gram_factor, gram_matrix, kernel_row


class TestKernelEval:
    def test_rbf_zero_distance(self):
        spec = KernelSpec("rbf", sigma=1.0)
        assert kernel_row(spec, [1.0, 2.0], np.array([[1.0, 2.0]]))[0] == 1.0

    def test_rbf_known_value(self):
        spec = KernelSpec("rbf", sigma=2.0)
        # squared distance 4, sigma^2 = 4 -> e^{-1}
        assert kernel_row(spec, [0.0, 0.0], np.array([[2.0, 0.0]]))[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_dimension_mismatch(self):
        spec = KernelSpec("rbf", sigma=1.0)
        with pytest.raises(ValueError):
            kernel_row(spec, [1.0, 2.0], np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ValueError):
            kernel_row(spec, [1.0, 2.0, 3.0], np.zeros((4, 2)))
        with pytest.raises(ValueError, match="2-d block of points, got ndim=3"):
            kernel_row(spec, np.ones((2, 1, 1)), np.ones((4, 1)))
        with pytest.raises(ValueError, match="at least one feature"):
            kernel_row(spec, np.empty((2, 0)), np.empty((4, 0)))
        with pytest.raises(ValueError, match="at least one feature"):
            gram_matrix(spec, np.empty((4, 0)))

    def test_invalid_specs(self):
        for sigma in (None, 0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"kernel.sigma must be a finite number > 0, got {sigma!r}"):
                KernelSpec("rbf", sigma=sigma)
        with pytest.raises(ValueError, match="kernel.sigma must be a finite number > 0, got None"):
            KernelSpec("rbf")
        # RBF is the only kernel
        for kind, sigma in (("linear", None), ("linear", 1.0), ("poly", 1.0)):
            with pytest.raises(ValueError, match=f"unknown kernel kind '{kind}': the only kind is 'rbf'"):
                KernelSpec(kind, sigma=sigma)


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

    def test_three_dimensional_rejected(self):
        with pytest.raises(ValueError, match="expected a 2-d sample matrix, got ndim=3"):
            gram_matrix(KernelSpec("rbf", sigma=1.0), np.zeros((2, 2, 2)))

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
        spec = KernelSpec("rbf", sigma=0.9)
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
        # rows of the identity lie sqrt(2) apart
        g = gram_matrix(KernelSpec("rbf", sigma=1.0), np.eye(3))
        assert isinstance(g, GramMatrix)
        assert np.array_equal(g.values, np.exp(-2.0 * (1.0 - np.eye(3))))


def per_point_row(spec, x, X):
    """One kernel row of one point, its squared distances summed feature by
    feature in column order: the reference for every blocked row."""
    diff = X - x
    dist2 = diff[:, 0] * diff[:, 0]
    for j in range(1, X.shape[1]):
        dist2 = dist2 + diff[:, j] * diff[:, j]
    arg = -dist2 / (spec.sigma * spec.sigma)
    arg[arg < np.log(np.finfo(float).tiny)] = -np.inf
    return np.exp(arg)


def einsum_row(spec, x, X):
    """One RBF kernel row with its squared distances summed by einsum, as
    kernel rows were computed before they summed one feature at a time."""
    diff = X - x
    arg = -np.einsum("ij,ij->i", diff, diff) / (spec.sigma * spec.sigma)
    arg[arg < np.log(np.finfo(float).tiny)] = -np.inf
    return np.exp(arg)


class TestPerFeatureSums:
    """Summing feature by feature gives einsum's bits on data of one or two
    features, which every benchmark and golden file uses, and agrees with
    it to rounding on wider data."""

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_oracle_against_einsum_rows(self, d):
        spec = KernelSpec("rbf", sigma=0.7)
        rng = np.random.default_rng(20 + d)
        X, Q = rng.normal(size=(40, d)), rng.normal(size=(6, d))
        for q in Q:
            got, old = per_point_row(spec, q, X), einsum_row(spec, q, X)
            if d <= 2:
                assert got.tobytes() == old.tobytes()
            else:
                np.testing.assert_allclose(got, old, rtol=1e-12, atol=0)


class TestBlockedRows:
    """Kernel rows evaluated a block at a time agree bit for bit with the
    per-point formula, whatever the block size."""

    SPEC = KernelSpec("rbf", sigma=0.7)

    @staticmethod
    def blocks_of(monkeypatch, rows, n, d):
        import helssvr.kernels

        # one (b, n) array of rows, and a second of scratch when d > 1
        monkeypatch.setattr(helssvr.kernels, "BLOCK_BYTES", rows * 8 * n * (2 if d > 1 else 1))
        assert helssvr.kernels.block_rows(n, d) == rows

    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_block_rows_match_per_point_rows(self, d):
        spec = self.SPEC
        rng = np.random.default_rng(d)
        X, Q = rng.normal(size=(11, d)), rng.normal(size=(8, d))
        block = kernel_row(spec, Q, X)
        assert block.shape == (8, 11)
        out = np.empty((8, 11))
        assert kernel_row(spec, Q, X, out=out) is out
        one = kernel_row(spec, Q[2], X)
        assert one.shape == (11,)
        assert one.tobytes() == per_point_row(spec, Q[2], X).tobytes()
        for q, got, written in zip(Q, block, out):
            assert got.tobytes() == written.tobytes() == per_point_row(spec, q, X).tobytes()

    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_gram_in_several_blocks_matches_per_point_rows(self, monkeypatch, d):
        spec = self.SPEC
        # 3 rows per block over 11 rows: blocks of 3, 3, 3 and a partial 2
        X = np.random.default_rng(10 + d).normal(size=(11, d))
        self.blocks_of(monkeypatch, 3, 11, d)
        g = gram_matrix(spec, X).values
        for i in range(11):
            assert g[i].tobytes() == per_point_row(spec, X[i], X).tobytes()

    def test_flushed_arguments_give_exact_zeros(self, monkeypatch):
        # at sigma=0.1 pairs further apart than about 2.7 are flushed
        X = np.random.default_rng(9).uniform(0.0, 3.0, size=(13, 3))
        spec = KernelSpec("rbf", sigma=0.1)
        self.blocks_of(monkeypatch, 4, 13, 3)
        g = gram_matrix(spec, X).values
        off = g[~np.eye(13, dtype=bool)]
        assert np.all(np.diag(g) == 1.0) and np.count_nonzero(off == 0.0) > 0 and np.count_nonzero(off) > 0
        assert not np.any((g > 0) & (g < np.finfo(float).tiny))
        for i in range(13):
            assert g[i].tobytes() == per_point_row(spec, X[i], X).tobytes()

    def test_float32_gram_is_the_flushed_float64_gram_rounded(self, monkeypatch):
        # blocks of 3, 3, 3 and a partial 2, through one float64 scratch block
        from helssvr.kernels import gram_buffer

        spec = self.SPEC
        X = np.random.default_rng(11).normal(size=(11, 3))
        self.blocks_of(monkeypatch, 3, 11, 3)
        wide = gram_matrix(spec, X).values
        out = gram_buffer(1, 11, np.float32)[0]
        assert gram_matrix(spec, X, out=out).values is out
        tiny32 = np.finfo(np.float32).tiny
        assert out.tobytes() == np.where(np.abs(wide) < tiny32, 0.0, wide).astype(np.float32).tobytes()

    def test_output_shape_checked(self):
        spec = KernelSpec("rbf", sigma=1.0)
        with pytest.raises(ValueError, match=r"need an output of that shape, got \(3, 4\)"):
            kernel_row(spec, np.zeros((3, 2)), np.zeros((5, 2)), out=np.empty((3, 4)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel_row(spec, np.zeros((3, 3)), np.zeros((5, 2)))


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


    def test_narrow_rbf_float32_gram_has_no_subnormal_entries(self):
        # 400 rows, a Gram too large to share a stack and so stored in
        # float32.  Rounded without the flush, 3.7% of its entries would be
        # float32 subnormals, and a float32 GEMV over them ran 18x slower,
        # a (6, 400) GEMM 44x (one OpenBLAS thread)
        from helssvr.data import SyntheticSpec, generate_synthetic, scale_features, scale_fit
        from helssvr.kernels import gram_buffer

        ds, _ = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=400, seed=500))
        Xs = scale_features(scale_fit(ds.X, ds.y, "zscore"), ds.X)
        spec = KernelSpec("rbf", sigma=0.1)
        g = gram_matrix(spec, Xs, out=gram_buffer(1, 400, np.float32)[0]).values
        wide = gram_matrix(spec, Xs).values
        tiny32 = np.finfo(np.float32).tiny
        assert np.count_nonzero((g > 0) & (g < tiny32)) == 0
        rounded = wide.astype(np.float32)
        assert np.count_nonzero((rounded > 0) & (rounded < tiny32)) > 0.03 * wide.size
        assert np.all(np.diag(g) == 1.0) and np.array_equal(g, g.T)


class TestGramAlignment:
    @pytest.mark.parametrize("n", [1, 7, 320])
    def test_buffer_starts_on_64_byte_boundary(self, n):
        X = np.linspace(0, 1, n).reshape(-1, 1)
        values = gram_matrix(KernelSpec("rbf", sigma=0.5), X).values
        assert values.ctypes.data % 64 == 0
        assert values.flags.c_contiguous and values.shape == (n, n)


class TestGramBuffer:
    @pytest.mark.parametrize("f, n", [(1, 7), (3, 7), (5, 160), (2, 333)])
    def test_every_matrix_aligned(self, f, n, dtype=np.float64):
        from helssvr.kernels import gram_buffer

        values = gram_buffer(f, n, dtype)
        assert values.shape == (f, n, n) and values.dtype == dtype
        for k in range(f):
            assert values[k].ctypes.data % 64 == 0 and values[k].flags.c_contiguous
        # the matrices do not overlap
        values[:] = np.arange(f).reshape(-1, 1, 1)
        assert all(np.all(values[k] == k) for k in range(f))

    @pytest.mark.parametrize("f, n", [(1, 7), (3, 7), (2, 363)])
    def test_every_float32_matrix_aligned(self, f, n):
        self.test_every_matrix_aligned(f, n, np.float32)

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


class TestGramFactor:
    """The pivoted-Cholesky factor K ~= Lt.T @ Lt: complete to its tolerance,
    at least one column, and None once its rank reaches n/4."""

    @pytest.mark.parametrize("sigma, rank", [(0.5, 13), (2.0, 7)])
    def test_wide_rbf_kernel_on_one_feature(self, sigma, rank):
        X = np.linspace(0.0, 1.0, 363).reshape(-1, 1)
        K = gram_matrix(KernelSpec("rbf", sigma=sigma), X).values
        factor = gram_factor(KernelSpec("rbf", sigma=sigma), X)
        assert factor.Lt.shape == (rank, 363) and factor.n == 363
        resid = K - factor.Lt.T @ factor.Lt
        # the residual is positive semidefinite up to rounding, so its
        # trace bounds every entry's magnitude, and the trace was stopped
        # at FACTOR_TOL * n
        assert np.trace(resid) <= FACTOR_TOL * 363 + 1e-13
        assert np.abs(resid).max() <= 1e-11

    def test_factor_repeats_bit_for_bit(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(400, 2))
        spec = KernelSpec("rbf", sigma=2.0)
        first, second = gram_factor(spec, X), gram_factor(spec, X)
        assert first.Lt.shape[0] < 100
        assert first.Lt.tobytes() == second.Lt.tobytes()

    def test_equal_rows_give_rank_one(self):
        # K is all ones: the first pivot, row 0, completes the factor, so
        # no RBF factor has rank 0
        factor = gram_factor(KernelSpec("rbf", sigma=1.0), np.zeros((8, 2)))
        assert factor.Lt.shape == (1, 8) and factor.pivots.tolist() == [0]
        assert np.array_equal(factor.Lt, np.ones((1, 8)))

    @pytest.mark.parametrize(
        "spec, X",
        [
            (KernelSpec("rbf", sigma=0.5), np.linspace(0.0, 1.0, 363).reshape(-1, 1)),
            (KernelSpec("rbf", sigma=2.0), np.random.default_rng(5).uniform(-1, 1, size=(400, 2))),
        ],
    )
    def test_pivot_columns_are_triangular_and_pivot_rows_exact(self, spec, X):
        # the pivots are distinct rows; Lt[:, pivots] is upper triangular
        # with a positive diagonal, but for rounding: an entry below the
        # diagonal is a rounding residue of K's scale divided by its row's
        # diagonal entry, which can be as small as the square root of the
        # stopping tolerance; and each pivot row of K is its row of
        # Lt.T @ Lt to rounding
        factor = gram_factor(spec, X)
        K = gram_matrix(spec, X).values
        r, eps = factor.Lt.shape[0], 8 * np.finfo(float).eps * K.diagonal().max()
        assert factor.pivots.shape == (r,) and factor.pivots.dtype == np.intp
        assert len(set(factor.pivots.tolist())) == r
        LPP = factor.Lt[:, factor.pivots]
        assert np.all(LPP.diagonal() > 0)
        assert np.all(np.abs(np.tril(LPP, -1)) * LPP.diagonal()[:, None] <= eps)
        assert np.abs(K[factor.pivots] - LPP.T @ factor.Lt).max() <= eps

    @pytest.mark.parametrize("n", [8, 9, 363])
    def test_gives_up_once_the_rank_reaches_a_quarter_of_n(self, n):
        # a kernel so narrow that K is the identity: rank n
        X = np.arange(n, dtype=float).reshape(-1, 1)
        assert gram_factor(KernelSpec("rbf", sigma=1e-3), X) is None

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty sample set"):
            gram_factor(KernelSpec("rbf", sigma=1.0), np.zeros((0, 1)))


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

    def test_budget_between_the_float32_and_float64_buffers(self, monkeypatch):
        # 4-byte entries: a budget admits a float32 Gram of sqrt(2) times
        # the rows of the largest float64 one (400 against 283 rows here),
        # and a fit of 400 rows whose Gram is float32 (a narrow kernel, so
        # the factor gives up) trains under it
        import helssvr.kernels
        from helssvr.kernels import gram_buffer, gram_buffer_bytes
        from helssvr.losses import LossSpec
        from helssvr.model import fit
        from helssvr.optimizer import AdamConfig

        budget = gram_buffer_bytes(1, 283)
        assert gram_buffer_bytes(1, 400, np.float32) == 640_064 <= budget == 640_832
        monkeypatch.setattr(helssvr.kernels, "GRAM_MAX_BYTES", budget)
        assert gram_buffer(1, 400, np.float32).shape == (1, 400, 400)
        for n, dtype, size in ((284, np.float64, "645,312"), (400, np.float64, "1,280,064"), (401, np.float32, "643,328")):
            with pytest.raises(ValueError, match=f"f=1 matrices of N={n} rows needs {size} bytes"):
                gram_buffer(1, n, dtype)
        X = np.linspace(0.0, 1.0, 400).reshape(-1, 1)
        model, _ = fit(X, np.sin(3 * X[:, 0]), KernelSpec("rbf", sigma=0.005), LossSpec("least_squares"), C=1.0,
                       adam=AdamConfig(max_iter=2))
        assert model.alpha.shape == (400,)

    def test_budget_between_the_factor_and_the_float32_gram(self, monkeypatch):
        # 2000 1-D rows: under a 2 MB budget a wide kernel's factor (rank
        # 13, in a 16-column buffer of 256,000 bytes) trains, and its model
        # keeps the 13 pivot rows, where the float32 Gram of 16 MB could
        # not be allocated; a narrow kernel's factor outgrows the budget's
        # 125 columns, gives up, and the float32 Gram raises the budget's
        # error before it is allocated: the most held at once is the
        # 125-column buffer and the 64-column one it replaced
        import tracemalloc

        import helssvr.kernels
        from helssvr.kernels import gram_buffer_bytes
        from helssvr.losses import LossSpec
        from helssvr.model import fit
        from helssvr.optimizer import AdamConfig

        n, budget = 2000, 2_000_000
        monkeypatch.setattr(helssvr.kernels, "GRAM_MAX_BYTES", budget)
        X = np.linspace(0.0, 1.0, n).reshape(-1, 1)
        y = np.sin(3 * X[:, 0])

        def train(sigma):
            return fit(X, y, KernelSpec("rbf", sigma=sigma), LossSpec("least_squares"), C=1.0,
                       adam=AdamConfig(max_iter=2))

        assert helssvr.kernels.gram_factor(KernelSpec("rbf", sigma=0.5), X).Lt.shape == (13, n)
        model, _ = train(0.5)
        assert model.alpha.shape == (13,)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"f=1 matrices of N={n} rows needs 16,000,064 bytes, "
                                                 f"more than kernels.GRAM_MAX_BYTES = 2,000,000"):
                train(0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gram_buffer_bytes(1, n, np.float32) == 16_000_064
        assert peak <= (125 + 64) * 8 * n + 200_000

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
