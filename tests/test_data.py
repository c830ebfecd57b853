import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helssvr.data import (
    Dataset,
    SyntheticSpec,
    benchmark_function,
    generate_synthetic,
    inverse_target,
    kfold_split,
    load_csv,
    load_features,
    read_rows,
    scale_features,
    scale_fit,
    scale_target,
    write_synthetic_csv,
)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds, rejected = load_csv(p, has_header=True, target_column="y")
        assert ds.X.shape == (3, 2)
        assert np.array_equal(ds.y, [3.0, 6.0, 9.0])
        assert rejected == 0

    def test_bad_row_rejected_and_counted(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,foo,3\n4,5,6\n")
        ds, rejected = load_csv(p, has_header=True, target_column="y")
        assert ds.n == 1
        assert rejected == 1

    def test_missing_cell_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,,3\n4,5,6\n")
        ds, rejected = load_csv(p, has_header=True)
        assert ds.n == 1
        assert rejected == 1

    def test_semicolon_delimiter(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a;b;y\n1;2;3\n4;5;6\n")
        ds, _ = load_csv(p, has_header=True, target_column="y", delimiter=";")
        assert np.array_equal(ds.y, [3.0, 6.0])

    def test_no_header_integer_target(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("3,1,2\n6,4,5\n")
        ds, _ = load_csv(p, has_header=False, target_column=0)
        assert np.array_equal(ds.y, [3.0, 6.0])
        assert ds.X.shape == (2, 2)

    def test_default_target_is_last_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n4,5,6\n")
        ds, _ = load_csv(p, has_header=False)
        assert np.array_equal(ds.y, [3.0, 6.0])

    def test_non_rectangular_is_format_error(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="cells"):
            load_csv(p, has_header=True)

    def test_all_rows_rejected_is_data_error(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\nx,x,x\n")
        with pytest.raises(ValueError, match="usable"):
            load_csv(p, has_header=True)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_unknown_target_name(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="target"):
            load_csv(p, has_header=True, target_column="z")

    @pytest.mark.parametrize("text, options, message", [
        ("", {}, "no rows"),
        ("1,2\n3,4\n", dict(has_header=False, target_column="y"), "target column given by name but the file has no"),
        ("a,y\n1,2\n", dict(target_column=2), "target column index 2 out of range for width 2"),
        ("a,y\n1,2\n", dict(target_column="y", drop_columns=("a",)), "no feature columns left"),
        ("a,y\n1,2\nnan,3\n", {}, "d.csv:3: non-finite cell"),
    ], ids=["empty", "name-without-header", "index-out-of-range", "no-features", "nan-cell"])
    def test_unusable_file_rejected(self, tmp_path, text, options, message):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(p, **options)

    def test_dropped_column_is_not_parsed(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,x,y\na,0.1,1.0\nb,0.2,oops\nc,0.3,3.0\n")
        ds, rejected = load_csv(p, target_column="y", drop_columns=("id",))
        assert np.array_equal(ds.X, [[0.1], [0.3]])
        assert np.array_equal(ds.y, [1.0, 3.0])
        assert rejected == 1

    def test_byte_order_mark_without_header_keeps_first_row(self, tmp_path):
        # a spreadsheet's UTF-8 export starts with a byte-order mark, which
        # is not part of the first cell
        p = tmp_path / "d.csv"
        p.write_text("\ufeff1,2\n3,4\n5,6\n", encoding="utf-8")
        ds, rejected = load_csv(p, has_header=False)
        assert rejected == 0
        assert np.array_equal(ds.X, [[1.0], [3.0], [5.0]])


class TestReadRows:
    def test_line_numbers_count_blank_lines(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("\n a , b\n\n1,2\n\n\n3, 4\n")
        # header cells are stripped, data cells are kept as written
        assert read_rows(p) == [(2, ["a", "b"]), (4, ["1", "2"]), (7, ["3", " 4"])]

    def test_header_only_and_empty_files(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n")
        assert read_rows(p) == [(1, ["a", "b"])]
        p.write_text("\n\n")
        assert read_rows(p) == []

    def test_headerless_width_is_the_first_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(" 1,2,3\n4,5,6\n7,8\n")
        with pytest.raises(ValueError, match=r"t\.csv:3: expected 3 cells, found 2$"):
            read_rows(p, has_header=False)
        p.write_text(" 1,2\n")
        assert read_rows(p, has_header=False) == [(1, [" 1", "2"])]

    def test_header_sets_the_width(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a;b;c\n1;2;3;4\n")
        with pytest.raises(ValueError, match=r"t\.csv:2: expected 3 cells, found 4$"):
            read_rows(p, delimiter=";")

    def test_byte_order_mark_is_not_read_as_a_cell(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("\ufeffx,y\n1,2\n", encoding="utf-8")
        assert read_rows(p) == [(1, ["x", "y"]), (2, ["1", "2"])]

    @pytest.mark.parametrize("rows", [1, 5000], ids=["first-chunk", "past-the-read-ahead"])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, rows):
        # the decoder reads ahead in chunks of a few KiB, so the byte is
        # found in the file, not where the reader stands
        p = tmp_path / "t.csv"
        p.write_bytes(b"\xef\xbb\xbfx,y\r\n" + b"1.5,2.5\r\n" * rows + b"\r\n3,caf\xe9\r\n4,5\r\n")
        with pytest.raises(ValueError, match=rf"t\.csv:{rows + 3}: not UTF-8 text: byte 0xe9 \(invalid continuation"):
            read_rows(p)


class TestLoadFeatures:
    def test_target_is_optional(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,a,b\nr1,1,2\nr2,3,4\n")
        assert np.array_equal(load_features(p, drop_columns=("id",)), [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(load_features(p, target_column="b", drop_columns=("id",)), [[1.0], [3.0]])

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,2\nfoo,4\n", "d.csv:3: non-numeric cell"),
            ("1,2\n3\n", "d.csv:3: expected 2 cells, found 1"),
            ("\n1,2\nfoo,4\n", "d.csv:4: non-numeric cell"),  # blank lines count
        ],
        ids=["bad-cell", "short-row", "after-blank-line"],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, body, message):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n" + body)
        with pytest.raises(ValueError, match=message):
            load_features(p)


class TestKfold:
    def test_even_split(self):
        folds = kfold_split(10, 5, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]
        allidx = np.sort(np.concatenate(folds))
        assert np.array_equal(allidx, np.arange(10))

    def test_remainder_distribution(self):
        folds = kfold_split(11, 5, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]

    def test_matches_dealing_loop(self):
        # reference: the seeded permutation dealt in order, the n % k larger
        # folds first, each fold sorted
        from helssvr.seeding import make_rng, sample_without_replacement

        for seed in (0, 1, 7):
            for n in range(2, 61):
                perm = sample_without_replacement(make_rng(seed, 0xF01D), n, n)
                for k in range(2, min(n, 12) + 1):
                    base, extra = divmod(n, k)
                    starts = np.cumsum([0] + [base + (i < extra) for i in range(k)])
                    want = [np.sort(perm[lo:hi]) for lo, hi in zip(starts[:-1], starts[1:])]
                    got = kfold_split(n, k, seed)
                    assert [f.tolist() for f in got] == [f.tolist() for f in want]

    def test_deterministic(self):
        a = kfold_split(37, 4, seed=9)
        b = kfold_split(37, 4, seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_seed_changes_split(self):
        a = kfold_split(37, 4, seed=1)
        b = kfold_split(37, 4, seed=2)
        assert any(not np.array_equal(fa, fb) for fa, fb in zip(a, b))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            kfold_split(5, 6, seed=0)
        with pytest.raises(ValueError):
            kfold_split(5, 1, seed=0)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=200),
        k=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_property(self, n, k, seed):
        if k > n:
            return
        folds = kfold_split(n, k, seed)
        concat = np.concatenate(folds)
        assert len(concat) == n
        assert len(np.unique(concat)) == n
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1


class TestSynthetic:
    def test_function_values(self):
        assert benchmark_function(1, np.pi / 2) == pytest.approx(1.0, rel=1e-15)
        assert benchmark_function(5, 0.0) == 1.0
        assert benchmark_function(4, 0.0) == 0.0
        assert benchmark_function(3, 0.0) == 0.0

    def test_sinc_limit(self):
        assert benchmark_function(2, 0.0) == 1.0
        assert abs(benchmark_function(2, 1e-8) - 1.0) < 1e-15

    def test_function_expressions(self):
        x = np.linspace(-4, 4, 7)
        assert np.allclose(benchmark_function(4, x), x * np.cos(x))
        assert np.allclose(benchmark_function(5, x), (1 - x + 2 * x**2) * np.exp(-(x**2) / 2))
        x2 = np.linspace(0, 2 * np.pi, 7)
        assert np.allclose(benchmark_function(3, x2), np.sin(x2) * np.cos(x2**2))

    def test_bad_function_id(self):
        with pytest.raises(ValueError):
            benchmark_function(6, 0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(function_id=0, noise="gaussian")

    @pytest.mark.parametrize("options, message", [
        (dict(noise="cauchy"), "noise must be one of"),
        (dict(n_samples=0), "n_samples must be an integer >= 1"),
        (dict(sampling="random"), "sampling must be 'uniform' or 'grid', got 'random'"),
        (dict(n_samples=2.5), "n_samples must be an integer >= 1, got 2.5"),
        (dict(n_samples=10.0), "n_samples must be an integer >= 1, got 10.0"),
        (dict(n_samples="10"), "n_samples must be an integer >= 1, got '10'"),
    ])
    def test_bad_spec(self, options, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**{"function_id": 1, "noise": "gaussian", **options})

    def test_domains_respected(self):
        for fid, (lo, hi) in ((1, (0, 2 * np.pi)), (2, (-4, 4))):
            ds, _ = generate_synthetic(SyntheticSpec(fid, "gaussian", n_samples=500, seed=3))
            assert ds.X.min() >= lo
            assert ds.X.max() <= hi

    def test_determinism(self):
        spec = SyntheticSpec(3, "student", n_samples=100, seed=42)
        d1, t1 = generate_synthetic(spec)
        d2, t2 = generate_synthetic(spec)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.y, d2.y)
        assert np.array_equal(t1, t2)

    def test_noise_free_targets_returned(self):
        ds, y_true = generate_synthetic(SyntheticSpec(1, "none", n_samples=50, seed=0))
        assert np.array_equal(ds.y, y_true)
        assert np.allclose(y_true, np.sin(ds.X[:, 0]))

    def test_grid_sampling(self):
        ds, _ = generate_synthetic(SyntheticSpec(1, "none", n_samples=5, seed=0, sampling="grid"))
        assert np.allclose(ds.X[:, 0], np.linspace(0, 2 * np.pi, 5))

    def test_gaussian_noise_statistics(self):
        n = 100_000
        ds, y_true = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=n, seed=1))
        noise = ds.y - y_true
        assert abs(noise.mean()) < 3 * 0.2 / math.sqrt(n)
        assert abs(noise.std() - 0.2) < 0.02 * 0.2

    def test_uniform_noise_bounded(self):
        n = 100_000
        ds, y_true = generate_synthetic(SyntheticSpec(2, "uniform", n_samples=n, seed=2))
        noise = ds.y - y_true
        assert noise.min() >= -0.2
        assert noise.max() <= 0.2

    def test_student_noise_variance(self):
        n = 100_000
        ds, y_true = generate_synthetic(SyntheticSpec(4, "student", n_samples=n, seed=3))
        noise = ds.y - y_true
        # dof/(dof-2) = 1.25 for 10 degrees of freedom
        assert abs(noise.var() - 1.25) < 0.125

    def test_csv_round_trip(self, tmp_path):
        ds, y_true = generate_synthetic(SyntheticSpec(5, "gaussian", n_samples=20, seed=4))
        p = tmp_path / "synth.csv"
        write_synthetic_csv(p, ds, y_true)
        loaded, _ = load_csv(p, has_header=True, target_column="y")
        assert loaded.X.shape == (20, 2)  # x and y_true columns beside the target
        back, _ = load_csv(p, has_header=True, target_column="y_true")
        assert np.array_equal(back.y, y_true)


class TestScaling:
    def test_minmax_column(self):
        X = np.array([[0.0], [5.0], [10.0]])
        y = np.array([0.0, 5.0, 10.0])
        state = scale_fit(X, y, "minmax")
        assert np.array_equal(scale_features(state, X)[:, 0], [0.0, 0.5, 1.0])
        assert np.array_equal(scale_target(state, y), [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        X = np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0])
        state = scale_fit(X, y, "minmax")
        scaled = scale_features(state, X)
        assert np.array_equal(scaled[:, 0], [0.0, 0.0, 0.0])
        y_const = np.array([7.0, 7.0, 7.0])
        state = scale_fit(X, y_const, "minmax")
        assert np.array_equal(scale_target(state, y_const), [0.0, 0.0, 0.0])
        assert np.array_equal(inverse_target(state, np.zeros(3)), y_const)

    def test_zscore(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.0, size=(500, 2))
        y = rng.normal(-1.0, 0.5, size=500)
        state = scale_fit(X, y, "zscore")
        Xs = scale_features(state, X)
        assert abs(Xs.mean()) < 1e-12
        assert abs(Xs.std() - 1.0) < 1e-12
        ys = scale_target(state, y)
        assert abs(ys.mean()) < 1e-12

    def test_none_mode_is_identity(self):
        X = np.array([[1.0, 2.0]])
        y = np.array([3.0])
        state = scale_fit(X, y, "none")
        assert np.array_equal(scale_features(state, X), X)
        assert np.array_equal(inverse_target(state, y), y)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            scale_fit(np.eye(2), np.zeros(2), "standard")

    def test_feature_count_mismatch(self):
        state = scale_fit(np.eye(2), np.zeros(2), "minmax")
        with pytest.raises(ValueError, match="feature count 3 does not match fitted scaler \\(2\\)"):
            scale_features(state, np.zeros((1, 3)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        mode=st.sampled_from(["minmax", "zscore"]),
    )
    def test_round_trip_property(self, seed, mode):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-100, 100, size=(20, 3))
        y = rng.uniform(-50, 50, size=20)
        state = scale_fit(X, y, mode)
        span = state.feature_b - state.feature_a if mode == "minmax" else state.feature_b
        Xr = scale_features(state, X) * span + state.feature_a
        yr = inverse_target(state, scale_target(state, y))
        assert np.all(np.abs(Xr - X) <= 1e-12 * np.maximum(1.0, np.abs(X)))
        assert np.all(np.abs(yr - y) <= 1e-12 * np.maximum(1.0, np.abs(y)))


class TestDatasetValidation:
    def test_mismatched_rows(self):
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((3, 2)), y=np.zeros(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(X=np.array([[np.nan]]), y=np.zeros(1))

    def test_one_dimensional_X_rejected(self):
        with pytest.raises(ValueError, match="X must be 2-d"):
            Dataset(X=np.zeros(3), y=np.zeros(3))
