import csv

import numpy as np
import pytest

from helssvr.cli import assemble_config, main
from helssvr.data import SyntheticSpec, generate_synthetic, write_synthetic_csv


def write_toy_csv(path, n=40, seed=0):
    ds, y_true = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=n, seed=seed))
    write_synthetic_csv(path, ds, y_true)
    return ds


def fast_flags():
    return ["--set", "adam.max_iter=150", "--set", "grid.C=100", "--set", "grid.sigma=0.3,1",
            "--set", "grid.a=1", "--set", "grid.k=3"]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigPrecedence:
    def parse_train_args(self, extra):
        import argparse

        ns = argparse.Namespace(
            config=None, set=None, seed=None, scaling=None, trace=False
        )
        for k, v in extra.items():
            setattr(ns, k, v)
        return ns

    def test_defaults(self):
        cfg = assemble_config(self.parse_train_args({}))
        assert cfg["adam.gamma"] == 0.01
        assert cfg["seed"] == 0
        assert cfg["scaling"] == "minmax"

    def test_file_overrides_default(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("adam.gamma = 0.001\nseed = 5  # trailing comment\n")
        cfg = assemble_config(self.parse_train_args({"config": str(f)}))
        assert cfg["adam.gamma"] == 0.001
        assert cfg["seed"] == 5

    def test_set_overrides_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("adam.gamma = 0.001\n")
        cfg = assemble_config(
            self.parse_train_args({"config": str(f), "set": ["adam.gamma=0.0001"]})
        )
        assert cfg["adam.gamma"] == 0.0001

    def test_named_flag_overrides_set_and_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("seed = 5\n")
        cfg = assemble_config(
            self.parse_train_args({"config": str(f), "set": ["seed=6"], "seed": 7})
        )
        assert cfg["seed"] == 7

    def test_unknown_key_rejected(self):
        from helssvr.cli import ConfigError

        with pytest.raises(ConfigError, match="unknown config key"):
            assemble_config(self.parse_train_args({"set": ["loss.bogus=3"]}))

    def test_bad_value_rejected(self):
        from helssvr.cli import ConfigError

        with pytest.raises(ConfigError, match="bad value"):
            assemble_config(self.parse_train_args({"set": ["adam.max_iter=soon"]}))


    def test_adam_average_key(self):
        from helssvr.cli import ConfigError, build_adam

        assert build_adam(assemble_config(self.parse_train_args({}))).average == "none"
        cfg = assemble_config(self.parse_train_args({"set": ["adam.average=ema"]}))
        assert build_adam(cfg).average == "ema"
        with pytest.raises(ConfigError, match="bad value"):
            assemble_config(self.parse_train_args({"set": ["adam.average=mean"]}))


class TestTrain:
    def test_train_writes_model(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        out = tmp_path / "model.json"
        rc = main(["train", "--data", str(data), "--target", "y", "--out", str(out),
                   "--set", "adam.max_iter=100"])
        assert rc == 0
        assert out.exists()

    def test_invalid_loss_parameter_exit_2(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        rc = main(["train", "--data", str(data), "--target", "y",
                   "--out", str(tmp_path / "m.json"), "--set", "loss.a=0"])
        assert rc == 2
        assert "a" in capsys.readouterr().err

    def test_missing_data_exit_3(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")])
        assert rc == 3

    def test_same_seed_byte_identical_models(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        argv = ["train", "--data", str(data), "--target", "y", "--seed", "11",
                "--set", "adam.max_iter=120"]
        assert main(argv + ["--out", str(m1)]) == 0
        assert main(argv + ["--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_trace_written(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--target", "y", "--out", str(out),
                   "--trace", "--set", "adam.max_iter=50"])
        assert rc == 0
        rows = read_rows(str(out) + ".trace.csv")
        assert rows[0] == ["iter", "objective"]
        assert len(rows) == 52  # header + objective at steps 0..50

    def test_train_with_baseline_loss_kind(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--target", "y", "--out", str(out),
                   "--set", "loss.kind=huber", "--set", "loss.theta=1.0",
                   "--set", "adam.max_iter=80"])
        assert rc == 0
        import json

        assert json.loads(out.read_text())["loss"] == {"kind": "huber", "theta": 1.0}

    def test_loss_param_for_wrong_kind_exit_2(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        rc = main(["train", "--data", str(data), "--target", "y",
                   "--out", str(tmp_path / "m.json"),
                   "--set", "loss.kind=least_squares", "--set", "loss.theta=1.0"])
        assert rc == 2
        assert "loss.theta" in capsys.readouterr().err

    def test_scaling_flag(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--target", "y", "--out", str(out),
                   "--scaling", "none", "--set", "adam.max_iter=50"])
        assert rc == 0
        import json

        assert json.loads(out.read_text())["scaling"]["mode"] == "none"


class TestPredict:
    def setup_model(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--target", "y", "--out", str(model),
                     "--set", "adam.max_iter=100"]) == 0
        return data, model

    def test_predict_row_count_and_order(self, tmp_path):
        data, model = self.setup_model(tmp_path)
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(model), "--data", str(data), "--target", "y",
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == ["prediction"]
        assert len(rows) == 41

    def test_predict_round_trip_identical(self, tmp_path):
        data, model = self.setup_model(tmp_path)
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        main(["predict", "--model", str(model), "--data", str(data), "--target", "y", "--out", str(out1)])
        main(["predict", "--model", str(model), "--data", str(data), "--target", "y", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_input_exit_3(self, tmp_path):
        _, model = self.setup_model(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y,y_true\n")
        rc = main(["predict", "--model", str(model), "--data", str(empty), "--target", "y",
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 3

    def test_dimension_mismatch_exit_3(self, tmp_path):
        _, model = self.setup_model(tmp_path)
        wide = tmp_path / "wide.csv"
        wide.write_text("a,b,c\n1,2,3\n")
        rc = main(["predict", "--model", str(model), "--data", str(wide), "--out", str(tmp_path / "p.csv")])
        assert rc == 3

    def test_bad_cell_in_predict_input_exit_3(self, tmp_path):
        _, model = self.setup_model(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,y_true\n1.0,2.0,3.0\noops,2.0,3.0\n")
        rc = main(["predict", "--model", str(model), "--data", str(bad), "--target", "y",
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 3


class TestDropColumns:
    def test_drop_excludes_feature(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        model = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--target", "y", "--drop", "y_true",
                   "--out", str(model), "--set", "adam.max_iter=100"])
        assert rc == 0
        import json

        doc = json.loads(model.read_text())
        assert len(doc["x_train"][0]) == 1  # only the x column remains

    def test_predict_with_drop_matches_library(self, tmp_path):
        data = tmp_path / "toy.csv"
        ds = write_toy_csv(data)
        model_path = tmp_path / "m.json"
        main(["train", "--data", str(data), "--target", "y", "--drop", "y_true",
              "--out", str(model_path), "--set", "adam.max_iter=100"])
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(model_path), "--data", str(data),
                   "--target", "y", "--drop", "y_true", "--out", str(out)])
        assert rc == 0
        from helssvr.model import load_model, predict as lib_predict

        got = np.array([float(r[0]) for r in read_rows(out)[1:]])
        expected = lib_predict(load_model(model_path), ds.X)
        assert np.array_equal(got, expected)

    def test_dropping_target_rejected(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        rc = main(["train", "--data", str(data), "--target", "y", "--drop", "y",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 3


class TestSynth:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "f3.csv"
        rc = main(["synth", "--function", "3", "--noise", "uniform", "--n", "25", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == ["x", "y", "y_true"]
        assert len(rows) == 26

    def test_bad_function_exit_2(self, tmp_path):
        rc = main(["synth", "--function", "9", "--noise", "uniform", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--function", "2", "--noise", "student", "--n", "30", "--seed", "9", "--out", str(a)])
        main(["synth", "--function", "2", "--noise", "student", "--n", "30", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_single_cell_single_recipe(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(data), "--target", "y", "--recipes", "hawkeye",
                   "--outdir", str(outdir), *fast_flags()])
        assert rc == 0
        rows = read_rows(outdir / "results.csv")
        assert rows[0] == ["dataset", "model", "rmse", "mae", "error_pos", "error_neg", "train_seconds"]
        assert len(rows) == 2
        assert float(rows[1][6]) > 0  # wall time is positive
        assert (outdir / "timing.csv").exists()
        assert (outdir / "best_params.csv").exists()

    def test_recipe_cardinality(self, tmp_path):
        d1, d2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        write_toy_csv(d1, seed=1)
        write_toy_csv(d2, seed=2)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(d1), str(d2), "--target", "y",
                   "--recipes", "hawkeye,least_squares", "--outdir", str(outdir), *fast_flags()])
        assert rc == 0
        assert len(read_rows(outdir / "results.csv")) == 5  # header + 2 datasets * 2 recipes

    def test_partial_failure_exit_1(self, tmp_path):
        good = tmp_path / "good.csv"
        write_toy_csv(good)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(good), str(tmp_path / "missing.csv"), "--target", "y",
                   "--recipes", "hawkeye", "--outdir", str(outdir), *fast_flags()])
        assert rc == 1
        assert len(read_rows(outdir / "results.csv")) == 2  # good dataset still processed
        assert (outdir / "failures.csv").exists()

    def test_unknown_recipe_exit_2(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        rc = main(["bench", "--data", str(data), "--recipes", "mystery",
                   "--outdir", str(tmp_path / "b")])
        assert rc == 2

    def test_refit_report_mode(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(data), "--target", "y", "--recipes", "hawkeye",
                   "--outdir", str(outdir), "--set", "bench.report=refit",
                   "--set", "cv.selection=mean", *fast_flags()])
        assert rc == 0
        rows = read_rows(outdir / "results.csv")
        assert len(rows) == 2
        assert float(rows[1][2]) >= 0.0


class TestRank:
    def write_wide_table(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset", "m1", "m2", "m3", "m4"])
            w.writerow(["d1", "0.3", "0.4", "0.2", "0.1"])
            w.writerow(["d2", "0.5", "0.6", "0.1", "0.1"])
            w.writerow(["d3", "-", "0.6", "0.2", "0.1"])

    def test_wide_table_with_absent(self, tmp_path, capsys):
        inp = tmp_path / "table.csv"
        self.write_wide_table(inp)
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")])
        assert rc == 0
        rows = read_rows(tmp_path / "r_ranks.csv")
        assert rows[0] == ["dataset", "m1", "m2", "m3", "m4"]
        assert rows[3][1] == ""  # absent entry stays absent
        assert rows[-1][0] == "average_rank"

    def test_reproduces_published_constants(self, tmp_path, capsys):
        ranks = np.array(
            [
                [3, 4, 2, 1], [1, 4, 2, 2], [3, 4, 1, 1], [3, 4, 2, 1], [3, 4, 2, 1],
                [4, 3, 2, 1], [2, 4, 3, 1], [2, 4, 3, 1], [1, 4, 2, 2], [2, 4, 3, 1],
                [3, 4, 2, 1], [3, 4, 2, 1], [3, 4, 1, 1], [3, 4, 1, 2], [np.nan, 3, 2, 1],
                [3, 4, 1, 2], [1, 4, 3, 2], [3, 4, 2, 1],
            ]
        )
        inp = tmp_path / "ranks.csv"
        with open(inp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset", "svr", "lssvr", "blssvr", "helssvr"])
            for i, row in enumerate(ranks):
                w.writerow([f"d{i}", *["" if np.isnan(v) else str(v) for v in row]])
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r"),
                   "--set", "rank.critical_f=2.68"])
        assert rc == 0
        report = (tmp_path / "r_report.txt").read_text()
        assert "23.2540" in report
        assert "12.8575" in report
        assert "1.1055" in report
        assert "reject" in report

    def test_single_dataset_warns(self, tmp_path):
        inp = tmp_path / "one.csv"
        with open(inp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset", "m1", "m2"])
            w.writerow(["d1", "0.2", "0.1"])
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")])
        assert rc == 0
        assert "warning" in (tmp_path / "r_report.txt").read_text()

    def test_identical_columns_not_significant(self, tmp_path):
        inp = tmp_path / "t.csv"
        with open(inp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset", "m1", "m2"])
            for i in range(4):
                w.writerow([f"d{i}", "0.5", "0.5"])
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")])
        assert rc == 0
        assert "not significant" in (tmp_path / "r_report.txt").read_text()

    def test_malformed_table_exit_3(self, tmp_path):
        inp = tmp_path / "bad.csv"
        inp.write_text("dataset,m1,m2\nd1,0.5\n")
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")])
        assert rc == 3

    def test_exact_rank_mode_via_config(self, tmp_path):
        inp = tmp_path / "t.csv"
        with open(inp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset", "m1", "m2", "m3"])
            for i, row in enumerate([[0.3, 0.2, 0.1], [0.1, 0.3, 0.2], [0.2, 0.1, 0.3]]):
                w.writerow([f"d{i}", *row])
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r"),
                   "--set", "rank.decimals=none"])
        assert rc == 0
        assert (tmp_path / "r_report.txt").exists()

    def test_long_format_from_bench(self, tmp_path):
        inp = tmp_path / "results.csv"
        with open(inp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset", "model", "rmse", "mae", "error_pos", "error_neg", "train_seconds"])
            w.writerow(["d1", "a", "0.2", "0.1", "0.1", "", "0.5"])
            w.writerow(["d1", "b", "0.3", "0.2", "0.2", "", "0.5"])
            w.writerow(["d2", "a", "0.1", "0.1", "0.1", "", "0.5"])
            w.writerow(["d2", "b", "0.4", "0.2", "0.2", "", "0.5"])
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")])
        assert rc == 0
        rows = read_rows(tmp_path / "r_ranks.csv")
        assert rows[1] == ["d1", "1.0", "2.0"]
        assert rows[2] == ["d2", "1.0", "2.0"]


class TestBenchIsolatesFailures:
    def test_gram_over_budget_fails_only_its_work_item(self, tmp_path, monkeypatch):
        import helssvr.kernels

        # 40 rows: every Gram buffer of the search and the refit fits in
        # 20,000 bytes; 60 rows: the three 40-row folds' buffer needs 38,464
        monkeypatch.setattr(helssvr.kernels, "GRAM_MAX_BYTES", 20_000)
        small, large = tmp_path / "small.csv", tmp_path / "large.csv"
        write_toy_csv(small, n=40, seed=1)
        write_toy_csv(large, n=60, seed=2)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(small), str(large), "--target", "y",
                   "--recipes", "hawkeye", "--outdir", str(outdir), *fast_flags()])
        assert rc == 1
        assert [r[:2] for r in read_rows(outdir / "results.csv")[1:]] == [[str(small), "hawkeye"]]
        failures = read_rows(outdir / "failures.csv")[1:]
        assert len(failures) == 1 and failures[0][:3] == [str(large), "hawkeye", "ValueError"]
        assert "f=3 matrices of N=40 rows needs 38,464 bytes" in failures[0][3]
        assert "GRAM_MAX_BYTES = 20,000" in failures[0][3]

    def test_unexpected_exception_fails_only_its_work_item(self, tmp_path, monkeypatch, capsys):
        import helssvr.cli

        real = helssvr.cli.grid_search_cv

        def flaky(ds, grid, recipe, **kw):
            if recipe.name == "least_squares":
                raise RuntimeError("solver exploded")
            return real(ds, grid, recipe, **kw)

        monkeypatch.setattr(helssvr.cli, "grid_search_cv", flaky)
        d1, d2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        write_toy_csv(d1, seed=1)
        write_toy_csv(d2, seed=2)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(d1), str(d2), "--target", "y",
                   "--recipes", "least_squares,hawkeye", "--outdir", str(outdir), *fast_flags()])
        assert rc == 1
        results = read_rows(outdir / "results.csv")
        assert sorted((r[0], r[1]) for r in results[1:]) == [(str(d1), "hawkeye"), (str(d2), "hawkeye")]
        failures = read_rows(outdir / "failures.csv")
        assert failures[0] == ["dataset", "model", "error_type", "error"]
        assert sorted(failures[1:]) == [
            [str(d1), "least_squares", "RuntimeError", "solver exploded"],
            [str(d2), "least_squares", "RuntimeError", "solver exploded"],
        ]
        assert "Traceback" in capsys.readouterr().err


class TestPredictNonFinite:
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_feature_exit_3(self, tmp_path, capsys, cell):
        _, model = TestPredict().setup_model(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x,y,y_true\n1.0,2.0,3.0\n{cell},2.0,3.0\n")
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(model), "--data", str(bad), "--target", "y",
                   "--out", str(out)])
        assert rc == 3
        assert "features must be finite: row 1, column 0" in capsys.readouterr().err
        assert not out.exists()


class TestPredictBadModel:
    def test_malformed_model_exit_3(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        model = tmp_path / "bad.json"
        model.write_text("[]\n")
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(model), "--data", str(data), "--target", "y",
                   "--out", str(out)])
        assert rc == 3
        assert "model document must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scaling_mode_exit_3(self, tmp_path, capsys):
        import json

        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--target", "y", "--out", str(model),
                     "--set", "adam.max_iter=20"]) == 0
        doc = json.loads(model.read_text())
        assert doc["scaling"]["mode"] == "minmax"
        doc["scaling"]["mode"] = "bogus"
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(model), "--data", str(data), "--target", "y",
                   "--out", str(out)])
        assert rc == 3
        assert "model field 'scaling.mode' must be one of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("alpha", "0.04"), ("x_train", True)], ids=["alpha-text", "x_train-bool"])
    def test_non_numeric_array_entry_exit_3(self, tmp_path, capsys, field, value):
        import json

        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--target", "y", "--out", str(model),
                     "--set", "adam.max_iter=20"]) == 0
        doc = json.loads(model.read_text())
        if field == "alpha":
            doc["alpha"][0] = value
        else:
            doc["x_train"][0][0] = value
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(model), "--data", str(data), "--target", "y",
                   "--out", str(out)])
        assert rc == 3
        assert f"model field '{field}' must hold only numbers, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

class TestDroppedTextColumn:
    """A dropped column is never parsed, so it may hold text such as an id."""

    def write_id_csv(self, path):
        ds, _ = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=30, seed=3))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "x", "y"])
            for i, (x, y) in enumerate(zip(ds.X[:, 0], ds.y)):
                w.writerow([f"row{i}", repr(float(x)), repr(float(y))])
        return ds

    def train(self, tmp_path, data):
        model = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--target", "y", "--drop", "id",
                   "--out", str(model), "--set", "adam.max_iter=50"])
        return rc, model

    def test_train_keeps_every_row(self, tmp_path, capsys):
        data = tmp_path / "ids.csv"
        self.write_id_csv(data)
        rc, _ = self.train(tmp_path, data)
        assert rc == 0
        assert "training samples    : 30 (rejected rows: 0)" in capsys.readouterr().out

    def test_predict_matches_library(self, tmp_path):
        data = tmp_path / "ids.csv"
        ds = self.write_id_csv(data)
        rc, model = self.train(tmp_path, data)
        assert rc == 0
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--data", str(data), "--target", "y",
                     "--drop", "id", "--out", str(out)]) == 0
        from helssvr.model import load_model, predict as lib_predict

        got = np.array([float(r[0]) for r in read_rows(out)[1:]])
        assert np.array_equal(got, lib_predict(load_model(model), ds.X))


class TestThreadsRemoved:
    def test_threads_config_key_unknown(self, tmp_path, capsys):
        rc = main(["bench", "--data", str(tmp_path / "d.csv"), "--recipes", "hawkeye",
                   "--outdir", str(tmp_path / "b"), "--set", "threads=2"])
        assert rc == 2
        assert "unknown config key 'threads'" in capsys.readouterr().err

    def test_threads_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", str(tmp_path / "d.csv"), "--recipes", "hawkeye",
                  "--outdir", str(tmp_path / "b"), "--threads", "2"])
        assert exc.value.code == 2
