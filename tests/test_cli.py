import csv
import os
from itertools import product

import numpy as np
import pytest

from helssvr.cli import CONFIG_SCHEMA, assemble_config, main
from helssvr.data import SyntheticSpec, generate_synthetic, write_synthetic_csv
from helssvr.losses import LOSS_KINDS, required_params


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


class Reached(Exception):
    """Raised by a stubbed input reader: the command passed its checks."""


def stub_readers(monkeypatch):
    # every function through which a command reads its inputs, and synth's
    # generator, which does its work
    import helssvr.cli

    def reached(*args, **kwargs):
        raise Reached

    for name in ("load_csv", "load_features", "load_model", "_read_rank_table", "generate_synthetic"):
        monkeypatch.setattr(helssvr.cli, name, reached)


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

    def test_file_skips_blank_and_comment_lines(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# a run\n\n   \nseed = 5\n  # gamma left at its default\n")
        cfg = assemble_config(self.parse_train_args({"config": str(f)}))
        assert cfg["seed"] == 5
        assert cfg["adam.gamma"] == 0.01

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

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config file run.cfg: [Errno 2] No such file or directory"),
        (b"seed = 1\nseed 3\n", "run.cfg:2: expected 'key = value', got 'seed 3'"),
        (b"seed = \xff\n", "run.cfg:1: not UTF-8 text: byte 0xff (invalid start byte)"),
    ], ids=["missing", "no-equals", "not-utf8"])
    def test_bad_config_file_exit_2(self, tmp_path, monkeypatch, capsys, content, message):
        monkeypatch.chdir(tmp_path)
        if content is not None:
            (tmp_path / "run.cfg").write_bytes(content)
        rc = main(["train", "--data", "d.csv", "--out", "m.json", "--config", "run.cfg"])
        assert rc == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_adam_average_key(self, tmp_path, capsys):
        # the trainer always returns the averaged iterate; the key that
        # chose the last iterate is gone
        rc = main(["train", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "m.json"),
                   "--set", "adam.average=ema"])
        assert rc == 2
        assert "unknown config key 'adam.average'" in capsys.readouterr().err


def test_every_config_key_is_in_the_readme_table():
    # the first column of the README's configuration table names each key,
    # the third the commands that read it
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Configuration", 1)[1].split("\n\n| key |", 1)[1].split("\n\n", 1)[0]
    documented = {key for row in table.splitlines() for key in row.split("|")[1].split("`")[1::2]}
    assert sorted(set(CONFIG_SCHEMA) - documented) == []
    read_by = {
        key: sorted(cells[3].split("`")[1::2])
        for cells in (row.split("|") for row in table.splitlines())
        for key in cells[1].split("`")[1::2]
    }
    assert read_by == {key: sorted(readers.split()) for key, (_, _, readers) in CONFIG_SCHEMA.items()}


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every line of the README's CLI block, in order, with training cut to
    # 20 steps: the block's flags stay those the parser takes
    import shlex
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    commands = ("synth", "synth", "train", "predict", "bench", "rank")
    assert [argv[:2] for argv in lines] == [["helssvr", c] for c in commands]
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        steps = ["--set", "adam.max_iter=20"] if argv[1] in ("train", "bench") else []
        assert main(argv[1:] + steps) == 0, " ".join(argv)
    assert len(read_rows(tmp_path / "trace.csv")) == 22
    assert len(read_rows(tmp_path / "bench" / "results.csv")) == 5


class TestTrain:
    def test_train_writes_model(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        out = tmp_path / "model.json"
        rc = main(["train", "--data", str(data), "--target", "y", "--out", str(out),
                   "--set", "adam.max_iter=100"])
        assert rc == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "iterations          : 100\n" in printed
        assert "stop reason" not in printed  # always max_iter for one fit

    @pytest.mark.parametrize("pair, message", [
        ("adam.gamma=inf", "gamma must be finite and > 0"),
        ("adam.gamma=nan", "gamma must be finite and > 0"),
        ("adam.gamma=0", "gamma must be finite and > 0"),
        ("adam.gamma=-1", "gamma must be finite and > 0"),
        ("seed=-1", "must be >= 0, got -1"),
        ("nokey", "--set expects key=value, got 'nokey'"),
        ("grid.C=,", "bad value for 'grid.C' (from --set): empty list"),
        ("scaling=bogus", "bad value for 'scaling' (from --set): must be one of ('none', 'minmax', 'zscore'), got 'bogus'"),
        ("loss.kind=huber", "loss.theta is required for loss.kind=huber"),
        ("adam.batch_size=0", "adam batch_size must be an integer >= 1"),
        ("adam.batch_size=2.5", "bad value for 'adam.batch_size' (from --set): invalid literal for int()"),
        ("adam.max_iter=0", "adam max_iter must be an integer >= 1"),
        ("adam.max_iter=5.5", "bad value for 'adam.max_iter' (from --set): invalid literal for int()"),
    ])
    def test_bad_setting_exit_2(self, tmp_path, capsys, pair, message):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        rc = main(["train", "--data", str(data), "--target", "y", "--out", str(tmp_path / "m.json"), "--set", pair])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("pairs, message", [
        (["C=0"], "bad value for 'C' (from --set): must be finite and > 0, got 0.0"),
        (["C=-1"], "bad value for 'C' (from --set): must be finite and > 0, got -1.0"),
        (["C=nan"], "bad value for 'C' (from --set): must be finite and > 0, got nan"),
        (["C=inf"], "bad value for 'C' (from --set): must be finite and > 0, got inf"),
        (["kernel.sigma=-3"], "kernel.sigma must be a finite number > 0, got -3.0"),
        (["kernel.sigma=nan"], "kernel.sigma must be a finite number > 0, got nan"),
    ], ids=["C=0", "C=-1", "C=nan", "C=inf", "sigma=-3", "sigma=nan"])
    def test_bad_setting_exit_2_before_loading(self, tmp_path, capsys, monkeypatch, pairs, message):
        import helssvr.cli

        data = tmp_path / "toy.csv"
        write_toy_csv(data)

        def no_load(**kw):
            raise AssertionError("train loaded data despite a bad setting")

        monkeypatch.setattr(helssvr.cli, "load_csv", no_load)
        sets = [arg for pair in pairs for arg in ("--set", pair)]
        rc = main(["train", "--data", str(data), "--target", "y", "--out", str(tmp_path / "m.json"), *sets])
        assert rc == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @staticmethod
    def refuse_to_load(monkeypatch):
        import helssvr.cli

        def no_load(**kw):
            raise AssertionError("a CSV was read despite an output path that is another file of the command")

        monkeypatch.setattr(helssvr.cli, "load_csv", no_load)
        monkeypatch.setattr(helssvr.cli, "load_features", no_load)

    def test_trace_out_on_the_model_path_exit_2_before_loading(self, tmp_path, capsys, monkeypatch):
        # the trace CSV would replace the model file
        data, model = tmp_path / "toy.csv", tmp_path / "m.json"
        write_toy_csv(data)
        self.refuse_to_load(monkeypatch)
        monkeypatch.chdir(tmp_path)
        rc = main(["train", "--data", str(data), "--target", "y", "--out", "m.json", "--trace-out", "./m.json"])
        assert rc == 2
        assert "config error: --trace-out './m.json' is the same file as --out 'm.json'" in capsys.readouterr().err
        assert not model.exists()

    def test_out_on_the_data_path_exit_2_before_loading(self, tmp_path, capsys, monkeypatch):
        # the model file would replace the training CSV
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        before = data.read_bytes()
        self.refuse_to_load(monkeypatch)
        rc = main(["train", "--data", str(data), "--target", "y", "--out", str(data)])
        assert rc == 2
        assert f"config error: --out '{data}' is the same file as --data '{data}'" in capsys.readouterr().err
        assert data.read_bytes() == before

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
        out, trace = tmp_path / "m.json", tmp_path / "t.csv"
        rc = main(["train", "--data", str(data), "--target", "y", "--out", str(out),
                   "--trace-out", str(trace), "--set", "adam.max_iter=50"])
        assert rc == 0
        rows = read_rows(trace)
        assert rows[0] == ["iter", "objective"]
        assert len(rows) == 52  # header + objective at steps 0..50
        assert not (tmp_path / "m.json.trace.csv").exists()

    def test_adam_seed_and_trace_keys_exit_2_before_loading(self, tmp_path, capsys, monkeypatch):
        # the master seed seeds Adam, and --trace-out alone turns tracing on
        import helssvr.cli

        def no_load(**kw):
            raise AssertionError("train loaded data despite an unknown key")

        monkeypatch.setattr(helssvr.cli, "load_csv", no_load)
        out = tmp_path / "m.json"
        for pair in ("adam.seed=1", "trace=true"):
            rc = main(["train", "--data", str(tmp_path / "toy.csv"), "--out", str(out), "--set", pair])
            assert rc == 2
            assert f"config error: unknown config key {pair.split('=')[0]!r} (from --set)" in capsys.readouterr().err
        assert not out.exists()

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

    def test_out_on_the_model_path_exit_2_before_loading(self, tmp_path, capsys, monkeypatch):
        # the predictions CSV would replace the model file
        data, model = self.setup_model(tmp_path)
        before = model.read_bytes()
        TestTrain.refuse_to_load(monkeypatch)
        rc = main(["predict", "--model", str(model), "--data", str(data), "--target", "y", "--out", str(model)])
        assert rc == 2
        assert f"config error: --out '{model}' is the same file as --model '{model}'" in capsys.readouterr().err
        assert model.read_bytes() == before

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
        # the refit's wall time is written once, as timing.csv's fit_seconds
        assert rows[0] == ["dataset", "model", "rmse", "mae", "error_pos", "error_neg"]
        assert len(rows) == 2
        assert float(read_rows(outdir / "timing.csv")[1][2]) > 0  # wall time is positive
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

    def test_run_without_failures_removes_stale_failures(self, tmp_path):
        good = tmp_path / "good.csv"
        write_toy_csv(good)
        outdir = tmp_path / "bench"
        flags = ["--target", "y", "--recipes", "hawkeye", "--outdir", str(outdir), *fast_flags()]
        assert main(["bench", "--data", str(good), str(tmp_path / "missing.csv"), *flags]) == 1
        assert (outdir / "failures.csv").exists()
        assert main(["bench", "--data", str(good), *flags]) == 0
        assert not (outdir / "failures.csv").exists()

    def test_result_files_share_sorted_items(self, tmp_path):
        # datasets and recipes given out of order, with a missing file between
        d1, d2, missing = tmp_path / "t1.csv", tmp_path / "t2.csv", tmp_path / "missing.csv"
        write_toy_csv(d1, seed=1)
        write_toy_csv(d2, seed=2)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(d2), str(missing), str(d1), "--target", "y",
                   "--recipes", "least_squares,hawkeye", "--outdir", str(outdir), *fast_flags()])
        assert rc == 1
        results = read_rows(outdir / "results.csv")
        timing = read_rows(outdir / "timing.csv")
        best = read_rows(outdir / "best_params.csv")
        cells = read_rows(outdir / "cells.csv")
        assert results[0] == ["dataset", "model", "rmse", "mae", "error_pos", "error_neg"]
        assert timing[0] == ["dataset", "model", "fit_seconds", "gram_seconds", "search_seconds", "cells"]
        assert best[0] == ["dataset", "model", "C", "sigma", "epsilon", "lambda", "a", "gamma", "cv_rmse"]
        assert cells[0] == [
            "dataset", "model", "C", "sigma", "epsilon", "lambda", "a", "gamma",
            "rmse_fold1", "rmse_fold2", "rmse_fold3", "stat", "iterations", "stop_reason",
        ]
        items = [(str(d), m) for d in (d1, d2) for m in ("hawkeye", "least_squares")]
        for rows in (results, timing, best):
            assert [tuple(r[:2]) for r in rows[1:]] == items
        # two cells per item (grid.sigma=0.3,1); the best cell's row carries
        # the search's statistic
        assert [r[5:] for r in timing[1:]] == [["2"]] * 4
        assert all(float(r[4]) > 0 for r in timing[1:])
        assert [tuple(r[:2]) for r in cells[1:]] == [item for item in items for _ in range(2)]
        for (d, m, *p, cv_rmse), rows in zip(best[1:], (cells[1 + 2 * k : 3 + 2 * k] for k in range(4))):
            assert [p, cv_rmse] in [[r[2:8], r[11]] for r in rows]
        for r in cells[1:]:
            assert float(r[11]) == min(map(float, r[8:11]))
            assert r[12:] == ["150", "max_iter"]
        failures = read_rows(outdir / "failures.csv")
        assert len(failures) == 2
        assert failures[1][:3] == [str(missing), "*", "FileNotFoundError"]
        assert str(missing) in failures[1][3]

    def test_unknown_recipe_exit_2(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        rc = main(["bench", "--data", str(data), "--recipes", "mystery",
                   "--outdir", str(tmp_path / "b")])
        assert rc == 2

    @pytest.mark.parametrize("pair, message", [
        ("grid.sigma=-1", "grid sigma_values must be finite and > 0"),
        ("grid.gamma=0", "grid gamma_values must be finite and > 0"),
        ("grid.C=0", "grid C_values must be finite and > 0"),
        ("grid.C=nan", "grid C_values must be finite and > 0"),
        ("grid.epsilon=-1", "bad grid value: hawkeye loss requires epsilon > 0"),
        ("grid.a=0", "bad grid value: hawkeye loss requires a > 0"),
        # a repeated value would train two cells with the same parameters
        ("grid.C=1,1", "grid C_values repeats the value 1.0"),
        ("grid.sigma=1,0.3,1.0", "grid sigma_values repeats the value 1.0"),
        ("grid.epsilon=0.1,0.05,0.1", "grid epsilon_values repeats the value 0.1"),
        ("grid.lambda=2,2", "grid lambda_values repeats the value 2.0"),
        ("grid.a=1,3,3", "grid a_values repeats the value 3.0"),
        ("grid.gamma=0.01,1e-2", "grid gamma_values repeats the value 0.01"),
    ])
    def test_bad_grid_value_exit_2_before_loading(self, tmp_path, capsys, monkeypatch, pair, message):
        import helssvr.cli

        data = tmp_path / "toy.csv"
        write_toy_csv(data)

        def no_load(**kw):
            raise AssertionError("bench loaded data despite a bad grid value")

        monkeypatch.setattr(helssvr.cli, "load_csv", no_load)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(data), "--target", "y", "--recipes", "least_squares,hawkeye",
                   "--outdir", str(outdir), *fast_flags(), "--set", pair])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()

    def test_train_only_keys_exit_2_before_loading(self, tmp_path, capsys, monkeypatch):
        # bench searches the grid's C, loss, kernel and learning rate values:
        # it reads no C, loss.*, kernel.* or adam.gamma key, so setting one
        # is a config error
        import helssvr.cli

        def no_load(**kw):
            raise AssertionError("bench loaded data despite a train-only key")

        monkeypatch.setattr(helssvr.cli, "load_csv", no_load)
        outdir = tmp_path / "bench"
        base = ["bench", "--data", str(tmp_path / "toy.csv"), "--recipes", "hawkeye", "--outdir", str(outdir)]
        rc = main([*base, "--set", "loss.epsilon=0.1", "--set", "loss.a=0", "--set", "C=5"])
        assert rc == 2
        assert "config error: C is not read by bench" in capsys.readouterr().err
        for pair in ("loss.kind=least_squares", "kernel.sigma=2"):
            assert main([*base, "--set", pair]) == 2
            assert f"{pair.split('=')[0]} is not read by bench" in capsys.readouterr().err
        assert main([*base, "--set", "adam.gamma=0.5"]) == 2
        assert "adam.gamma is not read by bench; set the grid.* keys (grid.gamma" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("data, recipes, message", [
        (["d.csv", "d.csv"], "least_squares", "dataset 'd.csv' is given twice"),
        (["d.csv", "./d.csv"], "least_squares", "dataset './d.csv' is given twice"),
        (["d.csv", "e.csv"], "least_squares,hawkeye, least_squares", "recipe 'least_squares' is given twice"),
    ], ids=["same-path", "same-file", "same-recipe"])
    def test_repeated_inputs_exit_2_before_loading(self, tmp_path, capsys, monkeypatch, data, recipes, message):
        # a repeated dataset or recipe would write two results.csv rows for
        # one (dataset, model), which rank then rejects
        import helssvr.cli

        def no_load(**kw):
            raise AssertionError("bench loaded data despite a repeated input")

        monkeypatch.setattr(helssvr.cli, "load_csv", no_load)
        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "--data", *data, "--recipes", recipes, "--outdir", "bench"])
        assert rc == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_cells_file_names_cut_cells(self, tmp_path):
        # six cells: the rung at step 15 cuts two of them
        data = tmp_path / "toy.csv"
        write_toy_csv(data)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(data), "--target", "y", "--recipes", "hawkeye",
                   "--outdir", str(outdir), *fast_flags(), "--set", "grid.C=1,10,100"])
        assert rc == 0
        cells = read_rows(outdir / "cells.csv")[1:]
        assert len(cells) == 6
        assert sorted(r[12:] for r in cells) == [["15", "halved"]] * 2 + [["150", "max_iter"]] * 4
        assert read_rows(outdir / "timing.csv")[1][5:] == ["6"]


class TestJointBench:
    """A bench trains each dataset's recipes in one joint search and each
    recipe's refits in one joint call, bit for bit one recipe at a time."""

    # the default grid at C = 100: hawkeye's 6 cells halve at step 10 to 4,
    # which resume from there; least squares and insensitive have 3 cells
    # each and train from step 0
    RECIPES = ("hawkeye", "least_squares", "insensitive")
    FLAGS = ["--target", "y", "--drop", "y_true", "--set", "grid.C=100", "--set", "adam.max_iter=100"]

    def datasets(self, tmp_path):
        paths = [tmp_path / "t1.csv", tmp_path / "missing.csv", tmp_path / "t2.csv"]
        write_toy_csv(paths[0], seed=1)
        write_toy_csv(paths[2], n=45, seed=2)
        return [str(p) for p in paths]

    def bench(self, tmp_path, name, data, recipes, *flags):
        outdir = tmp_path / name
        rc = main(["bench", "--data", *data, "--recipes", ",".join(recipes), "--outdir", str(outdir),
                   *self.FLAGS, *flags])
        assert rc == 1  # the missing dataset
        return outdir

    @staticmethod
    def outputs(outdir):
        """The non-timing outputs: every file but timing.csv whole, and
        timing.csv's cells."""
        names = ("best_params.csv", "cells.csv", "failures.csv", "results.csv")
        rows = {name: read_rows(outdir / name) for name in names}
        rows["timing.csv"] = [r[:2] + r[5:] for r in read_rows(outdir / "timing.csv")]
        return rows

    @pytest.mark.parametrize("flags", [[], ["--set", "adam.batch_size=1000"]])
    def test_matches_one_recipe_benches(self, tmp_path, capsys, flags):
        data = self.datasets(tmp_path)
        joint = self.outputs(self.bench(tmp_path, "joint", data, self.RECIPES, *flags))
        assert "one at a time" not in capsys.readouterr().err  # the joint calls ran, and did not fall back
        alone = [self.outputs(self.bench(tmp_path, name, data, [name], *flags)) for name in self.RECIPES]
        for name in ("best_params.csv", "cells.csv", "results.csv", "timing.csv"):
            # each file's rows sorted by (dataset, model), cells in grid order
            merged = sorted((r for out in alone for r in out[name][1:]), key=lambda r: r[:2])
            assert joint[name] == [alone[0][name][0], *merged]
        for out in alone:
            assert joint["failures.csv"] == out["failures.csv"]
        iterations = {(r[1], *r[14:]) for r in joint["cells.csv"][1:]}
        assert ("hawkeye", "10", "halved") in iterations
        assert ("hawkeye", "100", "max_iter") in iterations

    def test_a_recipe_at_the_floor_trains_on_through_a_second_rung(self, tmp_path, capsys):
        # grid.C=1,100: hawkeye halves its 12 cells at steps 10 and 30, and
        # least squares cuts its 6 to 4 at step 10; beside hawkeye it then
        # trains on to step 30 without a cut, which its own bench skips, so
        # its numbers rest on a run resumed at step 30 equalling a straight one
        data = [str(tmp_path / "j1.csv"), str(tmp_path / "j2.csv")]
        for path, function, noise, seed in zip(data, ("1", "2"), ("gaussian", "student"), ("3", "4")):
            assert main(["synth", "--function", function, "--noise", noise, "--n", "60", "--seed", seed,
                         "--out", path]) == 0
        flags = ["--data", *data, "--target", "y", "--drop", "y_true", "--set", "grid.C=1,100",
                 "--set", "adam.max_iter=100"]
        capsys.readouterr()
        outdirs = {}
        for recipes in ("hawkeye,least_squares", "hawkeye", "least_squares"):
            outdirs[recipes] = tmp_path / recipes
            assert main(["bench", *flags, "--recipes", recipes, "--outdir", str(outdirs[recipes])]) == 0
            assert capsys.readouterr().err == ""
        joint, alone = outdirs.pop("hawkeye,least_squares"), list(outdirs.values())
        assert not (joint / "failures.csv").exists()
        for name in ("best_params.csv", "cells.csv", "results.csv", "timing.csv"):
            rows = {outdir: read_rows(outdir / name) for outdir in (joint, *alone)}
            if name == "timing.csv":  # its cells column, not its seconds
                rows = {outdir: [r[:2] + r[5:] for r in got] for outdir, got in rows.items()}
            merged = sorted((r for outdir in alone for r in rows[outdir][1:]), key=lambda r: r[:2])
            assert rows[joint] == [rows[alone[0]][0], *merged]
        iterations = {(r[1], *r[14:]) for r in read_rows(joint / "cells.csv")[1:]}
        assert {("hawkeye", "30", "halved"), ("least_squares", "10", "halved")} <= iterations
        assert main(["rank", "--input", str(joint / "results.csv"), "--out", str(tmp_path / "rank")]) == 0

    def test_search_seconds_split_by_cell_steps(self, tmp_path, monkeypatch):
        # a clock that advances 0.5 s per reading: each dataset's joint
        # search takes 0.5 s, shared by its recipes as their cell-steps
        import types

        import helssvr.evaluation

        ticks = iter(range(1000))
        monkeypatch.setattr(helssvr.evaluation, "time", types.SimpleNamespace(perf_counter=lambda: 0.5 * next(ticks)))
        data = self.datasets(tmp_path)
        outdir = self.bench(tmp_path, "joint", data, self.RECIPES)
        cells, timing = read_rows(outdir / "cells.csv")[1:], read_rows(outdir / "timing.csv")[1:]
        for path in (data[0], data[2]):
            steps = {m: sum(5 * int(r[14]) for r in cells if r[:2] == [path, m]) for m in self.RECIPES}
            seconds = {r[1]: float(r[4]) for r in timing if r[0] == path}
            assert sum(seconds.values()) == pytest.approx(0.5, abs=2e-6)
            for m in self.RECIPES:
                assert seconds[m] == pytest.approx(0.5 * steps[m] / sum(steps.values()), abs=1e-6)

    def test_failed_refit_fails_only_its_work_item(self, tmp_path, monkeypatch, capsys):
        # least_squares' joint refit fails, and so does each of its refits
        # alone; the other recipes' joint refits run
        import helssvr.evaluation

        data = self.datasets(tmp_path)
        want = self.outputs(self.bench(tmp_path, "joint", data, self.RECIPES))
        real = helssvr.evaluation.fit_cells

        def flaky(sets, kernel, cells, *args, **kw):
            # a refit passes one kernel per set, a search one for all its sets
            if isinstance(kernel, list) and any(loss.kind == "least_squares" for _, loss, *_ in cells):
                raise RuntimeError("refit exploded")
            return real(sets, kernel, cells, *args, **kw)

        monkeypatch.setattr(helssvr.evaluation, "fit_cells", flaky)
        got = self.outputs(self.bench(tmp_path, "flaky", data, self.RECIPES))
        # in the order of the datasets, as a bench one item at a time writes them
        assert got["failures.csv"] == [
            want["failures.csv"][0],
            [data[0], "least_squares", "RuntimeError", "refit exploded"],
            *want["failures.csv"][1:],
            [data[2], "least_squares", "RuntimeError", "refit exploded"],
        ]
        for name in ("best_params.csv", "cells.csv", "results.csv", "timing.csv"):
            assert got[name] == [r for r in want[name] if r[1] != "least_squares"]
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.count("joint refit") == 1
        assert "joint refit of least_squares failed (RuntimeError: refit exploded); running its work items" in err


class TestGramFormsThroughTheCli:
    """train, predict and bench on sets above the 257-row gate, from which
    two float64 Grams exceed the 1 MiB stack budget, so that each set's
    dense Gram would train alone.  At sigma 1 (the default) the Gram's rank
    is 9: 500 rows at full batch and at mini-batch 32 train on its
    pivoted-Cholesky factor, and so do 300 rows, one of whose float64 Grams
    fits the budget but two do not.  At sigma 0.01 the rank reaches
    500 / 4 = 125 (it is 317), the factor gives up, and the set trains on a
    float32 Gram, whose gathered mini-batch product numpy makes in float32
    from a cast of the derivative rows.  pyproject turns numpy
    RuntimeWarnings into errors."""

    CSV = ["--target", "y", "--drop", "y_true"]

    @staticmethod
    def synth(tmp_path, n):
        data = tmp_path / f"s{n}.csv"
        assert main(["synth", "--function", "1", "--noise", "gaussian", "--n", str(n), "--seed", "7",
                     "--out", str(data)]) == 0
        return data

    @pytest.mark.parametrize("n, flags, traced, centers", [
        (500, ["adam.batch_size=500"], False, 9),
        (500, ["adam.batch_size=32"], True, 9),
        (500, ["kernel.sigma=0.01", "adam.batch_size=32"], True, 500),
        (300, [], False, 9),
    ], ids=["factor-full-batch", "factor-mini-batch", "float32-fallback", "factor-300-rows"])
    def test_train_and_predict(self, tmp_path, n, flags, traced, centers):
        # a factor-trained model keeps the factor's 9 pivot rows as its
        # centers, the fallback's all 500 rows; a traced run computes the
        # per-step objective, which only --trace-out turns on, and writes
        # one header and 101 rows (steps 0..100); the predictions are the
        # library's predict of the loaded model, bit for bit
        from helssvr.data import load_features
        from helssvr.model import load_model, predict

        data = self.synth(tmp_path, n)
        model, out, trace = tmp_path / "m.json", tmp_path / "p.csv", tmp_path / "trace.csv"
        sets = [arg for pair in [*flags, "adam.max_iter=100"] for arg in ("--set", pair)]
        trace_out = ["--trace-out", str(trace)] if traced else []
        assert main(["train", "--data", str(data), *self.CSV, "--out", str(model), *sets, *trace_out]) == 0
        assert main(["predict", "--model", str(model), "--data", str(data), *self.CSV, "--out", str(out)]) == 0
        loaded = load_model(model)
        assert loaded.X_train.shape[0] == centers
        if traced:
            assert len(trace.read_text().splitlines()) == 102
        got = np.array([float(row[0]) for row in read_rows(out)[1:]])
        X = load_features(data, target_column="y", drop_columns=("y_true",))
        assert got.tobytes() == predict(loaded, X).tobytes()

    def test_bench_on_stacked_float32_grams(self, tmp_path):
        # 420 rows at sigma 0.01: the search's 336 rows give four 269-row
        # folds whose factors give up, so their float32 Grams train three
        # to a stack (4 n^2 bytes each within the 1 MiB budget), each
        # mini-batch product gathered from a stack of several sets
        data = self.synth(tmp_path, 420)
        outdir = tmp_path / "bench"
        assert main(["bench", "--data", str(data), *self.CSV, "--recipes", "hawkeye", "--set", "grid.sigma=0.01",
                     "--set", "grid.C=100", "--set", "adam.max_iter=100", "--outdir", str(outdir)]) == 0
        assert len(read_rows(outdir / "results.csv")) == 2
        assert not (outdir / "failures.csv").exists()


class TestBenchScoresHeldOutRows:
    """bench holds out 1/grid.k of each dataset's rows, searches and refits
    on the rest, and writes the refit's metrics on the held-out rows."""

    RECIPES = ("hawkeye", "least_squares")
    FLAGS = ["--target", "y", "--drop", "y_true", *fast_flags()]  # grid.k=3

    def bench(self, tmp_path, monkeypatch):
        """Run a bench of two datasets (40 and 45 rows) with spies on the
        search, the refit and the scoring predict; returns the datasets as
        bench loads them, the output directory and what each spy saw."""
        import helssvr.evaluation
        from helssvr.data import load_csv

        paths = [tmp_path / "t1.csv", tmp_path / "t2.csv"]
        write_toy_csv(paths[0], seed=1)
        write_toy_csv(paths[1], n=45, seed=2)
        seen = {"search": [], "fit": [], "predict": []}
        real_search, real_fit, real_predict = (
            helssvr.evaluation.grid_search_recipes, helssvr.evaluation.fit_cells, helssvr.evaluation.predict)

        def search(ds, *args, **kw):
            seen["search"].append(ds)
            return real_search(ds, *args, **kw)

        def fit_cells(sets, kernel, *args, **kw):
            # a refit passes one kernel per set, a search one for all its sets
            if isinstance(kernel, list):
                seen["fit"].extend(X for X, _ in sets)
            return real_fit(sets, kernel, *args, **kw)

        def predict(model, X):
            seen["predict"].append((model.loss.kind, X))
            return real_predict(model, X)

        monkeypatch.setattr(helssvr.evaluation, "grid_search_recipes", search)
        monkeypatch.setattr(helssvr.evaluation, "fit_cells", fit_cells)
        monkeypatch.setattr(helssvr.evaluation, "predict", predict)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", *map(str, paths), "--recipes", ",".join(self.RECIPES),
                   "--outdir", str(outdir), *self.FLAGS])
        assert rc == 0
        loaded = [load_csv(p, target_column="y", drop_columns=("y_true",))[0] for p in paths]
        return paths, loaded, outdir, seen

    @staticmethod
    def rows(X):
        return {tuple(row) for row in X}

    def test_search_and_refit_never_see_held_out_rows(self, tmp_path, monkeypatch):
        paths, loaded, _, seen = self.bench(tmp_path, monkeypatch)
        # one joint search per dataset, one joint refit per recipe
        assert len(seen["search"]) == 2 and len(seen["fit"]) == 4
        held_out = set().union(*(self.rows(X) for _, X in seen["predict"]))
        assert held_out
        for ds, searched in zip(loaded, seen["search"]):
            mine = self.rows(ds.X)
            held = mine - self.rows(searched.X)
            assert self.rows(searched.X) <= mine
            assert len(held) == -(-ds.n // 3)  # the first of grid.k=3 folds
            assert held <= held_out
        for X in [*(ds.X for ds in seen["search"]), *seen["fit"]]:
            assert not self.rows(X) & held_out
        # every refit trains on the rows its search saw
        assert {frozenset(self.rows(X)) for X in seen["fit"]} == {
            frozenset(self.rows(ds.X)) for ds in seen["search"]
        }

    def test_every_recipe_scored_on_the_same_rows(self, tmp_path, monkeypatch):
        _, loaded, _, seen = self.bench(tmp_path, monkeypatch)
        assert len(seen["predict"]) == 4
        for ds in loaded:
            mine = [(kind, X) for kind, X in seen["predict"] if self.rows(X) <= self.rows(ds.X)]
            assert sorted(kind for kind, _ in mine) == sorted(self.RECIPES)
            assert mine[0][1].tobytes() == mine[1][1].tobytes()

    def test_results_are_a_library_refit_scored_on_held_out_rows(self, tmp_path, monkeypatch):
        from helssvr import AdamConfig, ModelRecipe, compute_metrics, fit, predict

        paths, loaded, outdir, seen = self.bench(tmp_path, monkeypatch)
        best = {tuple(r[:2]): r[2:8] for r in read_rows(outdir / "best_params.csv")[1:]}
        results = read_rows(outdir / "results.csv")[1:]
        assert len(results) == 4
        for dataset, model, *metrics in results:
            k = [str(p) for p in paths].index(dataset)
            ds, train = loaded[k], seen["search"][k]
            test = np.array([row not in self.rows(train.X) for row in map(tuple, ds.X)])
            C, sigma, epsilon, lam, a, gamma = (float(v) if v else None for v in best[dataset, model])
            recipe = ModelRecipe(model)
            fitted, _ = fit(train.X, train.y, recipe.build_kernel(sigma), recipe.build_loss(epsilon, lam, a), C,
                            adam=AdamConfig(gamma=gamma, max_iter=150, seed=0), scaling="minmax")
            want = compute_metrics(ds.y[test], predict(fitted, ds.X[test]))
            assert metrics == ["" if v is None else repr(v)
                               for v in (want.rmse, want.mae, want.error_pos, want.error_neg)]

    def test_too_few_rows_fail_only_their_dataset(self, tmp_path):
        # 4 rows at grid.k=3: holding out 2 leaves 2, too few for 3 folds
        tiny, good = tmp_path / "tiny.csv", tmp_path / "good.csv"
        write_toy_csv(tiny, n=4)
        write_toy_csv(good)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(tiny), str(good), "--recipes", ",".join(self.RECIPES),
                   "--outdir", str(outdir), *self.FLAGS])
        assert rc == 1
        assert [r[:2] for r in read_rows(outdir / "results.csv")[1:]] == [[str(good), m] for m in self.RECIPES]
        assert read_rows(outdir / "failures.csv")[1:] == [[
            str(tiny), "*", "ValueError",
            "4 rows are too few for grid.k=3: holding out 2 rows to score the refit"
            " leaves 2, fewer than the search's 3 folds",
        ]]


class TestRunBenchmark:
    """evaluation.run_benchmark is bench's protocol on datasets in memory."""

    def test_records_are_bench_rows_without_any_csv(self, tmp_path, monkeypatch, capsys):
        from helssvr import AdamConfig, GridSpec, ModelRecipe, run_benchmark

        # the grid and Adam settings of fast_flags(); 4 rows are too few for grid.k=3
        sets = {name: generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=n, seed=seed))
                for name, n, seed in (("t2.csv", 45, 2), ("tiny.csv", 4, 3), ("t1.csv", 40, 1))}
        grid = GridSpec(C_values=(100.0,), sigma_values=(0.3, 1.0), a_values=(1.0,), k=3)
        recipes = [ModelRecipe("least_squares"), ModelRecipe("hawkeye")]
        records, failures, fallbacks = run_benchmark(
            [(name, ds) for name, (ds, _) in sets.items()], recipes, grid, AdamConfig(max_iter=150))
        assert capsys.readouterr() == ("", "")
        assert [(d, m, type(exc).__name__) for d, m, exc in failures] == [("tiny.csv", "*", "ValueError")]
        assert "4 rows are too few for grid.k=3" in str(failures[0][2])
        assert fallbacks == []

        monkeypatch.chdir(tmp_path)
        for name, (ds, y_true) in sets.items():
            write_synthetic_csv(name, ds, y_true)
        assert main(["bench", "--data", *sets, "--target", "y", "--drop", "y_true",
                     "--recipes", "least_squares,hawkeye", "--outdir", "bench", *fast_flags()]) == 1

        def fmt(*values):
            return ["" if v is None else repr(v) for v in values]

        def params(p):
            return fmt(p.C, p.sigma, p.epsilon, p.lam, p.a, p.gamma)

        want = {
            "results.csv": [[r.dataset, r.model, *fmt(r.metrics.rmse, r.metrics.mae, r.metrics.error_pos,
                                                       r.metrics.error_neg)] for r in records],
            "best_params.csv": [[r.dataset, r.model, *params(r.search.best_params), *fmt(r.search.best.stat)]
                                for r in records],
            "cells.csv": [[r.dataset, r.model, *params(cell.params), *fmt(*cell.fold_rmse, cell.stat),
                           str(cell.iterations), "max_iter"] for r in records for cell in r.search.cells],
            "timing.csv": [[r.dataset, r.model, str(len(r.search.cells))] for r in records],
        }
        assert [(r.dataset, r.model) for r in records] == [
            (d, m) for d in ("t1.csv", "t2.csv") for m in ("hawkeye", "least_squares")]
        for name, rows in want.items():
            got = read_rows(tmp_path / "bench" / name)[1:]
            if name == "timing.csv":  # its cells column, not its seconds
                got = [r[:2] + r[5:] for r in got]
            assert got == rows


    def test_repeated_recipe_rejected_before_any_work(self, monkeypatch):
        # a repeated recipe would give two records of one (dataset, model)
        import helssvr.evaluation
        from helssvr import AdamConfig, GridSpec, ModelRecipe, run_benchmark

        def no_work(*args, **kwargs):
            raise AssertionError("run_benchmark held rows out or trained despite a repeated recipe")

        for name in ("_hold_out", "grid_search_recipes", "fit_cells"):
            monkeypatch.setattr(helssvr.evaluation, name, no_work)
        ds, _ = generate_synthetic(SyntheticSpec(1, "gaussian", n_samples=40, seed=1))
        recipes = [ModelRecipe("hawkeye"), ModelRecipe("least_squares"), ModelRecipe("hawkeye")]
        with pytest.raises(ValueError, match=r"run_benchmark needs distinct recipes, "
                                             r"got \['hawkeye', 'least_squares', 'hawkeye'\]"):
            run_benchmark([("a", ds)], recipes, GridSpec(C_values=(1.0,), sigma_values=(1.0,)), AdamConfig(max_iter=5))


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

    def test_header_only_table_exit_3(self, tmp_path, capsys):
        inp = tmp_path / "t.csv"
        inp.write_text("dataset,m1,m2\n")
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert f"{inp}: need a header row plus at least one data row" in capsys.readouterr().err
        assert not (tmp_path / "r_ranks.csv").exists()

    @pytest.mark.parametrize("key", ["rank.q_alpha", "rank.critical_f"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_critical_value_exit_2_before_reading(self, tmp_path, capsys, monkeypatch, key, value):
        import helssvr.cli

        def no_read(*a, **kw):
            raise AssertionError("rank read the table despite a bad setting")

        monkeypatch.setattr(helssvr.cli, "_read_rank_table", no_read)
        inp = tmp_path / "table.csv"
        self.write_wide_table(inp)
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r"), "--set", f"{key}={value}"])
        assert rc == 2
        assert f"bad value for {key!r} (from --set): must be finite and > 0, got {float(value)}" in capsys.readouterr().err
        assert not (tmp_path / "r_report.txt").exists()

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
            w.writerow(["dataset", "model", "rmse", "mae", "error_pos", "error_neg"])
            w.writerow(["d1", "a", "0.2", "0.1", "0.1", ""])
            w.writerow(["d1", "b", "0.3", "0.2", "0.2", ""])
            w.writerow(["d2", "a", "0.1", "0.1", "0.1", ""])
            w.writerow(["d2", "b", "0.4", "0.2", "0.2", ""])
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")])
        assert rc == 0
        rows = read_rows(tmp_path / "r_ranks.csv")
        assert rows[1] == ["d1", "1.0", "2.0"]
        assert rows[2] == ["d2", "1.0", "2.0"]

    def rank_long(self, tmp_path, capsys, lines):
        inp = tmp_path / "results.csv"
        inp.write_text("dataset,model,rmse\n" + "".join(f"{line}\n" for line in lines))
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")])
        return rc, capsys.readouterr().err, inp

    def test_long_format_duplicate_entry_exit_3(self, tmp_path, capsys):
        rc, err, inp = self.rank_long(tmp_path, capsys, ["d1,a,0.2", "d1,b,0.3", "d2,b,0.1", "d2,a,0.4", "d2,b,0.9"])
        assert rc == 3
        assert f"{inp}:6: second rmse for dataset 'd2', model 'b'" in err
        assert not (tmp_path / "r_ranks.csv").exists()

    def test_long_format_non_numeric_rmse_exit_3(self, tmp_path, capsys):
        rc, err, inp = self.rank_long(tmp_path, capsys, ["d1,a,0.2", "d1,b,abc"])
        assert rc == 3
        assert f"{inp}:3: score 'abc' is not a number" in err

    def test_wide_format_duplicate_model_exit_3(self, tmp_path, capsys):
        inp = tmp_path / "t.csv"
        inp.write_text("dataset,a,a\nd1,0.2,0.3\nd2,0.1,0.4\n")
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert f"{inp}:1: second column for model 'a'" in capsys.readouterr().err
        assert not (tmp_path / "r_ranks.csv").exists()

    def test_wide_format_without_model_columns_exit_3(self, tmp_path, capsys):
        inp = tmp_path / "t.csv"
        inp.write_text("dataset\nd1\nd2\n")
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert f"{inp}: wide rank table needs model columns" in capsys.readouterr().err
        assert not (tmp_path / "r_ranks.csv").exists()

    def test_wide_format_duplicate_dataset_exit_3(self, tmp_path, capsys):
        inp = tmp_path / "t.csv"
        inp.write_text("dataset,a,b\nd1,0.2,0.3\nd2,0.1,0.4\nd1,0.5,0.6\n")
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert f"{inp}:4: second row for dataset 'd1'" in capsys.readouterr().err
        assert not (tmp_path / "r_ranks.csv").exists()

    @pytest.mark.parametrize("decimals", ["-1", "-4"])
    def test_negative_decimals_exit_2(self, tmp_path, capsys, decimals):
        inp = tmp_path / "table.csv"
        self.write_wide_table(inp)
        rc = main(["rank", "--input", str(inp), "--out", str(tmp_path / "r"), "--set", f"rank.decimals={decimals}"])
        assert rc == 2
        assert "rank.decimals" in capsys.readouterr().err
        assert not (tmp_path / "r_ranks.csv").exists()


class TestBenchIsolatesFailures:
    def test_gram_over_budget_fails_only_its_work_item(self, tmp_path, monkeypatch):
        import helssvr.kernels

        # 40 rows: every Gram buffer of the search and the refit fits in
        # 20,000 bytes; 90 rows, of which 30 are held out: the search's
        # three 40-row folds share one stack, whose buffer needs 38,464
        monkeypatch.setattr(helssvr.kernels, "GRAM_MAX_BYTES", 20_000)
        small, large = tmp_path / "small.csv", tmp_path / "large.csv"
        write_toy_csv(small, n=40, seed=1)
        write_toy_csv(large, n=90, seed=2)
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(small), str(large), "--target", "y",
                   "--recipes", "hawkeye", "--outdir", str(outdir), *fast_flags()])
        assert rc == 1
        assert [r[:2] for r in read_rows(outdir / "results.csv")[1:]] == [[str(small), "hawkeye"]]
        failures = read_rows(outdir / "failures.csv")[1:]
        assert len(failures) == 1 and failures[0][:3] == [str(large), "hawkeye", "ValueError"]
        assert "a Gram buffer of f=3 matrices of N=40 rows needs 38,464 bytes" in failures[0][3]
        assert "GRAM_MAX_BYTES = 20,000" in failures[0][3]

    def test_search_without_a_finite_cell_fails_its_work_items(self, tmp_path):
        # a learning rate of 1e300 makes every fold RMSE non-finite; the
        # objective overflows on the way
        data = tmp_path / "f1.csv"
        assert main(["synth", "--function", "1", "--noise", "gaussian", "--n", "40", "--seed", "1",
                     "--out", str(data)]) == 0
        outdir = tmp_path / "bench"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["bench", "--data", str(data), "--target", "y", "--drop", "y_true",
                       "--recipes", "least_squares,hawkeye", "--outdir", str(outdir),
                       "--set", "grid.gamma=1e300", "--set", "adam.max_iter=1", "--set", "grid.k=2"])
        assert rc == 1
        assert read_rows(outdir / "results.csv")[1:] == []
        assert read_rows(outdir / "failures.csv")[1:] == [
            [str(data), model, "ValueError", "no grid cell produced a finite fold RMSE"]
            for model in ("least_squares", "hawkeye")
        ]

    def test_unexpected_exception_fails_only_its_work_item(self, tmp_path, monkeypatch, capsys):
        import helssvr.evaluation

        real = helssvr.evaluation.grid_search_recipes

        # a search fails whenever least_squares is among its recipes: the
        # joint search of every dataset, then least_squares' own search
        def flaky(ds, grid, recipes, **kw):
            if any(recipe.name == "least_squares" for recipe in recipes):
                raise RuntimeError("solver exploded")
            return real(ds, grid, recipes, **kw)

        monkeypatch.setattr(helssvr.evaluation, "grid_search_recipes", flaky)
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
        err = capsys.readouterr().err
        assert "Traceback" in err
        for path in (d1, d2):
            assert f"joint search of {path} failed (RuntimeError: solver exploded); running its work items" in err


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
        assert f"{bad}:3: non-finite cell" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteCellNamed:
    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    def test_train_names_file_and_line(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x,y,y_true\n1.0,2.0,3.0\n\n0.5,{cell},3.0\n")
        out = tmp_path / "m.json"
        rc = main(["train", "--data", str(bad), "--target", "y", "--drop", "y_true", "--out", str(out)])
        assert rc == 3
        assert f"{bad}:4: non-finite cell" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_fails_the_dataset_by_file_and_line(self, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_toy_csv(good)
        write_toy_csv(bad)
        lines = bad.read_text().splitlines(keepends=True)
        lines[5] = "inf,0.0,0.0\n"
        bad.write_text("".join(lines))
        outdir = tmp_path / "bench"
        rc = main(["bench", "--data", str(good), str(bad), "--target", "y", "--drop", "y_true",
                   "--recipes", "hawkeye", "--outdir", str(outdir), *fast_flags()])
        assert rc == 1
        assert read_rows(outdir / "failures.csv")[1:] == [[str(bad), "*", "ValueError", f"{bad}:6: non-finite cell"]]


class TestOneWidthMessage:
    @pytest.mark.parametrize("command", ["train", "rank"])
    def test_short_row_names_file_line_and_width(self, tmp_path, capsys, command):
        inp = tmp_path / "t.csv"
        inp.write_text("dataset,m1,m2\n1,0.5,0.2\n\n2,0.5\n")
        if command == "train":
            argv = ["train", "--data", str(inp), "--out", str(tmp_path / "m.json")]
        else:
            argv = ["rank", "--input", str(inp), "--out", str(tmp_path / "r")]
        assert main(argv) == 3
        assert f"error: {inp}:4: expected 3 cells, found 2\n" == capsys.readouterr().err


def write_with_bom(path, text):
    path.write_text("\ufeff" + text, encoding="utf-8")


class TestByteOrderMark:
    """Every input file may start with a UTF-8 byte-order mark."""

    @pytest.mark.parametrize("target, drop", [("y", "x"), ("x", "y_true")])
    def test_target_and_drop_by_name(self, tmp_path, capsys, target, drop):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_toy_csv(plain)
        write_with_bom(marked, plain.read_text(encoding="utf-8"))
        models = []
        for data in (plain, marked):
            models.append(tmp_path / f"{data.stem}.json")
            assert main(["train", "--data", str(data), "--target", target, "--drop", drop,
                         "--out", str(models[-1]), "--set", "adam.max_iter=50"]) == 0
        assert "training samples    : 40 (rejected rows: 0)" in capsys.readouterr().out
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_rank_reads_bench_results_as_long_format(self, tmp_path):
        inp = tmp_path / "results.csv"
        write_with_bom(inp, "dataset,model,rmse\nd1,a,0.2\nd1,b,0.3\nd2,a,0.1\nd2,b,0.4\n")
        assert main(["rank", "--input", str(inp), "--out", str(tmp_path / "r")]) == 0
        rows = read_rows(tmp_path / "r_ranks.csv")
        assert rows[:3] == [["dataset", "a", "b"], ["d1", "1.0", "2.0"], ["d2", "1.0", "2.0"]]

    def test_config_key_is_read(self, tmp_path):
        f = tmp_path / "run.cfg"
        write_with_bom(f, "seed = 5\n")
        cfg = assemble_config(TestConfigPrecedence().parse_train_args({"config": str(f)}))
        assert cfg["seed"] == 5

    def test_bench_on_marked_data_and_config_files(self, tmp_path, monkeypatch):
        # a two-recipe bench, run in two directories on the same relative
        # --data names: with and without the mark, results.csv is the same
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir()
        marked.mkdir()
        for name, function, noise, seed in (("d1.csv", 1, "gaussian", 3), ("d2.csv", 2, "student", 4)):
            ds, y_true = generate_synthetic(SyntheticSpec(function, noise, n_samples=60, seed=seed))
            write_synthetic_csv(plain / name, ds, y_true)
        (plain / "run.cfg").write_text("adam.max_iter = 100\n", encoding="utf-8")
        for name in ("d1.csv", "d2.csv", "run.cfg"):
            write_with_bom(marked / name, (plain / name).read_text(encoding="utf-8"))
        results = []
        for folder in (plain, marked):
            monkeypatch.chdir(folder)
            assert main(["bench", "--data", "d1.csv", "d2.csv", "--config", "run.cfg", "--target", "y",
                         "--drop", "y_true", "--recipes", "hawkeye,least_squares", "--set", "grid.C=1,100",
                         "--outdir", "bench"]) == 0
            assert not (folder / "bench" / "failures.csv").exists()
            results.append((folder / "bench" / "results.csv").read_bytes())
        assert results[0] == results[1]
        assert results[0].count(b"\n") == 5  # a header, then 2 datasets x 2 recipes

    def test_model_file_loads(self, tmp_path):
        # predict with a marked model file on a marked data file
        data, model = TestPredict().setup_model(tmp_path)
        marked, marked_data = tmp_path / "marked.json", tmp_path / "marked.csv"
        write_with_bom(marked, model.read_text(encoding="utf-8"))
        write_with_bom(marked_data, data.read_text(encoding="utf-8"))
        outs = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        for m, d, out in zip((model, marked), (data, marked_data), outs):
            assert main(["predict", "--model", str(m), "--data", str(d), "--target", "y", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestNotUtf8:
    """An input file that is not UTF-8 (here Latin-1's é) is an error naming
    the file and the line."""

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_train_names_file_and_line(self, tmp_path, capsys, newline):
        data = tmp_path / "latin1.csv"
        data.write_bytes(newline.join([b"x,y,name", b"1.0,2.0,a", b"", b"0.5,1.5,caf\xe9", b""]))
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--target", "y", "--drop", "name", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {data}:4: not UTF-8 text: byte 0xe9 (invalid continuation byte)\n"
        assert not out.exists()

    def test_rank_names_file_and_line(self, tmp_path, capsys):
        table = tmp_path / "latin1.csv"
        table.write_bytes(b"\xef\xbb\xbfdataset,m1,m2\nd1,0.5,0.2\nd\xe92,0.5,0.3\n")
        assert main(["rank", "--input", str(table), "--out", str(tmp_path / "r")]) == 3
        assert f"error: {table}:3: not UTF-8 text: byte 0xe9" in capsys.readouterr().err

    def test_predict_names_the_model_file(self, tmp_path, capsys):
        data, model = TestPredict().setup_model(tmp_path)
        text = model.read_bytes()
        model.write_bytes(text[:1] + b"\n\"note\": \"caf\xe9\"," + text[1:])
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--data", str(data), "--target", "y", "--out", str(out)]) == 3
        assert f"error: {model}:2: not UTF-8 text: byte 0xe9" in capsys.readouterr().err
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

    @pytest.mark.parametrize("kernel, message", [
        ({"kind": "linear", "sigma": None}, "model field 'kernel.kind' must be 'rbf', got 'linear'"),
        ({"kind": "poly", "sigma": 1.0}, "model field 'kernel.kind' must be 'rbf', got 'poly'"),
        ({"kind": "rbf", "sigma": None}, "model field 'kernel.sigma' must be a finite number, got None"),
        ({"kind": "rbf", "sigma": -1.0}, "model field 'kernel.sigma' must be > 0, got -1.0"),
        ({"kind": "rbf", "sigma": 0}, "model field 'kernel.sigma' must be > 0, got 0.0"),
        ({"sigma": 1.0}, "model field 'kernel.kind' is missing"),
    ], ids=["linear", "poly", "sigma-null", "sigma-negative", "sigma-zero", "kind-missing"])
    def test_bad_kernel_names_its_field_exit_3(self, tmp_path, capsys, kernel, message):
        # RBF is the only kernel: a linear model file, as an older version
        # saved it (sigma null), names the kind, the first field at fault
        import json

        data, model = TestPredict().setup_model(tmp_path)
        doc = json.loads(model.read_text())
        doc["kernel"] = kernel
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--data", str(data), "--target", "y", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
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


class TestFlagsPerCommand:
    """A command offers only the flags it reads; argparse rejects the rest."""

    ARGV = {
        "train": ["train", "--data", "d.csv", "--out", "m.json"],
        "predict": ["predict", "--model", "m.json", "--data", "d.csv", "--out", "p.csv"],
        "synth": ["synth", "--function", "1", "--noise", "gaussian", "--out", "s.csv"],
        "bench": ["bench", "--data", "d.csv", "--recipes", "hawkeye", "--outdir", "b"],
        "rank": ["rank", "--input", "t.csv", "--out", "r"],
    }

    @pytest.mark.parametrize("command, flags", [
        ("rank", ["--no-header"]),
        ("rank", ["--drop", "a"]),
        ("rank", ["--seed", "3"]),
        ("rank", ["--scaling", "zscore"]),
        ("rank", ["--trace"]),
        ("predict", ["--seed", "3"]),
        ("predict", ["--scaling", "zscore"]),
        ("predict", ["--trace"]),
        ("synth", ["--scaling", "zscore"]),
        ("synth", ["--trace"]),
        ("bench", ["--trace"]),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_unread_flag_exit_2(self, tmp_path, monkeypatch, capsys, command, flags):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGV[command], *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("delimiter", [";;", ""])
    @pytest.mark.parametrize("command", ["train", "predict", "bench", "rank"])
    def test_delimiter_not_one_character_exit_2(self, tmp_path, monkeypatch, capsys, command, delimiter):
        # csv reads only a one-character delimiter: argparse rejects any
        # other before the command reads an input or writes an output
        stub_readers(monkeypatch)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGV[command], "--delimiter", delimiter])
        assert exc.value.code == 2
        assert f"argument --delimiter: must be exactly one character, got {delimiter!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_config_and_set_on_every_command(self, tmp_path, monkeypatch, capsys, command):
        # both reach the config layer, which rejects the unknown key
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("seed = 1\n")
        rc = main([*self.ARGV[command], "--config", "run.cfg", "--set", "bogus=1"])
        assert rc == 2
        assert "unknown config key 'bogus'" in capsys.readouterr().err

    # the keys each command reads, stated apart from CONFIG_SCHEMA
    READS = {
        "train": lambda key: not key.startswith(("grid.", "cv.", "rank.")),
        "predict": lambda key: False,
        "synth": lambda key: key == "seed",
        "bench": lambda key: key not in ("C", "adam.gamma") and not key.startswith(("loss.", "kernel.", "rank.")),
        "rank": lambda key: key.startswith("rank."),
    }

    @pytest.mark.parametrize("via", ["--set", "--config"])
    @pytest.mark.parametrize("command, key", list(product(sorted(ARGV), CONFIG_SCHEMA)))
    def test_key_read_or_rejected_before_reading(self, tmp_path, monkeypatch, capsys, command, key, via):
        # a key the command reads passes to its first input reader; any
        # other exits 2, naming the key and the command, before that reader
        default, reads = CONFIG_SCHEMA[key][0], self.READS[command](key)
        value = ",".join(map(repr, default)) if isinstance(default, tuple) else "" if default is None else default
        pairs = [f"{key}={value}"]
        if key in ("loss.theta", "loss.t") and reads:
            # the default loss kind takes neither
            kind = next(k for k in LOSS_KINDS if {"t", "theta"} <= set(required_params(k)))
            pairs = [f"loss.kind={kind}", "loss.t=1", "loss.theta=1"]
        flags = [arg for pair in pairs for arg in ("--set", pair)]
        if via == "--config":
            (tmp_path / "run.cfg").write_text("".join(f"{pair}\n" for pair in pairs))
            flags = ["--config", str(tmp_path / "run.cfg")]
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        stub_readers(monkeypatch)
        if reads:
            with pytest.raises(Reached):
                main([*self.ARGV[command], *flags])
        else:
            assert main([*self.ARGV[command], *flags]) == 2
            assert f"config error: {key} is not read by {command}" in capsys.readouterr().err
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("via", ["--set", "--config"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_report_key_is_unknown(self, tmp_path, monkeypatch, capsys, command, via):
        # bench scores its held-out refit with no choice of report, so the
        # old bench.report key is unknown to every command
        self.assert_unknown(tmp_path, monkeypatch, capsys, command, via, "bench.report", "refit")

    @pytest.mark.parametrize("via", ["--set", "--config"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    @pytest.mark.parametrize("key, value", [
        ("adam.early_stop", "true"), ("adam.early_stop_tol", "1e-2"), ("adam.early_stop_patience", "3"),
        ("adam.beta1", "0.8"), ("adam.beta2", "0.99"), ("adam.delta", "1e-6"),
    ])
    def test_removed_adam_keys_are_unknown(self, tmp_path, monkeypatch, capsys, command, via, key, value):
        # training runs to adam.max_iter, and Adam's decay rates and
        # stabilizer are fixed, so the keys of the early-stopping rule and
        # of those settings are unknown to every command, train and bench
        # included
        self.assert_unknown(tmp_path, monkeypatch, capsys, command, via, key, value)

    @pytest.mark.parametrize("via", ["--set", "--config"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    @pytest.mark.parametrize("value", ["rbf", "linear"])
    def test_kernel_kind_key_is_unknown(self, tmp_path, monkeypatch, capsys, command, via, value):
        # RBF is the only kernel, so the key that chose the kernel family
        # is unknown to every command, whatever its value
        self.assert_unknown(tmp_path, monkeypatch, capsys, command, via, "kernel.kind", value)

    def assert_unknown(self, tmp_path, monkeypatch, capsys, command, via, key, value):
        # the key exits 2 before any input is read, and nothing is written
        flags = ["--set", f"{key}={value}"]
        if via == "--config":
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            flags = ["--config", str(tmp_path / "run.cfg")]
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        stub_readers(monkeypatch)
        assert main([*self.ARGV[command], *flags]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert list(work.iterdir()) == []


class TestUnusableOutputs:
    """An output a command could not write exits 2 before any input is read."""

    BENCH = ["bench", "--data", "d.csv", "--recipes", "hawkeye", "--outdir"]

    # (argv, the message, {tmp} standing for the real path of the working
    # directory), in a directory holding the file f.txt and the
    # directories adir, r_report.txt and b/results.csv
    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", "d.csv", "--out", "no/m.json"],
         "--out 'no/m.json': '{tmp}/no' is not an existing directory"),
        (["train", "--data", "d.csv", "--out", "m.json", "--trace-out", "no/t.csv"],
         "--trace-out 'no/t.csv': '{tmp}/no' is not an existing directory"),
        (["predict", "--model", "m.json", "--data", "d.csv", "--out", "no/p.csv"],
         "--out 'no/p.csv': '{tmp}/no' is not an existing directory"),
        (["synth", "--function", "1", "--noise", "gaussian", "--out", "no/s.csv"],
         "--out 'no/s.csv': '{tmp}/no' is not an existing directory"),
        (["rank", "--input", "t.csv", "--out", "no/r"],
         "--out 'no/r_ranks.csv': '{tmp}/no' is not an existing directory"),
        ([*BENCH, "no/b"], "--outdir 'no/b': '{tmp}/no' is not an existing directory"),
        ([*BENCH, "f.txt"], "--outdir 'f.txt' is not a directory"),
        ([*BENCH, "f.txt/b"], "--outdir 'f.txt/b': '{tmp}/f.txt' is not an existing directory"),
        (["train", "--data", "d.csv", "--out", "adir"], "--out 'adir' is a directory"),
        (["train", "--data", "d.csv", "--out", "m.json", "--trace-out", "adir"], "--trace-out 'adir' is a directory"),
        (["predict", "--model", "m.json", "--data", "d.csv", "--out", "adir"], "--out 'adir' is a directory"),
        (["synth", "--function", "1", "--noise", "gaussian", "--out", "adir"], "--out 'adir' is a directory"),
        (["rank", "--input", "t.csv", "--out", "r"], "--out 'r_report.txt' is a directory"),
        ([*BENCH, "b"], "--outdir 'b/results.csv' is a directory"),
    ], ids=["train-out", "train-trace-out", "predict-out", "synth-out", "rank-out", "bench-outdir-in-missing",
            "bench-outdir-is-file", "bench-outdir-under-file", "train-out-is-dir", "train-trace-out-is-dir",
            "predict-out-is-dir", "synth-out-is-dir", "rank-out-is-dir", "bench-output-is-dir"])
    def test_exit_2_before_reading(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.txt").write_text("not a directory\n")
        for name in ("adir", "r_report.txt", "b/results.csv"):
            (tmp_path / name).mkdir(parents=True)
        stub_readers(monkeypatch)
        assert main(argv) == 2
        assert f"config error: {message.format(tmp=os.path.realpath(tmp_path))}" in capsys.readouterr().err
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
            "adir", "b", "b/results.csv", "f.txt", "r_report.txt"
        ]

    def test_bench_input_among_its_outputs(self, tmp_path, monkeypatch, capsys):
        # an earlier bench's results.csv given as a dataset of a bench into
        # the same --outdir
        monkeypatch.chdir(tmp_path)
        (tmp_path / "b2").mkdir()
        results = tmp_path / "b2" / "results.csv"
        results.write_text("dataset,model,rmse\nd.csv,hawkeye,0.5\n")
        before = results.read_bytes()
        stub_readers(monkeypatch)
        assert main(["bench", "--data", "b2/results.csv", "--recipes", "hawkeye", "--outdir", "b2"]) == 2
        err = capsys.readouterr().err
        assert "config error: --outdir 'b2/results.csv' is the same file as --data 'b2/results.csv'" in err
        assert results.read_bytes() == before and sorted(p.name for p in (tmp_path / "b2").iterdir()) == ["results.csv"]
