import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearn_forge import cli, data, experiment, models, unlearn
from unlearn_forge.config import SCHEMA, default_config, parse_config, parse_seeds
from unlearn_forge.errors import ConfigError
from unlearn_forge.modelio import load_model, save_model


class TestConfig:
    def test_defaults_complete(self):
        cfg = default_config()
        assert cfg["data.k"] == 3
        assert cfg["unlearn.lr"] == 0.01

    def test_parse_with_comments_and_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\ndata.k = 4\ntrain.lr = 0.25  # inline\n\nseeds = 0..2\n")
        cfg = parse_config(p)
        assert cfg["data.k"] == 4
        assert cfg["train.lr"] == 0.25
        assert parse_seeds(cfg["seeds"]) == [0, 1, 2]

    def test_unknown_key_names_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("data.k = 3\nnot.a.key = 1\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(p)

    def test_bad_value_type(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("data.k = many\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("data.k 3\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_seed_lists(self):
        assert parse_seeds("3") == [3]
        assert parse_seeds("0,1,5") == [0, 1, 5]
        assert parse_seeds("2..5") == [2, 3, 4, 5]
        with pytest.raises(ConfigError):
            parse_seeds("5..2")
        with pytest.raises(ConfigError):
            parse_seeds("a,b")

    @pytest.mark.parametrize("spec", ["-1", "-3..2", "0,-1"])
    def test_negative_seed_rejected(self, spec):
        with pytest.raises(ConfigError, match="negative seed"):
            parse_seeds(spec)

    @pytest.mark.parametrize("key, value", [
        ("unlearn.p", "2"), ("unlearn.p", "-0.5"), ("smooth.beta", "1.5"), ("smooth.beta", "-0.1"),
        ("split.fraction", "1.5"), ("split.fraction", "1"), ("split.fraction", "0"),
        ("smooth.alpha", "1.5"), ("unlearn.damping", "-1e-3"), ("theory.damping", "-1e-3"),
        ("model.l2", "-5"), ("data.seed", "-2"), ("split.seed", "-1"), ("train.seed", "-1"),
        ("theory.seed", "-1"), ("theory.instances", "0"), ("theory.alpha_grid_points", "0"),
        ("theory.alpha_grid_min", "0"), ("data.k", "1"), ("data.per_class", "1"),
        ("data.subgroups", "0"), ("data.spread", "-0.5")])
    def test_value_outside_its_range_names_line_and_key(self, tmp_path, key, value):
        p = tmp_path / "bad.cfg"
        p.write_text(f"data.k = 3\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"line 2: key '{key}': .* is outside"):
            parse_config(p)

    def test_range_bounds_accepted(self, tmp_path):
        p = tmp_path / "edge.cfg"
        p.write_text("unlearn.p = 0\nsmooth.beta = 1\nsplit.fraction = 1e-9\nsmooth.alpha = 1\n"
                     "unlearn.damping = 0\ntheory.damping = 0\n")
        cfg = parse_config(p)
        assert (cfg["unlearn.p"], cfg["smooth.beta"], cfg["smooth.alpha"]) == (0.0, 1.0, 1.0)
        assert (cfg["split.fraction"], cfg["unlearn.damping"], cfg["theory.damping"]) == (1e-9, 0.0, 0.0)

    def test_minimum_values_accepted(self, tmp_path):
        p = tmp_path / "min.cfg"
        p.write_text("train.batch_size = 1\nunlearn.batch_size = 1\ntrain.epochs = 0\n"
                     "unlearn.epochs = 0\ntrain.lr = 0\nunlearn.lr = 0\ndata.test_per_class = 2\n"
                     "model.l2 = 0\ndata.seed = 0\nsplit.seed = 0\ntrain.seed = 0\ntheory.seed = 0\n"
                     "theory.instances = 1\ntheory.alpha_grid_points = 1\n"
                     "theory.alpha_grid_min = -5e-324\ndata.k = 2\ndata.per_class = 2\n"
                     "data.subgroups = 1\ndata.spread = 0\n")
        cfg = parse_config(p)
        assert (cfg["train.batch_size"], cfg["unlearn.epochs"], cfg["data.test_per_class"]) == (1, 0, 2)
        assert (cfg["model.l2"], cfg["theory.seed"], cfg["theory.instances"]) == (0.0, 0, 1)
        assert (cfg["theory.alpha_grid_points"], cfg["theory.alpha_grid_min"]) == (1, -5e-324)
        assert (cfg["data.k"], cfg["data.per_class"], cfg["data.subgroups"]) == (2, 2, 1)
        assert cfg["data.spread"] == 0.0

    def test_format_roundtrip(self, tmp_path):
        cfg = default_config()
        cfg["data.spread"] = 1.25
        p = tmp_path / "echo.cfg"
        p.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        assert parse_config(p) == cfg


class TestModelFile:
    def test_roundtrip_identical_probabilities(self, tmp_path, rng):
        m = models.init_model("logistic", 4, 3).with_theta(rng.standard_normal(15))
        path = tmp_path / "m.model"
        save_model(m, path)
        back = load_model(path)
        X = rng.standard_normal((6, 4))
        assert models.forward(back, X).tobytes() == models.forward(m, X).tobytes()
        assert back.theta.tobytes() == m.theta.tobytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "x.model"
        p.write_text("something else\n")
        with pytest.raises(ConfigError):
            load_model(p)

    def test_truncated_params(self, tmp_path, rng):
        m = models.init_model("logistic", 2, 2)
        p = tmp_path / "t.model"
        save_model(m, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ConfigError):
            load_model(p)

    @pytest.mark.parametrize("line, value", [("theta", "nan"), ("theta", "-inf"), ("l2", "inf"),
                                             ("l2", "nan")])
    def test_non_finite_value_rejected(self, tmp_path, line, value):
        p = tmp_path / "m.model"
        save_model(models.init_model("logistic", 2, 2), p)
        lines = p.read_text().splitlines()
        at = len(lines) - 1 if line == "theta" else lines.index("l2 0.01")
        lines[at] = value if line == "theta" else f"l2 {value}"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(str(p)) + ".*not finite"):
            load_model(p)

    def test_negative_l2_rejected(self, tmp_path):
        p = tmp_path / "m.model"
        save_model(models.init_model("logistic", 2, 2), p)
        p.write_text(p.read_text().replace("l2 0.01\n", "l2 -1\n"))
        with pytest.raises(ConfigError, match=re.escape(str(p)) + ".*negative"):
            load_model(p)

    def test_cut_inside_last_parameter_rejected(self, tmp_path, rng):
        p = tmp_path / "m.model"
        save_model(models.init_model("logistic", 2, 2).with_theta(rng.standard_normal(6)), p)
        p.write_text(p.read_text()[:-5])
        with pytest.raises(ConfigError, match=re.escape(str(p)) + ".*truncated"):
            load_model(p)

    @pytest.mark.parametrize("extra", ["0.5", ""], ids=["number", "blank"])
    def test_line_after_the_parameters_rejected(self, tmp_path, extra):
        p = tmp_path / "m.model"
        save_model(models.init_model("logistic", 2, 2), p)
        p.write_text(p.read_text() + extra + "\n")
        with pytest.raises(ConfigError, match=re.escape(str(p)) + ".*theta 6"):
            load_model(p)

    def test_non_finite_theta_exit_2(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path)
        p = tmp_path / "m.model"
        assert cli.main(["train", "--config", cfgp, "--out", str(p)]) == 0
        lines = p.read_text().splitlines()
        lines[7] = "nan"
        p.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["unlearn", "--config", cfgp, "--model", str(p), "--method", "ft"]) == 2
        assert "parameter 0 is nan" in capsys.readouterr().err

    @given(kind=st.sampled_from(["logistic", "mlp"]), d=st.integers(1, 4), K=st.integers(2, 4),
           hidden=st.integers(1, 3), l2=st.floats(min_value=0.0, allow_infinity=False),
           drawn=st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_every_cut_is_typed(self, kind, d, K, hidden, l2, drawn):
        size = models.n_params(kind, d, K, hidden)
        theta = np.array(drawn.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                            min_size=size, max_size=size)))
        m = models.Model(kind=kind, theta=theta, d=d, K=K, l2=l2,
                         hidden=hidden if kind == "mlp" else 0)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "h.model"
            save_model(m, p)
            back = load_model(p)
            assert back.theta.tobytes() == m.theta.tobytes()
            assert (back.kind, back.d, back.K, back.hidden) == (m.kind, m.d, m.K, m.hidden)
            assert back.l2 == m.l2
            text = p.read_text()
            p.write_text(text[:drawn.draw(st.integers(0, len(text) - 1))])
            with pytest.raises(ConfigError):
                load_model(p)


def write_cfg(tmp_path, extra=""):
    p = tmp_path / "run.cfg"
    p.write_text("data.per_class = 20\ndata.test_per_class = 20\ntrain.epochs = 15\n"
                 "unlearn.methods = retrain,ga,ugradsl_plus\nseeds = 0,1\n" + extra)
    return str(p)


class TestSubcommands:
    def test_gen_data_roundtrip(self, tmp_path):
        out = tmp_path / "ds.csv"
        code = cli.main(["gen-data", "--config", write_cfg(tmp_path), "--out", str(out)])
        assert code == 0
        ds = data.load_dataset(out)
        assert ds.n == 60 and ds.d == 5

    def test_gen_data_requires_out(self, tmp_path):
        assert cli.main(["gen-data", "--config", write_cfg(tmp_path)]) == 2

    def test_train_writes_model(self, tmp_path):
        out = tmp_path / "m.model"
        assert cli.main(["train", "--config", write_cfg(tmp_path), "--out", str(out)]) == 0
        m = load_model(out)
        assert m.kind == "logistic" and m.d == 5 and m.K == 3

    def test_unlearn_fragment(self, tmp_path, capsys):
        out = tmp_path / "u.model"
        code = cli.main(["unlearn", "--config", write_cfg(tmp_path), "--method", "ga",
                         "--out", str(out)])
        assert code == 0
        frag = json.loads(capsys.readouterr().out.strip())
        assert frag["method"] == "ga"
        assert set(frag) >= {"ua", "mia", "ra", "ta", "sum"}
        load_model(out)  # file exists and parses

    def test_benchmark_determinism_and_table(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path)
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert cli.main(["benchmark", "--config", cfgp, "--format", "machine", "--out", str(r1)]) == 0
        assert cli.main(["benchmark", "--config", cfgp, "--format", "machine", "--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        doc = json.loads(r1.read_text())
        assert doc["methods"] == ["retrain", "ga", "ugradsl_plus"]
        assert doc["seeds"] == [0, 1]
        assert "rte_seconds" not in doc
        assert doc["summary"]["ga"]["avg_gap"] is not None
        # table form prints a retrain row
        capsys.readouterr()
        assert cli.main(["benchmark", "--config", cfgp]) == 0
        table = capsys.readouterr().out
        assert "retrain" in table and "RTE" in table

    @pytest.mark.parametrize("split", ["classwise", "random", "group\nsplit.groups = 0,3"],
                             ids=["classwise", "random", "group"])
    def test_benchmark_jobs_matches_serial(self, tmp_path, split):
        cfgp = write_cfg(tmp_path, f"split.paradigm = {split}\n")
        r1 = tmp_path / "serial.json"
        r2 = tmp_path / "parallel.json"
        assert cli.main(["benchmark", "--config", cfgp, "--format", "machine", "--out", str(r1)]) == 0
        assert cli.main(["benchmark", "--config", cfgp, "--format", "machine", "--out", str(r2),
                         "--jobs", "2"]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_verify_theory(self, tmp_path, capsys):
        p = tmp_path / "t.cfg"
        p.write_text("theory.instances = 3\ntheory.alpha_grid_points = 51\n")
        out = tmp_path / "theory.json"
        assert cli.main(["verify-theory", "--config", str(p), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["count"] == 3
        assert len(doc["instances"]) == 3
        for row in doc["instances"]:
            assert row["dist_ga"] >= 0 and row["dist_noop"] >= 0

    def test_ldp_machine_output(self, capsys):
        code = cli.main(["ldp", "--k", "10", "--alpha", "-1", "--gamma1", "2", "--gamma2", "1",
                         "--format", "machine"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epsilon"] == pytest.approx(0.0, abs=1e-12)

    def test_each_call_in_a_process_prints_its_own_result(self, capsys):
        """The parser is built once per process; every call parses its own flags."""
        eps = []
        for alpha in ("-1", "-0.5"):
            assert cli.main(["ldp", "--k", "10", "--alpha", alpha, "--gamma1", "2", "--gamma2", "1",
                             "--format", "machine"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["alpha"] == float(alpha)
            eps.append(doc["epsilon"])
        assert eps[0] != eps[1]
        assert cli.build_parser() is cli.build_parser()

    def test_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        assert cli.main(["benchmark", "--config", str(bad)]) == 2
        assert cli.main(["ldp", "--k", "2", "--alpha", "-1", "--gamma1", "1", "--gamma2", "1"]) == 3

    @pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--gamma1", "nan"),
                                             ("--gamma1", "inf"), ("--gamma2", "nan")])
    def test_ldp_non_finite_rate_exit_3(self, capsys, flag, value):
        args = {"--k": "3", "--alpha": "-0.5", "--gamma1": "2", "--gamma2": "1", flag: value}
        assert cli.main(["ldp", *(a for kv in args.items() for a in kv), "--format", "machine"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and f"{flag[2:]} is {float(value)}, not a finite number" in out.err

    def test_log_env_validation(self, monkeypatch):
        monkeypatch.setenv("UNLEARN_FORGE_LOG", "verbose")
        assert cli.main(["ldp", "--k", "10", "--alpha", "-1", "--gamma1", "2", "--gamma2", "1"]) == 2


class TestConfigErrors:
    @pytest.mark.parametrize("command", ["unlearn", "benchmark"])
    @pytest.mark.parametrize("spec", ["bogus", ""])
    def test_bad_methods_exit_2(self, tmp_path, capsys, command, spec):
        cfgp = write_cfg(tmp_path, f"unlearn.methods = {spec}\n")
        assert cli.main([command, "--config", cfgp]) == 2
        assert "unlearn.methods" in capsys.readouterr().err

    def test_non_integer_groups_exit_2(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path, "split.paradigm = group\nsplit.groups = a,b\n")
        assert cli.main(["benchmark", "--config", cfgp]) == 2
        assert "split.groups" in capsys.readouterr().err

    def test_out_checked_before_work(self, tmp_path, monkeypatch):
        def fail(*_):
            raise AssertionError("called before --out was checked")
        monkeypatch.setattr(cli, "build_datasets", fail)
        monkeypatch.setattr(cli, "train_original", fail)
        assert cli.main(["train", "--config", write_cfg(tmp_path)]) == 2
        assert cli.main(["gen-data", "--config", write_cfg(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["unlearn", "benchmark"])
    def test_iu_on_mlp_exit_2_before_work(self, tmp_path, capsys, monkeypatch, command):
        def fail(*_):
            raise AssertionError("called before unlearn.methods was checked")
        for module in (cli, experiment):
            monkeypatch.setattr(module, "build_datasets", fail)
            monkeypatch.setattr(module, "train_original", fail)
        cfgp = write_cfg(tmp_path, "model.kind = mlp\nunlearn.methods = retrain,iu\n")
        assert cli.main([command, "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert "unlearn.methods" in err and "model.kind" in err

    def test_iu_flag_on_mlp_exit_2_before_work(self, tmp_path, capsys, monkeypatch):
        def fail(*_):
            raise AssertionError("called before --method was checked")
        monkeypatch.setattr(cli, "build_datasets", fail)
        monkeypatch.setattr(cli, "train_original", fail)
        cfgp = write_cfg(tmp_path, "model.kind = mlp\n")
        assert cli.main(["unlearn", "--config", cfgp, "--method", "iu"]) == 2
        err = capsys.readouterr().err
        assert "--method" in err and "model.kind" in err

    @pytest.mark.parametrize("command", ["unlearn", "benchmark"])
    @pytest.mark.parametrize("value, names", [("-1", ["split.class"]),
                                              ("5", ["split.class", "data.k"])])
    def test_forget_class_outside_k_exit_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                           command, value, names):
        def fail(*_):
            raise AssertionError("trained before split.class was checked")
        for module in (cli, experiment):
            monkeypatch.setattr(module, "train_original", fail)
        cfgp = write_cfg(tmp_path, f"split.class = {value}\n")
        assert cli.main([command, "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names)

    @pytest.mark.parametrize("key, value", [
        ("train.batch_size", "0"), ("unlearn.batch_size", "0"), ("train.epochs", "-1"),
        ("unlearn.epochs", "-1"), ("train.lr", "-0.1"), ("unlearn.lr", "nan"),
        ("data.test_per_class", "1"), ("unlearn.p", "2"), ("smooth.beta", "1.5"),
        ("split.fraction", "1.5"), ("smooth.alpha", "1.5"), ("unlearn.damping", "-1"),
        ("theory.damping", "-1"), ("model.l2", "-5"), ("data.seed", "-2"), ("split.seed", "-1"),
        ("train.seed", "-1"), ("theory.seed", "-1"), ("theory.instances", "0"),
        ("theory.alpha_grid_points", "0"), ("theory.alpha_grid_min", "0"), ("data.k", "1"),
        ("data.per_class", "1"), ("data.subgroups", "0"), ("data.spread", "-0.5"),
        ("data.dim", "0"), ("model.hidden", "0")])
    def test_out_of_range_value_exit_2(self, tmp_path, capsys, key, value):
        cfgp = write_cfg(tmp_path, f"{key} = {value}\n")
        assert cli.main(["unlearn", "--config", cfgp, "--method", "ga"]) == 2
        assert key in capsys.readouterr().err

    def test_file_label_past_k_exit_3(self, tmp_path, capsys):
        csv = tmp_path / "ds.csv"
        assert cli.main(["gen-data", "--config", write_cfg(tmp_path), "--out", str(csv)]) == 0
        cfgp = write_cfg(tmp_path, f"data.file = {csv}\ndata.k = 2\n")
        assert cli.main(["train", "--config", cfgp, "--out", str(tmp_path / "m.model")]) == 3
        assert "label 2 >= K=2" in capsys.readouterr().err

    def test_file_bad_row_exit_3_naming_the_file(self, tmp_path, capsys):
        csv = tmp_path / "bad-row.csv"
        csv.write_text("f0,label\n0.5,1\n0.25\n")
        cfgp = write_cfg(tmp_path, f"data.file = {csv}\ndata.k = 2\n")
        assert cli.main(["unlearn", "--config", cfgp, "--seed", "0", "--method", "ga"]) == 3
        assert capsys.readouterr().err == (f"error: domain: {csv}: line 3: expected 2 fields, "
                                           "got 1\n")


class TestInputErrors:
    @pytest.mark.parametrize("command", ["unlearn", "benchmark"])
    def test_empty_seed_list_exit_2(self, tmp_path, capsys, command):
        # unlearn runs one seed and takes no --seeds, so its list comes from the config
        if command == "unlearn":
            argv = ["unlearn", "--config", write_cfg(tmp_path, "seeds = ,\n")]
        else:
            argv = ["benchmark", "--config", write_cfg(tmp_path), "--seeds", ","]
        assert cli.main(argv) == 2
        assert "names no seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["benchmark", "--seeds=-1"], ["benchmark", "--seeds=-3..2"],
                                      ["unlearn", "--seed", "-1", "--method", "ga"]])
    def test_negative_seed_exit_2_before_work(self, tmp_path, capsys, monkeypatch, argv):
        def fail(*_):
            raise AssertionError("called before the seed list was checked")
        for module in (cli, experiment):
            monkeypatch.setattr(module, "build_datasets", fail)
        assert cli.main(argv + ["--config", write_cfg(tmp_path)]) == 2
        assert "negative seed" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_2_before_work(self, tmp_path, capsys, monkeypatch, jobs):
        def fail(*_):
            raise AssertionError("called before --jobs was checked")
        monkeypatch.setattr(experiment, "build_datasets", fail)
        assert cli.main(["benchmark", "--config", write_cfg(tmp_path), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_model_shape_checked_against_data(self, tmp_path, capsys):
        model = tmp_path / "k4.model"
        cfg4 = write_cfg(tmp_path, "data.k = 4\n")
        assert cli.main(["train", "--config", cfg4, "--out", str(model)]) == 0
        capsys.readouterr()
        code = cli.main(["unlearn", "--config", write_cfg(tmp_path), "--method", "ga",
                         "--model", str(model)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "(5, 4)" in captured.err and "(5, 3)" in captured.err

    def test_empty_seeds_flag_exit_2_before_work(self, tmp_path, capsys, monkeypatch):
        def fail(*_):
            raise AssertionError("called before --seeds was checked")
        monkeypatch.setattr(experiment, "build_datasets", fail)
        assert cli.main(["benchmark", "--config", write_cfg(tmp_path), "--seeds", ""]) == 2
        assert "seed list '' names no seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["unlearn", "benchmark"])
    @pytest.mark.parametrize("groups, names", [("", []), ("0,99", ["[99]"])],
                             ids=["empty", "unknown"])
    def test_group_ids_exit_2_before_training(self, tmp_path, capsys, monkeypatch, command,
                                              groups, names):
        def fail(*_):
            raise AssertionError("trained before split.groups was checked")
        for module in (cli, experiment):
            monkeypatch.setattr(module, "train_original", fail)
        cfgp = write_cfg(tmp_path, f"split.paradigm = group\nsplit.groups = {groups}\n")
        assert cli.main([command, "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in ["split.groups", *names])


class TestModelFileKind:
    """``unlearn --model`` checks its methods against the file's model kind."""
    @staticmethod
    def model_file(tmp_path, kind):
        path = tmp_path / f"{kind}.model"
        assert cli.main(["train", "--config", write_cfg(tmp_path, f"model.kind = {kind}\n"),
                         "--out", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize("argv, source", [(["--method", "iu"], "--method"),
                                              ([], "unlearn.methods")], ids=["flag", "config"])
    def test_iu_on_an_mlp_file_exit_2_before_work(self, tmp_path, capsys, monkeypatch, argv,
                                                  source):
        path = self.model_file(tmp_path, "mlp")
        cfgp = write_cfg(tmp_path, "unlearn.methods = ga,iu\n")

        def fail(*_):
            raise AssertionError("built data before the method was checked")
        monkeypatch.setattr(experiment, "build_datasets", fail)
        capsys.readouterr()
        assert cli.main(["unlearn", "--config", cfgp, "--model", path] + argv) == 2
        err = capsys.readouterr().err
        assert source in err and path in err and "'mlp'" in err

    @pytest.mark.parametrize("argv", [["--method", "iu"], []], ids=["flag", "config"])
    def test_iu_on_a_logistic_file_runs_under_an_mlp_config(self, tmp_path, capsys, argv):
        path = self.model_file(tmp_path, "logistic")
        cfgp = write_cfg(tmp_path, "model.kind = mlp\nunlearn.methods = iu,ga\nseeds = 0\n")
        capsys.readouterr()
        assert cli.main(["unlearn", "--config", cfgp, "--model", path] + argv) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "iu"


class TestUnlearnModelShape:
    """``unlearn --model`` on data of another (d, K)."""
    @pytest.mark.parametrize("extra, shape", [("data.dim = 4\n", "(4, 3)"),
                                              ("data.k = 4\n", "(5, 4)")], ids=["d", "K"])
    def test_model_of_another_shape_exit_2(self, tmp_path, capsys, extra, shape):
        path = tmp_path / "other.model"
        assert cli.main(["train", "--config", write_cfg(tmp_path, extra), "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["unlearn", "--config", write_cfg(tmp_path), "--model", str(path),
                         "--method", "ga", "--seed", "0"]) == 2
        assert capsys.readouterr().err == (f"error: config: model {path} has (d, K) = {shape}, "
                                           f"the data has (5, 3)\n")


# the whole command-line surface: each subcommand and the flags it reads
SURFACE = {
    "gen-data": {"--config", "--out"},
    "train": {"--config", "--out"},
    "unlearn": {"--config", "--seed", "--out", "--model", "--method"},
    "benchmark": {"--config", "--seeds", "--jobs", "--out", "--format"},
    "verify-theory": {"--config", "--out", "--format"},
    "ldp": {"--k", "--alpha", "--gamma1", "--gamma2", "--out", "--format"},
}
# a value each flag accepts, so only the flag's presence can fail the parse
FLAG_VALUES = {"--config": "run.cfg", "--seed": "0", "--seeds": "0", "--jobs": "1",
               "--out": "out.txt", "--format": "table", "--model": "m.model", "--method": "ga",
               "--k": "10", "--alpha": "-1", "--gamma1": "2", "--gamma2": "1"}
LDP_ARGS = ["--k", "10", "--alpha", "-1", "--gamma1", "2", "--gamma2", "1"]
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


class TestFlagTable:
    def test_table_is_the_surface(self):
        assert {cmd: set(flags) for cmd, (_, _, flags) in cli.COMMANDS.items()} == SURFACE
        assert sum(map(len, SURFACE.values())) == 23

    @pytest.mark.parametrize("command, flag", [(c, f) for c in SURFACE for f in FLAG_VALUES
                                               if f not in SURFACE[c]])
    def test_flag_outside_the_table_exit_2(self, capsys, command, flag):
        base = LDP_ARGS if command == "ldp" else []
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *base, flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", SURFACE)
    def test_help_lists_exactly_the_table_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert set(FLAG_RE.findall(capsys.readouterr().out)) == SURFACE[command] | {"--help"}

    def test_readme_synopsis_names_each_table_flag(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        synopsis = {}
        for line in block.replace("\\\n", " ").splitlines():
            _, command, *rest = line.split()
            assert command not in synopsis, f"two synopsis lines for {command}"
            synopsis[command] = set(FLAG_RE.findall(" ".join(rest)))
        assert synopsis == {cmd: set(flags) for cmd, (_, _, flags) in cli.COMMANDS.items()}


class TestUnlearnSeeds:
    def test_several_configured_seeds_warn_naming_seeds_and_flag(self, tmp_path, capsys):
        assert cli.main(["unlearn", "--config", write_cfg(tmp_path), "--method", "ga"]) == 0
        captured = capsys.readouterr()
        assert "seeds = 0,1" in captured.err and "--seed" in captured.err
        assert json.loads(captured.out)["seed"] == 0

    @pytest.mark.parametrize("argv", [["--seed", "1"], []], ids=["flag", "one-configured"])
    def test_one_seed_runs_quietly(self, tmp_path, capsys, argv):
        cfgp = write_cfg(tmp_path, "" if argv else "seeds = 1\n")
        assert cli.main(["unlearn", "--config", cfgp, "--method", "ga"] + argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["seed"] == 1


class TestReportOutput:
    """One output rule for the report commands: the JSON goes to ``--out``
    when given, else to stdout under ``--format machine``; ``--format table``
    prints the table, with or without ``--out``."""
    @staticmethod
    def argv(tmp_path, command):
        if command == "ldp":
            return ["ldp", *LDP_ARGS]
        if command == "benchmark":
            return ["benchmark", "--config", write_cfg(tmp_path), "--seeds", "0"]
        cfgp = tmp_path / "theory.cfg"
        cfgp.write_text("theory.instances = 3\ntheory.alpha_grid_points = 51\n")
        return ["verify-theory", "--config", str(cfgp)]

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["table", "machine"])
    @pytest.mark.parametrize("command", ["benchmark", "verify-theory", "ldp"])
    def test_one_rule_for_every_report_command(self, tmp_path, capsys, monkeypatch, command,
                                               fmt, out):
        # a frozen clock, so the benchmark table's RTE column reads the same each run
        monkeypatch.setattr(unlearn, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        argv = self.argv(tmp_path, command)

        def stdout(*flags):
            assert cli.main(argv + list(flags)) == 0
            return capsys.readouterr().out
        machine, table = stdout("--format", "machine"), stdout("--format", "table")
        json.loads(machine)
        assert table and not table.startswith("{")
        path = tmp_path / "report.json"
        printed = stdout("--format", fmt, *(["--out", str(path)] if out else []))
        if out:
            assert path.read_bytes() == machine.encode()
        assert printed == (table if fmt == "table" else "" if out else machine)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and stderr, captured without a
    function-scoped fixture so that Hypothesis can call it per example."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


def outside_domain(key: str):
    """Values of ``key``'s type outside its ``SCHEMA`` interval (nan too, for a float key)."""
    typ, _, domain = SCHEMA[key]
    low, high = (float(bound) for bound in domain[1:-1].split(","))
    low_closed, high_closed = domain[0] == "[", domain[-1] == "]"
    sides = []
    if typ is int:  # every int domain is [a, inf) or (a, inf)
        sides.append(st.integers(max_value=int(low) - low_closed))
    else:
        if low > -math.inf:
            sides.append(st.floats(max_value=low, exclude_max=low_closed, allow_nan=False))
        if high < math.inf:
            sides.append(st.floats(min_value=high, exclude_min=high_closed, allow_nan=False))
        sides.append(st.just(math.nan))
    return st.one_of(sides)


BOUNDED_KEYS = sorted(k for k, (_, _, domain) in SCHEMA.items() if domain is not None)


class TestTypedExitCodes:
    """One property per typed error: its exit code and stderr prefix through ``cli.main``."""

    @given(case=st.sampled_from(BOUNDED_KEYS).flatmap(
        lambda key: st.tuples(st.just(key), outside_domain(key))))
    @settings(max_examples=80, deadline=None)
    def test_a_key_outside_its_domain_exits_2(self, tmp_path_factory, case):
        key, value = case
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text(f"{key} = {value!r}\n")
        code, err = run_cli(["verify-theory", "--config", str(path)])
        assert code == 2
        assert err.startswith("error: config: ") and repr(key) in err

    @given(which=st.sampled_from(["--alpha", "--gamma1", "--gamma2"]),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]), K=st.integers(2, 50),
           alpha=st.floats(-0.9, -0.1), gamma1=st.floats(1.5, 3.0), gamma2=st.floats(0.1, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_ldp_with_a_non_finite_rate_exits_3(self, which, bad, K, alpha, gamma1, gamma2):
        values = {"--alpha": alpha, "--gamma1": gamma1, "--gamma2": gamma2, which: bad}
        # the = form: argparse reads a separate "-inf" as a flag
        code, err = run_cli(["ldp", "--k", str(K)] + [f"{flag}={v!r}" for flag, v in values.items()])
        assert code == 3
        assert err.startswith("error: domain: ") and "not a finite number" in err

    @given(seed=st.integers(0, 10_000), instances=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_verify_theory_out_of_newton_iterations_exits_4(self, tmp_path_factory, seed, instances):
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text(f"theory.seed = {seed}\ntheory.instances = {instances}\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "NEWTON_MAX_ITER", 0)
            code, err = run_cli(["verify-theory", "--config", str(path)])
        assert code == 4
        assert err.startswith("error: solver: newton_optimize: gradient norm ")


def forbid_work(monkeypatch):
    """Make every command's work raise, so a test can show it stopped first."""
    def fail(*_, **__):
        raise AssertionError("work started before the paths were checked")
    for name in ("build_datasets", "run_benchmark", "run_verify_theory", "train_original"):
        monkeypatch.setattr(cli, name, fail)
    monkeypatch.setattr(cli.privacy, "verify_ratio_bound", fail)


class TestFileErrors:
    """A file that cannot be opened is exit 2, naming the flag or key that
    gave its path and the path; a bad ``--out`` is refused before any work."""
    @pytest.mark.parametrize("source", ["--config", "data.file", "--model"])
    def test_missing_input_file_exit_2(self, tmp_path, capsys, source):
        missing = str(tmp_path / "no-such-file")
        if source == "--config":
            argv = ["benchmark", "--config", missing]
        elif source == "data.file":
            argv = ["benchmark", "--config", write_cfg(tmp_path, f"data.file = {missing}\n")]
        else:
            argv = ["unlearn", "--config", write_cfg(tmp_path), "--seed", "0", "--model", missing]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {source} {missing}: ")

    @pytest.mark.parametrize("source", ["--config", "data.file", "--model"])
    def test_input_file_not_utf8_exit_2(self, tmp_path, capsys, source):
        binary = tmp_path / "binary"
        binary.write_bytes(b"data.k = 3\n\xff\xfe = 2\n")
        if source == "--config":
            argv = ["benchmark", "--config", str(binary)]
        elif source == "data.file":
            argv = ["benchmark", "--config", write_cfg(tmp_path, f"data.file = {binary}\n")]
        else:
            argv = ["unlearn", "--config", write_cfg(tmp_path), "--seed", "0", "--model", str(binary)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {source} {binary}: not UTF-8 text (")

    @pytest.mark.parametrize("command", list(SURFACE))
    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_bad_out_exit_2_before_work(self, tmp_path, capsys, monkeypatch, command, where):
        forbid_work(monkeypatch)
        out = str(tmp_path / "missing" / "report.json") if where == "missing-dir" else str(tmp_path)
        base = ["ldp", *LDP_ARGS] if command == "ldp" else [command, "--config", write_cfg(tmp_path)]
        assert cli.main(base + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: --out {out}: ")

    def test_out_write_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "u.model")

        def refuse(_model, path):
            raise PermissionError(13, "Permission denied", path)
        monkeypatch.setattr(cli, "save_model", refuse)
        assert cli.main(["unlearn", "--config", write_cfg(tmp_path), "--seed", "0",
                         "--method", "ga", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: config: --out {out}: Permission denied\n"

    @pytest.mark.parametrize("command", ["unlearn", "benchmark"])
    def test_group_split_on_a_csv_without_groups_exit_2_before_training(
            self, tmp_path, capsys, monkeypatch, command):
        csv = tmp_path / "rows.csv"
        ds = data.gen_blobs(2, 10, 3, 1.0, 2, np.random.default_rng(0))
        data.save_dataset(data.LabeledDataset(ds.X, ds.y, ds.K), csv)

        def fail(*_):
            raise AssertionError("trained before the group ids were checked")
        for module in (cli, experiment):
            monkeypatch.setattr(module, "train_original", fail)
        cfgp = write_cfg(tmp_path, f"data.file = {csv}\ndata.k = 2\ndata.dim = 3\n"
                                   "split.paradigm = group\nsplit.groups = 0\n")
        assert cli.main([command, "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert "error: config: split.groups " in err and f"data.file {csv} " in err


class TestNoRetainRow:
    """A split that forgets every training row is exit 2 naming the
    paradigm and its key, before the original model is trained."""
    @pytest.mark.parametrize("command", ["unlearn --seed 0 --method ga",
                                         "unlearn --seed 0 --method rl", "benchmark"])
    @pytest.mark.parametrize("split", ["group", "classwise"])
    def test_exit_2_before_training(self, tmp_path, capsys, monkeypatch, command, split):
        def fail(*_):
            raise AssertionError("trained before the split was checked")
        for module in (cli, experiment):
            monkeypatch.setattr(module, "train_original", fail)
        if split == "group":
            groups = "split.groups = 0,1,2,3,4,5"
            extra, named, n = f"split.paradigm = group\n{groups}\n", groups, 60
        else:
            csv = tmp_path / "one-class.csv"
            ds = data.gen_blobs(2, 10, 5, 1.0, 1, np.random.default_rng(0))
            keep = ds.y == 0
            data.save_dataset(data.LabeledDataset(ds.X[keep], ds.y[keep], 2), csv)
            extra, named, n = f"data.file = {csv}\ndata.k = 2\n", "split.class = 0", 10
        assert cli.main(command.split() + ["--config", write_cfg(tmp_path, extra)]) == 2
        assert capsys.readouterr().err == (f"error: config: split.paradigm = {split} with {named} "
                                           f"forgets all {n} training rows and leaves no retain "
                                           "row\n")


class TestSplitTheDataCannotMake:
    """A forget split the data cannot make is exit 2 with one config line
    naming its key, and data.file when one is set, before the original model
    is trained."""
    @pytest.mark.parametrize("command", ["unlearn --seed 0 --method ga", "benchmark"])
    @pytest.mark.parametrize("case", ["class-absent", "no-forget-row"])
    def test_exit_2_before_training(self, tmp_path, capsys, monkeypatch, command, case):
        def fail(*_):
            raise AssertionError("trained before the split was checked")
        for module in (cli, experiment):
            monkeypatch.setattr(module, "train_original", fail)
        if case == "class-absent":
            csv = tmp_path / "no-class-2.csv"
            ds = data.gen_blobs(3, 10, 5, 1.0, 1, np.random.default_rng(0))
            keep = ds.y != 2
            data.save_dataset(data.LabeledDataset(ds.X[keep], ds.y[keep], 3), csv)
            extra = f"data.file = {csv}\nsplit.class = 2\n"
            line = (f"split.class = 2 with data.k = 3 and data.file {csv} cannot split the data: "
                    "class 2 absent from the dataset")
        else:
            extra = "split.paradigm = random\nsplit.fraction = 0.04\n"
            line = ("split.fraction = 0.04 cannot split the data: fraction 0.04 gives no forget "
                    "rows for class 0")
        assert cli.main(command.split() + ["--config", write_cfg(tmp_path, extra)]) == 2
        assert capsys.readouterr().err == f"error: config: {line}\n"


class TestConfigChecksBeforeWork:
    """A repeated method and an unknown model kind or smoothing mode are
    configuration errors naming the key, raised before any data is built."""
    @staticmethod
    def no_work(monkeypatch):
        def fail(*_):
            raise AssertionError("built data before the config was checked")
        for module in (cli, experiment):
            monkeypatch.setattr(module, "build_datasets", fail)
            monkeypatch.setattr(module, "train_original", fail)

    @pytest.mark.parametrize("command", ["unlearn", "benchmark"])
    def test_method_named_twice_exit_2(self, tmp_path, capsys, monkeypatch, command):
        self.no_work(monkeypatch)
        cfgp = write_cfg(tmp_path, "unlearn.methods = ga, ga\n")
        assert cli.main([command, "--config", cfgp]) == 2
        assert "unlearn.methods names 'ga' more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["unlearn --method ga", "unlearn", "benchmark", "train"])
    @pytest.mark.parametrize("key", ["smooth.mode", "model.kind"])
    def test_unknown_choice_exit_2(self, tmp_path, capsys, monkeypatch, command, key):
        self.no_work(monkeypatch)
        argv = command.split() + ["--config", write_cfg(tmp_path, f"{key} = foo\n")]
        if command == "train":
            argv += ["--out", str(tmp_path / "m.model")]
        assert cli.main(argv) == 2
        assert f"key '{key}'" in capsys.readouterr().err

    def test_unknown_kind_is_named_before_the_iu_rule(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path, "model.kind = foo\nunlearn.methods = ga,iu\n")
        assert cli.main(["unlearn", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert "unknown model kind 'foo'" in err and "iu" not in err

    def test_unknown_paradigm_exit_2(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path, "split.paradigm = foo\n")
        assert cli.main(["unlearn", "--config", cfgp, "--method", "ga"]) == 2
        assert "unknown paradigm 'foo'" in capsys.readouterr().err


# (kind, d, K, hidden, theta count) of model files that describe no model,
# with as many parameter lines as the count, and the reason named
NO_MODEL_HEADERS = [("foo", 5, 3, 2, 21, "unknown model kind 'foo'"),
                    ("mlp", 5, 3, 0, 3, "an mlp needs hidden >= 1, got 0"),
                    ("logistic", 5, 1, 0, 6, "need at least 2 classes"),
                    ("logistic", 0, 3, 0, 3, "need at least 1 feature, got d = 0"),
                    ("logistic", -1, 3, 0, 0, "need at least 1 feature, got d = -1"),
                    ("logistic", 2, 2, 0, 5, "theta has shape (5,), expected (6,)")]


class TestModelFileDescribesNoModel:
    """A model file whose header no model fits is a config error naming the
    file, like every other malformed model file, not a domain error at the
    first use of the model."""
    @staticmethod
    def model_file(tmp_path, kind, d, K, hidden, count):
        p = tmp_path / "m.model"
        p.write_text(f"unlearn-forge-model v1\nkind {kind}\nd {d}\nK {K}\nhidden {hidden}\n"
                     f"l2 0.01\ntheta {count}\n" + "0\n" * count)
        return p

    @pytest.mark.parametrize("kind, d, K, hidden, count, reason", NO_MODEL_HEADERS)
    def test_load_model(self, tmp_path, kind, d, K, hidden, count, reason):
        p = self.model_file(tmp_path, kind, d, K, hidden, count)
        with pytest.raises(ConfigError, match=re.escape(f"model file {p}: {reason}")):
            load_model(p)

    @pytest.mark.parametrize("kind, d, K, hidden, count, reason", NO_MODEL_HEADERS)
    def test_unlearn_exit_2(self, tmp_path, capsys, kind, d, K, hidden, count, reason):
        p = self.model_file(tmp_path, kind, d, K, hidden, count)
        argv = ["unlearn", "--config", write_cfg(tmp_path), "--seed", "0", "--model", str(p)]
        assert cli.main(argv + ["--method", "ga"]) == 2
        assert capsys.readouterr().err == f"error: config: model file {p}: {reason}\n"

    def test_format_fault_named_first(self, tmp_path):
        p = self.model_file(tmp_path, "foo", 5, 3, 2, 21)
        p.write_text(p.read_text() + "0\n")
        with pytest.raises(ConfigError, match=re.escape(f"model file {p}: a line after the theta 21")):
            load_model(p)


class TestFeaturelessDataFile:
    """A data file whose header names no feature column is a malformed
    header, named with the file, before any test set is drawn."""
    @pytest.mark.parametrize("text", ["label\n0\n1\n", "label,group\n0,3\n1,4\n"])
    def test_unlearn_exit_3(self, tmp_path, capsys, text):
        csv = tmp_path / "nofeatures.csv"
        csv.write_text(text)
        cfgp = write_cfg(tmp_path, f"data.file = {csv}\n")
        assert cli.main(["unlearn", "--config", cfgp, "--seed", "0", "--method", "ga"]) == 3
        header = text.split("\n")[0]
        assert capsys.readouterr().err == (f"error: domain: {csv}: malformed dataset header: "
                                           f"{header!r}\n")


class TestSeedWarningAfterTheRun:
    """``unlearn``'s warning that it runs only the first configured seed
    comes after the run, so a command that fails prints its error alone."""
    def test_config_error_prints_one_line(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path, "split.paradigm = group\nsplit.groups = 0,1,2,3,4,5\n")
        assert cli.main(["unlearn", "--method", "ga", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1
