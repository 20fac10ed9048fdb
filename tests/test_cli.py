import dataclasses
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import setcontrast
from setcontrast import assignment, cli, harness, simgeom
from setcontrast.errors import ConfigError, NumericError

def run_module(*args, unset=(), **extra_env):
    """``python -m setcontrast`` with this checkout's package on the path,
    the variables in ``unset`` removed and ``extra_env`` set."""
    src = str(Path(setcontrast.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env.update(PYTHONPATH=src + (os.pathsep + path if path else ""), **extra_env)
    return subprocess.run([sys.executable, "-m", "setcontrast", *args],
                          capture_output=True, text=True, env=env, timeout=120)


TINY = {
    "data": {"num_classes": 2, "samples_per_class": 4, "ambient_dim": 8,
             "noise_sigma": 0.2, "seed": 5},
    "train": {"epochs": 2, "batch_size": 4, "hidden_dim": 16, "embed_dim": 4},
    "losses": [{"name": "infonce", "kind": "infonce", "beta": 0.0}],
    "seeds": [0, 1],
}


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


class TestLoadConfig:
    def test_roundtrip_and_defaults(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, TINY))
        assert cfg.data.num_classes == 2
        assert cfg.train.epochs == 2
        assert cfg.losses[0].name == "infonce"
        assert cfg.seeds == (0, 1)
        assert cfg.out is None

    def test_seed_default(self, tmp_path):
        doc = {"losses": [{"name": "a", "kind": "infonce"}]}
        cfg = cli.load_config(write_config(tmp_path, doc))
        assert cfg.seeds == (0, 1, 2)

    def test_invalid_json_names_location(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"losses": [,]}', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1"):
            cli.load_config(str(p))

    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d.update(typo=1), "config.typo"),
        (lambda d: d["data"].update(classes=3), "data.classes"),
        (lambda d: d["train"].update(epochs="ten"), "train.epochs"),
        (lambda d: d["losses"][0].pop("kind"), "losses\\[0\\].kind"),
        (lambda d: d["losses"][0].update(flavor="x"), "losses\\[0\\].flavor"),
        (lambda d: d.update(seeds=[0, 0]), "seeds"),
        (lambda d: d.update(seeds=[]), "seeds"),
        (lambda d: d.update(seeds=[0, True]), "seeds"),
        (lambda d: d.update(losses=[]), "losses"),
        (lambda d: d.update(out=7), "out"),
    ])
    def test_bad_documents_name_the_field(self, tmp_path, mutate, needle):
        doc = json.loads(json.dumps(TINY))
        mutate(doc)
        with pytest.raises(ConfigError, match=needle):
            cli.load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: [d], "config: expected an object, got list"),
        (lambda d: dict(d, data=[1]), "data: expected an object, got list"),
        (lambda d: dict(d, train=3), "train: expected an object, got int"),
        (lambda d: dict(d, losses=["infonce"]), "losses[0]: expected an object, got str"),
        (lambda d: {k: v for k, v in d.items() if k != "losses"},
         "losses: missing required field"),
    ])
    def test_malformed_sections_exit_2(self, tmp_path, capsys, mutate, needle):
        doc = mutate(json.loads(json.dumps(TINY)))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {needle}\n"
        assert not out.exists()

    def test_duplicate_loss_names_rejected(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["losses"] = [{"name": "a", "kind": "infonce"},
                         {"name": "a", "kind": "smoothed"}]
        with pytest.raises(ConfigError, match="duplicate"):
            cli.load_config(write_config(tmp_path, doc))

    def test_domain_invalid_loss_maps_to_config_error(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["losses"][0]["temperature"] = 0.0
        with pytest.raises(ConfigError, match="losses\\[0\\]"):
            cli.load_config(write_config(tmp_path, doc))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.load_config("/nonexistent/cfg.json")

    @pytest.mark.parametrize("content,needle", [
        (b"\xff{}", "not UTF-8 text at byte 0: invalid start byte"),
        (b"[" * 200000 + b"]" * 200000, "JSON nested too deeply to read"),
    ], ids=["not-utf8", "nested-past-the-recursion-limit"])
    def test_unreadable_documents_exit_2(self, tmp_path, capsys, content, needle):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_bytes(content)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfgp), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {cfgp}: {needle}\n"
        assert not out.exists()

    def test_reference_config_loads(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "reference.json"
        cfg = cli.load_config(str(path))
        names = [loss.name for loss in cfg.losses]
        assert len(names) == len(set(names)) == 18
        assert sorted((c.kind, c.mining, c.mode, c.beta) for c in cfg.losses) == sorted(
            (kind, "batch-hard", mode, beta)
            for kind in ("infonce", "margin", "sparseclr")
            for mode in ("euclidean", "cosine") for beta in (0.0, 1.0, 4.0))
        assert cfg.seeds == tuple(range(10))

    def test_every_section_field_is_read(self, tmp_path):
        # one non-default value per int, float and str field of the three
        # section dataclasses; TrainConfig's loss and seed are set per run
        doc = {
            "data": {"num_classes": 3, "samples_per_class": 5, "ambient_dim": 6,
                     "noise_sigma": 0.125, "seed": 11},
            "train": {"epochs": 3, "batch_size": 4, "learning_rate": 0.01,
                      "hidden_dim": 8, "embed_dim": 3},
            "losses": [{"name": "x", "kind": "margin", "mining": "one-to-one",
                        "margin": 0.25, "temperature": 0.5, "beta": 0.75,
                        "mode": "cosine"}],
        }
        cfg = cli.load_config(write_config(tmp_path, doc))
        sections = [("data", cfg.data, doc["data"]),
                    ("train", cfg.train, doc["train"]),
                    ("losses", cfg.losses[0], doc["losses"][0])]
        for section, got, given in sections:
            hints = typing.get_type_hints(type(got))
            unread = {"seed"} if section == "train" else set()
            readable = {f.name for f in dataclasses.fields(got)
                        if hints[f.name] in (int, float, str)} - unread
            assert set(given) == readable, section
            default = type(got)()
            for key, value in given.items():
                assert getattr(got, key) == value, f"{section}.{key}"
                assert getattr(default, key) != value, f"{section}.{key}"

    @pytest.mark.parametrize("section,key,value,needle", [
        ("data", "num_classes", 1, "data: num_classes must be >= 2"),
        ("train", "epochs", 0, "train: epochs must be >= 1"),
    ])
    def test_domain_errors_name_their_section(self, tmp_path, capsys,
                                              section, key, value, needle):
        doc = json.loads(json.dumps(TINY))
        doc[section][key] = value
        assert cli.main(["train", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path / "run")]) == 2
        assert f"config error: {needle}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["beta1", "beta2", "eps"])
    def test_adam_hyperparameters_are_unknown_keys(self, tmp_path, capsys, key):
        doc = json.loads(json.dumps(TINY))
        doc["train"][key] = 0.5
        assert cli.main(["train", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path / "run")]) == 2
        assert f"config error: train.{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("alpha", 0.5), ("reduction", "sum")])
    def test_removed_loss_weights_are_unknown_keys(self, tmp_path, capsys, key, value):
        # beta is the objective's one weight: the pairwise term is always
        # the unscaled batch mean
        doc = json.loads(json.dumps(TINY))
        doc["losses"][0][key] = value
        out = tmp_path / "run"
        assert cli.main(["train", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 2
        assert f"config error: losses[0].{key}: unknown key" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_writes_reports_with_expected_schema(self, tmp_path):
        cfgp = write_config(tmp_path, TINY)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfgp, "--out", str(out)]) == 0
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "seed,loss_name,epoch,mean_loss,matching_acc,probe_acc"
        # 2 seeds x 2 epochs
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[:3] == ["0", "infonce", "1"]
        assert first[4] == "" and first[5] == ""  # metrics only on final epoch
        final = lines[2].split(",")
        assert final[2] == "2" and final[4] != "" and final[5] != ""
        summary = json.loads((out / "summary.json").read_text())
        v = summary["variants"]["infonce"]
        assert set(v) == {"kind", "mode", "beta",
                          "matching_accuracy", "probe_accuracy", "seeds"}
        assert v["seeds"] == [0, 1]
        assert 0.0 <= v["matching_accuracy"]["mean"] <= 1.0

    def test_outputs_are_bytewise_deterministic(self, tmp_path):
        cfgp = write_config(tmp_path, TINY)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli.main(["train", "--config", cfgp, "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "history.csv").read_bytes() == \
               (outs[1] / "history.csv").read_bytes()
        assert (outs[0] / "summary.json").read_bytes() == \
               (outs[1] / "summary.json").read_bytes()

    def test_rows_sorted_by_seed_then_name_then_epoch(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["losses"].append({"name": "also", "kind": "smoothed", "beta": 0.0})
        cfgp = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfgp, "--out", str(out)]) == 0
        rows = [ln.split(",")[:3] for ln in
                (out / "history.csv").read_text().splitlines()[1:]]
        keys = [(int(r[0]), r[1], int(r[2])) for r in rows]
        assert keys == sorted(keys)

    def test_refuses_nonempty_out_dir(self, tmp_path):
        cfgp = write_config(tmp_path, TINY)
        out = tmp_path / "run"
        out.mkdir()
        (out / "stale.txt").write_text("x")
        assert cli.main(["train", "--config", cfgp, "--out", str(out)]) == 2
        assert cli.main(["train", "--config", cfgp, "--out", str(out),
                         "--force"]) == 0

    def test_out_may_come_from_config(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["out"] = str(tmp_path / "fromcfg")
        cfgp = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfgp]) == 0
        assert (tmp_path / "fromcfg" / "history.csv").exists()

    @pytest.mark.parametrize("command,section,value", [
        ("train", "train", {"epochs": 0}),
        ("train", "train", {"batch_size": 1000}),  # the default data has 128 items
        ("train", "data", {"noise_sigma": 100.0}),  # classes not separable
        ("sweep", "losses", [{"name": "a", "kind": "infonce"},
                             {"name": "b", "kind": "smoothed"}]),
    ], ids=["epochs", "batch_size", "separability", "sweep_losses"])
    def test_invalid_run_creates_no_output_directory(self, tmp_path, command,
                                                     section, value):
        doc = {"losses": [{"name": "a", "kind": "infonce"}], section: value}
        out = tmp_path / "run"
        assert cli.main([command, "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_out_everywhere_is_config_error(self, tmp_path):
        cfgp = write_config(tmp_path, TINY)
        assert cli.main(["train", "--config", cfgp]) == 2

    def test_numeric_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericError("synthetic breakdown")

        monkeypatch.setattr("setcontrast.harness.train", explode)
        cfgp = write_config(tmp_path, TINY)
        assert cli.main(["train", "--config", cfgp,
                         "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
    def test_non_finite_gradient_maps_to_exit_3_at_its_step(
            self, tmp_path, monkeypatch, capsys, name):
        real_forward = harness.MLPEncoder.forward
        calls = []

        def poisoned(self, x, flat=None):
            z, pullback = real_forward(self, x, flat)
            calls.append(None)
            if len(calls) != 5:  # seed 0, epoch 1, step 0, view a: two views a step,
                return z, pullback  # two steps an epoch

            def poisoned_pullback(g):
                grad = pullback(g)
                self.views(grad)[name][...] = np.nan
                return grad

            return z, poisoned_pullback

        monkeypatch.setattr(harness.MLPEncoder, "forward", poisoned)
        cfgp = write_config(tmp_path, TINY)
        assert cli.main(["train", "--config", cfgp,
                         "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "gradient" in err and f"'{name}'" in err
        assert "epoch 1 step 0" in err and "seed=0" in err

    def test_zero_embedding_maps_to_exit_3_at_its_step(self, tmp_path, capsys):
        # with 4 hidden ReLU units, a 2-wide embedding is an exact zero row
        # for some input at the first step; the encoder rejects it
        doc = {
            "data": {"num_classes": 2, "samples_per_class": 16,
                     "ambient_dim": 4, "seed": 0},
            "train": {"hidden_dim": 4, "embed_dim": 2, "epochs": 20},
            "losses": [{"name": "infonce", "kind": "infonce", "beta": 0.0}],
            "seeds": [0],
        }
        cfgp = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfgp,
                         "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "degenerate embedding at epoch 0 step 0" in err
        assert "loss='infonce'" in err and "seed=0" in err

    def test_narrow_encoder_exits_3_at_the_first_step(self, tmp_path, capsys):
        # the documented narrow-width failure: zero b2 plus hidden relu
        # units that are all inactive for some input give a zero embedding
        doc = {
            "data": {"num_classes": 2, "ambient_dim": 4, "seed": 0},
            "train": {"hidden_dim": 4, "embed_dim": 2},
            "losses": [{"name": "infonce", "kind": "infonce"}],
            "seeds": [0],
        }
        cfgp = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfgp,
                         "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert ("degenerate embedding at epoch 0 step 0 (loss='infonce', seed=0): "
                "encoder: zero output row has no direction") in err

    @pytest.mark.parametrize("section,key,value", [
        ("train", "learning_rate", float("inf")),
        pytest.param("train", "learning_rate", 10 ** 400,
                     id="train-learning_rate-huge_int"),
        ("losses", "margin", float("nan")),
        ("losses", "temperature", float("nan")),
        ("losses", "beta", float("nan")),
        ("losses", "margin", float("inf")),
        ("data", "noise_sigma", float("-inf")),
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys,
                                               section, key, value):
        # json.loads accepts NaN/Infinity literals and huge integers; they
        # must be rejected before training, not surface as exit 0, 1 or 3
        doc = json.loads(json.dumps(TINY))
        if section == "losses":
            doc["losses"][0].update({"kind": "smoothed", key: value})
            field = f"losses[0].{key}"
        else:
            doc[section][key] = value
            field = f"{section}.{key}"
        cfgp = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfgp,
                         "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"{field}: expected a finite number" in err

    @pytest.mark.parametrize("section,key,value,message", [
        ("data", "noise_sigma", "0.5", "data.noise_sigma: expected a number"),
        ("losses", "temperature", True, "losses[0].temperature: expected a number"),
        ("losses", "kind", 3, "losses[0].kind: expected a string"),
        ("losses", "mode", None, "losses[0].mode: expected a string"),
    ])
    def test_wrong_field_type_is_config_error(self, tmp_path, capsys,
                                              section, key, value, message):
        doc = json.loads(json.dumps(TINY))
        target = doc["losses"][0] if section == "losses" else doc[section]
        target[key] = value
        out = tmp_path / "run"
        assert cli.main(["train", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_run_seed_is_config_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TINY))
        doc["seeds"] = [0, -1]
        out = tmp_path / "run"
        assert cli.main(["train", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 2
        assert "config error: seeds: must be non-negative\n" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_data_seed_is_config_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TINY))
        doc["data"]["seed"] = -1
        cfgp = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfgp,
                         "--out", str(tmp_path / "run")]) == 2
        assert "config error: data: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_negative_zero_beta_writes_zero(self, tmp_path):
        outs = []
        for beta in (0.0, -0.0):
            doc = json.loads(json.dumps(TINY))
            doc["losses"][0]["beta"] = beta
            outs.append(tmp_path / str(beta))
            assert cli.main(["train", "--config", write_config(tmp_path, doc),
                             "--out", str(outs[-1])]) == 0
        text = (outs[1] / "summary.json").read_bytes()
        assert b"-0" not in text
        assert text == (outs[0] / "summary.json").read_bytes()


class TestSweepCommand:
    def test_emits_sorted_grid_rows(self, tmp_path):
        cfgp = write_config(tmp_path, TINY)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", cfgp, "--out", str(out),
                         "--beta-grid", "0.5,0,1"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "beta,seed,matching_acc,probe_acc"
        got = [tuple(ln.split(",")[:2]) for ln in lines[1:]]
        assert got == [("0", "0"), ("0", "1"), ("0.5", "0"), ("0.5", "1"),
                       ("1", "0"), ("1", "1")]

    def test_zero_weight_rows_match_train_output(self, tmp_path):
        cfgp = write_config(tmp_path, TINY)
        run = tmp_path / "run"
        sw = tmp_path / "sw"
        assert cli.main(["train", "--config", cfgp, "--out", str(run)]) == 0
        assert cli.main(["sweep", "--config", cfgp, "--out", str(sw),
                         "--beta-grid", "0"]) == 0
        finals = {}
        for ln in (run / "history.csv").read_text().splitlines()[1:]:
            seed, _, _, _, macc, pacc = ln.split(",")
            if macc:
                finals[seed] = (macc, pacc)
        for ln in (sw / "sweep.csv").read_text().splitlines()[1:]:
            beta, seed, macc, pacc = ln.split(",")
            assert beta == "0"
            assert (macc, pacc) == finals[seed]

    def test_requires_single_loss_variant(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["losses"].append({"name": "b", "kind": "smoothed"})
        cfgp = write_config(tmp_path, doc)
        assert cli.main(["sweep", "--config", cfgp,
                         "--out", str(tmp_path / "sw")]) == 2

    @pytest.mark.parametrize("grid", ["0,-1", "0,abc", "", "nan",
                                      "0.5,0.5", "1,1.0"])
    def test_bad_grids_rejected(self, tmp_path, grid):
        cfgp = write_config(tmp_path, TINY)
        assert cli.main(["sweep", "--config", cfgp,
                         "--out", str(tmp_path / "sw"),
                         "--beta-grid", grid]) == 2

    @pytest.mark.parametrize("grid", ["", ","])
    def test_empty_grid_part_is_not_a_number(self, tmp_path, capsys, grid):
        # str.split always yields a part, and an empty one fails float()
        cfgp = write_config(tmp_path, TINY)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", cfgp, "--out", str(out),
                         "--beta-grid", grid]) == 2
        assert "config error: beta-grid: '' is not a number\n" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_in_grid_writes_zero(self, tmp_path):
        cfgp = write_config(tmp_path, TINY)
        outs = []
        for grid in ("0,1", "-0,1"):
            outs.append(tmp_path / grid)
            assert cli.main(["sweep", "--config", cfgp, "--out", str(outs[-1]),
                             f"--beta-grid={grid}"]) == 0
        text = (outs[1] / "sweep.csv").read_bytes()
        assert b"-0" not in text
        assert text == (outs[0] / "sweep.csv").read_bytes()

    def test_default_grid_is_the_sixteen_point_ramp(self):
        assert cli.DEFAULT_BETA_GRID == tuple(i * 0.125 for i in range(16))
        assert len(cli.DEFAULT_BETA_GRID) == 16
        assert cli.DEFAULT_BETA_GRID[-1] == 1.875


class TestVerifyCommand:
    def test_single_suite_prints_one_line(self, capsys):
        assert cli.main(["verify", "--suite", "fig1b"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert out[0].startswith("PASS fig1b")
        assert "max_err=" in out[0]

    def test_unknown_suite_is_config_error(self, capsys):
        # an empty name is a name too, not a request for every suite
        for suite in ("nope", ""):
            assert cli.main(["verify", "--suite", suite]) == 2
            captured = capsys.readouterr()
            assert f"unknown suite {suite!r}" in captured.err
            assert captured.out == ""

    def test_corrupted_spectral_pairing_fails_sandwich_suite(
            self, capsys, monkeypatch):
        true_eig_dot = simgeom.eig_dot

        def flipped(values_a, values_b, sense):
            return -true_eig_dot(values_a, values_b, sense)

        monkeypatch.setattr(simgeom, "eig_dot", flipped)
        assert cli.main(["verify", "--suite", "sandwich"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL sandwich")

    def test_oracle_one_ulp_off_fails_lap_exact_suite(
            self, capsys, monkeypatch):
        true_oracle = assignment.brute_force_lap

        def one_ulp_up(s, sense="min"):
            res = true_oracle(s, sense)
            return dataclasses.replace(
                res, cost=float(np.nextafter(res.cost, np.inf)))

        monkeypatch.setattr(assignment, "brute_force_lap", one_ulp_up)
        assert cli.main(["verify", "--suite", "lap_exact"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL lap_exact")

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_runs_as_python_module(self):
        done = run_module("verify", "--suite", "lap_exact")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("PASS lap_exact")


class TestForceAndPaths:
    def test_out_path_colliding_with_file_rejected(self, tmp_path):
        cfgp = write_config(tmp_path, TINY)
        blocker = tmp_path / "blocked"
        blocker.write_text("x")
        assert cli.main(["train", "--config", cfgp,
                         "--out", str(blocker)]) == 2

    def test_out_path_below_a_file_rejected(self, tmp_path):
        # mkdir fails with NotADirectoryError; that is a config error
        # naming out, not a traceback
        cfgp = write_config(tmp_path, TINY)
        blocker = tmp_path / "blocked"
        blocker.write_text("x")
        done = run_module("train", "--config", cfgp, "--out", str(blocker / "sub"))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith(f"config error: out: {blocker / 'sub'}: ")
        assert "Traceback" not in done.stderr
        assert blocker.read_text() == "x"

    def test_nested_out_dirs_created(self, tmp_path):
        cfgp = write_config(tmp_path, TINY)
        out = tmp_path / "a" / "b" / "c"
        assert cli.main(["train", "--config", cfgp, "--out", str(out)]) == 0
        assert (out / "summary.json").exists()


class TestBlasThreads:
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # one machine, BLAS on one thread and on its default count
        doc = {
            "data": {"seed": 3},
            "train": {"epochs": 3},
            "losses": [
                {"name": "infonce+qare", "kind": "infonce", "beta": 1.0},
                {"name": "cosine+qare", "kind": "infonce", "beta": 1.0,
                 "mode": "cosine"},
                {"name": "margin", "kind": "margin", "mining": "one-to-one",
                 "beta": 0.0},
            ],
            "seeds": [0],
        }
        cfgp = write_config(tmp_path, doc)
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
        pinned = run_module("train", "--config", cfgp, "--out",
                            str(tmp_path / "pinned"), unset=blas_vars,
                            OPENBLAS_NUM_THREADS="1")
        free = run_module("train", "--config", cfgp, "--out",
                          str(tmp_path / "free"), unset=blas_vars)
        assert pinned.returncode == 0, pinned.stderr
        assert free.returncode == 0, free.stderr
        assert pinned.stdout == free.stdout
        for name in ("history.csv", "summary.json"):
            assert ((tmp_path / "pinned" / name).read_bytes()
                    == (tmp_path / "free" / name).read_bytes())


class TestSummaryAggregation:
    def test_two_variants_three_seeds_get_mean_and_std(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["seeds"] = [0, 1, 2]
        doc["losses"] = [
            {"name": "infonce", "kind": "infonce", "beta": 0.0},
            {"name": "infonce+qare", "kind": "infonce", "beta": 1.0},
        ]
        cfgp = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfgp, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["variants"]) == {"infonce", "infonce+qare"}
        for v in summary["variants"].values():
            assert v["seeds"] == [0, 1, 2]
            for metric in ("matching_accuracy", "probe_accuracy"):
                assert set(v[metric]) == {"mean", "std"}
                assert v[metric]["std"] >= 0.0
