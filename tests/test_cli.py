import argparse
import builtins
import csv
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from qude import cli, dynamics, metrics, models, qcore, tomography, train

import loop_oracle
import states
from conftest import within

BASE_CONFIG = """\
[device]
omega01_GHz = 3.448
T1_us = 214.0
T2_us = 32.0
base_model = lindblad

[experiments]
n_experiments = 2
p_max_MHz = 3.47
duration_us = 1.0
sample_dt_ns = 20.0
shots = 500
seed = 11

[latent]
ansatz = sp
alpha_kHz = 0.15, 2.18, 5.66
gamma_inv_us = 1686, 1686, 688

[training]
ansatz = sp
mode = exp-gen
train_horizon_us = 0.5
adam_epochs = 5
adam_batch = 2
lbfgs_max_iters = 30
dt_internal_ns = 4.0
seed = 3

[output]
directory = out
"""


@pytest.fixture()
def config_path(tmp_path: Path) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def write_config(tmp_path: Path, text: str, name: str = "run.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


# fault -> (verb, config edit (old, new), key the message must name): values
# that are cast when the config is loaded, whether or not the verb reads them,
# and values that cast but are out of range
BAD_VALUES = {
    "gamma-mode-typo": ("train", ("mode = exp-gen", "mode = exp-gen\ngamma_mode = sigend"),
                        "gamma_mode"),
    "unknown-ansatz": ("train", ("ansatz = sp\nmode", "ansatz = sigma\nmode"), "ansatz"),
    "shots-not-a-number": ("train", ("shots = 500", "shots = many"), "shots"),
    "dim-not-a-number": ("train", ("base_model = lindblad", "base_model = lindblad\ndim = two"),
                         "dim"),
    "epochs-not-an-integer": ("generate", ("adam_epochs = 5", "adam_epochs = 5.5"), "adam_epochs"),
    "shot-mode-typo-noiseless": ("generate", ("shots = 500", "shots = 0\nshot_mode = perr-axis"),
                                 "shot_mode"),
    "bare-percent-sign": ("generate", ("p_max_MHz = 3.47", "p_max_MHz = 3.47%"), "'%'"),
    "gamma-inv-negative": ("generate", ("1686, 1686, 688", "1686, 1686, -688"),
                           "[latent] gamma_inv_us"),
    "gamma-inv-entry-count": ("generate", ("1686, 1686, 688", "1686, 688"),
                              "[latent] gamma_inv_us"),
    "alpha-entry-count": ("generate", ("0.15, 2.18, 5.66", "0.15, 2.18, 5.66, 1.0"),
                          "[latent] alpha_kHz"),
    "duration-infinite": ("generate", ("duration_us = 1.0", "duration_us = inf"),
                          "[experiments] duration_us"),
    "duration-nan": ("train", ("duration_us = 1.0", "duration_us = nan"),
                     "[experiments] duration_us"),
    "sample-dt-infinite": ("generate", ("sample_dt_ns = 20.0", "sample_dt_ns = inf"),
                           "[experiments] sample_dt_ns"),
    "no-experiments": ("generate", ("n_experiments = 2", "n_experiments = 0"),
                       "[experiments] n_experiments"),
    "negative-experiments": ("generate", ("n_experiments = 2", "n_experiments = -1"),
                             "[experiments] n_experiments"),
    "p-max-zero": ("generate", ("p_max_MHz = 3.47", "p_max_MHz = 0"), "[experiments] p_max_MHz"),
    "p-max-negative": ("generate", ("p_max_MHz = 3.47", "p_max_MHz = -3.47"),
                       "[experiments] p_max_MHz"),
    "shots-negative": ("generate", ("shots = 500", "shots = -5"), "[experiments] shots"),
    "shots-past-2**53": ("generate", ("shots = 500", f"shots = {2**53 + 1}"),
                         "[experiments] shots"),
    "shots-too-few-to-split": ("generate", ("shots = 500", "shots = 2\nshot_mode = split"),
                               "[experiments] shots"),
    # device values must be finite: NaN would integrate to a non-finite state, and an
    # infinite T1 would be written to the manifest as Infinity, which is not JSON
    "t1-nan": ("generate", ("T1_us = 214.0", "T1_us = nan"), "bad [device]: T1_us must be finite"),
    "t1-infinite": ("generate", ("T1_us = 214.0", "T1_us = inf"),
                    "bad [device]: T1_us must be finite"),
    "t2-nan": ("generate", ("T2_us = 32.0", "T2_us = nan"), "bad [device]: T2_us must be finite"),
    "omega01-infinite": ("generate", ("omega01_GHz = 3.448", "omega01_GHz = inf"),
                         "bad [device]: omega01_GHz must be finite"),
    "omega-rot-infinite": ("generate", ("omega01_GHz = 3.448", "omega01_GHz = 3.448\n"
                                        "omega_rot_GHz = -inf"),
                           "bad [device]: omega_rot_GHz must be finite"),
    "alpha-nan": ("generate", ("0.15, 2.18, 5.66", "0.15, nan, 5.66"), "[latent] alpha_kHz"),
    "alpha-infinite": ("generate", ("0.15, 2.18, 5.66", "0.15, 2.18, inf"), "[latent] alpha_kHz"),
    "adam-lr-nan": ("train", ("adam_epochs = 5", "adam_epochs = 5\nadam_lr = nan"),
                    "bad [training]: adam_lr"),
    "adam-lr-infinite": ("train", ("adam_epochs = 5", "adam_epochs = 5\nadam_lr = inf"),
                         "bad [training]: adam_lr"),
    "adam-epochs-negative": ("train", ("adam_epochs = 5", "adam_epochs = -1"),
                             "bad [training]: adam_epochs"),
    "lbfgs-iters-negative": ("train", ("lbfgs_max_iters = 30", "lbfgs_max_iters = -1"),
                             "bad [training]: lbfgs_max_iters"),
    "experiments-seed-negative": ("generate", ("seed = 11", "seed = -11"), "[experiments] seed"),
    "training-seed-negative": ("train", ("seed = 3", "seed = -3"), "bad [training]: seed"),
    "base-model-typo": ("generate", ("base_model = lindblad", "base_model = lindblat"),
                        "[device] base_model"),
    "hidden-layers-negative": ("train", ("mode = exp-gen", "mode = exp-gen\nhidden_layers = -1"),
                               "[training] hidden_layers"),
    # past cli.MAX_HIDDEN_LAYERS; read (and bounded) whatever the ansatz
    "hidden-layers-huge": ("train", ("mode = exp-gen",
                                     "mode = exp-gen\nhidden_layers = 1000000000"),
                           "[training] hidden_layers"),
    "dt-internal-nan": ("generate", ("dt_internal_ns = 4.0", "dt_internal_ns = nan"),
                        "[training] dt_internal_ns"),
    "dt-internal-not-dividing": ("generate", ("dt_internal_ns = 4.0", "dt_internal_ns = 3.0"),
                                 "[training] dt_internal_ns"),
    # 2e301 substeps per sample, past dynamics.MAX_SUBSTEPS
    "dt-internal-tiny-generate": ("generate", ("dt_internal_ns = 4.0", "dt_internal_ns = 1e-300"),
                                  "'[training] dt_internal_ns'"),
    "dt-internal-tiny-train": ("train", ("dt_internal_ns = 4.0", "dt_internal_ns = 1e-300"),
                               "'[training] dt_internal_ns'"),
    "sample-dt-not-dividing": ("generate", ("sample_dt_ns = 20.0", "sample_dt_ns = 30.0"),
                               "[experiments] sample_dt_ns"),
    "train-horizon-nan": ("train", ("train_horizon_us = 0.5", "train_horizon_us = nan"),
                          "[training] train_horizon_us"),
    "train-horizon-negative": ("train", ("train_horizon_us = 0.5", "train_horizon_us = -1"),
                               "[training] train_horizon_us"),
}


class TestConfig:
    def test_missing_file(self, tmp_path):
        assert run("generate", "--config", tmp_path / "nope.cfg", "--out", tmp_path) == 2

    def test_missing_required_field(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[device]\nT1_us = 10\nT2_us = 5\n\n[experiments]\nduration_us = 1\n")
        assert run("generate", "--config", bad, "--out", tmp_path / "o") == 2

    def test_bad_value_reports_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(BASE_CONFIG.replace("T1_us = 214.0", "T1_us = soon"))
        assert run("generate", "--config", bad, "--out", tmp_path / "o") == 2
        assert "T1_us" in capsys.readouterr().err

    def test_device_section_parsing(self, config_path):
        cfg = cli.RunConfig.load(config_path)
        dev = cfg.device()
        assert dev.omega01_GHz == 3.448
        assert dev.omega_rot_GHz == 3.448
        assert dev.base_kind == "lindblad"

    def test_latent_source_units(self, config_path):
        cfg = cli.RunConfig.load(config_path)
        src = cfg.latent_source()
        np.testing.assert_allclose(
            src.alpha, 2 * np.pi * 1e-3 * np.array([0.15, 2.18, 5.66])
        )
        np.testing.assert_allclose(src.gammas, [1 / 1686, 1 / 1686, 1 / 688], rtol=1e-12)

    NO_OVERRIDES = SimpleNamespace(mode=None, seed=None)

    def test_training_defaults_are_train_config_defaults(self, tmp_path):
        path = tmp_path / "plain.cfg"
        path.write_text("[training]\nansatz = affine\ntrain_horizon_us = 0.5\n")
        assert cli.RunConfig.load(path).train_config(self.NO_OVERRIDES) == train.TrainConfig()

    def test_every_training_key_is_read(self, tmp_path):
        values = dict(mode="exp-spec", experiment_id="exp-001", adam_lr=0.02, adam_epochs=7,
                      adam_batch=3, lbfgs_max_iters=9, dt_internal_ns=2.0, seed=5)
        assert set(values) == {f.name for f in fields(train.TrainConfig)}
        path = tmp_path / "full.cfg"
        path.write_text("[training]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        cfg = cli.RunConfig.load(path)
        assert cfg.train_config(self.NO_OVERRIDES) == train.TrainConfig(**values)
        overridden = cfg.train_config(SimpleNamespace(mode="exp-gen", seed=8))
        assert overridden == replace(train.TrainConfig(**values), mode="exp-gen", seed=8)

    @pytest.mark.parametrize("fault", sorted(BAD_VALUES))
    def test_bad_value_exits_2(self, config_path, tmp_path, capsys, fault):
        verb, edit, key = BAD_VALUES[fault]
        extra = []
        if verb == "train":
            assert run("generate", "--config", config_path, "--out", tmp_path / "data") == 0
            extra = ["--dataset", tmp_path / "data" / "manifest.json"]
        bad = write_config(tmp_path, BASE_CONFIG.replace(*edit), "bad.cfg")
        capsys.readouterr()
        with within(10):
            assert run(verb, "--config", bad, "--out", tmp_path / "o", *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "bad.cfg" in err and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fault", sorted(f for f, (_, _, key) in BAD_VALUES.items()
                                             if key.startswith("bad [training]")))
    def test_generate_checks_training_values(self, config_path, tmp_path, capsys, monkeypatch,
                                             fault):
        """generate trains nothing, yet rejects the [training] values train would,
        before an amplitude is drawn (a draw raises here) or a file written."""
        _, edit, key = BAD_VALUES[fault]

        def no_draws(*_):
            raise AssertionError("amplitudes drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        bad = write_config(tmp_path, BASE_CONFIG.replace(*edit), "bad.cfg")
        assert run("generate", "--config", bad, "--out", tmp_path / "o", "--seed", 4) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "bad.cfg" in err and key in err, err
        assert not (tmp_path / "o").exists()

    def test_experiment_count_is_bounded_before_drawing(self, config_path, tmp_path, capsys,
                                                        monkeypatch):
        """A count of hundreds of digits exits 2 at once: no amplitude is drawn (a draw
        raises here), nothing is written."""

        def no_draws(*_):
            raise AssertionError("amplitudes drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for count in (10**400, cli.MAX_EXPERIMENTS + 1):
            text = BASE_CONFIG.replace("n_experiments = 2", f"n_experiments = {count}")
            start = time.perf_counter()
            assert run("generate", "--config", write_config(tmp_path, text), "--out",
                       tmp_path / "o") == 2
            assert time.perf_counter() - start < 0.5
            assert "'[experiments] n_experiments'" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_sample_bound_leaves_room(self, tmp_path):
        """A config of a hundred times the 5 x 12,500 samples of criterion 09 and the
        chain-twin50 benchmark, the largest the criteria and the benchmark
        generate, passes cli.MAX_SAMPLES."""
        text = (BASE_CONFIG.replace("n_experiments = 2", "n_experiments = 5")
                .replace("duration_us = 1.0", "duration_us = 5000.0")
                .replace("sample_dt_ns = 20.0", "sample_dt_ns = 4.0"))
        assert cli.RunConfig.load(write_config(tmp_path, text)).get("experiments",
                                                                    "duration_us") == 5000.0

    def test_readme_library_block_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library use\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert isinstance(namespace["problem"], train.Problem)
        assert namespace["report"].model == "sp"
        assert "T1" in capsys.readouterr().out

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = cli.RunConfig.load(write_config(tmp_path, block))
        assert cfg.device().T1_us == 214.0
        assert cfg.latent_source().kind == models.KIND_SP
        assert cfg.train_config(self.NO_OVERRIDES).adam_epochs == 300

    @pytest.mark.parametrize("verb, section, key", [
        ("train", "training", "adam_epoch"),
        ("train", "training", "grad_method"),
        ("generate", "device", "T3_us"),
        ("generate", "experiments", "n_experiment"),
        ("generate", "latent", "alpha"),
        ("generate", "output", "dir"),
    ])
    def test_unknown_key_exits_2(self, tmp_path, capsys, verb, section, key):
        path = tmp_path / "typo.cfg"
        path.write_text(BASE_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
        extra = ["--dataset", tmp_path / "manifest.json"] if verb == "train" else []
        assert run(verb, "--config", path, "--out", tmp_path / "o", *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"unknown key [{section}] {key.lower()}" in err

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text(BASE_CONFIG.replace("[training]", "[trainig]"))
        assert run("generate", "--config", path, "--out", tmp_path / "o") == 2
        assert "unknown section [trainig]" in capsys.readouterr().err

    def test_known_keys_are_the_keys_read(self, config_path, tmp_path, monkeypatch):
        """generate and train without overrides read every key of RunConfig.SCHEMA."""
        read = set()
        original = cli.RunConfig.get

        def spy(self, section, key, *args):
            read.add((section, key))
            return original(self, section, key, *args)

        monkeypatch.setattr(cli.RunConfig, "get", spy)
        monkeypatch.chdir(tmp_path)  # [output] directory is relative
        assert run("generate", "--config", config_path) == 0
        assert run("train", "--config", config_path, "--dataset", "out/manifest.json") == 0
        assert read == {(section, key) for section, keys in cli.RunConfig.SCHEMA.items()
                        for key in keys}

    def test_json_keys_read_are_the_keys_written(self, config_path, tmp_path, monkeypatch):
        """Every REQUIRED key of cli.MANIFEST_KEYS and cli.MODEL_KEYS, nested tables
        included, is in every manifest generate writes and every model train writes
        (sp, affine, nonlinear), and every other declared key is in one of them."""
        monkeypatch.chdir(tmp_path)
        assert run("generate", "--config", config_path) == 0
        quick = write_config(tmp_path, BASE_CONFIG.replace("adam_epochs = 5", "adam_epochs = 1")
                             .replace("lbfgs_max_iters = 30", "lbfgs_max_iters = 1"), "quick.cfg")
        models_written = []
        for kind in models.KINDS:
            assert run("train", "--config", quick, "--dataset", "out/manifest.json",
                       "--ansatz", kind, "--out", kind) == 0
            models_written.append(json.loads((tmp_path / kind / "model.json").read_text()))

        def held(table, obj, where=""):
            """The key paths of ``table`` that the JSON object ``obj`` holds."""
            for key, row in table.items():
                if key in obj:
                    yield where + key
                    if isinstance(row, dict):
                        yield from held(row, obj[key], f"{where}{key}.")
                    elif isinstance(row, list):  # [table]: each entry holds them
                        yield from set.intersection(*(set(held(row[0], entry, f"{where}{key}[]."))
                                                      for entry in obj[key]))

        def declared(table, where=""):
            """(key path, whether it is REQUIRED) of every key of ``table``."""
            for key, row in table.items():
                nested = row if isinstance(row, dict) else row[0] if isinstance(row, list) else None
                yield where + key, nested is not None or row[1] is cli.REQUIRED
                if nested is not None:
                    yield from declared(nested, f"{where}{key}[]." if isinstance(row, list)
                                        else f"{where}{key}.")

        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for table, objects in ((cli.MANIFEST_KEYS, [manifest]), (cli.MODEL_KEYS, models_written)):
            files = [set(held(table, obj)) for obj in objects]
            for key, is_required in declared(table):
                assert all(key in keys for keys in files) if is_required else any(
                    key in keys for keys in files), key


class TestGenerate:
    def test_dataset_layout(self, config_path, tmp_path):
        out = tmp_path / "data"
        assert run("generate", "--config", config_path, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == "qude-dataset-v1"
        assert manifest["seed"] == 11
        assert len(manifest["config_sha256"]) == 64
        assert len(manifest["experiments"]) == 2
        for entry in manifest["experiments"]:
            assert entry["n_records"] == 50
            lines = (out / entry["file"]).read_text().splitlines()
            assert len(lines) == 50
            row = json.loads(lines[0])
            assert set(row) == {"exp_id", "amplitude_MHz", "time_us", "shots", "kx", "ky", "kz"}
            assert row["shots"] == 500

    def test_qutrit_device_is_rejected(self, tmp_path, capsys):
        """Tomography measures qubits: 4 samples of 3x3 states must not pass as 9 records."""
        text = (BASE_CONFIG.replace("base_model = lindblad", "base_model = lindblad\ndim = 3")
                .replace("ansatz = sp\nalpha_kHz", "ansatz = none\nalpha_kHz")
                .replace("n_experiments = 2", "n_experiments = 1")
                .replace("duration_us = 1.0", "duration_us = 0.08"))
        out = tmp_path / "data"
        assert run("generate", "--config", write_config(tmp_path, text), "--out", out) == 2
        assert "dim 3" in capsys.readouterr().err
        assert not out.exists()

    def test_large_device_dim_is_rejected_before_integrating(self, tmp_path, capsys):
        """dim = 60 at the base sizes would integrate 3600 coefficients per state
        for every experiment before tomography could refuse them: the config is
        refused first, naming the file and the key."""
        text = (BASE_CONFIG.replace("base_model = lindblad", "base_model = lindblad\ndim = 60")
                .replace("ansatz = sp\nalpha_kHz", "ansatz = none\nalpha_kHz"))
        config = write_config(tmp_path, text)
        out = tmp_path / "data"
        with within(1):
            assert run("generate", "--config", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "'[device] dim'" in err and "dim 60" in err
        assert not out.exists()

    def test_grid_past_the_duration_is_rejected(self, tmp_path, capsys):
        """50 samples of 20.00000001 ns end 5e-10 us past 1 us, which no loader accepts."""
        text = (BASE_CONFIG.replace("sample_dt_ns = 20.0", "sample_dt_ns = 20.00000001")
                .replace("dt_internal_ns = 4.0", "dt_internal_ns = 20.00000001"))
        out = tmp_path / "data"
        assert run("generate", "--config", write_config(tmp_path, text), "--out", out) == 2
        assert "past the duration" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_reconstructs_no_state(self, config_path, tmp_path, monkeypatch):
        """generate writes counts, not states: the spectral filter never runs."""
        calls, spectral_filter_many = [], qcore.spectral_filter_many
        monkeypatch.setattr(qcore, "spectral_filter_many",
                            lambda *a: calls.append(a) or spectral_filter_many(*a))
        assert run("generate", "--config", config_path, "--out", tmp_path / "data") == 0
        assert calls == []

    def test_amplitudes_in_range(self, config_path, tmp_path):
        out = tmp_path / "data"
        run("generate", "--config", config_path, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["experiments"]:
            assert 0.0 < entry["amplitude_p_MHz"] <= 3.47

    def test_seed_determinism(self, config_path, tmp_path):
        run("generate", "--config", config_path, "--out", tmp_path / "a")
        run("generate", "--config", config_path, "--out", tmp_path / "b")
        for name in ("manifest.json", "exp-000.jsonl", "exp-001.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_shot_mode(self, config_path, tmp_path):
        noiseless = tmp_path / "clean.cfg"
        noiseless.write_text(BASE_CONFIG.replace("shots = 500", "shots = 0"))
        out = tmp_path / "data"
        assert run("generate", "--config", noiseless, "--out", out) == 0
        row = json.loads((out / "exp-000.jsonl").read_text().splitlines()[0])
        assert row["shots"] == 0
        assert 0.0 <= row["kx"] <= 1.0

    def test_dataset_round_trip(self, config_path, tmp_path):
        out = tmp_path / "data"
        run("generate", "--config", config_path, "--out", out)
        dataset, dev, manifest = cli.load_dataset(out / "manifest.json")
        assert len(dataset.experiments) == 2
        assert dev.T1_us == 214.0
        exp, block = dataset.experiments[0]
        assert len(block) == 50
        states.assert_density_matrix(block.rho_hat[0])
        # reconstruction matches a fresh linear inversion of the stored counts
        probs = block.counts[0] / block.shots[0]
        np.testing.assert_allclose(
            block.rho_hat[0], tomography.lie_reconstruct_many(probs[None])[0], atol=1e-12
        )


class TestLatent:
    """``[latent]`` sources of generate: none, the INI's sp rates or a model_file."""

    @staticmethod
    def generate(tmp_path, name: str, model=None, ansatz=None, config=BASE_CONFIG):
        """Exit code and output directory of generate on ``config``, with ``model``
        saved as its ``[latent] model_file`` under ``ansatz`` (the model's own
        by default)."""
        if model is not None:
            config = config.replace("ansatz = sp\nalpha", f"ansatz = {ansatz or model.kind}\n"
                                    f"model_file = {name}.json\nalpha")
            dev = dynamics.DeviceModel(3.448, 214.0, 32.0, dim=model.dim)
            cli.save_model(tmp_path / f"{name}.json", model, dev, "exp-gen", 0.5, 4.0, 0)
        out = tmp_path / name
        return run("generate", "--config", write_config(tmp_path, config, f"{name}.cfg"),
                   "--out", out), out

    @staticmethod
    def latent(out: Path) -> dict:
        return json.loads((out / "manifest.json").read_text())["latent"]

    def test_none(self, tmp_path):
        config = BASE_CONFIG.replace("ansatz = sp\nalpha", "ansatz = none\nalpha")
        code, out = self.generate(tmp_path, "none", config=config)
        assert code == 0 and self.latent(out) == {"ansatz": "none"}

    def test_sp_model_file_is_the_ini_source(self, tmp_path):
        """A model file of the source the INI rates build generates the same records."""
        code, ini = self.generate(tmp_path, "ini")
        planted = cli.RunConfig.load(tmp_path / "ini.cfg").latent_source()
        assert code == 0 and self.generate(tmp_path, "file", planted)[0] == 0
        for name in ("exp-000.jsonl", "exp-001.jsonl"):
            assert (tmp_path / "file" / name).read_bytes() == (ini / name).read_bytes()
        assert self.latent(tmp_path / "file") == self.latent(ini)

    def test_network_model_file_writes_its_params(self, tmp_path):
        code, out = self.generate(tmp_path, "net", models.make_source("nonlinear", seed=4))
        assert code == 0
        params = json.loads((tmp_path / "net.json").read_text())["params"]
        assert self.latent(out) == {"ansatz": "nonlinear", "params": params}

    def test_network_ansatz_needs_a_model_file(self, tmp_path, capsys):
        config = BASE_CONFIG.replace("ansatz = sp\nalpha", "ansatz = affine\nalpha")
        code, out = self.generate(tmp_path, "affine", config=config)
        assert code == 2 and not out.exists()
        assert "latent ansatz 'affine' needs a model_file" in capsys.readouterr().err

    def test_rates_without_lifetimes_are_zero(self, tmp_path):
        """alpha_kHz set and gamma_inv_us empty: the planted source has no dissipation."""
        config = BASE_CONFIG.replace("1686, 1686, 688", "")
        code, out = self.generate(tmp_path, "alpha", config=config)
        assert code == 0
        latent = self.latent(out)
        assert latent["gamma_per_us"] == [0.0, 0.0, 0.0]
        assert latent["alpha_rad_per_us"] == [2e-3 * np.pi * a for a in (0.15, 2.18, 5.66)]

    @pytest.mark.parametrize("model, ansatz, key, found", [
        (models.make_source("sp"), "affine", "'[latent] ansatz' is 'affine'", "'sp'"),
        (models.make_source("sp", dim=3), None, "'[device] dim' is 2", "3"),
    ], ids=["sp-model-as-affine", "qutrit-model-on-a-qubit"])
    def test_model_file_must_match_the_config(self, model, ansatz, key, found, tmp_path, capsys):
        code, out = self.generate(tmp_path, "bad", model, ansatz)
        assert code == 2
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'bad.cfg'}: {key}, but the model {tmp_path / 'bad.json'} "
                f"('[latent] model_file') has {found}") in err, err
        assert not out.exists()


def dumped_rows(exp: dynamics.Experiment, block: tomography.RecordBlock) -> bytes:
    """The json.dumps of each record's dict, one line each: counts of a row with
    shots as ints, the exact probabilities of a noiseless row as floats."""
    return "".join(
        json.dumps({"exp_id": exp.id, "amplitude_MHz": exp.amplitude_p_MHz,
                    "time_us": t, "shots": n, "kx": kx, "ky": ky, "kz": kz}) + "\n"
        for t, n, (kx, ky, kz) in zip(
            block.times_us.tolist(), block.shots.tolist(),
            [row if n == 0 else [int(k) for k in row]
             for n, row in zip(block.shots.tolist(), block.counts.tolist())],
        )
    ).encode()


class TestDatasetRoundTrip:
    @pytest.mark.parametrize("shots", [500, 0])
    def test_load_returns_the_simulated_arrays(self, config_path, tmp_path, shots):
        dev = cli.RunConfig.load(config_path).device()
        exps = [dynamics.Experiment(f"exp-{i:03d}", amp, duration_us=1.0, sample_dt_ns=20.0)
                for i, amp in enumerate([0.7, 2.9])]
        blocks = [
            tomography.simulate_records(dynamics.integrate_rk4(dev, exp), shots,
                                        np.random.default_rng(i))
            for i, exp in enumerate(exps)
        ]
        manifest = cli.write_dataset(tmp_path / "data", dev, list(zip(exps, blocks)), seed=0,
                                     config_sha="0" * 64, shots=shots, shot_mode="per-axis",
                                     dt_internal_ns=4.0, latent_info={"ansatz": "none"})
        with_table, _, _ = cli.load_dataset(manifest)
        (manifest.parent / cli.RECORD_TABLE).unlink()
        without_table, _, _ = cli.load_dataset(manifest)
        for dataset in (with_table, without_table):
            for block, (exp, loaded) in zip(blocks, dataset.experiments):
                for column in ("times_us", "shots", "counts", "probs", "rho_hat"):
                    original, back = getattr(block, column), getattr(loaded, column)
                    assert back.dtype == original.dtype, column
                    assert back.tobytes() == original.tobytes(), column

    def test_non_integral_count_is_rejected(self, config_path, tmp_path):
        """A count of a row with shots is written as an int, so 50.5 must not pass as 50."""
        dev = cli.RunConfig.load(config_path).device()
        exp = dynamics.Experiment("exp-004", 1.0, duration_us=0.04, sample_dt_ns=20.0)
        block = tomography.RecordBlock.from_counts([0.02, 0.04], [0, 100],
                                                   [[0.5, 0.5, 0.0], [50.5, 50, 50]])
        with pytest.raises(ValueError, match="experiment exp-004 row 1: counts"):
            cli.write_dataset(tmp_path / "data", dev, [(exp, block)], seed=0,
                              config_sha="0" * 64, shots=100, shot_mode="per-axis",
                              dt_internal_ns=4.0, latent_info={"ansatz": "none"})
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("shots", [500, 0])
    def test_rows_are_json_dumps_of_each_record(self, config_path, tmp_path, shots):
        dev = cli.RunConfig.load(config_path).device()
        exp = dynamics.Experiment("exp-007", 1.0 / 3.0, duration_us=1.0, sample_dt_ns=20.0)
        block = tomography.simulate_records(dynamics.integrate_rk4(dev, exp), shots,
                                            np.random.default_rng(3))
        cli.write_dataset(tmp_path / "data", dev, [(exp, block)], seed=0, config_sha="0" * 64,
                          shots=shots, shot_mode="per-axis", dt_internal_ns=4.0,
                          latent_info={"ansatz": "none"})
        assert (tmp_path / "data" / "exp-007.jsonl").read_bytes() == dumped_rows(exp, block)

    @pytest.mark.parametrize("chunk_rows", [3, cli.CHUNK_ROWS])
    def test_rows_across_chunks_are_json_dumps_of_each_record(self, config_path, tmp_path,
                                                              monkeypatch, chunk_rows):
        """1250 rows, noiseless (shots == 0) in runs of 3 among runs of 4 with shots, so
        that chunks of 3 rows are all noiseless, all shots or mixed, and the 1024-row
        boundary falls inside a noiseless run: the file holds the json.dumps of each
        row, and the rows load back with and without the record table."""
        boundary = cli.CHUNK_ROWS
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
        dev = cli.RunConfig.load(config_path).device()
        exp = dynamics.Experiment("exp-007", 1.0 / 3.0, duration_us=5.0, sample_dt_ns=4.0)
        traj = dynamics.integrate_rk4(dev, exp)
        drawn = tomography.simulate_records(traj, 500, np.random.default_rng(3))
        exact = tomography.simulate_records(traj, 0, np.random.default_rng(3))
        noiseless = np.arange(len(traj)) % 7 < 3
        assert noiseless[boundary - 1 : boundary + 1].all()
        block = tomography.RecordBlock.from_counts(
            traj.times_us, np.where(noiseless, 0, drawn.shots),
            np.where(noiseless[:, None], exact.counts, drawn.counts))
        manifest = cli.write_dataset(tmp_path / "data", dev, [(exp, block)], seed=0,
                                     config_sha="0" * 64, shots=500, shot_mode="per-axis",
                                     dt_internal_ns=4.0, latent_info={"ansatz": "none"})
        assert (tmp_path / "data" / "exp-007.jsonl").read_bytes() == dumped_rows(exp, block)
        with_table, _, _ = cli.load_dataset(manifest)
        (manifest.parent / cli.RECORD_TABLE).unlink()
        without_table, _, _ = cli.load_dataset(manifest)
        for dataset in (with_table, without_table):
            (_, loaded), = dataset.experiments
            for column in ("times_us", "shots", "counts", "probs"):
                original, back = getattr(block, column), getattr(loaded, column)
                assert back.dtype == original.dtype, column
                assert back.tobytes() == original.tobytes(), column


class TestTrainEvaluate:
    @pytest.fixture()
    def dataset_dir(self, config_path, tmp_path) -> Path:
        out = tmp_path / "data"
        run("generate", "--config", config_path, "--out", out)
        return out

    def test_pipeline(self, config_path, dataset_dir, tmp_path, capsys):
        fit_dir = tmp_path / "fit"
        assert (
            run(
                "train", "--config", config_path,
                "--dataset", dataset_dir / "manifest.json", "--out", fit_dir,
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "final train loss" in printed
        assert "final validation loss" in printed

        model = json.loads((fit_dir / "model.json").read_text())
        assert model["schema"] == "qude-model-v1"
        assert model["ansatz"] == "sp"
        assert len(model["params"]) == 6
        assert model["train_horizon_us"] == 0.5

        log_lines = (fit_dir / "training_log.csv").read_text().splitlines()
        assert log_lines[0] == "iteration,phase,loss,grad_norm,elapsed_s"
        assert any(",adam," in line for line in log_lines[1:])
        assert any(",lbfgs," in line for line in log_lines[1:])

        eval_dir = tmp_path / "eval"
        assert (
            run(
                "evaluate", "--model", fit_dir / "model.json",
                "--dataset", dataset_dir / "manifest.json", "--out", eval_dir,
            )
            == 0
        )
        for name in ("moments.csv", "histogram.csv", "energy.csv", "expected_trace_distance.csv"):
            assert (eval_dir / name).is_file()
        moments = (eval_dir / "moments.csv").read_text().splitlines()
        assert moments[0] == "model,split,mean,stddev,count"
        assert len(moments) == 3  # header + interpolation + extrapolation

    def test_model_round_trip(self, config_path, dataset_dir, tmp_path):
        fit_dir = tmp_path / "fit"
        run("train", "--config", config_path, "--dataset", dataset_dir / "manifest.json",
            "--out", fit_dir)
        source, data = cli.load_model(fit_dir / "model.json")
        assert source.kind == "sp"
        np.testing.assert_array_equal(source.pack(), np.asarray(data["params"]))

    def test_evaluate_base_model(self, dataset_dir, tmp_path):
        out = tmp_path / "eval-base"
        assert (
            run("evaluate", "--model", "base", "--dataset", dataset_dir / "manifest.json",
                "--out", out) == 0
        )
        moments = (out / "moments.csv").read_text()
        assert "base,interpolation" in moments

    def test_evaluate_base_uses_the_manifest_internal_step(self, tmp_path, capsys):
        """A 2 ns dataset generated at a 2 ns internal step evaluates the base model
        at that step; an absent key means 4 ns, a bad one is a data error."""
        fine = BASE_CONFIG.replace("sample_dt_ns = 20.0", "sample_dt_ns = 2.0").replace(
            "dt_internal_ns = 4.0", "dt_internal_ns = 2.0")
        assert run("generate", "--config", write_config(tmp_path, fine), "--out",
                   tmp_path / "data") == 0
        manifest = tmp_path / "data" / "manifest.json"

        def evaluate_base() -> tuple[int, str]:
            capsys.readouterr()
            with within(10):
                code = run("evaluate", "--model", "base", "--dataset", manifest,
                           "--out", tmp_path / "eval")
            return code, capsys.readouterr().err

        assert evaluate_base()[0] == 0
        dataset, dev, _ = cli.load_dataset(manifest)
        report, _ = metrics.evaluate_model("base", dev, None, dataset.experiments, 1.0, 2.0)
        (row,) = report.moments
        assert (tmp_path / "eval" / "moments.csv").read_text().splitlines()[1] == (
            f"base,interpolation,{row.mean!r},{row.stddev!r},{row.count}")

        data = json.loads(manifest.read_text())
        for step in ("soon", 1e-300):  # 1e-300: 2e300 substeps, past dynamics.MAX_SUBSTEPS
            manifest.write_text(json.dumps({**data, "dt_internal_ns": step}))
            code, err = evaluate_base()
            assert code == 2 and "manifest.json" in err and "'dt_internal_ns'" in err, err
        del data["dt_internal_ns"]
        manifest.write_text(json.dumps(data))
        code, err = evaluate_base()
        assert code == 2 and "internal step 4.0 ns" in err, err  # the default, 4 ns, is used

    def test_evaluate_deterministic(self, config_path, dataset_dir, tmp_path):
        fit_dir = tmp_path / "fit"
        run("train", "--config", config_path, "--dataset", dataset_dir / "manifest.json",
            "--out", fit_dir)
        for tag in ("e1", "e2"):
            run("evaluate", "--model", fit_dir / "model.json",
                "--dataset", dataset_dir / "manifest.json", "--out", tmp_path / tag)
        for name in ("moments.csv", "histogram.csv", "energy.csv", "expected_trace_distance.csv"):
            assert (tmp_path / "e1" / name).read_bytes() == (tmp_path / "e2" / name).read_bytes()

    def test_train_ansatz_override(self, config_path, dataset_dir, tmp_path):
        fit_dir = tmp_path / "fit-affine"
        affine_cfg = config_path.parent / "affine.cfg"
        affine_cfg.write_text(
            BASE_CONFIG.replace("adam_epochs = 5", "adam_epochs = 2").replace(
                "lbfgs_max_iters = 30", "lbfgs_max_iters = 5"
            )
        )
        assert (
            run("train", "--config", affine_cfg, "--dataset", dataset_dir / "manifest.json",
                "--out", fit_dir, "--ansatz", "affine") == 0
        )
        model = json.loads((fit_dir / "model.json").read_text())
        assert model["ansatz"] == "affine"
        assert len(model["params"]) == 20
        assert model["n_layers"] == 1

    def test_reported_losses_match_per_experiment_report(self, config_path, dataset_dir, tmp_path):
        """model.json's losses split each record by its own time, as the fit does:
        a record moved 1e-10 us past T_Tr = 0.1 us lies on its grid point within
        the gate's tolerance, and is a validation record all the same."""
        manifest = dataset_dir / "manifest.json"
        for horizon, moved in ((0.5, None), (0.1, 0.1000000001)):
            if moved is not None:
                rewrite_line(dataset_dir / "exp-000.jsonl", 5, set_fields(time_us=moved))
            fit_dir = tmp_path / f"fit-{horizon}"
            assert run("train", "--config", config_path, "--dataset", manifest, "--out", fit_dir,
                       "--train-horizon-us", horizon) == 0
            source, data = cli.load_model(fit_dir / "model.json")
            dataset, dev, _ = cli.load_dataset(manifest, train_horizon_us=horizon)
            ref = loop_oracle.loss_by_split(dev, source, dataset.experiments, horizon, 4.0)
            got = (data["final_train_loss"], data["final_validation_loss"])
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_exp_spec_mode(self, config_path, dataset_dir, tmp_path):
        fit_dir = tmp_path / "fit-spec"
        assert (
            run("train", "--config", config_path, "--dataset", dataset_dir / "manifest.json",
                "--out", fit_dir, "--mode", "exp-spec") == 0
        )
        model = json.loads((fit_dir / "model.json").read_text())
        assert model["mode"] == "exp-spec"

    def test_exp_spec_model_bytes_with_one_gate(self, config_path, dataset_dir, tmp_path,
                                                monkeypatch):
        """``fit`` gets back the dataset ``train`` restricted, not a second gated
        copy; model.json keeps the bytes that a copy on every restriction gives."""
        argv = ("train", "--config", config_path, "--dataset", dataset_dir / "manifest.json",
                "--mode", "exp-spec", "--out")
        assert run(*argv, tmp_path / "once") == 0
        restrict = train.Dataset.restrict

        def copying(dataset, experiment_id):
            view = restrict(dataset, experiment_id)
            return train.Dataset(view.experiments, view.train_horizon_us, view.total_horizon_us)

        monkeypatch.setattr(train.Dataset, "restrict", copying)
        assert run(*argv, tmp_path / "copied") == 0
        once, copied = (tmp_path / name / "model.json" for name in ("once", "copied"))
        assert once.read_bytes() == copied.read_bytes()


class TestCharacterize:
    @pytest.fixture()
    def sp_model(self, tmp_path) -> Path:
        dev = cli.RunConfig.load(self._write_cfg(tmp_path)).device()
        src = models.StructurePreservingSource(
            dim=2,
            alpha=2 * np.pi * 1e-3 * np.array([0.15, 2.18, 5.66]),
            gamma_raw=np.sqrt([1 / 1686, 1 / 1686, 1 / 688]),
        )
        path = tmp_path / "model.json"
        cli.save_model(path, src, dev, mode="exp-gen", train_horizon_us=10.0,
                       dt_internal_ns=4.0, seed=0)
        return path

    @staticmethod
    def _write_cfg(tmp_path) -> Path:
        path = tmp_path / "run.cfg"
        path.write_text(BASE_CONFIG)
        return path

    def test_planted_model_readout(self, sp_model, tmp_path, capsys):
        assert run("characterize", "--model", sp_model, "--out", tmp_path / "char") == 0
        out = capsys.readouterr().out
        assert "T1_eff" in out and "T2_eff" in out
        payload = json.loads((tmp_path / "char" / "characterization.json").read_text())
        np.testing.assert_allclose(payload["alpha_kHz"], [0.15, 2.18, 5.66], atol=1e-12)
        assert payload["detuning_kHz"] == pytest.approx(-11.32, abs=1e-9)
        assert payload["T1_eff_us"] == pytest.approx(171.0, abs=0.5)
        assert payload["T2_eff_us"] == pytest.approx(27.0, abs=0.5)
        assert payload["inverse_channel_rates_us"][0] == pytest.approx(1686.0)
        assert payload["inverse_channel_rates_us"][1] == pytest.approx(688.0)

    def test_zero_model_identity_report(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        dev = cli.RunConfig.load(cfg).device()
        src = models.StructurePreservingSource(dim=2, alpha=np.zeros(3), gamma_raw=np.zeros(3))
        path = tmp_path / "zero.json"
        cli.save_model(path, src, dev, "exp-gen", 10.0, 4.0, 0)
        assert run("characterize", "--model", path, "--out", tmp_path / "char") == 0
        payload = json.loads((tmp_path / "char" / "characterization.json").read_text())
        assert payload["T1_eff_us"] == pytest.approx(214.0)
        assert payload["T2_eff_us"] == pytest.approx(32.0)
        assert np.all(np.asarray(payload["alpha_kHz"]) == 0.0)

    def test_network_model_rejected(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        dev = cli.RunConfig.load(cfg).device()
        src = models.make_source("affine")
        path = tmp_path / "net.json"
        cli.save_model(path, src, dev, "exp-gen", 10.0, 4.0, 0)
        assert run("characterize", "--model", path) == 2

    def test_non_finite_params_are_rejected(self, sp_model, tmp_path, capsys):
        """NaN parameters are a data error, not NaN in characterization.json."""
        data = json.loads(sp_model.read_text())
        data["params"][0] = float("nan")
        sp_model.write_text(json.dumps(data))
        assert run("characterize", "--model", sp_model, "--out", tmp_path / "char") == 2
        assert "model.json: bad value for 'params[0]': nan" in capsys.readouterr().err
        assert not (tmp_path / "char").exists()

    def test_config_dim_must_match_the_model(self, sp_model, tmp_path, capsys):
        cfg = write_config(tmp_path, QUTRIT_CONFIG, "qutrit.cfg")
        assert run("characterize", "--model", sp_model, "--config", cfg,
                   "--out", tmp_path / "char") == 2
        assert QUTRIT_MISMATCH in capsys.readouterr().err
        assert not (tmp_path / "char").exists()


# a qubit's config with [device] dim = 3, and what a qubit model is told about it
QUTRIT_CONFIG = BASE_CONFIG.replace("base_model = lindblad", "base_model = lindblad\ndim = 3")
QUTRIT_MISMATCH = "qutrit.cfg: '[device] dim' is 3, but the model"


class TestReport:
    def test_report_combines_outputs(self, config_path, tmp_path):
        data = tmp_path / "data"
        run("generate", "--config", config_path, "--out", data)
        fit_dir = tmp_path / "fit"
        run("train", "--config", config_path, "--dataset", data / "manifest.json",
            "--out", fit_dir)
        rep = tmp_path / "report"
        assert (
            run("report", "--model", fit_dir / "model.json",
                "--dataset", data / "manifest.json", "--out", rep) == 0
        )
        assert (rep / "moments.csv").is_file()
        assert (rep / "characterization.json").is_file()

    def test_config_dim_must_match_the_model(self, config_path, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("generate", "--config", config_path, "--out", data) == 0
        model = tmp_path / "model.json"
        cli.save_model(model, models.make_source("sp"), cli.RunConfig.load(config_path).device(),
                       "exp-gen", 0.5, 4.0, 0)
        cfg = write_config(tmp_path, QUTRIT_CONFIG, "qutrit.cfg")
        capsys.readouterr()
        assert run("report", "--model", model, "--dataset", data / "manifest.json",
                   "--out", tmp_path / "report", "--config", cfg) == 2
        assert QUTRIT_MISMATCH in capsys.readouterr().err
        assert not (tmp_path / "report" / "characterization.json").exists()


class TestErrors:
    def test_missing_dataset_is_config_error(self, config_path, tmp_path):
        assert (
            run("train", "--config", config_path, "--dataset", tmp_path / "none.json",
                "--out", tmp_path / "f") == 2
        )

    def test_malformed_model_file(self, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({"schema": "other"}))
        assert run("characterize", "--model", bad) == 2

    def test_non_finite_gradient_exits_3(self, config_path, tmp_path, capsys, monkeypatch):
        """A pullback that returns NaN raises GradientFailureError, which train
        reports as a numerical failure."""
        data = tmp_path / "data"
        assert run("generate", "--config", config_path, "--out", data) == 0
        monkeypatch.setattr(dynamics, "linear_pullback",
                            lambda group, source, forward, g: np.full(6, np.nan))
        dataset, dev, _ = cli.load_dataset(data / "manifest.json", train_horizon_us=0.5)
        template = models.make_source("sp")
        with pytest.raises(train.GradientFailureError, match="non-finite"):
            train.gradient(template.pack(), dataset, dev, template)
        capsys.readouterr()
        assert run("train", "--config", config_path, "--dataset", data / "manifest.json",
                   "--out", tmp_path / "fit") == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: gradient has non-finite components\n", err
        assert not (tmp_path / "fit" / "model.json").exists()

    def test_diverging_generate_reports_one_line(self, tmp_path, capsys):
        """A rate of 1e300 per us overflows the step increments; the divergence
        check reports it, and nothing warns before it."""
        text = BASE_CONFIG.replace("1686, 1686, 688", "1686, 1e-300, 688")
        assert run("generate", "--config", write_config(tmp_path, text), "--out",
                   tmp_path / "data") == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err

    def test_diverging_evaluate_reports_one_line(self, config_path, tmp_path, capsys):
        """SP parameters of 1e200 square past the float range in the rates."""
        assert run("generate", "--config", config_path, "--out", tmp_path / "data") == 0
        model = tmp_path / "model.json"
        dev = cli.RunConfig.load(config_path).device()
        src = models.make_source("sp")
        cli.save_model(model, src.with_params(np.full(src.pack().shape, 1e200)), dev,
                       "exp-gen", 0.5, 4.0, 0)
        capsys.readouterr()
        assert run("evaluate", "--model", model, "--dataset", tmp_path / "data" / "manifest.json",
                   "--out", tmp_path / "eval") == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err


def rewrite_line(path: Path, number: int, edit) -> None:
    """Replace line ``number`` by ``edit(line, line before it)``."""
    lines = path.read_text().splitlines()
    lines[number - 1] = edit(lines[number - 1], lines[number - 2])
    path.write_text("\n".join(lines) + "\n")


def set_fields(**changes):
    def edit(line, _previous):
        row = json.loads(line)
        for key, value in changes.items():
            if value is None:
                del row[key]
            else:
                row[key] = value(row) if callable(value) else value
        return json.dumps(row)

    return edit


PAST_FLOATS = int("9" * 401)  # a JSON integer that no float can hold

# fault -> (edit of line 3 of exp-001.jsonl, field the message must name)
RECORD_FAULTS = {
    "count-past-floats": (set_fields(kx=PAST_FLOATS), "'kx'"),
    "time-past-floats": (set_fields(time_us=PAST_FLOATS), "'time_us'"),
    "shots-past-2**53": (set_fields(shots=2**53 + 2), "'shots'"),
    "truncated-row": (lambda line, _: line[: len(line) // 2], "malformed JSON"),
    # the decoder's position counts within the line: '{"exp_id": "exp-001"' is 20 chars
    "cut-after-a-value": (lambda line, _: line[: line.index(",")],
                          "malformed JSON: Expecting ',' delimiter: line 1 column 21 (char 20)"),
    "missing-field": (set_fields(ky=None), "'ky'"),
    "not-a-number": (set_fields(time_us="0.06"), "'time_us'"),
    "non-finite": (set_fields(kz=float("nan")), "'kz'"),
    "non-integer-shots": (set_fields(shots=500.5), "'shots'"),
    "negative-shots": (set_fields(shots=-500), "'shots'"),
    "count-above-shots": (set_fields(kx=lambda row: row["shots"] + 400), "'kx'"),
    "negative-count": (set_fields(ky=-1), "'ky'"),
    "noiseless-count-above-one": (set_fields(shots=0, kx=1.5, ky=0.5, kz=0.0), "'kx'"),
    "non-integer-count": (set_fields(kx=lambda row: row["shots"] / 2 + 0.5), "'kx'"),
    "exp-id-mismatch": (set_fields(exp_id="exp-000"), "'exp_id'"),
    "amplitude-mismatch": (
        set_fields(amplitude_MHz=lambda row: row["amplitude_MHz"] + 0.25), "'amplitude_MHz'"
    ),
    # the records sit on a 20 ns grid: line 2 at 0.04 us, line 3 at 0.06 us
    "off-grid-time": (set_fields(time_us=0.065), "'time_us'"),
    "repeated-time": (set_fields(time_us=0.04), "'time_us'"),
    "row-repeated": (lambda _, previous: previous, "'time_us'"),
    "not-an-object": (lambda line, _: f"[{line}]", "expected a JSON object"),
}


# fault -> lines 3-5 of a record file as (row 3, row 4, row 5) -> 3 lines, each malformed
# on its own, whose ',\n' join is row 3 with an extra field and rows 4 and 5: one
# object per line
JOIN_ONLY_FAULTS = {
    "object-across-lines": lambda r3, r4, r5: [r3[:-1], '"note": 0}', f"{r4}, {r5}"],
    "string-across-lines": lambda r3, r4, r5: [r3[:-1] + ', "note": "a', 'b"}', f"{r4}, {r5}"],
}


@contextmanager
def per_line_parse():
    """Record files decoded line by line, as when the record table vouches for
    none of them."""
    with mock.patch.object(cli, "_read_record_table", lambda path: {}):
        yield


# fault -> (verb, model-file changes, extra arguments, texts the message must name)
MODEL_FAULTS = {
    "horizon-not-a-number": (
        "evaluate", {"train_horizon_us": "soon"}, (), ("model.json", "'train_horizon_us'")),
    "horizon-negative": (
        "evaluate", {"train_horizon_us": -1.0}, (), ("model.json", "'train_horizon_us'")),
    "step-not-a-number": (
        "evaluate", {"dt_internal_ns": "soon"}, (), ("model.json", "'dt_internal_ns'")),
    "horizon-past-floats": (
        "evaluate", {"train_horizon_us": PAST_FLOATS}, (), ("model.json", "'train_horizon_us'")),
    "evaluate-flag-zero": ("evaluate", {}, ("--train-horizon-us", 0), ("--train-horizon-us",)),
    "report-flag-negative": ("report", {}, ("--train-horizon-us", -1), ("--train-horizon-us",)),
    "train-flag-zero": ("train", {}, ("--train-horizon-us", 0), ("--train-horizon-us",)),
    "train-flag-negative": ("train", {}, ("--train-horizon-us", -1), ("--train-horizon-us",)),
    "train-seed-flag-negative": ("train", {}, ("--seed", -1), ("--seed",)),
}


# fault -> (source kind, model-file changes, key the message must name)
MODEL_FIELD_FAULTS = {
    "signed-gamma-string": ("sp", {"signed_gamma": "false"}, "'signed_gamma'"),
    "n-layers-fractional": ("nonlinear", {"n_layers": 3.7}, "'n_layers'"),
    "dim-fractional": ("sp", {"dim": 2.5}, "'dim'"),
    "affine-n-layers": ("affine", {"n_layers": 3}, "'n_layers'"),
    "affine-tanh": ("affine", {"activation": "tanh"}, "'activation'"),
    "nonlinear-identity": ("nonlinear", {"activation": "identity"}, "'activation'"),
    "nonlinear-no-layers": ("nonlinear", {"n_layers": 0}, "'n_layers'"),
    "sp-activation": ("sp", {"activation": "tanh"}, "'activation'"),
    "params-past-floats": ("sp", {"params": [PAST_FLOATS] * 6}, "'params'"),
    "dim-past-params": ("sp", {"dim": PAST_FLOATS}, "'dim'"),
    "n-layers-past-params": ("nonlinear", {"n_layers": PAST_FLOATS}, "'n_layers'"),
    "params-nan": ("sp", {"params": [0.0, 0.0, float("nan"), 0.0, 0.0, 0.0]}, "'params[2]'"),
    "params-infinite": ("affine", {"params": [float("-inf")] + [0.0] * 19}, "'params[0]'"),
    "params-one-short": ("sp", {"params": [0.0] * 5}, "'params'"),
    "params-one-long": ("affine", {"params": [0.0] * 21}, "'params'"),
    "n-layers-one-short": ("nonlinear", {"n_layers": 2}, "'n_layers'"),
    "dt-internal-tiny": ("sp", {"dt_internal_ns": 1e-300}, "'dt_internal_ns'"),
}


class TestDataValidation:
    """Corrupt data on disk is a data error (exit 2) naming the file, line and field."""

    @pytest.fixture()
    def dataset_dir(self, config_path, tmp_path) -> Path:
        out = tmp_path / "data"
        assert run("generate", "--config", config_path, "--out", out) == 0
        return out

    def train(self, config_path, dataset_dir, tmp_path) -> int:
        return run("train", "--config", config_path, "--dataset", dataset_dir / "manifest.json",
                   "--out", tmp_path / "fit")

    @pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
    def test_corrupt_record_is_rejected(self, fault, config_path, dataset_dir, tmp_path, capsys):
        """A record file edited after generate, beside the record table generate
        wrote, fails as it does when decoded line by line, naming its line."""
        edit, names = RECORD_FAULTS[fault]
        assert (dataset_dir / cli.RECORD_TABLE).is_file()
        rewrite_line(dataset_dir / "exp-001.jsonl", 3, edit)
        assert self.train(config_path, dataset_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "exp-001.jsonl:3:" in err and names in err
        assert not (tmp_path / "fit" / "model.json").exists()
        with per_line_parse(), pytest.raises(cli.ConfigError) as slow:
            cli.load_dataset(dataset_dir / "manifest.json")
        assert err == f"config error: {slow.value}\n"

    @pytest.mark.parametrize("horizon, names", [
        (0.001, ("exp-000 has no records inside the train horizon 0.001 us",)),
        (5, ("train horizon 5.0 us",)),
    ])
    def test_dataset_rejection_names_the_manifest(self, horizon, names, config_path,
                                                  dataset_dir, tmp_path, capsys):
        assert run("train", "--config", config_path, "--dataset", dataset_dir / "manifest.json",
                   "--out", tmp_path / "fit", "--train-horizon-us", horizon) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {dataset_dir / 'manifest.json'}: "), err
        assert all(name in err for name in names), err

    @pytest.mark.parametrize("fault", sorted(JOIN_ONLY_FAULTS))
    def test_rows_across_lines_are_rejected(self, fault, dataset_dir):
        """Lines that are each malformed fail on their own line even where their
        ',\n' join decodes (without strictness) to one object per line."""
        records = dataset_dir / "exp-001.jsonl"
        lines = records.read_text().splitlines()
        lines[2:5] = JOIN_ONLY_FAULTS[fault](*lines[2:5])
        records.write_text("\n".join(lines) + "\n")
        assert len(json.loads("[" + ",\n".join(lines) + "]", strict=False)) == len(lines)
        with pytest.raises(cli.ConfigError, match="exp-001.jsonl:3: malformed JSON"):
            cli.load_dataset(dataset_dir / "manifest.json")

    def test_record_files_take_no_json_decode(self, dataset_dir, monkeypatch):
        """A generated dataset's record files take their columns from the record
        table: the one json.loads is the manifest's."""
        decodes, loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: decodes.append(text) or loads(text, **kw))
        cli.load_dataset(dataset_dir / "manifest.json")
        assert decodes == [(dataset_dir / "manifest.json").read_text()]

    def test_non_canonical_record_file_loads_the_same_block(self, dataset_dir):
        """Any valid JSON Lines layout of the rows (keys reordered, other spacing,
        CRLF endings, a blank line, no final newline) loads line by line to the
        block of the file write_dataset wrote."""
        manifest = dataset_dir / "manifest.json"
        records = dataset_dir / "exp-001.jsonl"
        before = cli.load_dataset(manifest)[0].experiments[1][1]
        rows = [json.loads(line) for line in records.read_text().splitlines()]
        lines = [json.dumps(dict(reversed(row.items())), separators=(" , ", ":  "))
                 for row in rows]
        lines.insert(7, "")
        records.write_bytes("\r\n".join(lines).encode())
        after = cli.load_dataset(manifest)[0].experiments[1][1]
        for column in ("times_us", "shots", "counts", "probs", "rho_hat"):
            assert getattr(after, column).tobytes() == getattr(before, column).tobytes(), column

    @pytest.mark.parametrize("newline, line", [("\n", 2), ("\r\n", 150)])
    def test_non_utf8_record_file_is_rejected(self, newline, line, dataset_dir, tmp_path, capsys):
        """The line of a byte that is not UTF-8 is counted over the whole file (a
        text-mode read counts within one 8 KiB chunk), CRLF endings included."""
        records = dataset_dir / "exp-001.jsonl"
        lines = records.read_bytes().splitlines() * 4  # 200 lines, about 26 kB
        lines[line - 1] = lines[line - 1].replace(b"exp-001", b"exp-\xff01")
        records.write_bytes(b"".join(row + newline.encode() for row in lines))
        assert run("evaluate", "--model", "base", "--dataset", dataset_dir / "manifest.json",
                   "--out", tmp_path / "eval") == 2
        assert f"exp-001.jsonl:{line}: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("target", ["manifest", "model", "record-line"])
    def test_deep_nesting_is_malformed_json(self, target, config_path, dataset_dir, tmp_path,
                                            capsys):
        """JSON nested past the decoder's depth (100,000 '[') exits 2, naming the
        file (and the line of a record file), not with a RecursionError."""
        deep = "[" * 100_000 + "]" * 100_000
        manifest, model = dataset_dir / "manifest.json", tmp_path / "model.json"
        dev = cli.RunConfig.load(config_path).device()
        cli.save_model(model, models.make_source("sp"), dev, "exp-gen", 0.5, 4.0, 0)
        if target == "manifest":
            manifest.write_text(deep[:100_000])
            names = f"{manifest}: malformed JSON: "
        elif target == "model":
            model.write_text(deep[:100_000])
            names = f"{model}: malformed JSON: "
        else:
            rewrite_line(dataset_dir / "exp-001.jsonl", 3, lambda line, _: f'{{"a": {deep}}}')
            names = f"{dataset_dir / 'exp-001.jsonl'}:3: malformed JSON: "
        assert run("evaluate", "--model", model, "--dataset", manifest,
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {names}") and err.count("\n") == 1, err[:300]
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("target", ["config", "manifest", "model"])
    def test_non_utf8_byte_names_its_line(self, target, config_path, dataset_dir, tmp_path,
                                          capsys):
        """A byte that is not UTF-8 is a data error naming the file and the line in
        the JSON and INI inputs too, as in a record file."""
        model = tmp_path / "model.json"
        dev = cli.RunConfig.load(config_path).device()
        cli.save_model(model, models.make_source("sp"), dev, "exp-gen", 0.5, 4.0, 0)
        path, token = {"config": (config_path, b"seed = 11"),
                       "manifest": (dataset_dir / "manifest.json", b'"exp-001.jsonl"'),
                       "model": (model, b'"exp-gen"')}[target]
        raw = path.read_bytes()
        line = raw[: raw.index(token)].count(b"\n") + 1
        path.write_bytes(raw.replace(token, token[:-1] + b"\xff" + token[-1:], 1))
        if target == "config":
            argv = ["generate", "--config", config_path, "--out", tmp_path / "out"]
        else:
            argv = ["evaluate", "--model", model, "--dataset", dataset_dir / "manifest.json",
                    "--out", tmp_path / "out"]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"config error: {path}:{line}: not UTF-8 text\n"
        assert not (tmp_path / "out").exists()

    def test_repeated_experiment_id_is_rejected(self, dataset_dir, tmp_path, capsys):
        """Two manifest entries with one id, each with consistent records, would
        evaluate the first against the second's predictions."""
        manifest = dataset_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        data["experiments"][1]["id"] = "exp-000"
        manifest.write_text(json.dumps(data))
        records = dataset_dir / "exp-001.jsonl"
        records.write_text(records.read_text().replace('"exp-001"', '"exp-000"'))
        assert run("evaluate", "--model", "base", "--dataset", manifest,
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "experiments[1].id 'exp-000'" in err, err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("verb", ["train", "evaluate"])
    @pytest.mark.parametrize("kept", [20, 0])
    def test_truncated_record_file_is_rejected(self, verb, kept, config_path, dataset_dir,
                                               tmp_path, capsys):
        """A record file cut to its first rows fails the manifest's n_records
        (an empty one fails on its own) instead of loading fewer records."""
        records = dataset_dir / "exp-001.jsonl"
        records.write_text("".join(records.read_text().splitlines(keepends=True)[:kept]))
        capsys.readouterr()
        if verb == "train":
            assert self.train(config_path, dataset_dir, tmp_path) == 2
        else:
            assert run("evaluate", "--model", "base", "--dataset", dataset_dir / "manifest.json",
                       "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert "exp-001.jsonl" in err and ("n_records" if kept else "no records") in err, err
        assert not (tmp_path / "fit").exists() and not (tmp_path / "eval").exists()

    def test_malformed_manifest(self, config_path, dataset_dir, tmp_path, capsys):
        manifest = dataset_dir / "manifest.json"
        manifest.write_text(manifest.read_text()[:40])
        assert self.train(config_path, dataset_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "malformed JSON" in err

    @pytest.mark.parametrize("key", ["duration_us", "sample_dt_ns"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_manifest_grid_is_rejected(self, key, value, config_path, dataset_dir,
                                                  tmp_path, capsys):
        manifest = dataset_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        data["experiments"][1][key] = value
        manifest.write_text(json.dumps(data))
        assert self.train(config_path, dataset_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "manifest.json: bad experiments[1]" in err and f"{key} must be" in err, err

    @pytest.mark.parametrize("key, value", [("duration_us", 1e308), ("sample_dt_ns", 5e-324)])
    def test_overflowing_manifest_grid_is_rejected(self, key, value, dataset_dir, tmp_path,
                                                   capsys):
        """A duration whose sample count overflows the floats, or a step that is
        0 us once converted, exits 2 naming the entry, not with a traceback."""
        manifest = dataset_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        data["experiments"][1][key] = value
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("evaluate", "--model", "base", "--dataset", manifest,
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert "manifest.json: bad experiments[1]" in err and f"{key} must be" in err, err

    @pytest.mark.parametrize("keys, name", [
        (("experiments", 1, "duration_us"), "'experiments[1].duration_us'"),
        (("experiments", 1, "amplitude_p_MHz"), "'experiments[1].amplitude_p_MHz'"),
        (("device", "T1_us"), "'device.T1_us'"),
        (("device", "dim"), "'device.dim'"),
    ])
    def test_manifest_integer_past_floats_is_rejected(self, keys, name, config_path, dataset_dir,
                                                      tmp_path, capsys):
        manifest = dataset_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        entry = data
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = PAST_FLOATS
        manifest.write_text(json.dumps(data))
        assert self.train(config_path, dataset_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and name in err, err

    @pytest.mark.parametrize("key, value", [("T2_us", float("nan")), ("T1_us", float("inf")),
                                            ("omega01_GHz", float("nan")),
                                            ("omega_rot_GHz", float("-inf"))])
    def test_non_finite_manifest_device_is_rejected(self, key, value, config_path, dataset_dir,
                                                    tmp_path, capsys):
        manifest = dataset_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        data["device"][key] = value
        manifest.write_text(json.dumps(data))
        assert self.train(config_path, dataset_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"manifest.json: bad device: {key} must be finite" in err, err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("verb", ["train", "evaluate"])
    def test_base_flag_fault_names_the_manifest(self, verb, config_path, dataset_dir, tmp_path,
                                                capsys):
        """--base lindblad on an LvN manifest with T1 = 0 names the manifest, whether
        the verb trains against the base model or evaluates it."""
        manifest = dataset_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        data["device"].update(base_model="lvn", T1_us=0.0)
        manifest.write_text(json.dumps(data))
        inputs = ("--config", config_path) if verb == "train" else ("--model", "base")
        assert run(verb, *inputs, "--base", "lindblad", "--dataset", manifest,
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (f"config error: {manifest}: bad device: Lindblad "
                                           "base model requires T1 > 0 and T2 > 0\n")
        assert not (tmp_path / "o").exists()

    def test_manifest_of_a_qutrit_is_rejected(self, dataset_dir, tmp_path, capsys):
        """kx, ky and kz are a qubit's counts, whatever the device says."""
        manifest = dataset_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        data["device"]["dim"] = 3
        manifest.write_text(json.dumps(data))
        assert run("evaluate", "--model", "base", "--dataset", manifest,
                   "--out", tmp_path / "eval") == 2
        assert "manifest.json: 'device.dim' is 3" in capsys.readouterr().err

    @pytest.mark.parametrize("experiments", ["ab", {"id": "exp-000"}, [1, 2], ["ab"], None])
    def test_experiments_must_be_an_array_of_objects(self, experiments, dataset_dir, tmp_path,
                                                     capsys):
        manifest = dataset_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        data["experiments"] = experiments
        manifest.write_text(json.dumps(data))
        assert run("evaluate", "--model", "base", "--dataset", manifest,
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert f"{manifest}: bad value for 'experiments'" in err, err
        assert "not a JSON array of objects" in err, err
        assert not (tmp_path / "eval").exists()

    def test_model_dim_must_match_its_device(self, dataset_dir, tmp_path, capsys, monkeypatch):
        """A qubit model edited to dim 3 with a qutrit's 16 params, its device
        block left at dim 2, is rejected before anything is propagated."""
        model = tmp_path / "model.json"
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0, "lindblad")
        cli.save_model(model, models.make_source("sp"), dev, "exp-gen", 0.5, 4.0, 0)
        data = json.loads(model.read_text())
        data.update(dim=3, params=[0.0] * 16)
        model.write_text(json.dumps(data))
        monkeypatch.setattr(dynamics, "grid_groups", None)  # any propagation fails loudly
        assert run("evaluate", "--model", model, "--dataset", dataset_dir / "manifest.json",
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert f"{model}: 'dim' is 3, but 'device.dim' is 2" in err, err
        assert not (tmp_path / "eval").exists()

    def test_manifest_that_is_not_an_object(self, dataset_dir, tmp_path, capsys):
        manifest = dataset_dir / "manifest.json"
        manifest.write_text(f"[{manifest.read_text()}]")
        assert run("evaluate", "--model", "base", "--dataset", manifest,
                   "--out", tmp_path / "eval") == 2
        assert f"{manifest}: expected a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_missing_record_file_names_the_key(self, config_path, dataset_dir, tmp_path, capsys):
        (dataset_dir / "exp-001.jsonl").unlink()
        assert self.train(config_path, dataset_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert (f"{dataset_dir / 'manifest.json'}: bad value for 'experiments[1].file': "
                f"'exp-001.jsonl' (no such file: {dataset_dir / 'exp-001.jsonl'})") in err, err
        assert not (tmp_path / "fit").exists()

    def test_manifest_missing_device_key(self, config_path, dataset_dir, tmp_path, capsys):
        manifest = dataset_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        del data["device"]["T1_us"]
        manifest.write_text(json.dumps(data))
        assert self.train(config_path, dataset_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "'device.T1_us'" in err

    def test_malformed_model_json(self, dataset_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"schema": "qude-model-v1", "params": [0.1,')
        assert run("evaluate", "--model", model, "--dataset", dataset_dir / "manifest.json",
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert "model.json" in err and "malformed JSON" in err

    @pytest.mark.parametrize("fault", sorted(MODEL_FAULTS))
    def test_bad_horizon_or_step_is_rejected(self, fault, config_path, dataset_dir, tmp_path,
                                             capsys):
        verb, changes, extra, names = MODEL_FAULTS[fault]
        if verb == "train":
            inputs = ["--config", config_path]
        else:
            assert self.train(config_path, dataset_dir, tmp_path) == 0
            model = tmp_path / "fit" / "model.json"
            model.write_text(json.dumps({**json.loads(model.read_text()), **changes}))
            inputs = ["--model", model]
        capsys.readouterr()
        assert run(verb, *inputs, "--dataset", dataset_dir / "manifest.json",
                   "--out", tmp_path / "eval", *extra) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("fault", sorted(MODEL_FIELD_FAULTS))
    def test_bad_model_field_is_rejected(self, fault, dataset_dir, tmp_path, capsys):
        kind, changes, name = MODEL_FIELD_FAULTS[fault]
        model = tmp_path / "model.json"
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0, "lindblad")
        cli.save_model(model, models.make_source(kind), dev, "exp-gen", 0.5, 4.0, 0)
        model.write_text(json.dumps({**json.loads(model.read_text()), **changes}))
        with within(10):
            assert run("evaluate", "--model", model, "--dataset", dataset_dir / "manifest.json",
                       "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert "model.json" in err and name in err, err
        assert not (tmp_path / "eval").exists()

    def test_model_dataset_dimension_mismatch(self, config_path, dataset_dir, tmp_path, capsys):
        dev3 = dynamics.DeviceModel(3.448, 214.0, 32.0, "lindblad", dim=3)
        model = tmp_path / "qutrit.json"
        cli.save_model(model, models.StructurePreservingSource(dim=3), dev3, "exp-gen", 0.5,
                       4.0, 0)
        assert run("evaluate", "--model", model, "--dataset", dataset_dir / "manifest.json",
                   "--out", tmp_path / "eval") == 2
        err = capsys.readouterr().err
        assert "dimension" in err
        assert f"{model}: " in err and f"'device.dim' of {dataset_dir / 'manifest.json'}" in err, err


def redigested(raw: bytes) -> bytes:
    """Record table bytes with their closing SHA-256 computed again, so that a
    loader meets the edit before it, not a digest that fails."""
    return raw[:-32] + hashlib.sha256(raw[:-32]).digest()


def one_row_short(raw: bytes) -> bytes:
    """The table of a two-file dataset whose entry for the second file counts one
    row less and whose block lacks its last row, with a digest that checks."""
    rows = struct.unpack_from("<Q", raw, 24 + 40 + 32)[0]
    return redigested(raw[:24 + 40 + 32] + struct.pack("<Q", rows - 1) + raw[24 + 80:-32 - 40]
                      + raw[-32:])


# fault -> (edit of the record table's bytes, the experiments whose record text is
# then decoded): the whole table is ignored, or its entry for one file
TABLE_FAULTS = {
    "empty": (lambda raw: b"", ["exp-000", "exp-001"]),
    "truncated": (lambda raw: raw[: len(raw) // 2], ["exp-000", "exp-001"]),
    "payload-byte-flipped": (lambda raw: raw[:-100] + bytes([raw[-100] ^ 1]) + raw[-99:],
                             ["exp-000", "exp-001"]),
    "one-row-short": (one_row_short, ["exp-001"]),
    "unknown-magic": (lambda raw: redigested(b"qude-xxx" + raw[8:]), ["exp-000", "exp-001"]),
    "unknown-version": (lambda raw: redigested(raw[:8] + struct.pack("<Q", 2) + raw[16:]),
                        ["exp-000", "exp-001"]),
    "file-count-past-the-bytes": (
        lambda raw: redigested(raw[:16] + struct.pack("<Q", 2**63) + raw[24:]),
        ["exp-000", "exp-001"]),
    "stale": (None, ["exp-000", "exp-001"]),  # the table of a dataset of another seed
}

# manifest edit of experiments[1] -> what the message must name, as without a table
MANIFEST_EDITS = {
    "id": ({"id": "exp-009"}, "exp-001.jsonl:1: field 'exp_id' does not match"),
    "amplitude": ({"amplitude_p_MHz": 0.125}, "exp-001.jsonl:1: field 'amplitude_MHz' does not"),
    "n-records": ({"n_records": 49}, "50 rows, not experiments[1].n_records = 49"),
    "duration": ({"duration_us": 0.5}, "exp-001.jsonl:26: field 'time_us' is off"),
}


class TestRecordTable:
    """The record table generate writes beside the record files stands in for the
    decode of a file only where it vouches for the file's very bytes."""

    @pytest.fixture()
    def dataset_dir(self, config_path, tmp_path) -> Path:
        out = tmp_path / "data"
        assert run("generate", "--config", config_path, "--out", out) == 0
        return out

    @staticmethod
    def decoded(monkeypatch) -> list[str]:
        """The ids of the experiments whose record text is decoded from now on."""
        ids, line_table = [], cli._line_table
        monkeypatch.setattr(cli, "_line_table", lambda path, text, exp: ids.append(exp.id)
                            or line_table(path, text, exp))
        return ids

    @staticmethod
    def assert_same(dataset, expected) -> None:
        for (_, block), (_, other) in zip(dataset.experiments, expected.experiments, strict=True):
            for column in ("times_us", "shots", "counts", "probs", "rho_hat"):
                assert getattr(block, column).tobytes() == getattr(other, column).tobytes()

    def test_generated_records_load_from_the_table(self, dataset_dir, monkeypatch):
        """No record text of a generated dataset is decoded, and the blocks are
        those the line-by-line decode gives."""
        with per_line_parse():
            expected = cli.load_dataset(dataset_dir / "manifest.json")[0]
        decoded = self.decoded(monkeypatch)
        self.assert_same(cli.load_dataset(dataset_dir / "manifest.json")[0], expected)
        assert decoded == []

    def test_verbs_decode_record_text_only_without_the_table(self, config_path, dataset_dir,
                                                             tmp_path, monkeypatch):
        """train, evaluate and report on a generated dataset decode no record text;
        with the table deleted, each decodes each record file once."""
        manifest, model = dataset_dir / "manifest.json", tmp_path / "fit" / "model.json"
        assert run("train", "--config", config_path, "--dataset", manifest,
                   "--out", model.parent) == 0
        verbs = [("train", "--config", config_path, "--dataset", manifest,
                  "--out", tmp_path / "fit2"),
                 ("evaluate", "--model", model, "--dataset", manifest, "--out", tmp_path / "eval"),
                 ("report", "--model", model, "--dataset", manifest, "--out", tmp_path / "rep")]
        decoded = self.decoded(monkeypatch)
        for expected in ([], ["exp-000", "exp-001"]):
            if expected:
                (dataset_dir / cli.RECORD_TABLE).unlink()
            for argv in verbs:
                decoded.clear()
                assert run(*argv) == 0, argv[0]
                assert decoded == expected, argv[0]

    def test_edited_record_file_loads_its_edited_value(self, dataset_dir, monkeypatch):
        """A record file edited after generate is decoded from its text, so the
        edited count loads; the table still vouches for the other file."""
        records = dataset_dir / "exp-001.jsonl"
        rewrite_line(records, 3, set_fields(kx=lambda row: 1 if row["kx"] == 0 else 0))
        kx = json.loads(records.read_text().splitlines()[2])["kx"]
        decoded = self.decoded(monkeypatch)
        dataset = cli.load_dataset(dataset_dir / "manifest.json")[0]
        assert decoded == ["exp-001"]
        assert dataset.experiments[1][1].counts[2, 0] == kx
        with per_line_parse():
            self.assert_same(dataset, cli.load_dataset(dataset_dir / "manifest.json")[0])

    @pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
    def test_table_that_does_not_check_is_ignored(self, fault, config_path, dataset_dir, tmp_path,
                                                  capsys, monkeypatch):
        """A table that is cut, flipped, of another magic, version or file count, or
        written for another dataset is ignored, and so is an entry short of a row:
        those record texts are decoded, to the same blocks, and evaluate exits 0
        quietly."""
        edit, expected_decoded = TABLE_FAULTS[fault]
        manifest, table = dataset_dir / "manifest.json", dataset_dir / cli.RECORD_TABLE
        with per_line_parse():
            expected = cli.load_dataset(manifest)[0]
        if edit is None:
            assert run("generate", "--config", config_path, "--out", tmp_path / "other",
                       "--seed", 12) == 0
            shutil.copy(tmp_path / "other" / cli.RECORD_TABLE, table)
        else:
            table.write_bytes(edit(table.read_bytes()))
        decoded = self.decoded(monkeypatch)
        self.assert_same(cli.load_dataset(manifest)[0], expected)
        assert decoded == expected_decoded
        capsys.readouterr()
        assert run("evaluate", "--model", "base", "--dataset", manifest,
                   "--out", tmp_path / "eval") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_record_fails_as_without_a_table(self, time, config_path, tmp_path):
        """write_dataset writes a non-finite time as text no JSON decoder reads; the
        table, which holds the value, is passed over, and the load fails as the
        text decode does."""
        dev = cli.RunConfig.load(config_path).device()
        exp = dynamics.Experiment("exp-000", 1.0, duration_us=0.06, sample_dt_ns=20.0)
        block = tomography.RecordBlock.from_counts([0.02, time, 0.06], [0, 0, 0],
                                                   np.full((3, 3), 0.5))
        manifest = cli.write_dataset(tmp_path / "data", dev, [(exp, block)], seed=0,
                                     config_sha="0" * 64, shots=0, shot_mode="per-axis",
                                     dt_internal_ns=4.0, latent_info={"ansatz": "none"})
        with pytest.raises(cli.ConfigError) as loaded:
            cli.load_dataset(manifest)
        with per_line_parse(), pytest.raises(cli.ConfigError) as decoded:
            cli.load_dataset(manifest)
        assert str(loaded.value) == str(decoded.value)
        assert "exp-000.jsonl:2: malformed JSON" in str(loaded.value)

    @pytest.mark.parametrize("edit", sorted(MANIFEST_EDITS))
    def test_manifest_edit_gives_the_message_without_a_table(self, edit, dataset_dir, tmp_path,
                                                             capsys):
        """A manifest entry edited after generate (its id, amplitude, n_records or
        duration) exits 2 with the message the dataset gives without its table."""
        changes, names = MANIFEST_EDITS[edit]
        manifest = dataset_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        data["experiments"][1].update(changes)
        manifest.write_text(json.dumps(data))
        errors = []
        for _ in ("with the table", "without it"):
            capsys.readouterr()
            assert run("evaluate", "--model", "base", "--dataset", manifest,
                       "--out", tmp_path / "eval") == 2
            errors.append(capsys.readouterr().err)
            (dataset_dir / cli.RECORD_TABLE).unlink(missing_ok=True)
        assert errors[0] == errors[1] and names in errors[0], errors
        assert not (tmp_path / "eval").exists()

    def test_chain_without_the_table_writes_the_same_bytes(self, config_path, tmp_path,
                                                           monkeypatch):
        """generate -> train -> evaluate -> characterize with the table deleted after
        generate writes the files the chain writes with it (training_log.csv's
        last column is wall time)."""
        outputs = {}
        manifest, model = Path("data/manifest.json"), Path("fit/model.json")
        for name in ("table", "none"):
            root = tmp_path / name
            root.mkdir()
            monkeypatch.chdir(root)  # characterization.json names the model file
            assert run("generate", "--config", config_path, "--out", "data") == 0
            if name == "none":
                (root / "data" / cli.RECORD_TABLE).unlink()
            assert run("train", "--config", config_path, "--dataset", manifest,
                       "--out", "fit") == 0
            assert run("evaluate", "--model", model, "--dataset", manifest, "--out", "eval") == 0
            assert run("characterize", "--model", model, "--out", "char") == 0
            outputs[name] = {path.relative_to(root): path.read_bytes()
                             for path in root.rglob("*")
                             if path.is_file() and path.name != cli.RECORD_TABLE}
            log = Path("fit/training_log.csv")
            outputs[name][log] = b"".join(line.rsplit(b",", 1)[0]
                                          for line in outputs[name][log].splitlines())
        assert len(outputs["table"]) == 11
        assert outputs["table"] == outputs["none"]


# fault -> (verb, config edit (old, new), extra train arguments, record line to delete)
INCONSISTENT_INPUTS = {
    "internal-step-not-dividing": (
        "generate", ("dt_internal_ns = 4.0", "dt_internal_ns = 3.0"), (), None),
    "unknown-shot-mode": ("generate", ("shots = 500", "shots = 500\nshot_mode = perr-axis"), (), None),
    "record-row-missing": ("train", None, (), 3),
    "train-horizon-past-data": ("train", None, ("--train-horizon-us", 5), None),
    "unknown-experiment-id": (
        "train", ("mode = exp-gen", "mode = exp-spec\nexperiment_id = nope"), (), None),
}


@pytest.mark.parametrize("fault", sorted(INCONSISTENT_INPUTS))
def test_inconsistent_input_is_config_error(fault, config_path, tmp_path, capsys):
    """Faults that surface as a ValueError past the loaders exit 2, not 3."""
    verb, edit, extra, drop = INCONSISTENT_INPUTS[fault]
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE_CONFIG.replace(*edit) if edit else BASE_CONFIG)
    data = tmp_path / "data"
    if verb == "generate":
        code = run("generate", "--config", bad, "--out", data)
    else:
        assert run("generate", "--config", config_path, "--out", data) == 0
        if drop is not None:
            records = data / "exp-001.jsonl"
            lines = records.read_text().splitlines(keepends=True)
            records.write_text("".join(lines[: drop - 1] + lines[drop:]))
        code = run("train", "--config", bad, "--dataset", data / "manifest.json",
                   "--out", tmp_path / "fit", *extra)
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_each_verb_reads_each_input_once(config_path, tmp_path, monkeypatch):
    """generate, train, evaluate, characterize and report open each input file
    once: the config, the manifest, model.json, the record table and both record
    files, one of them in a layout (CRLF endings) that the table does not vouch
    for, so it is decoded line by line."""
    data, model = tmp_path / "data", tmp_path / "fit" / "model.json"
    manifest, declined = data / "manifest.json", data / "exp-001.jsonl"
    assert run("generate", "--config", config_path, "--out", data) == 0
    declined.write_bytes(declined.read_bytes().replace(b"\n", b"\r\n"))
    records = [data / "exp-000.jsonl", declined, data / cli.RECORD_TABLE]
    assert run("train", "--config", config_path, "--dataset", manifest,
               "--out", model.parent) == 0
    opened, real_open = [], io.open

    def spy(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            opened.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", spy)  # pathlib's reads
    monkeypatch.setattr(builtins, "open", spy)
    for argv, inputs in [
        (("generate", "--config", config_path, "--out", tmp_path / "again"), [config_path]),
        (("train", "--config", config_path, "--dataset", manifest, "--out", tmp_path / "fit2"),
         [config_path, manifest, *records]),
        (("evaluate", "--model", model, "--dataset", manifest, "--out", tmp_path / "eval"),
         [manifest, *records, model]),
        (("characterize", "--model", model, "--config", config_path, "--out", tmp_path / "char"),
         [model, config_path]),
        (("report", "--model", model, "--dataset", manifest, "--config", config_path,
          "--out", tmp_path / "report"), [manifest, *records, model, config_path]),
    ]:
        opened.clear()
        assert run(*argv) == 0, argv[0]
        assert sorted(opened) == sorted(map(str, inputs)), argv[0]


def test_columnar_csv_is_csv_writer_output(tmp_path):
    """_write_csv's columns give the bytes csv.writer gives for the rows, with floats
    as repr: strings that need quoting or not, ints, 17-digit floats, -0.0, CRLF."""
    header = ["exp_id", "count, total", 'a "b"']
    rows = [["a,b", 0, 0.1 + 0.2], ['say "hi"', -3, 1 / 3], ["50%", 10**20, -0.0],
            [" lead", 7, 1e-300], ["", 1, 2.0**0.5 * 1e16], ["a,b", 2, float("inf")],
            ["x\ny", 5, 123456789.01234567]]
    with (tmp_path / "reference.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    cli._write_csv(tmp_path / "columns.csv", header, [list(c) for c in zip(*rows)])
    written = (tmp_path / "columns.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\r\n") == len(rows) + 1 and written.endswith(b"5,123456789.01234567\r\n")
    cli._write_csv(tmp_path / "empty.csv", header, [])
    assert (tmp_path / "empty.csv").read_bytes() == b'exp_id,"count, total","a ""b"""\r\n'


def edge_block(n: int) -> tomography.RecordBlock:
    """n rows whose ints lie at the text table's bound less one, at the bound and
    at MAX_SHOTS, among rows of 500 shots, with noiseless rows (shots == 0) in
    runs of 3 (rows 2-4 mod 7) and in rows 1020-1027, across the 1024-row chunk
    boundary."""
    rng = np.random.default_rng(5)
    cycle = [500, 500, 500, 500, cli.INT_TEXTS - 1, cli.INT_TEXTS, cli.MAX_SHOTS, 500]
    index = np.arange(n)
    noiseless = (index % 7 >= 2) & (index % 7 <= 4) | (index >= 1020) & (index < 1028)
    shots = np.where(noiseless, 0, np.array(cycle)[index % len(cycle)])
    low = np.stack([np.zeros(n), np.minimum(shots, cli.INT_TEXTS - 1),
                    np.minimum(shots, cli.INT_TEXTS)], axis=1)
    high = np.stack([shots, np.maximum(shots - 1, 0), shots // 2], axis=1)
    counts = np.where((index // len(cycle) % 2 == 0)[:, None], low, high).astype(float)
    counts[noiseless] = rng.random((noiseless.sum(), 3))
    return tomography.RecordBlock.from_counts(0.004 * (index + 1), shots, counts)


class TestChunkWriters:
    """_write_records and _write_csv, which form their rows CHUNK_ROWS at a time
    through one join, against json.dumps of each record and csv.writer."""

    @pytest.mark.parametrize("n", [1030, 0])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 1024])
    def test_records_are_json_dumps_of_each_row(self, n, chunk_rows, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
        exp = dynamics.Experiment('exp "7"', 1.0 / 3.0, duration_us=5.0, sample_dt_ns=4.0)
        block = edge_block(n)
        entry = cli._write_records(tmp_path / "records.jsonl", exp, block)
        written = (tmp_path / "records.jsonl").read_bytes()
        assert written == dumped_rows(exp, block)
        assert entry == hashlib.sha256(written).digest() + struct.pack("<Q", n)
        if n:
            for text in (b'"shots": 9999, "kx": 0, "ky": 9999, "kz": 9999}',
                         b'"shots": 10000, "kx": 0, "ky": 9999, "kz": 10000}',
                         b'"shots": 9007199254740992, "kx": 9007199254740992, '
                         b'"ky": 9007199254740991, "kz": 4503599627370496}'):
                assert text in written

    @pytest.mark.parametrize("arrays", [False, True], ids=["lists", "arrays"])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 1024])
    def test_csv_is_csv_writer_rows(self, chunk_rows, arrays, tmp_path, monkeypatch):
        """1030 rows of strings that need quoting or not, negative ints, ints past
        2**63 and floats, from lists or (strings, floats) numpy arrays."""
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(9)
        texts = ["a,b", 'say "hi"', "x\ny", "plain", "", " lead", "50%", "é"]
        ints = [-3, 0, 2**63 + 1, 10**20, -(2**70), cli.INT_TEXTS, 7]
        floats = [*rng.standard_normal(1024).tolist(), -0.0, float("inf"), 1e-300, 0.1, 2.5, 1.0]
        columns = [[texts[i % len(texts)] for i in range(1030)],
                   [ints[i % len(ints)] for i in range(1030)], floats]
        with (tmp_path / "reference.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "n, total", "x"])
            writer.writerows([s, n, repr(x)] for s, n, x in zip(*columns))
        if arrays:
            columns = [np.array(columns[0], dtype=object), columns[1], np.array(floats)]
        cli._write_csv(tmp_path / "columns.csv", ["id", "n, total", "x"], columns)
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_csv_of_no_rows_is_its_header(self, tmp_path):
        cli._write_csv(tmp_path / "empty.csv", ["a", "b c"], [np.zeros(0), []])
        assert (tmp_path / "empty.csv").read_bytes() == b"a,b c\r\n"

    def test_csv_columns_of_unequal_lengths_write_no_file(self, tmp_path):
        path = tmp_path / "short.csv"
        with pytest.raises(ValueError, match=r"short.csv: columns of unequal lengths \[2, 3\]"):
            cli._write_csv(path, ["a", "b"], [["x", "y"], np.arange(3.0)])
        assert not path.exists()


class TestIOErrors:
    def test_output_path_collides_with_file(self, config_path, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        assert run("generate", "--config", config_path, "--out", blocker) == 4

    def test_unreadable_config_is_an_io_error(self, config_path, tmp_path, capsys, monkeypatch):
        """A config that exists but cannot be opened exits 4, not as a config
        that reads as empty (a missing key, exit 2)."""
        real_open = io.open

        def refuse(file, *args, **kwargs):
            if str(file) == str(config_path):
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", refuse)  # pathlib's reads
        monkeypatch.setattr(builtins, "open", refuse)
        assert run("generate", "--config", config_path, "--out", tmp_path / "data") == 4
        err = capsys.readouterr().err
        assert err == f"i/o error: [Errno 13] Permission denied: '{config_path}'\n", err


class TestParser:
    """main builds its parser once per process and looks each verb up by name."""

    VERBS = ("generate", "train", "evaluate", "characterize", "report")

    def test_parser_is_built_once(self, config_path, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        cli.build_parser.cache_clear()
        assert run("generate", "--config", config_path, "--out", tmp_path / "data") == 0
        assert built  # the first call builds it
        n_built = len(built)
        assert run("generate", "--config", config_path, "--out", tmp_path / "again") == 0
        assert run("train", "--config", config_path, "--dataset",
                   tmp_path / "data" / "manifest.json", "--out", tmp_path / "fit") == 0
        assert run("evaluate", "--model", "base", "--dataset", tmp_path / "data" / "manifest.json",
                   "--out", tmp_path / "eval") == 0
        assert len(built) == n_built

    def test_replaced_verb_runs(self, config_path, tmp_path, monkeypatch):
        assert run("generate", "--config", config_path, "--out", tmp_path / "data") == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_generate", lambda args: calls.append(args) or 7)
        assert run("generate", "--config", config_path, "--out", tmp_path / "other") == 7
        assert [args.out for args in calls] == [str(tmp_path / "other")]
        assert not (tmp_path / "other").exists()

    def test_no_flag_carries_over(self, config_path, tmp_path):
        """train --seed 8, then train without --seed, writes the model a freshly
        built parser writes with the config's seed 3."""
        assert run("generate", "--config", config_path, "--out", tmp_path / "data") == 0
        manifest = tmp_path / "data" / "manifest.json"
        for out, flags in (("seeded", ("--seed", 8)), ("unseeded", ()), ("fresh", ())):
            if out == "fresh":
                cli.build_parser.cache_clear()
            assert run("train", "--config", config_path, "--dataset", manifest,
                       "--out", tmp_path / out, *flags) == 0
        models_ = {out: (tmp_path / out / "model.json").read_bytes()
                   for out in ("seeded", "unseeded", "fresh")}
        assert json.loads(models_["seeded"])["seed"] == 8
        assert json.loads(models_["unseeded"])["seed"] == 3
        assert models_["unseeded"] == models_["fresh"]

    def test_usage_error_leaves_the_parser_working(self, config_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            run("generate", "--config", config_path, "--bogus")
        assert exit_.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert run("generate", "--config", config_path, "--out", tmp_path / "data") == 0
        assert (tmp_path / "data" / "manifest.json").is_file()

    def test_help_after_a_parse(self, config_path, tmp_path, capsys):
        """qude --help and qude <verb> --help print what they print from a fresh
        parser, after the parser has parsed a verb."""

        def help_text(*argv) -> str:
            with pytest.raises(SystemExit) as exit_:
                run(*argv, "--help")
            assert exit_.value.code == 0
            return capsys.readouterr().out

        argvs = [(), *((verb,) for verb in self.VERBS)]
        cli.build_parser.cache_clear()
        fresh = [help_text(*argv) for argv in argvs]
        assert run("generate", "--config", config_path, "--out", tmp_path / "data") == 0
        capsys.readouterr()
        for argv, text in zip(argvs, fresh):
            assert text.startswith(" ".join(("usage: qude", *argv))), text
            assert help_text(*argv) == text, argv


class TestEntryPoint:
    @staticmethod
    def python(*args, cwd=None, **env) -> subprocess.CompletedProcess:
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p), **env)
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                              capture_output=True, text=True, env=env, timeout=120, cwd=cwd)

    def test_chain_is_locale_free(self, tmp_path):
        """generate -> train -> evaluate -> characterize in the C locale, with a UTF-8
        comment in the config and the id 'exp-é' in the manifest and a record file,
        exits 0 at every verb and writes the bytes the chain writes in UTF-8 mode."""
        config = BASE_CONFIG.replace("[device]", "# T2 by Hahn echo, in µs\n[device]")
        chain = [("generate", "--config", "run.cfg", "--out", "data"),
                 ("train", "--config", "run.cfg", "--dataset", "data/manifest.json",
                  "--out", "fit"),
                 ("evaluate", "--model", "fit/model.json", "--dataset", "data/manifest.json",
                  "--out", "eval"),
                 ("characterize", "--model", "fit/model.json", "--out", "char")]
        outputs = {}
        for name, env in (("utf8", {"PYTHONUTF8": "1"}),
                          ("c", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})):
            root = tmp_path / name
            root.mkdir()
            (root / "run.cfg").write_bytes(config.encode("utf-8"))
            for argv in chain:
                proc = self.python("-m", "qude.cli", *argv, cwd=root, **env)
                assert proc.returncode == 0, (name, argv[0], proc.stderr)
                if argv[0] == "generate":  # kept as written, then exp-001 renamed exp-é
                    shutil.copytree(root / "data", root / "generated")
                    manifest = root / "data" / "manifest.json"
                    data = json.loads(manifest.read_bytes())
                    data["experiments"][1]["id"] = "exp-é"
                    manifest.write_bytes(json.dumps(data, indent=2, ensure_ascii=False).encode())
                    records = root / "data" / "exp-001.jsonl"
                    records.write_bytes(records.read_bytes().replace(b'"exp-001"',
                                                                     '"exp-é"'.encode()))
            outputs[name] = {path.relative_to(root): path.read_bytes()
                             for path in root.rglob("*") if path.is_file()}
            log = Path("fit/training_log.csv")  # its last column is wall time
            outputs[name][log] = b"".join(line.rsplit(b",", 1)[0]
                                          for line in outputs[name][log].splitlines())
        assert "exp-é".encode() in outputs["c"][Path("eval/energy.csv")]
        assert outputs["c"].keys() == outputs["utf8"].keys()
        for path, raw in outputs["utf8"].items():
            assert outputs["c"][path] == raw, path

    def test_evaluate_predicts_only_the_recorded_samples(self, tmp_path):
        """Ten 20 ns records evaluate to the same bytes under a 1e6 us duration as
        under their own 0.2 us, in a child held to 1 GiB of address space:
        evaluate predicts the samples the records hold, not the grid's 5e7."""
        short = BASE_CONFIG.replace("duration_us = 1.0", "duration_us = 0.2")
        assert run("generate", "--config", write_config(tmp_path, short), "--out",
                   tmp_path / "data") == 0
        manifest = tmp_path / "data" / "manifest.json"
        limited = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
                   "from qude import cli; sys.exit(cli.main(sys.argv[1:]))")
        for duration, out in ((0.2, "own"), (1e6, "long")):
            data = json.loads(manifest.read_text())
            for entry in data["experiments"]:
                entry["duration_us"] = duration
            manifest.write_text(json.dumps(data))
            proc = self.python("-c", limited, "evaluate", "--model", "base", "--dataset", manifest,
                               "--out", tmp_path / out, OPENBLAS_NUM_THREADS="1")
            assert proc.returncode == 0, proc.stderr
        for name in ("moments.csv", "histogram.csv", "energy.csv", "expected_trace_distance.csv"):
            assert (tmp_path / "own" / name).read_bytes() == (tmp_path / "long" / name).read_bytes()

    @pytest.mark.parametrize("edits, bound", [
        ([("duration_us = 1.0", "duration_us = 1e6")], "cli.MAX_SAMPLES"),
        ([("duration_us = 1.0", "duration_us = 1e6"),
          ("sample_dt_ns = 20.0", "sample_dt_ns = 2000.0"),
          ("ansatz = sp\nalpha", "ansatz = nonlinear\nmodel_file = net.json\nalpha")],
         "cli.MAX_NETWORK_STEPS"),
    ])
    def test_generate_bounds_its_work(self, edits, bound, tmp_path):
        """1e6 us at 20 ns asks for 1e8 samples, 9 GiB of states alone; at 2 us, with
        a nonlinear latent, for 5e8 network steps. generate exits 2 naming the keys
        within a second, in a child held to 1 GiB of address space, and writes nothing."""
        text = BASE_CONFIG
        for edit in edits:
            text = text.replace(*edit)
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0)
        cli.save_model(tmp_path / "net.json", models.make_source("nonlinear"), dev, "exp-gen",
                       0.5, 4.0, 0)
        child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
                 "from conftest import within\nfrom qude import cli\n"
                 "with within(1.0):\n    code = cli.main(sys.argv[1:])\nsys.exit(code)")
        proc = self.python("-c", child, "generate", "--config", write_config(tmp_path, text),
                           "--out", tmp_path / "out", cwd=Path(__file__).parent,
                           OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: ") and bound in proc.stderr, proc.stderr
        for key in ("n_experiments", "duration_us", "sample_dt_ns"):
            assert f"'[experiments] {key}'" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_module_run_does_not_warn(self):
        proc = self.python("-m", "qude.cli", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "usage: qude" in proc.stdout

    def test_package_attribute_loads_cli(self):
        proc = self.python("-c", "import sys, qude; assert 'qude.cli' not in sys.modules; "
                                 "assert callable(qude.cli.main)")
        assert proc.returncode == 0, proc.stderr
