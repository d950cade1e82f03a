import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qude import cli, dynamics, models, tomography, train

import loop_oracle
import states

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
# that are cast when the config is loaded, whether or not the verb reads them
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
        assert run(verb, "--config", bad, "--out", tmp_path / "o", *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "bad.cfg" in err and key in err
        assert not (tmp_path / "o").exists()

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
        dataset, _, _ = cli.load_dataset(manifest)
        for block, (exp, loaded) in zip(blocks, dataset.experiments):
            for column in ("times_us", "shots", "counts", "probs", "rho_hat"):
                np.testing.assert_array_equal(getattr(loaded, column), getattr(block, column))

    @pytest.mark.parametrize("shots", [500, 0])
    def test_rows_are_json_dumps_of_each_record(self, config_path, tmp_path, shots):
        dev = cli.RunConfig.load(config_path).device()
        exp = dynamics.Experiment("exp-007", 1.0 / 3.0, duration_us=1.0, sample_dt_ns=20.0)
        block = tomography.simulate_records(dynamics.integrate_rk4(dev, exp), shots,
                                            np.random.default_rng(3))
        cli.write_dataset(tmp_path / "data", dev, [(exp, block)], seed=0, config_sha="0" * 64,
                          shots=shots, shot_mode="per-axis", dt_internal_ns=4.0,
                          latent_info={"ansatz": "none"})
        expected = "".join(
            json.dumps({"exp_id": exp.id, "amplitude_MHz": exp.amplitude_p_MHz,
                        "time_us": t, "shots": n, "kx": kx, "ky": ky, "kz": kz}) + "\n"
            for t, n, (kx, ky, kz) in zip(
                block.times_us.tolist(), block.shots.tolist(),
                (block.counts if shots == 0 else block.counts.astype(np.int64)).tolist(),
            )
        )
        assert (tmp_path / "data" / "exp-007.jsonl").read_bytes() == expected.encode()


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
        fit_dir = tmp_path / "fit"
        manifest = dataset_dir / "manifest.json"
        assert run("train", "--config", config_path, "--dataset", manifest, "--out", fit_dir) == 0
        source, data = cli.load_model(fit_dir / "model.json")
        dataset, dev, _ = cli.load_dataset(manifest, train_horizon_us=0.5)
        ref = loop_oracle.loss_by_split(dev, source, dataset.experiments, 0.5, 4.0)
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


def rewrite_line(path: Path, number: int, edit) -> None:
    lines = path.read_text().splitlines()
    lines[number - 1] = edit(lines[number - 1])
    path.write_text("\n".join(lines) + "\n")


def set_fields(**changes):
    def edit(line):
        row = json.loads(line)
        for key, value in changes.items():
            if value is None:
                del row[key]
            else:
                row[key] = value(row) if callable(value) else value
        return json.dumps(row)

    return edit


# fault -> (edit of line 3 of exp-001.jsonl, field the message must name)
RECORD_FAULTS = {
    "truncated-row": (lambda line: line[: len(line) // 2], "malformed JSON"),
    "missing-field": (set_fields(ky=None), "'ky'"),
    "not-a-number": (set_fields(time_us="0.06"), "'time_us'"),
    "non-finite": (set_fields(kz=float("nan")), "'kz'"),
    "non-integer-shots": (set_fields(shots=500.5), "'shots'"),
    "negative-shots": (set_fields(shots=-500), "'shots'"),
    "count-above-shots": (set_fields(kx=lambda row: row["shots"] + 400), "'kx'"),
    "negative-count": (set_fields(ky=-1), "'ky'"),
    "noiseless-count-above-one": (set_fields(shots=0, kx=1.5, ky=0.5, kz=0.0), "'kx'"),
    "exp-id-mismatch": (set_fields(exp_id="exp-000"), "'exp_id'"),
    "amplitude-mismatch": (
        set_fields(amplitude_MHz=lambda row: row["amplitude_MHz"] + 0.25), "'amplitude_MHz'"
    ),
}


# fault -> (verb, model-file changes, extra arguments, texts the message must name)
MODEL_FAULTS = {
    "horizon-not-a-number": (
        "evaluate", {"train_horizon_us": "soon"}, (), ("model.json", "'train_horizon_us'")),
    "horizon-negative": (
        "evaluate", {"train_horizon_us": -1.0}, (), ("model.json", "'train_horizon_us'")),
    "step-not-a-number": (
        "evaluate", {"dt_internal_ns": "soon"}, (), ("model.json", "'dt_internal_ns'")),
    "evaluate-flag-zero": ("evaluate", {}, ("--train-horizon-us", 0), ("--train-horizon-us",)),
    "report-flag-negative": ("report", {}, ("--train-horizon-us", -1), ("--train-horizon-us",)),
    "train-flag-zero": ("train", {}, ("--train-horizon-us", 0), ("--train-horizon-us",)),
    "train-flag-negative": ("train", {}, ("--train-horizon-us", -1), ("--train-horizon-us",)),
}


# fault -> (source kind, model-file changes, key the message must name)
MODEL_FIELD_FAULTS = {
    "signed-gamma-string": ("sp", {"signed_gamma": "false"}, "'signed_gamma'"),
    "n-layers-fractional": ("nonlinear", {"n_layers": 3.7}, "'n_layers'"),
    "dim-fractional": ("sp", {"dim": 2.5}, "'dim'"),
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
        edit, names = RECORD_FAULTS[fault]
        rewrite_line(dataset_dir / "exp-001.jsonl", 3, edit)
        assert self.train(config_path, dataset_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "exp-001.jsonl:3:" in err and names in err
        assert not (tmp_path / "fit" / "model.json").exists()

    def test_malformed_manifest(self, config_path, dataset_dir, tmp_path, capsys):
        manifest = dataset_dir / "manifest.json"
        manifest.write_text(manifest.read_text()[:40])
        assert self.train(config_path, dataset_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "malformed JSON" in err

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
        assert "dimension" in capsys.readouterr().err


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


class TestIOErrors:
    def test_output_path_collides_with_file(self, config_path, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        assert run("generate", "--config", config_path, "--out", blocker) == 4


class TestEntryPoint:
    @staticmethod
    def python(*args) -> subprocess.CompletedProcess:
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_module_run_does_not_warn(self):
        proc = self.python("-m", "qude.cli", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "usage: qude" in proc.stdout

    def test_package_attribute_loads_cli(self):
        proc = self.python("-c", "import sys, qude; assert 'qude.cli' not in sys.modules; "
                                 "assert callable(qude.cli.main)")
        assert proc.returncode == 0, proc.stderr
