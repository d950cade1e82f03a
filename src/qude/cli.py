"""Command-line entry point, configuration, and file formats.

Verbs: ``generate`` (synthetic twin datasets), ``train``, ``evaluate``,
``characterize`` (structure-preserving readout), and ``report`` (evaluate
plus characterize into one directory).

Formats are diff-able and locale-free: INI-style run configs, JSON for
models and dataset manifests, JSON Lines for records with fields
{exp_id, amplitude_MHz, time_us, shots, kx, ky, kz} (``shots == 0`` marks a
noiseless record whose counts hold exact probabilities), and RFC-4180 CSV
with '.' decimals for tables. Everything is deterministic under a fixed
seed; manifests record the seed, the config hash, and the toolkit version.

Exit codes: 0 success, 2 configuration or data error (a malformed or
inconsistent config, manifest, model or record file; faults found while
reading name the file, the line and the field), 3 numerical failure
(divergence, a non-finite gradient, a degenerate spectrum, an unphysical
rate), 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, dynamics, metrics, models, tomography, train
from .dynamics import DeviceModel, Experiment
from .models import UnphysicalRateError
from .qcore import DegenerateSpectrumError
from .tomography import SHOT_MODE_PER_AXIS, SHOT_MODE_SPLIT, RecordBlock
from .train import Dataset, TrainConfig

TWO_PI = 2.0 * np.pi

DATASET_SCHEMA = "qude-dataset-v1"
MODEL_SCHEMA = "qude-model-v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

REQUIRED = object()  # the schema default of a key that must be set


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


# -- configuration ----------------------------------------------------------------


def _field(data, key: str, path: Path, cast=float, where: str = "", default=REQUIRED):
    """``cast(data[key])`` of a config section or a JSON object, ``default`` if absent;
    a missing required key or a bad value is a data error naming file and key."""
    if not isinstance(data, dict) or key not in data:
        if default is REQUIRED:
            raise ConfigError(f"{path}: missing key {where + key!r}")
        return default
    try:
        return cast(data[key])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: bad value for {where + key!r}: {data[key]!r} ({err})") from None


def _choices(*values: str) -> tuple:
    """The SCHEMA row of a key that takes one of ``values``, the first by default."""

    def cast(raw: str) -> str:
        if raw not in values:
            raise ValueError(f"not one of {', '.join(values)}")
        return raw

    return cast, values[0]


def _floats(raw: str) -> list[float]:
    return [float(part) for part in raw.replace(",", " ").split()]


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("not a JSON boolean")
    return value


def _integral(value) -> int:
    """A JSON integer, or a float with an integral value, as an int."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError("not an integral number")


class RunConfig:
    """Typed view over the INI run configuration.

    SCHEMA maps each section and key to its cast and default (REQUIRED keys
    must be set where read; ``TrainConfig``'s fields give theirs). ``load``
    rejects any other section or key and casts every key that is set.
    """

    SCHEMA = {
        "device": {"base_model": (str, "lindblad"), "omega01_GHz": (float, REQUIRED),
                   "omega_rot_GHz": (float, None), "T1_us": (float, REQUIRED),
                   "T2_us": (float, REQUIRED), "dim": (int, 2)},
        "latent": {"ansatz": (str, "none"), "model_file": (str, None),
                   "alpha_kHz": (_floats, ()), "gamma_inv_us": (_floats, ())},  # (): zeros
        "experiments": {"seed": (int, 0), "n_experiments": (int, 5),
                        "p_max_MHz": (float, REQUIRED), "duration_us": (float, REQUIRED),
                        "sample_dt_ns": (float, 4.0), "shots": (int, 5000),
                        "shot_mode": _choices(SHOT_MODE_PER_AXIS, SHOT_MODE_SPLIT)},
        "training": {
            "ansatz": _choices(models.KIND_SP, models.KIND_AFFINE, models.KIND_NONLINEAR),
            "train_horizon_us": (float, None), "hidden_layers": (int, 2),
            "gamma_mode": _choices("squared", "signed"),
            **{f.name: (type(f.default) if isinstance(f.default, (int, float)) else str, f.default)
               for f in fields(TrainConfig)},
        },
        "output": {"directory": (str, "out")},
    }

    def __init__(self, parser: configparser.ConfigParser, path: Path):
        self.path = path
        self._raw = {}  # section -> {declared key: text}
        for section in parser.sections():
            if section not in self.SCHEMA:
                raise ConfigError(f"unknown section [{section}] in {path}")
            declared = {parser.optionxform(key): key for key in self.SCHEMA[section]}
            raw = self._raw[section] = {}
            for key, text in parser.items(section):
                if key not in declared:
                    raise ConfigError(f"unknown key [{section}] {key} in {path}")
                key = declared[key]
                raw[key] = text
                _field(raw, key, path, self.SCHEMA[section][key][0], f"[{section}] ")

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            parser.read(path)
            return cls(parser, path)  # reading a value can raise an interpolation error
        except configparser.Error as err:
            raise ConfigError(f"cannot parse {path}: {err}") from err

    def sha256(self) -> str:
        return hashlib.sha256(self.path.read_bytes()).hexdigest()

    def get(self, section: str, key: str, override=None):
        """``[section] key`` cast by its SCHEMA row, or the row's default when
        unset; an ``override`` that is not None (a command-line flag) wins."""
        if override is not None:
            return override
        cast, default = self.SCHEMA[section][key]
        return _field(self._raw.get(section, {}), key, self.path, cast, f"[{section}] ", default)

    def device(self, base_override: str | None = None) -> DeviceModel:
        return DeviceModel(
            omega01_GHz=self.get("device", "omega01_GHz"),
            omega_rot_GHz=self.get("device", "omega_rot_GHz"),
            T1_us=self.get("device", "T1_us"),
            T2_us=self.get("device", "T2_us"),
            base_kind=base_override or self.get("device", "base_model"),
            dim=self.get("device", "dim"),
        )

    def latent_source(self):
        kind = self.get("latent", "ansatz")
        if kind in ("none", ""):
            return None
        model_file = self.get("latent", "model_file")
        if model_file is not None:
            source, _ = load_model(Path(self.path).parent / model_file)
            return source
        if kind != models.KIND_SP:
            raise ConfigError(
                f"latent ansatz {kind!r} needs a model_file with its parameters"
            )
        dim = self.get("device", "dim")
        n = dim * dim - 1
        alpha_khz = self.get("latent", "alpha_kHz")
        gamma_inv = self.get("latent", "gamma_inv_us")
        if alpha_khz and len(alpha_khz) != n:
            raise ConfigError(f"[latent] alpha_kHz needs {n} entries")
        if gamma_inv and len(gamma_inv) != n:
            raise ConfigError(f"[latent] gamma_inv_us needs {n} entries")
        alpha = TWO_PI * 1e-3 * np.asarray(alpha_khz) if alpha_khz else np.zeros(n)
        if gamma_inv:
            gammas = np.array([1.0 / g if g > 0 else 0.0 for g in gamma_inv])
        else:
            gammas = np.zeros(n)
        return models.StructurePreservingSource(
            dim=dim, alpha=alpha, gamma_raw=np.sqrt(gammas)
        )

    def train_config(self, args) -> TrainConfig:
        """The ``[training]`` values of ``TrainConfig``'s fields; a flag of the
        same name (``--mode``, ``--seed``) overrides."""
        return TrainConfig(**{f.name: self.get("training", f.name, getattr(args, f.name, None))
                              for f in fields(TrainConfig)})


# -- helpers ------------------------------------------------------------------------


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _device_to_json(dev: DeviceModel) -> dict:
    return {
        "omega01_GHz": dev.omega01_GHz,
        "omega_rot_GHz": dev.omega_rot_GHz,
        "T1_us": dev.T1_us,
        "T2_us": dev.T2_us,
        "base_model": dev.base_kind,
        "dim": dev.dim,
    }


def _read_json(path: Path) -> dict:
    """The JSON object in a file; malformed JSON is a data error."""
    try:
        data = json.loads(path.read_text())
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path}: malformed JSON: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return data


def _positive(value) -> float:
    """``value`` as a positive finite float; ValueError otherwise."""
    value = float(value)
    if not 0.0 < value < np.inf:
        raise ValueError(f"{value!r} is not a positive finite number")
    return value


def _device_from_json(data: dict, path: Path, base_override: str | None = None) -> DeviceModel:
    device = data.get("device")
    try:
        return DeviceModel(
            omega01_GHz=_field(device, "omega01_GHz", path, where="device."),
            omega_rot_GHz=_field(device, "omega_rot_GHz", path, where="device."),
            T1_us=_field(device, "T1_us", path, where="device."),
            T2_us=_field(device, "T2_us", path, where="device."),
            base_kind=base_override or _field(device, "base_model", path, str, "device."),
            dim=_field(device, "dim", path, _integral, "device."),
        )
    except ValueError as err:
        raise ConfigError(f"{path}: bad device: {err}") from None


def save_model(
    path: Path,
    source,
    dev: DeviceModel,
    mode: str,
    train_horizon_us: float,
    dt_internal_ns: float,
    seed: int,
    extra: dict | None = None,
) -> None:
    payload = {
        "schema": MODEL_SCHEMA,
        "toolkit_version": __version__,
        "ansatz": source.kind,
        "dim": source.dim,
        "mode": mode,
        "train_horizon_us": train_horizon_us,
        "dt_internal_ns": dt_internal_ns,
        "basis_convention": "gell-mann-standard+elementary-hermitian",
        "units": {"alpha": "rad/us", "gamma": "1/us", "time": "us"},
        "params": [float(v) for v in source.pack()],
        "seed": seed,
        "device": _device_to_json(dev),
    }
    if source.kind == models.KIND_SP:
        payload["signed_gamma"] = source.signed
    else:
        payload["n_layers"] = source.n_layers
        payload["activation"] = source.activation
    if extra:
        payload.update(extra)
    _json_dump(payload, path)


def load_model(path: str | Path):
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"model file not found: {path}")
    data = _read_json(path)
    if data.get("schema") != MODEL_SCHEMA:
        raise ConfigError(f"{path} is not a {MODEL_SCHEMA} file")
    kind = _field(data, "ansatz", path, str)
    dim = _field(data, "dim", path, _integral)
    theta = _field(data, "params", path, lambda v: np.asarray(v, dtype=float))
    for key in ("train_horizon_us", "dt_internal_ns"):
        data[key] = _field(data, key, path, _positive)
    signed = _field(data, "signed_gamma", path, _json_bool, default=False)
    hidden = _field(data, "n_layers", path, _integral, default=1) - 1
    try:
        template = models.make_source(kind, dim=dim, hidden_layers=max(hidden, 0), signed=signed)
        return template.with_params(theta), data
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from None


def write_dataset(
    out_dir: Path,
    dev: DeviceModel,
    experiments: list[tuple[Experiment, RecordBlock]],
    seed: int,
    config_sha: str,
    shots: int,
    shot_mode: str,
    dt_internal_ns: float,
    latent_info: dict,
) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_entries = []
    for exp, block in experiments:
        fname = f"{exp.id}.jsonl"
        # The bytes json.dumps gives for each row's dict, with the exp_id and
        # amplitude prefix encoded once per file.
        prefix = '{"exp_id": %s, "amplitude_MHz": %s, ' % (
            json.dumps(exp.id), json.dumps(exp.amplitude_p_MHz)
        )
        columns = zip(
            block.times_us.tolist(),
            block.shots.tolist(),
            block.counts.tolist(),
            block.counts.astype(np.int64).tolist(),
        )
        with (out_dir / fname).open("w") as fh:
            for time_us, shots_row, counts, int_counts in columns:
                kx, ky, kz = counts if shots_row == 0 else int_counts
                fh.write(
                    f'{prefix}"time_us": {time_us!r}, "shots": {shots_row!r}, '
                    f'"kx": {kx!r}, "ky": {ky!r}, "kz": {kz!r}}}\n'
                )
        manifest_entries.append(
            {
                "id": exp.id,
                "amplitude_p_MHz": exp.amplitude_p_MHz,
                "amplitude_q_MHz": exp.amplitude_q_MHz,
                "duration_us": exp.duration_us,
                "sample_dt_ns": exp.sample_dt_ns,
                "file": fname,
                "n_records": len(block),
            }
        )
    manifest = {
        "schema": DATASET_SCHEMA,
        "toolkit_version": __version__,
        "seed": seed,
        "config_sha256": config_sha,
        "shots": shots,
        "shot_mode": shot_mode,
        "dt_internal_ns": dt_internal_ns,
        "device": _device_to_json(dev),
        "latent": latent_info,
        "experiments": manifest_entries,
    }
    manifest_path = out_dir / "manifest.json"
    _json_dump(manifest, manifest_path)
    return manifest_path


RECORD_FIELDS = ("time_us", "shots", "kx", "ky", "kz")


def _read_records(path: Path, exp: Experiment) -> RecordBlock:
    """The record block of one JSON Lines file, every row checked against
    itself and against the manifest entry ``exp``."""
    rows, line_numbers = [], []
    with path.open() as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except ValueError as err:
                raise ConfigError(f"{path}:{number}: malformed JSON: {err}") from None
            line_numbers.append(number)
            if not isinstance(rows[-1], dict):
                raise ConfigError(f"{path}:{number}: expected a JSON object")

    def reject(bad, field: str, problem: str) -> None:
        bad = np.asarray(bad, dtype=bool)
        if bad.any():
            number = line_numbers[int(np.argmax(bad))]
            raise ConfigError(f"{path}:{number}: field {field!r} {problem}")

    for field, expected in (("exp_id", exp.id), ("amplitude_MHz", exp.amplitude_p_MHz)):
        reject([row.get(field) != expected for row in rows], field,
               f"does not match the manifest entry ({expected!r})")
    columns = {}
    for field in RECORD_FIELDS:
        values = [row.get(field) for row in rows]
        reject([type(v) not in (int, float) for v in values], field, "is missing or not a number")
        columns[field] = np.array(values, dtype=float)
        reject(~np.isfinite(columns[field]), field, "is not finite")
    shots = columns["shots"]
    reject((shots < 0) | (shots != np.floor(shots)), "shots", "is not a non-negative integer")
    limit = np.where(shots > 0, shots, 1.0)
    for field in ("kx", "ky", "kz"):
        count = columns[field]
        problem = "is outside [0, shots] ([0, 1] when shots is 0)"
        reject((count < 0) | (count > limit), field, problem)
    counts = np.stack([columns["kx"], columns["ky"], columns["kz"]], axis=1)
    return RecordBlock.from_counts(columns["time_us"], shots, counts)


def load_dataset(
    manifest_path: str | Path,
    train_horizon_us: float | None = None,
    base_override: str | None = None,
) -> tuple[Dataset, DeviceModel, dict]:
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ConfigError(f"dataset manifest not found: {manifest_path}")
    manifest = _read_json(manifest_path)
    if manifest.get("schema") != DATASET_SCHEMA:
        raise ConfigError(f"{manifest_path} is not a {DATASET_SCHEMA} manifest")
    dev = _device_from_json(manifest, manifest_path, base_override)
    experiments = []
    total = 0.0
    for n, entry in enumerate(_field(manifest, "experiments", manifest_path, list)):
        where = f"experiments[{n}]."
        try:
            exp = Experiment(
                id=_field(entry, "id", manifest_path, str, where),
                amplitude_p_MHz=_field(entry, "amplitude_p_MHz", manifest_path, where=where),
                amplitude_q_MHz=_field(entry, "amplitude_q_MHz", manifest_path, float, where, 0.0),
                duration_us=_field(entry, "duration_us", manifest_path, where=where),
                sample_dt_ns=_field(entry, "sample_dt_ns", manifest_path, where=where),
            )
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{manifest_path}: bad {where[:-1]}: {err}") from None
        data_file = manifest_path.parent / _field(entry, "file", manifest_path, str, where)
        if not data_file.is_file():
            raise ConfigError(f"dataset file missing: {data_file}")
        experiments.append((exp, _read_records(data_file, exp)))
        total = max(total, exp.duration_us)
    horizon = train_horizon_us if train_horizon_us is not None else total
    dataset = Dataset(experiments, train_horizon_us=horizon, total_horizon_us=total)
    return dataset, dev, manifest


# -- commands -----------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = RunConfig.load(args.config)
    dev = cfg.device()
    latent = cfg.latent_source()
    seed = cfg.get("experiments", "seed", args.seed)
    n_exp = cfg.get("experiments", "n_experiments")
    p_max = cfg.get("experiments", "p_max_MHz")
    duration = cfg.get("experiments", "duration_us")
    sample_dt = cfg.get("experiments", "sample_dt_ns")
    shots = cfg.get("experiments", "shots")
    shot_mode = cfg.get("experiments", "shot_mode")
    dt_internal = cfg.get("training", "dt_internal_ns")
    out_dir = Path(cfg.get("output", "directory", args.out))

    amp_rng = np.random.default_rng([seed, 0])
    amplitudes = [p_max * (1.0 - amp_rng.random()) for _ in range(n_exp)]
    exps = [
        Experiment(
            id=f"exp-{i:03d}",
            amplitude_p_MHz=float(a),
            duration_us=duration,
            sample_dt_ns=sample_dt,
        )
        for i, a in enumerate(amplitudes)
    ]

    trajectories = dynamics.integrate_many(dev, exps, latent, dt_internal)
    results = [
        (exp, tomography.simulate_records(traj, shots, np.random.default_rng([seed, 1 + i]),
                                          shot_mode))
        for i, (exp, traj) in enumerate(zip(exps, trajectories))
    ]

    if latent is None:
        latent_info = {"ansatz": "none"}
    elif latent.kind == models.KIND_SP:
        latent_info = {
            "ansatz": latent.kind,
            "alpha_rad_per_us": [float(v) for v in latent.alpha],
            "gamma_per_us": [float(v) for v in latent.gammas],
        }
    else:
        latent_info = {"ansatz": latent.kind, "params": [float(v) for v in latent.pack()]}

    manifest_path = write_dataset(
        out_dir,
        dev,
        results,
        seed=seed,
        config_sha=cfg.sha256(),
        shots=shots,
        shot_mode=shot_mode,
        dt_internal_ns=dt_internal,
        latent_info=latent_info,
    )
    n_records = sum(len(records) for _, records in results)
    print(f"wrote {len(results)} experiments, {n_records} records -> {manifest_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    ansatz_kind = cfg.get("training", "ansatz", args.ansatz)
    horizon = cfg.get("training", "train_horizon_us", args.train_horizon_us)
    dataset, dev, _ = load_dataset(args.dataset, train_horizon_us=horizon, base_override=args.base)
    config = cfg.train_config(args)
    template = models.make_source(
        ansatz_kind,
        dim=dev.dim,
        hidden_layers=cfg.get("training", "hidden_layers"),
        seed=config.seed,
        signed=cfg.get("training", "gamma_mode") == "signed",
    )

    result = train.fit(dataset, dev, template, config)
    fitted = template.with_params(result.theta_star)

    out_dir = Path(cfg.get("output", "directory", args.out))
    out_dir.mkdir(parents=True, exist_ok=True)
    eval_dataset = (
        dataset.restrict(config.experiment_id)
        if config.mode == train.MODE_EXP_SPEC
        else dataset
    )
    train_loss, val_loss = train.split_losses(eval_dataset, dev, fitted, config.dt_internal_ns)

    model_path = out_dir / "model.json"
    save_model(
        model_path,
        fitted,
        dev,
        mode=config.mode,
        train_horizon_us=dataset.train_horizon_us,
        dt_internal_ns=config.dt_internal_ns,
        seed=config.seed,
        extra={
            "final_train_loss": train_loss,
            "final_validation_loss": val_loss,
            "stalled": result.stalled,
        },
    )
    log_rows = [
        [i, result.phases[i], result.loss_history[i], result.grad_norm_history[i], result.elapsed_s[i]]
        for i in range(len(result.loss_history))
    ]
    _write_csv(out_dir / "training_log.csv", ["iteration", "phase", "loss", "grad_norm", "elapsed_s"], log_rows)
    print(f"final train loss: {train_loss!r}")
    print(f"final validation loss: {val_loss!r}")
    print(f"model -> {model_path}")
    return EXIT_OK


def _load_model_or_base(args, manifest_dev: DeviceModel):
    if args.model == "base":
        dev = replace(manifest_dev, base_kind=args.base) if args.base else manifest_dev
        return None, dev, {"ansatz": "base", "train_horizon_us": None}
    source, data = load_model(args.model)
    dev = _device_from_json(data, Path(args.model), args.base)
    return source, dev, data


def cmd_evaluate(args) -> int:
    dataset, manifest_dev, _ = load_dataset(args.dataset)
    source, dev, model_data = _load_model_or_base(args, manifest_dev)
    if dev.dim != manifest_dev.dim:
        raise ConfigError(
            f"model dimension {dev.dim} does not match dataset dimension {manifest_dev.dim}"
        )
    horizon = args.train_horizon_us
    if horizon is None:
        horizon = model_data["train_horizon_us"] or dataset.total_horizon_us
    dt_internal = model_data.get("dt_internal_ns") or dynamics.DEFAULT_DT_INTERNAL_NS
    model_name = model_data.get("ansatz", "base")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    report, predictions = metrics.evaluate_model(
        model_name, dev, source, dataset.experiments, horizon, dt_internal
    )

    _write_csv(
        out_dir / "moments.csv",
        ["model", "split", "mean", "stddev", "count"],
        [[r.model, r.split, r.mean, r.stddev, r.count] for r in report.moments],
    )
    hist_rows = []
    for split_tag, (edges, densities) in sorted(report.histogram.items()):
        for b in range(len(densities)):
            hist_rows.append(
                [model_name, split_tag, float(edges[b]), float(edges[b + 1]), float(densities[b])]
            )
    _write_csv(
        out_dir / "histogram.csv",
        ["model", "split", "bin_lo", "bin_hi", "density"],
        hist_rows,
    )
    energy_rows = []
    for exp, block in dataset.experiments:
        e_pred = tomography.expected_energy_many(predictions[exp.id].states)
        e_tgt = tomography.expected_energy_many(block.rho_hat)
        energy_rows.extend(
            [exp.id, t, e, e_t]
            for t, e, e_t in zip(block.times_us.tolist(), e_pred.tolist(), e_tgt.tolist())
        )
    _write_csv(
        out_dir / "energy.csv",
        ["exp_id", "time_us", "energy_pred", "energy_target"],
        energy_rows,
    )
    etd_rows = [
        [model_name, split_tag, mean, se, n]
        for split_tag, (mean, se, n) in sorted(report.expected_trace_distance.items())
    ]
    _write_csv(
        out_dir / "expected_trace_distance.csv",
        ["model", "split", "mean", "stderr", "n_experiments"],
        etd_rows,
    )
    for row in report.moments:
        print(f"{row.model} {row.split}: mean={row.mean:.6g} stddev={row.stddev:.6g}")
    print(f"reports -> {out_dir}")
    return EXIT_OK


def cmd_characterize(args) -> int:
    source, data = load_model(args.model)
    if source.kind != models.KIND_SP:
        raise ConfigError(
            f"characterize needs a structure-preserving model, got {source.kind!r}"
        )
    if args.config:
        dev = RunConfig.load(args.config).device()
    else:
        dev = _device_from_json(data, Path(args.model))

    s_h = models.sp_hermitian(source)
    to_khz = 1e3 / TWO_PI
    s_h_khz = s_h * to_khz
    times = models.effective_times(dev, source)
    gammas = source.gammas

    lines = []
    lines.append("Hermitian perturbation (kHz):")
    for row in range(source.dim):
        entries = []
        for col in range(source.dim):
            z = s_h_khz[row, col]
            entries.append(f"{z.real:+.4f}{z.imag:+.4f}i")
        lines.append("  [ " + "  ".join(entries) + " ]")
    lines.append(f"detuning perturbation: {s_h_khz[1, 1].real:.4f} kHz")
    lines.append(
        "inverse channel rates (us): "
        + ", ".join(f"{t:.4g}" for t in times.per_channel_us)
    )
    lines.append(f"T1_eff = {times.T1_eff_us:.4g} us (bare {dev.T1_us:.4g} us)")
    lines.append(f"T2_eff = {times.T2_eff_us:.4g} us (bare {dev.T2_us:.4g} us)")
    text = "\n".join(lines)
    print(text)

    payload = {
        "model_file": str(args.model),
        "toolkit_version": __version__,
        "alpha_kHz": [float(a * to_khz) for a in source.alpha],
        "hermitian_perturbation_kHz": {
            "re": [[float(z.real) for z in row] for row in s_h_khz],
            "im": [[float(z.imag) for z in row] for row in s_h_khz],
        },
        "detuning_kHz": float(s_h_khz[1, 1].real),
        "gamma_per_us": [float(g) for g in gammas],
        "inverse_channel_rates_us": [float(t) for t in times.per_channel_us],
        "T1_eff_us": float(times.T1_eff_us),
        "T2_eff_us": float(times.T2_eff_us),
        "T1_bare_us": dev.T1_us,
        "T2_bare_us": dev.T2_us,
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _json_dump(payload, out_dir / "characterization.json")
        (out_dir / "characterization.txt").write_text(text + "\n")
        print(f"characterization -> {out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    rc = cmd_evaluate(args)
    if rc != EXIT_OK:
        return rc
    source, _ = load_model(args.model) if args.model != "base" else (None, None)
    if source is not None and source.kind == models.KIND_SP:
        rc = cmd_characterize(args)
    return rc


# -- argument parsing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qude",
        description="Twin-data generation, training, and evaluation of augmented qubit models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="simulate a twin dataset")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="fit a source term to a dataset")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--dataset", required=True, help="dataset manifest path")
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--ansatz", choices=["sp", "affine", "nonlinear"], default=None)
    p_train.add_argument("--base", choices=["lvn", "lindblad"], default=None)
    p_train.add_argument("--mode", choices=["exp-gen", "exp-spec"], default=None)
    p_train.add_argument("--train-horizon-us", type=float, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a model against a dataset")
    p_eval.add_argument("--model", required=True, help="model file or 'base'")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--base", choices=["lvn", "lindblad"], default=None)
    p_eval.add_argument("--train-horizon-us", type=float, default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_char = sub.add_parser("characterize", help="interpret a structure-preserving model")
    p_char.add_argument("--model", required=True)
    p_char.add_argument("--config", default=None, help="optional device config override")
    p_char.add_argument("--out", default=None)
    p_char.set_defaults(func=cmd_characterize)

    p_rep = sub.add_parser("report", help="evaluate and characterize into one directory")
    p_rep.add_argument("--model", required=True)
    p_rep.add_argument("--dataset", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--base", choices=["lvn", "lindblad"], default=None)
    p_rep.add_argument("--train-horizon-us", type=float, default=None)
    p_rep.add_argument("--config", default=None)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        horizon = getattr(args, "train_horizon_us", None)
        if horizon is not None and not 0.0 < horizon < np.inf:
            raise ConfigError(f"--train-horizon-us must be positive and finite, got {horizon!r}")
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        dynamics.DivergenceError,
        train.GradientFailureError,
        DegenerateSpectrumError,  # a ValueError, so caught before the next clause
        UnphysicalRateError,  # likewise
    ) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:  # inconsistent config or data found past the loaders
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
