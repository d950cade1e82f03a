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

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
error. QUDE_THREADS overrides --threads.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, dynamics, metrics, models, qcore, tomography, train
from .dynamics import DeviceModel, Experiment
from .models import UnphysicalRateError
from .qcore import DegenerateSpectrumError
from .tomography import TomographyRecord
from .train import Dataset, TrainConfig

TWO_PI = 2.0 * np.pi

DATASET_SCHEMA = "qude-dataset-v1"
MODEL_SCHEMA = "qude-model-v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


# -- configuration ----------------------------------------------------------------


class RunConfig:
    """Typed view over the INI run configuration."""

    def __init__(self, parser: configparser.ConfigParser, path: Path):
        self._cp = parser
        self.path = path

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            parser.read(path)
        except configparser.Error as err:
            raise ConfigError(f"cannot parse {path}: {err}") from err
        return cls(parser, path)

    def sha256(self) -> str:
        return hashlib.sha256(self.path.read_bytes()).hexdigest()

    def _get(self, section: str, key: str, cast, default=None, required: bool = False):
        if not self._cp.has_option(section, key):
            if required:
                raise ConfigError(f"missing [{section}] {key} in {self.path}")
            return default
        raw = self._cp.get(section, key)
        try:
            return cast(raw)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({err})") from err

    def get_float(self, section, key, default=None, required=False):
        return self._get(section, key, float, default, required)

    def get_int(self, section, key, default=None, required=False):
        return self._get(section, key, int, default, required)

    def get_str(self, section, key, default=None, required=False):
        return self._get(section, key, lambda s: s.strip(), default, required)

    def get_floats(self, section, key, default=None, required=False):
        def cast(raw):
            return [float(part) for part in raw.replace(",", " ").split()]

        return self._get(section, key, cast, default, required)

    def device(self, base_override: str | None = None) -> DeviceModel:
        base = base_override or self.get_str("device", "base_model", default="lindblad")
        omega = self.get_float("device", "omega01_GHz", required=True)
        return DeviceModel(
            omega01_GHz=omega,
            omega_rot_GHz=self.get_float("device", "omega_rot_GHz", default=None),
            T1_us=self.get_float("device", "T1_us", required=True),
            T2_us=self.get_float("device", "T2_us", required=True),
            base_kind=base,
            dim=self.get_int("device", "dim", default=2),
        )

    def latent_source(self):
        kind = self.get_str("latent", "ansatz", default="none")
        if kind in ("none", ""):
            return None
        model_file = self.get_str("latent", "model_file", default=None)
        if model_file is not None:
            source, _ = load_model(Path(self.path).parent / model_file)
            return source
        if kind != models.KIND_SP:
            raise ConfigError(
                f"latent ansatz {kind!r} needs a model_file with its parameters"
            )
        dim = self.get_int("device", "dim", default=2)
        n = dim * dim - 1
        alpha_khz = self.get_floats("latent", "alpha_kHz", default=[0.0] * n)
        gamma_inv = self.get_floats("latent", "gamma_inv_us", default=[])
        if len(alpha_khz) != n:
            raise ConfigError(f"[latent] alpha_kHz needs {n} entries")
        if gamma_inv and len(gamma_inv) != n:
            raise ConfigError(f"[latent] gamma_inv_us needs {n} entries")
        alpha = TWO_PI * 1e-3 * np.asarray(alpha_khz)
        if gamma_inv:
            gammas = np.array([1.0 / g if g > 0 else 0.0 for g in gamma_inv])
        else:
            gammas = np.zeros(n)
        return models.StructurePreservingSource(
            dim=dim, alpha=alpha, gamma_raw=np.sqrt(gammas)
        )

    def train_config(self, args) -> TrainConfig:
        mode = getattr(args, "mode", None) or self.get_str(
            "training", "mode", default=train.MODE_EXP_GEN
        )
        seed = getattr(args, "seed", None)
        if seed is None:
            seed = self.get_int("training", "seed", default=0)
        try:
            return TrainConfig(
                mode=mode,
                experiment_id=self.get_str("training", "experiment_id", default=None),
                adam_lr=self.get_float("training", "adam_lr", default=1e-3),
                adam_epochs=self.get_int("training", "adam_epochs", default=300),
                adam_batch=self.get_int("training", "adam_batch", default=1),
                adam_beta1=self.get_float("training", "adam_beta1", default=0.9),
                adam_beta2=self.get_float("training", "adam_beta2", default=0.999),
                adam_eps=self.get_float("training", "adam_eps", default=1e-8),
                lbfgs_memory=self.get_int("training", "lbfgs_memory", default=10),
                lbfgs_max_iters=self.get_int("training", "lbfgs_max_iters", default=200),
                armijo_c=self.get_float("training", "armijo_c", default=1e-4),
                min_step=self.get_float("training", "min_step", default=1e-14),
                grad_method=self.get_str(
                    "training", "grad_method", default=train.GRAD_DISCRETE_ADJOINT
                ),
                dt_internal_ns=self.get_float(
                    "training", "dt_internal_ns", default=dynamics.DEFAULT_DT_INTERNAL_NS
                ),
                seed=seed,
            )
        except ValueError as err:
            raise ConfigError(str(err)) from err


# -- helpers ------------------------------------------------------------------------


def _float(x) -> float:
    return float(x)


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _thread_map(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _resolve_threads(args) -> int:
    env = os.environ.get("QUDE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as err:
            raise ConfigError(f"QUDE_THREADS must be an integer, got {env!r}") from err
    return max(1, getattr(args, "threads", 1) or 1)


def _device_to_json(dev: DeviceModel) -> dict:
    return {
        "omega01_GHz": dev.omega01_GHz,
        "omega_rot_GHz": dev.omega_rot_GHz,
        "T1_us": dev.T1_us,
        "T2_us": dev.T2_us,
        "base_model": dev.base_kind,
        "dim": dev.dim,
    }


def _device_from_json(data: dict, base_override: str | None = None) -> DeviceModel:
    return DeviceModel(
        omega01_GHz=_float(data["omega01_GHz"]),
        omega_rot_GHz=_float(data["omega_rot_GHz"]),
        T1_us=_float(data["T1_us"]),
        T2_us=_float(data["T2_us"]),
        base_kind=base_override or data["base_model"],
        dim=int(data["dim"]),
    )


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
    data = json.loads(path.read_text())
    if data.get("schema") != MODEL_SCHEMA:
        raise ConfigError(f"{path} is not a {MODEL_SCHEMA} file")
    kind = data["ansatz"]
    dim = int(data["dim"])
    theta = np.asarray(data["params"], dtype=float)
    if kind == models.KIND_SP:
        template = models.StructurePreservingSource(
            dim=dim, signed=bool(data.get("signed_gamma", False))
        )
    else:
        hidden = int(data.get("n_layers", 1)) - 1
        template = models.make_source(kind, dim=dim, hidden_layers=max(hidden, 0))
    return template.with_params(theta), data


def write_dataset(
    out_dir: Path,
    dev: DeviceModel,
    experiments: list[tuple[Experiment, list[TomographyRecord]]],
    seed: int,
    config_sha: str,
    shots: int,
    shot_mode: str,
    dt_internal_ns: float,
    latent_info: dict,
) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_entries = []
    for exp, records in experiments:
        fname = f"{exp.id}.jsonl"
        with (out_dir / fname).open("w") as fh:
            for rec in records:
                if rec.shots == 0:
                    kx, ky, kz = (float(c) for c in rec.counts)
                else:
                    kx, ky, kz = (int(c) for c in rec.counts)
                row = {
                    "exp_id": exp.id,
                    "amplitude_MHz": exp.amplitude_p_MHz,
                    "time_us": rec.time_us,
                    "shots": rec.shots,
                    "kx": kx,
                    "ky": ky,
                    "kz": kz,
                }
                fh.write(json.dumps(row) + "\n")
        manifest_entries.append(
            {
                "id": exp.id,
                "amplitude_p_MHz": exp.amplitude_p_MHz,
                "amplitude_q_MHz": exp.amplitude_q_MHz,
                "duration_us": exp.duration_us,
                "sample_dt_ns": exp.sample_dt_ns,
                "file": fname,
                "n_records": len(records),
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


def load_dataset(
    manifest_path: str | Path,
    train_horizon_us: float | None = None,
    base_override: str | None = None,
) -> tuple[Dataset, DeviceModel, dict]:
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ConfigError(f"dataset manifest not found: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("schema") != DATASET_SCHEMA:
        raise ConfigError(f"{manifest_path} is not a {DATASET_SCHEMA} manifest")
    dev = _device_from_json(manifest["device"], base_override)
    root = manifest_path.parent
    experiments = []
    total = 0.0
    for entry in manifest["experiments"]:
        exp = Experiment(
            id=entry["id"],
            amplitude_p_MHz=_float(entry["amplitude_p_MHz"]),
            amplitude_q_MHz=_float(entry.get("amplitude_q_MHz", 0.0)),
            duration_us=_float(entry["duration_us"]),
            sample_dt_ns=_float(entry["sample_dt_ns"]),
        )
        rows = []
        data_file = root / entry["file"]
        if not data_file.is_file():
            raise ConfigError(f"dataset file missing: {data_file}")
        with data_file.open() as fh:
            for line in fh:
                if line.strip():
                    rows.append(json.loads(line))
        rows.sort(key=lambda r: r["time_us"])
        probs = np.empty((len(rows), 3))
        for i, row in enumerate(rows):
            shots = row["shots"]
            counts = np.array([row["kx"], row["ky"], row["kz"]], dtype=float)
            probs[i] = counts if shots == 0 else counts / shots
        rho_hats = tomography.lie_reconstruct_many(
            probs, np.array([r["time_us"] for r in rows])
        )
        records = [
            TomographyRecord(
                time_us=_float(row["time_us"]),
                shots=int(row["shots"]),
                counts=(row["kx"], row["ky"], row["kz"]),
                probs_hat=tuple(probs[i]),
                rho_hat=rho_hats[i],
            )
            for i, row in enumerate(rows)
        ]
        experiments.append((exp, records))
        total = max(total, exp.duration_us)
    horizon = train_horizon_us if train_horizon_us is not None else total
    dataset = Dataset(experiments, train_horizon_us=horizon, total_horizon_us=total)
    return dataset, dev, manifest


# -- commands -----------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = RunConfig.load(args.config)
    threads = _resolve_threads(args)
    dev = cfg.device()
    latent = cfg.latent_source()
    seed = args.seed if args.seed is not None else cfg.get_int("experiments", "seed", default=0)
    n_exp = cfg.get_int("experiments", "n_experiments", default=5)
    p_max = cfg.get_float("experiments", "p_max_MHz", required=True)
    duration = cfg.get_float("experiments", "duration_us", required=True)
    sample_dt = cfg.get_float("experiments", "sample_dt_ns", default=4.0)
    shots = cfg.get_int("experiments", "shots", default=5000)
    shot_mode = cfg.get_str("experiments", "shot_mode", default=tomography.SHOT_MODE_PER_AXIS)
    dt_internal = cfg.get_float(
        "training", "dt_internal_ns", default=dynamics.DEFAULT_DT_INTERNAL_NS
    )
    out_dir = Path(args.out or cfg.get_str("output", "directory", default="out"))

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

    def simulate(item):
        i, exp = item
        traj = dynamics.integrate_rk4(dev, exp, latent, dt_internal)
        rng = np.random.default_rng([seed, 1 + i])
        return exp, tomography.simulate_records(traj, shots, rng, shot_mode)

    results = _thread_map(simulate, list(enumerate(exps)), threads)

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


def _loss_by_split(dev, source, experiments, t_tr_us, dt_internal_ns):
    """Unfiltered squared-Frobenius losses (train, validation)."""
    basis = qcore.hermitian_basis(dev.dim)
    weights = basis.gram_norms
    train_loss = 0.0
    val_loss = 0.0
    for exp, records in experiments:
        pred = dynamics.integrate_rk4(dev, exp, source, dt_internal_ns)
        times = np.array([r.time_us for r in records])
        idx = np.searchsorted(pred.times_us, times - 1e-12)
        x_pred = qcore.expand_many(pred.states[idx], basis)
        x_tgt = qcore.expand_many(np.stack([r.rho_hat for r in records]), basis)
        sq = np.einsum("sk,k->s", (x_pred - x_tgt) ** 2, weights)
        mask = train.in_train_split(times, t_tr_us)
        train_loss += float(sq[mask].sum())
        val_loss += float(sq[~mask].sum())
    return train_loss, val_loss


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    ansatz_kind = args.ansatz or cfg.get_str("training", "ansatz", default=models.KIND_SP)
    base = args.base or None
    horizon = args.train_horizon_us or cfg.get_float(
        "training", "train_horizon_us", default=None
    )
    dataset, dev, _ = load_dataset(args.dataset, train_horizon_us=horizon, base_override=base)
    if horizon is None:
        horizon = dataset.train_horizon_us
    config = cfg.train_config(args)
    if ansatz_kind not in (models.KIND_SP, models.KIND_AFFINE, models.KIND_NONLINEAR):
        raise ConfigError(f"unknown ansatz {ansatz_kind!r}")
    template = models.make_source(
        ansatz_kind,
        dim=dev.dim,
        hidden_layers=cfg.get_int("training", "hidden_layers", default=2),
        seed=config.seed,
        signed=cfg.get_str("training", "gamma_mode", default="squared") == "signed",
    )

    result = train.fit(dataset, dev, template, config)
    fitted = template.with_params(result.theta_star)

    out_dir = Path(args.out or cfg.get_str("output", "directory", default="out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    eval_experiments = (
        dataset.restrict(config.experiment_id or dataset.experiments[0][0].id).experiments
        if config.mode == train.MODE_EXP_SPEC
        else dataset.experiments
    )
    train_loss, val_loss = _loss_by_split(
        dev, fitted, eval_experiments, horizon, config.dt_internal_ns
    )

    model_path = out_dir / "model.json"
    save_model(
        model_path,
        fitted,
        dev,
        mode=config.mode,
        train_horizon_us=horizon,
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
        dev = (
            DeviceModel(
                omega01_GHz=manifest_dev.omega01_GHz,
                omega_rot_GHz=manifest_dev.omega_rot_GHz,
                T1_us=manifest_dev.T1_us,
                T2_us=manifest_dev.T2_us,
                base_kind=args.base or manifest_dev.base_kind,
                dim=manifest_dev.dim,
            )
            if args.base
            else manifest_dev
        )
        return None, dev, {"ansatz": "base", "train_horizon_us": None}
    source, data = load_model(args.model)
    dev = _device_from_json(data["device"], args.base)
    return source, dev, data


def cmd_evaluate(args) -> int:
    dataset, manifest_dev, _ = load_dataset(args.dataset)
    source, dev, model_data = _load_model_or_base(args, manifest_dev)
    if dev.dim != manifest_dev.dim:
        raise ValueError(
            f"model dimension {dev.dim} does not match dataset dimension {manifest_dev.dim}"
        )
    horizon = args.train_horizon_us or model_data.get("train_horizon_us") or dataset.total_horizon_us
    dt_internal = _float(model_data.get("dt_internal_ns") or dynamics.DEFAULT_DT_INTERNAL_NS)
    model_name = model_data.get("ansatz", "base")
    threads = _resolve_threads(args)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    report, predictions = metrics.evaluate_model(
        model_name, dev, source, dataset.experiments, horizon, dt_internal, threads=threads
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
    for exp, records in dataset.experiments:
        pred = predictions[exp.id]
        filtered = qcore.spectral_filter_many(pred.states, pred.times_us)
        e_pred = tomography.expected_energy_many(filtered)
        times = np.array([r.time_us for r in records])
        idx = np.searchsorted(pred.times_us, times - 1e-12)
        e_tgt = tomography.expected_energy_many(np.stack([r.rho_hat for r in records]))
        for j, rec_t in enumerate(times):
            energy_rows.append(
                [exp.id, float(rec_t), float(e_pred[idx[j]]), float(e_tgt[j])]
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
        dev = _device_from_json(data["device"])

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

    def add_common(p):
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)

    p_gen = sub.add_parser("generate", help="simulate a twin dataset")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", default=None)
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="fit a source term to a dataset")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--dataset", required=True, help="dataset manifest path")
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--ansatz", choices=["sp", "affine", "nonlinear"], default=None)
    p_train.add_argument("--base", choices=["lvn", "lindblad"], default=None)
    p_train.add_argument("--mode", choices=["exp-gen", "exp-spec"], default=None)
    p_train.add_argument("--train-horizon-us", type=float, default=None)
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a model against a dataset")
    p_eval.add_argument("--model", required=True, help="model file or 'base'")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--base", choices=["lvn", "lindblad"], default=None)
    p_eval.add_argument("--train-horizon-us", type=float, default=None)
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_char = sub.add_parser("characterize", help="interpret a structure-preserving model")
    p_char.add_argument("--model", required=True)
    p_char.add_argument("--config", default=None, help="optional device config override")
    p_char.add_argument("--out", default=None)
    add_common(p_char)
    p_char.set_defaults(func=cmd_characterize)

    p_rep = sub.add_parser("report", help="evaluate and characterize into one directory")
    p_rep.add_argument("--model", required=True)
    p_rep.add_argument("--dataset", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--base", choices=["lvn", "lindblad"], default=None)
    p_rep.add_argument("--train-horizon-us", type=float, default=None)
    p_rep.add_argument("--config", default=None)
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        dynamics.DivergenceError,
        train.GradientFailureError,
        DegenerateSpectrumError,
        UnphysicalRateError,
        ValueError,
    ) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
