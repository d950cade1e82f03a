"""The three benchmark workloads.

Load is closed-loop: one process runs one operation at a time, and the next
starts when the previous one has returned. An operation is one CLI verb, one
``train.fit`` or one evaluation; every operation is checked, and a failed
check counts it as failed. Inputs (configs, datasets, the in-memory twin)
are generated from the workload seed through qude's public API only.

Every workload reports the same end-to-end metrics, so the meaning of
``generate_s``, ``train_s`` and ``evaluate_s`` is given per workload in its
docstring. ``wall_s`` is the sum of the timed operations of one pass. All
end-to-end times come from ``clock.Clock`` (host-calibrated seconds); the
raw seconds are kept next to them.

A workload object is made per run: ``setup`` may be called several times
(the last call's state is used), then ``run_pass`` or ``traced_unit``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

# Dev1-like device and planted structure-preserving source of the paper's
# twin study (the same values the acceptance criteria use).
DEVICE = {"omega01_GHz": 3.448, "T1_us": 214.0, "T2_us": 32.0, "base_kind": "lindblad"}
PLANT_ALPHA_KHZ = (0.15, 2.18, 5.66)
PLANT_GAMMA_INV_US = (1686.0, 1686.0, 688.0)
P_MAX_MHZ = 3.47
PLANTED_DETUNING_KHZ = -2.0 * PLANT_ALPHA_KHZ[2]
DETUNING_REL_TOL = 0.10  # criterion 06's noisy-twin tolerance
# The planted detuning -2*alpha_3 is the source's zero-drive shift, so a fit
# pins it down only if some experiment drives the qubit weakly. Over 86
# seeds the chain-twin50 miss grew with the weakest drawn amplitude: at most
# 4.2% (median 0.5%) when it was at most 0.5 MHz, up to 6.5% when it was at
# most p_max / 4, and up to 10.2% above that. Criterion 06's seeds 0-4 all draw one below
# 0.7 MHz, criterion 07's seed 42 one at 0.49 MHz.
WEAK_DRIVE_MHZ = 0.5

CONFIG_TEMPLATE = """\
[device]
omega01_GHz = {omega01_GHz}
T1_us = {T1_us}
T2_us = {T2_us}
base_model = {base_kind}

[experiments]
n_experiments = {n_experiments}
p_max_MHz = {p_max}
duration_us = {duration_us}
sample_dt_ns = {sample_dt_ns}
shots = {shots}
seed = {seed}

[latent]
ansatz = sp
alpha_kHz = {alpha}
gamma_inv_us = {gamma_inv}

[training]
ansatz = sp
mode = exp-gen
train_horizon_us = {train_horizon_us}
adam_epochs = {adam_epochs}
adam_batch = {adam_batch}
adam_lr = 0.001
lbfgs_max_iters = {lbfgs_max_iters}
dt_internal_ns = {dt_internal_ns}
seed = {train_seed}
"""

EVAL_CSVS = ("moments.csv", "histogram.csv", "energy.csv", "expected_trace_distance.csv")
# Not byte-stable by design: it records elapsed wall time per iteration.
NONDETERMINISTIC_OUTPUTS = ("training_log.csv",)


class Ops:
    """Operations attempted and failed; failures are reported through ``log``."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self._log = log

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                self._log(f"operation failed: {label}: {problem}")


class PassResult:
    """Stage times, quality values and byte-comparable outputs of one pass."""

    def __init__(self):
        self.times: dict[str, float] = {}  # calibrated seconds per stage
        self.raw: dict[str, float] = {}  # raw seconds per stage
        self.quality: dict[str, float] = {}  # reported end-to-end quality metrics
        self.extra: dict[str, float] = {}  # recorded, not reported as end-to-end metrics
        self.outputs: dict[str, bytes] = {}

    def add(self, stage: str, span) -> None:
        self.times[stage] = self.times.get(stage, 0.0) + span.seconds
        self.raw[stage] = self.raw.get(stage, 0.0) + span.raw_s

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw.values())


def write_config(path: Path, seed: int, **sizes) -> Path:
    values = dict(DEVICE, p_max=P_MAX_MHZ, seed=seed, **sizes)
    values["alpha"] = ", ".join(str(a) for a in PLANT_ALPHA_KHZ)
    values["gamma_inv"] = ", ".join(str(g) for g in PLANT_GAMMA_INV_US)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(CONFIG_TEMPLATE.format(**values))
    return path


def drawn_amplitudes(seed: int, n_experiments: int) -> list[float]:
    """The drive amplitudes ``qude generate`` draws for an experiment seed."""
    rng = np.random.default_rng([seed, 0])
    return [P_MAX_MHZ * (1.0 - rng.random()) for _ in range(n_experiments)]


def weak_drive_seed(seed: int, n_experiments: int) -> int:
    """The first experiment seed from ``seed`` up whose draw has a weak-drive experiment."""
    while min(drawn_amplitudes(seed, n_experiments)) > WEAK_DRIVE_MHZ:
        seed += 1
    return seed


def planted_source(qude):
    alpha = 2.0 * np.pi * 1e-3 * np.array(PLANT_ALPHA_KHZ)
    gamma = 1.0 / np.array(PLANT_GAMMA_INV_US)
    return qude.models.StructurePreservingSource(dim=2, alpha=alpha, gamma_raw=np.sqrt(gamma))


def timed_call(clock, call):
    """(span, value, problems) of one operation; an escaped exception is a problem."""
    value, problems = None, []
    with clock.timed() as span:
        try:
            value = call()
        except (Exception, SystemExit) as exc:  # a failed operation, not a benchmark error
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            problems = [f"escaped {type(exc).__name__}: {exc} ({frame.filename}:{frame.lineno})"]
    return span, value, problems


# -- CLI chains ------------------------------------------------------------------------


def run_cli(qude, clock, argv: list[str]):
    """One CLI verb in-process through ``cli.main``: (span, problems)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        with redirect_stdout(out), redirect_stderr(err):
            return qude.cli.main(argv)

    span, code, problems = timed_call(clock, call)
    if not problems and code != 0:
        problems = [f"exit code {code}: {err.getvalue().strip()[-500:]}"]
    return span, problems


def check_dataset(manifest: Path, n_experiments: int, records_per_experiment: int) -> list[str]:
    if not manifest.is_file():
        return [f"{manifest.name} missing"]
    entries = json.loads(manifest.read_text())["experiments"]
    problems = []
    if len(entries) != n_experiments:
        problems.append(f"{len(entries)} experiments, expected {n_experiments}")
    for entry in entries:
        with (manifest.parent / entry["file"]).open() as fh:
            rows = sum(1 for line in fh if line.strip())
        if rows != records_per_experiment or entry["n_records"] != records_per_experiment:
            problems.append(
                f"{entry['id']}: {rows} records (manifest {entry['n_records']}), "
                f"expected {records_per_experiment}"
            )
    return problems


def csv_problems(path: Path) -> list[str]:
    """Every numeric field of a CSV must be finite."""
    if not path.is_file():
        return [f"{path.name} missing"]
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        return [f"{path.name} has no data rows"]
    for line, row in enumerate(rows[1:], start=2):
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue
            if not math.isfinite(value):
                return [f"{path.name} line {line}: non-finite value {field!r}"]
    return []


def check_model(fit_dir: Path) -> list[str]:
    path = fit_dir / "model.json"
    if not path.is_file():
        return ["model.json missing"]
    model = json.loads(path.read_text())
    problems = [
        f"{key} = {model.get(key)!r} is not finite"
        for key in ("final_train_loss", "final_validation_loss")
        if not isinstance(model.get(key), float) or not math.isfinite(model[key])
    ]
    return problems + csv_problems(fit_dir / "training_log.csv")


def extrapolation_distance(moments_csv: Path) -> float | None:
    with moments_csv.open(newline="") as fh:
        for row in csv.DictReader(fh):
            if row["split"] == "extrapolation":
                return float(row["mean"])
    return None


def check_detuning(path: Path, manifest: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    detuning = json.loads(path.read_text())["detuning_kHz"]
    miss = abs(detuning - PLANTED_DETUNING_KHZ) / abs(PLANTED_DETUNING_KHZ)
    if not miss <= DETUNING_REL_TOL:
        weakest = min(e["amplitude_p_MHz"] for e in json.loads(manifest.read_text())["experiments"])
        return [
            f"learned detuning {detuning:.4f} kHz misses planted "
            f"{PLANTED_DETUNING_KHZ:.2f} kHz by {100 * miss:.1f}% "
            f"(weakest drive {weakest:.3f} MHz)"
        ]
    return []


def snapshot(root: Path, prefix: str = "") -> dict[str, bytes]:
    """Bytes of every deterministic output file under ``root``."""
    return {
        prefix + path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in NONDETERMINISTIC_OUTPUTS
    }


def run_chain(qude, clock, ops: Ops, config: Path, out: Path, result: PassResult,
              n_experiments: int, records_per_experiment: int, characterize: bool) -> float | None:
    """generate -> train -> evaluate (-> characterize); returns the extrapolation distance."""
    shutil.rmtree(out, ignore_errors=True)
    data, fit, report = out / "data", out / "fit", out / "eval"
    manifest = data / "manifest.json"

    span, problems = run_cli(qude, clock, ["generate", "--config", str(config), "--out", str(data)])
    result.add("generate", span)
    if not problems:
        problems = check_dataset(manifest, n_experiments, records_per_experiment)
    ops.record("generate", problems)

    span, problems = run_cli(
        qude, clock,
        ["train", "--config", str(config), "--dataset", str(manifest), "--out", str(fit)],
    )
    result.add("train", span)
    if not problems:
        problems = check_model(fit)
    ops.record("train", problems)

    span, problems = run_cli(
        qude, clock,
        ["evaluate", "--model", str(fit / "model.json"), "--dataset", str(manifest),
         "--out", str(report)],
    )
    result.add("evaluate", span)
    distance = None
    if not problems:
        problems = [p for name in EVAL_CSVS for p in csv_problems(report / name)]
        distance = extrapolation_distance(report / "moments.csv")
        if distance is None:
            problems.append("moments.csv has no extrapolation row")
    ops.record("evaluate", problems)

    if characterize:
        span, problems = run_cli(
            qude, clock, ["characterize", "--model", str(fit / "model.json"), "--out", str(fit)]
        )
        result.add("characterize", span)
        if not problems:
            problems = check_detuning(fit / "characterization.json", manifest)
        ops.record("characterize", problems)
    return distance


# A one-experiment chain that touches every verb; set-up runs it so that lazy
# imports and first-call caches are filled before timing starts.
WARMUP_SIZES = dict(
    n_experiments=1, duration_us=0.2, sample_dt_ns=20.0, shots=100, train_horizon_us=0.1,
    adam_epochs=1, adam_batch=1, lbfgs_max_iters=1, dt_internal_ns=4.0, train_seed=0,
)


class _Chain:
    """Shared set-up of the CLI-chain workloads."""

    def setup(self, qude, clock, ops: Ops, workdir: Path, seed: int) -> dict[str, float]:
        self.qude, self.clock, self.ops, self.workdir = qude, clock, ops, workdir
        self.configs = [
            write_config(workdir / f"chain-{i}.cfg", s, **self.sizes)
            for i, s in enumerate(self.chain_seeds(seed))
        ]
        warm = write_config(workdir / "warm.cfg", seed, **WARMUP_SIZES)
        run_chain(qude, clock, ops, warm, workdir / "warm", PassResult(),
                  n_experiments=1, records_per_experiment=10, characterize=False)
        return {}

    def run_pass(self) -> PassResult:
        result = PassResult()
        distances = []
        for i, config in enumerate(self.configs):
            out = self.workdir / f"chain-{i}"
            distance = run_chain(
                self.qude, self.clock, self.ops, config, out, result,
                self.sizes["n_experiments"], self.records_per_experiment, self.characterize,
            )
            if distance is not None:
                distances.append(distance)
            result.outputs.update(snapshot(out, f"chain-{i}/"))
        if len(distances) == len(self.configs):
            result.quality["td_extrap_sp"] = float(np.median(distances))
        return result

    def traced_unit(self) -> PassResult:
        return self.run_pass()


class ChainTwin50(_Chain):
    """`generate` -> `train` (sp) -> `evaluate` -> `characterize` on a 5 x 50 us twin.

    Input: 5 experiments x 50 us at 4 ns, 5000 shots, T_Tr = 10 us, i.e.
    62,500 records. Training: criterion 06's 30 ADAM epochs at batch 5, then
    L-BFGS capped at 30 iterations (criterion 06 allows 200). Every seed
    tried needs more than 30 (35 to 162), so the fit always ends at its cap
    and does the same work whatever the seed. The config's experiment seed
    is ``weak_drive_seed(seed)``, so one experiment drives at most 0.5 MHz
    and the planted detuning is identifiable; it is then recovered within
    criterion 06's 10% (worst 4.2% over the seeds tried, see WEAK_DRIVE_MHZ).

    Why: record building, JSONL I/O, tomography inversion and the spectral
    filter dominate here, and the engine is a small part. ``generate_s``,
    ``train_s`` and ``evaluate_s`` are the CLI verbs; ``wall_s`` adds
    ``characterize``. Set-up writes the config and runs a tiny chain to fill
    first-call caches.
    """

    name = "chain-twin50"
    default_seed = 42  # criterion 07's twin seed
    records_per_experiment = 12_500
    characterize = True
    sizes = dict(
        n_experiments=5, duration_us=50.0, sample_dt_ns=4.0, shots=5000, train_horizon_us=10.0,
        adam_epochs=30, adam_batch=5, lbfgs_max_iters=30, dt_internal_ns=4.0, train_seed=0,
    )

    def chain_seeds(self, seed: int) -> list[int]:
        return [weak_drive_seed(seed, self.sizes["n_experiments"])]

    def definition(self, seed: int) -> dict:
        return {"seed": seed, "experiment_seed": self.chain_seeds(seed)[0],
                "weak_drive_MHz": WEAK_DRIVE_MHZ, "config": self.sizes, "records": 62_500,
                "operations": ["generate", "train", "evaluate", "characterize"]}


class ChainTiny(_Chain):
    """The criterion-10 config chain (`generate` -> `train` -> `evaluate`), 8 seeds a pass.

    Input per chain: 2 experiments x 2 us at 20 ns, 4 ns internal steps,
    T_Tr = 1 us, batch 2 (100 records per experiment), criterion 10's 10 ADAM
    epochs, and L-BFGS capped at 20 iterations (criterion 10 allows 50; seeds
    1-40 stop after 23 to 50, which moved the per-pass total by 13% from seed
    to seed). Chain i of a pass uses experiment seed ``seed + i``; the default
    seed makes chain 0 criterion 10's data.

    Why: the same engine used differently. Horizons are short (250 steps per
    loss) and each sample takes 5 substeps, while the other workloads take 1,
    so per-call fixed costs show: compile, step-matrix builds and config
    parsing. A log-depth or precomputed-table change that pays off at 2,500
    steps must show here if it costs at 250. ``generate_s``, ``train_s`` and
    ``evaluate_s`` are summed over the pass's chains.
    """

    name = "chain-tiny"
    default_seed = 77  # criterion 10's experiment seed
    chains = 8
    records_per_experiment = 100
    characterize = False
    sizes = dict(
        n_experiments=2, duration_us=2.0, sample_dt_ns=20.0, shots=5000, train_horizon_us=1.0,
        adam_epochs=10, adam_batch=2, lbfgs_max_iters=20, dt_internal_ns=4.0, train_seed=5,
    )

    def chain_seeds(self, seed: int) -> list[int]:
        return [seed + i for i in range(self.chains)]

    def definition(self, seed: int) -> dict:
        return {"seed": seed, "chain_seeds": self.chain_seeds(seed), "config": self.sizes,
                "operations": ["generate", "train", "evaluate"]}


# -- in-memory fits --------------------------------------------------------------------

# (ADAM epochs, L-BFGS iterations). SP keeps criterion 07's 30 epochs with
# L-BFGS capped at 30 like chain-twin50, so its work does not depend on the
# seed. The network fits are cut to one L-BFGS iteration from the template's
# parameters: its Armijo line search accepts only a step that lowers the loss
# (checked on seeds 1-30), whereas two ADAM steps raised the nonlinear loss
# above its start on seed 25.
FIT_BUDGETS = {"sp": (30, 30), "affine": (0, 1), "nonlinear": (0, 1)}
ETD_SAMPLES = 8
FIT_TWIN = dict(n_experiments=5, duration_us=20.0, sample_dt_ns=4.0, shots=5000,
                train_horizon_us=10.0, dt_internal_ns=4.0)


def build_twin(qude, seed: int):
    """The criterion-07 twin in memory, drawn the way ``qude generate`` draws it."""
    s = FIT_TWIN
    dev = qude.dynamics.DeviceModel(**DEVICE)
    planted = planted_source(qude)
    pairs = []
    for i, amp in enumerate(drawn_amplitudes(seed, s["n_experiments"])):
        exp = qude.dynamics.Experiment(
            id=f"exp-{i:03d}", amplitude_p_MHz=float(amp),
            duration_us=s["duration_us"], sample_dt_ns=s["sample_dt_ns"],
        )
        traj = qude.dynamics.integrate_rk4(dev, exp, planted, s["dt_internal_ns"])
        records = qude.tomography.simulate_records(
            traj, s["shots"], np.random.default_rng([seed, 1 + i])
        )
        pairs.append((exp, records))
    dataset = qude.train.Dataset(
        pairs, train_horizon_us=s["train_horizon_us"], total_horizon_us=s["duration_us"]
    )
    return dev, planted, dataset


def fit_template(qude, kind: str):
    return qude.models.make_source(kind, seed=1)


class FitRank20:
    """`train.fit` per ansatz on the criterion-07 twin held in memory, then evaluation.

    Input: 5 experiments x 20 us at 4 ns, 5000 shots, T_Tr = 10 us, budgets
    as in ``FIT_BUDGETS``. After fitting, ``metrics.evaluate_model`` runs on
    the base model and the three fits, plus ``metrics.expected_trace_distance``
    for the fitted SP source against the planted one.

    Why: the propagation and adjoint engines dominate, with no file I/O. It
    is the only workload that exercises the network engine. ``train_s`` is
    the three fits, ``evaluate_s`` the five evaluations, and ``generate_s``
    building the twin in memory, which set-up does (and times) each time it
    runs.
    """

    name = "fit-rank20"
    default_seed = 42  # criterion 07's twin seed

    def definition(self, seed: int) -> dict:
        return {"seed": seed, "twin": FIT_TWIN, "budgets": FIT_BUDGETS,
                "template_seed": 1, "train_seed": 0, "etd_samples": ETD_SAMPLES,
                "operations": ["fit sp", "fit affine", "fit nonlinear", "evaluate base",
                               "evaluate sp", "evaluate affine", "evaluate nonlinear",
                               "expected_trace_distance sp"]}

    def setup(self, qude, clock, ops: Ops, workdir: Path, seed: int) -> dict[str, float]:
        self.qude, self.clock, self.ops, self.seed = qude, clock, ops, seed
        start = time.perf_counter()
        self.dev, self.planted, self.dataset = build_twin(qude, seed)
        generate_s = time.perf_counter() - start
        # Loss at each template's starting point, the reference for "the fit
        # lowered its loss"; also fills the engine's first-call caches.
        self.start_loss = {}
        for kind in FIT_BUDGETS:
            template = fit_template(qude, kind)
            self.start_loss[kind] = qude.train.loss(template.pack(), self.dataset, self.dev, template)
        return {"generate": generate_s}

    def _fit(self, kind: str, result: PassResult):
        epochs, iters = FIT_BUDGETS[kind]
        template = fit_template(self.qude, kind)
        config = self.qude.train.TrainConfig(
            adam_epochs=epochs, adam_batch=5, adam_lr=1e-3, lbfgs_max_iters=iters, seed=0
        )
        span, fit, problems = timed_call(
            self.clock, lambda: self.qude.train.fit(self.dataset, self.dev, template, config)
        )
        result.add("train", span)
        result.extra[f"fit_{kind}_s"] = span.seconds
        if problems:
            self.ops.record(f"fit {kind}", problems)
            return None
        losses = np.asarray(fit.loss_history, dtype=float)
        if losses.size == 0 or not np.all(np.isfinite(losses)):
            problems.append("non-finite or missing losses")
        elif not fit.final_loss < self.start_loss[kind]:
            problems.append(f"final loss {fit.final_loss!r} not below start {self.start_loss[kind]!r}")
        self.ops.record(f"fit {kind}", problems)
        result.outputs[f"theta_{kind}"] = np.asarray(fit.theta_star).tobytes()
        return template.with_params(fit.theta_star)

    def _evaluate(self, kind: str, source, result: PassResult):
        """(extrapolation distance or None, problems) of one ``evaluate_model`` call."""
        span, evaluation, problems = timed_call(
            self.clock,
            lambda: self.qude.metrics.evaluate_model(
                kind, self.dev, source, self.dataset.experiments, FIT_TWIN["train_horizon_us"]
            ),
        )
        result.add("evaluate", span)
        distance = None
        if not problems:
            moments = {row.split: (row.mean, row.stddev) for row in evaluation[0].moments}
            result.outputs[f"moments_{kind}"] = repr(sorted(moments.items())).encode()
            if "extrapolation" not in moments:
                problems.append("no extrapolation moments")
            elif not all(math.isfinite(v) for pair in moments.values() for v in pair):
                problems.append(f"non-finite moments {moments}")
            else:
                distance = moments["extrapolation"][0]
        return distance, problems

    def run_pass(self) -> PassResult:
        result = PassResult()
        fitted = {kind: self._fit(kind, result) for kind in FIT_BUDGETS}

        distances = {}
        for kind in ("base", *FIT_BUDGETS):
            source = fitted.get(kind)
            if kind != "base" and source is None:
                self.ops.record(f"evaluate {kind}", ["no fitted model"])
                continue
            distance, problems = self._evaluate(kind, source, result)
            if distance is not None:
                distances[kind] = distance
            if kind == "sp" and distance is not None and not distance < distances.get("base", 0.0):
                problems.append(
                    f"sp extrapolation distance {distance:.5f} not below base "
                    f"{distances.get('base', float('nan')):.5f}"
                )
            self.ops.record(f"evaluate {kind}", problems)

        if fitted["sp"] is None:
            self.ops.record("expected_trace_distance sp", ["no fitted sp model"])
        else:
            span, etd, problems = timed_call(
                self.clock,
                lambda: self.qude.metrics.expected_trace_distance(
                    self.dev, fitted["sp"], self.planted, P_MAX_MHZ, FIT_TWIN["duration_us"],
                    FIT_TWIN["sample_dt_ns"], n_samples=ETD_SAMPLES, seed=self.seed,
                ),
            )
            result.add("evaluate", span)
            if not problems:
                result.outputs["expected_trace_distance_sp"] = repr(etd).encode()
                if not all(map(math.isfinite, etd)):
                    problems.append(f"non-finite {etd}")
            self.ops.record("expected_trace_distance sp", problems)

        result.extra["eval_models_s"] = result.times["evaluate"]
        if "sp" in distances:
            result.quality["td_extrap_sp"] = distances["sp"]
        for kind in ("affine", "nonlinear"):
            if kind in distances:
                result.extra[f"td_extrap_{kind}"] = distances[kind]
        return result

    def traced_unit(self) -> PassResult:
        """Twin build plus one pass, so the generation layers appear in the trace."""
        span, twin, problems = timed_call(self.clock, lambda: build_twin(self.qude, self.seed))
        self.ops.record("build twin", problems)
        if not problems:
            self.dev, self.planted, self.dataset = twin
        result = self.run_pass()
        result.add("generate", span)
        return result


def _median_seconds(clock, call, repeats: int) -> tuple[float, float]:
    """Median calibrated and median raw seconds of ``repeats`` calls."""
    spans = []
    for _ in range(repeats):
        with clock.timed() as span:
            call()
        spans.append(span)
    return (float(np.median([s.seconds for s in spans])),
            float(np.median([s.raw_s for s in spans])))


def probes(qude, clock, seed: int, repeats: int) -> tuple[dict[str, float], dict[str, float]]:
    """The ROADMAP baseline rows: (calibrated, raw) seconds, medians of ``repeats`` calls.

    Loss and loss + adjoint gradient per ansatz at the template's initial
    parameters on the fit-rank20 twin, and ``integrate_rk4`` over 50 us for
    the SP and nonlinear templates.
    """
    dev, _, dataset = build_twin(qude, seed)
    calls = {}
    for kind in FIT_BUDGETS:
        template = fit_template(qude, kind)
        theta = template.pack()
        calls[f"train.loss.{kind}.s"] = (
            lambda t=template, th=theta: qude.train.loss(th, dataset, dev, t))
        calls[f"train.gradient.{kind}.s"] = (
            lambda t=template, th=theta: qude.train.gradient(th, dataset, dev, t))
    amplitude = dataset.experiments[0][0].amplitude_p_MHz
    exp = qude.dynamics.Experiment("probe-50us", amplitude, duration_us=50.0, sample_dt_ns=4.0)
    for kind in ("sp", "nonlinear"):
        calls[f"dynamics.integrate_rk4.{kind}_50us.s"] = (
            lambda src=fit_template(qude, kind): qude.dynamics.integrate_rk4(dev, exp, src, 4.0))
    values, raw = {}, {}
    for name, call in calls.items():
        values[name], raw[name] = _median_seconds(clock, call, repeats)
    return values, raw


WORKLOADS = {cls.name: cls for cls in (ChainTwin50, FitRank20, ChainTiny)}
