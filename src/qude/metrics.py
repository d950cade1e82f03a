"""Evaluation of fitted models: trace-distance statistics and energy series.

Predictions are spectral-filtered before comparison (deployment-phase
filtering); statistics over a split pool all time steps of all experiments
and use the population standard deviation. The Monte Carlo expected trace
distance draws pulse amplitudes uniformly on (0, p_max], simulates the
reference model as ground truth, and averages the per-experiment
time-averaged trace distance over the draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, qcore, train
from .dynamics import DeviceModel, Experiment, Trajectory
from .tomography import RecordBlock


@dataclass(frozen=True)
class MomentRow:
    model: str
    split: str
    mean: float
    stddev: float
    count: int


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Summary statistics for one model over one dataset."""

    model: str
    moments: list[MomentRow]
    histogram: dict[str, tuple[np.ndarray, np.ndarray]]  # split -> (edges, densities)
    expected_trace_distance: dict[str, tuple[float, float, int]]  # split -> (mean, se, n)


def trace_distance_series(
    prediction: Trajectory, records: RecordBlock
) -> tuple[Trajectory, np.ndarray]:
    """Per-time-step trace distance between filtered predictions and targets.

    The prediction grid must contain exactly the record times. Returns the
    filtered predictions at the record times and the distances.
    """
    idx = _match_grid(prediction.times_us, records.times_us)
    filtered = qcore.spectral_filter_many(prediction.states[idx], records.times_us)
    distances = qcore.trace_distance_many(filtered, records.rho_hat)
    return Trajectory(times_us=records.times_us, states=filtered), distances


def _match_grid(pred_times: np.ndarray, rec_times: np.ndarray) -> np.ndarray:
    if rec_times.size == 0:
        raise ValueError("no records to compare against")
    idx = np.searchsorted(pred_times, rec_times - 1e-12)
    if np.any(idx >= pred_times.size) or np.any(
        np.abs(pred_times[np.minimum(idx, pred_times.size - 1)] - rec_times)
        > 1e-9 * (1.0 + rec_times[-1])
    ):
        raise ValueError("record times are not on the prediction grid")
    return idx


def moment_table(
    entries: list[tuple[str, str, np.ndarray]],
) -> list[MomentRow]:
    """Pooled mean/population-stddev rows, ordered by model then split.

    Empty pools are omitted.
    """
    rows = []
    for model, split_tag, values in sorted(entries, key=lambda e: (e[0], e[1])):
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            continue
        rows.append(
            MomentRow(
                model=model,
                split=split_tag,
                mean=float(values.mean()),
                stddev=float(values.std()),
                count=int(values.size),
            )
        )
    return rows


def histogram_density(values: np.ndarray, bin_count: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Normalized bin densities on [0, max(values)]; integrates to one."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot histogram an empty value set")
    if bin_count < 2:
        raise ValueError("bin_count must be >= 2")
    hi = float(values.max())
    if hi <= 0.0:
        hi = 1.0
    edges = np.linspace(0.0, hi, bin_count + 1)
    counts, _ = np.histogram(values, bins=edges)
    width = edges[1] - edges[0]
    densities = counts / (values.size * width)
    return edges, densities


def expected_trace_distance(
    dev: DeviceModel,
    candidate_source,
    reference_source,
    p_max_MHz: float,
    duration_us: float,
    sample_dt_ns: float,
    n_samples: int,
    seed: int,
    dt_internal_ns: float = dynamics.DEFAULT_DT_INTERNAL_NS,
) -> tuple[float, float]:
    """Monte Carlo expected trace distance between two models of one device.

    Amplitudes are drawn uniformly on (0, p_max]; the reference model plays
    the role of the true evolution. Candidate states are filtered before
    comparison. Returns (mean, standard error).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    experiments = [
        Experiment(
            id=f"mc-{i:04d}",
            amplitude_p_MHz=float(p_max_MHz * (1.0 - rng.random())),
            duration_us=duration_us,
            sample_dt_ns=sample_dt_ns,
        )
        for i in range(n_samples)
    ]
    truths = dynamics.integrate_many(dev, experiments, reference_source, dt_internal_ns)
    preds = dynamics.integrate_many(dev, experiments, candidate_source, dt_internal_ns)
    per_sample = []
    for truth, pred in zip(truths, preds):
        filtered = qcore.spectral_filter_many(pred.states, pred.times_us)
        dists = qcore.trace_distance_many(filtered, truth.states)
        per_sample.append(float(dists.mean()))
    values = np.asarray(per_sample)
    se = float(values.std() / np.sqrt(values.size))
    return float(values.mean()), se


def evaluate_model(
    model_name: str,
    dev: DeviceModel,
    source,
    experiments: list[tuple[Experiment, RecordBlock]],
    train_horizon_us: float,
    dt_internal_ns: float = dynamics.DEFAULT_DT_INTERNAL_NS,
) -> tuple[EvalReport, dict[str, Trajectory]]:
    """Full evaluation pass of one model against one dataset.

    Splits each experiment's records into interpolation (t <= T_Tr) and
    extrapolation (t > T_Tr), computes pooled moments and histograms per
    split, and the mean/standard-error of the per-experiment time-averaged
    trace distance. Also returns, per experiment id, the spectral-filtered
    predictions at the record times for reuse. All experiments are predicted
    in one batched ``dynamics.integrate_many`` call.
    """
    pooled: dict[str, list[np.ndarray]] = {"interpolation": [], "extrapolation": []}
    per_exp_means: dict[str, list[float]] = {"interpolation": [], "extrapolation": []}

    trajectories = dynamics.integrate_many(
        dev, [exp for exp, _ in experiments], source, dt_internal_ns
    )
    predictions: dict[str, Trajectory] = {}
    for (exp, records), pred in zip(experiments, trajectories):
        predictions[exp.id], dists = trace_distance_series(pred, records)
        in_train = train.in_train_split(records.times_us, train_horizon_us)
        for split_tag, mask in (("interpolation", in_train), ("extrapolation", ~in_train)):
            vals = dists[mask]
            if vals.size:
                pooled[split_tag].append(vals)
                per_exp_means[split_tag].append(float(vals.mean()))
    entries = [
        (model_name, split_tag, np.concatenate(vals) if vals else np.array([]))
        for split_tag, vals in pooled.items()
    ]
    moments = moment_table(entries)
    histogram = {}
    expected = {}
    for split_tag, vals in pooled.items():
        if not vals:
            continue
        allvals = np.concatenate(vals)
        histogram[split_tag] = histogram_density(allvals)
        means = np.asarray(per_exp_means[split_tag])
        expected[split_tag] = (
            float(means.mean()),
            float(means.std() / np.sqrt(means.size)),
            int(means.size),
        )
    report = EvalReport(
        model=model_name,
        moments=moments,
        histogram=histogram,
        expected_trace_distance=expected,
    )
    return report, predictions
