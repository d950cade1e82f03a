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
    """Summary statistics for one model over one dataset: a moment row, a
    histogram and an expected trace distance per split that holds records, in
    sorted split order (extrapolation, then interpolation)."""

    model: str
    moments: list[MomentRow]
    histogram: dict[str, tuple[np.ndarray, np.ndarray]]  # split -> (edges, densities)
    expected_trace_distance: dict[str, tuple[float, float, int]]  # split -> (mean, se, n)


def trace_distance_series(
    prediction: Trajectory, records: RecordBlock
) -> tuple[Trajectory, np.ndarray]:
    """Per-time-step trace distance between filtered predictions and targets.

    Record i must be sample i of the prediction, as ``train.Dataset`` checks,
    so the first ``len(records)`` prediction states are compared. Returns the
    filtered predictions at the record times and the distances.
    """
    filtered = qcore.spectral_filter_many(prediction.states[: len(records)], records.times_us)
    distances = qcore.trace_distance_many(filtered, records.rho_hat)
    return Trajectory(times_us=records.times_us, states=filtered), distances


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
    trace distance, in one pass over the splits; an empty split is left out.
    Also returns, per experiment id, the spectral-filtered predictions at the
    record times for reuse. The records pass ``train.Dataset``'s gate over the
    longest duration first; one batched ``dynamics.integrate_many`` call then
    predicts the samples the records hold.
    """
    total = max((exp.duration_us for exp, _ in experiments), default=0.0)
    experiments = train.Dataset(experiments, total, total).experiments
    trajectories = dynamics.integrate_many(dev, [exp for exp, _ in experiments], source,
                                           dt_internal_ns, [len(block) for _, block in experiments])
    predictions: dict[str, Trajectory] = {}
    splits: dict[str, list[np.ndarray]] = {"extrapolation": [], "interpolation": []}
    for (exp, records), pred in zip(experiments, trajectories):
        predictions[exp.id], dists = trace_distance_series(pred, records)
        in_train = train.in_train_split(records.times_us, train_horizon_us)
        splits["extrapolation"].append(dists[~in_train])
        splits["interpolation"].append(dists[in_train])
    moments, histogram, expected = [], {}, {}
    for split_tag, per_exp in splits.items():
        per_exp = [dists for dists in per_exp if dists.size]
        if not per_exp:
            continue
        values = np.concatenate(per_exp)
        moments.append(MomentRow(model_name, split_tag, float(values.mean()),
                                 float(values.std()), values.size))
        histogram[split_tag] = histogram_density(values)
        means = np.array([dists.mean() for dists in per_exp])
        expected[split_tag] = (
            float(means.mean()), float(means.std() / np.sqrt(means.size)), means.size
        )
    report = EvalReport(
        model=model_name,
        moments=moments,
        histogram=histogram,
        expected_trace_distance=expected,
    )
    return report, predictions
