import numpy as np
import pytest

from qude import dynamics, metrics, qcore, tomography

import states
from conftest import DEV1, make_twin_dataset, planted_source

# chi-square critical value at the 5% level for 49 degrees of freedom
CHI2_CRIT_49_DF = 66.34


class TestTraceDistanceSeries:
    @staticmethod
    def _prediction_and_records(shots=0, duration=1.0):
        exp = dynamics.Experiment("e", 1.2, duration_us=duration, sample_dt_ns=100.0)
        traj = dynamics.integrate_rk4(DEV1, exp, None, 4.0)
        records = tomography.simulate_records(traj, shots, np.random.default_rng(1))
        return traj, records

    def test_zero_for_identical(self):
        traj, records = self._prediction_and_records()
        _, dists = metrics.trace_distance_series(traj, records)
        assert np.max(dists) <= 1e-12

    def test_single_step_value(self):
        pred = dynamics.Trajectory(
            times_us=np.array([0.1]),
            states=np.diag([0.75, 0.25]).astype(complex)[None],
        )
        rec = tomography.RecordBlock.from_counts([0.1], [0], [[0.5, 0.5, 0.5]])
        np.testing.assert_allclose(rec.rho_hat[0], states.maximally_mixed(2), atol=1e-15)
        _, dists = metrics.trace_distance_series(pred, rec)
        assert dists[0] == pytest.approx(0.25, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        traj, records = self._prediction_and_records()
        shifted = dynamics.Trajectory(times_us=traj.times_us + 0.05, states=traj.states)
        with pytest.raises(ValueError, match="grid"):
            metrics.trace_distance_series(shifted, records)

    def test_lvn_prediction_drifts_from_lindblad_truth(self):
        # dissipation accumulates, so the error envelope grows with time
        exp = dynamics.Experiment("e", 1.0, duration_us=20.0, sample_dt_ns=100.0)
        lvn = dynamics.DeviceModel(3.448, 214.0, 32.0, "lvn")
        truth = dynamics.integrate_rk4(DEV1, exp, None, 4.0)
        records = tomography.simulate_records(truth, 0, np.random.default_rng(2))
        pred = dynamics.integrate_rk4(lvn, exp, None, 4.0)
        _, dists = metrics.trace_distance_series(pred, records)
        third = len(dists) // 3
        assert dists[:third].mean() < dists[-third:].mean()


class TestMomentTable:
    def test_single_record(self):
        rows = metrics.moment_table([("m", "interpolation", np.array([0.25]))])
        assert rows[0].mean == pytest.approx(0.25)
        assert rows[0].stddev == 0.0
        assert rows[0].count == 1

    def test_two_records_closed_form(self):
        rows = metrics.moment_table([("m", "s", np.array([0.1, 0.3]))])
        assert rows[0].mean == pytest.approx(0.2)
        assert rows[0].stddev == pytest.approx(0.1)  # population stddev

    def test_ordering_and_warnings(self):
        rows = metrics.moment_table(
            [
                ("zeta", "extrapolation", np.array([0.2])),
                ("alpha", "interpolation", np.array([0.1])),
                ("alpha", "extrapolation", np.array([])),
            ]
        )
        assert [(r.model, r.split) for r in rows] == [
            ("alpha", "interpolation"),
            ("zeta", "extrapolation"),
        ]  # the empty split's row is omitted


class TestHistogramDensity:
    def test_identical_values_single_bin(self):
        edges, dens = metrics.histogram_density(np.full(10, 0.5), bin_count=10)
        assert np.count_nonzero(dens) == 1
        width = edges[1] - edges[0]
        assert np.sum(dens) * width == pytest.approx(1.0)

    def test_normalization(self):
        rng = np.random.default_rng(3)
        edges, dens = metrics.histogram_density(rng.uniform(0, 1, 500), bin_count=25)
        width = edges[1] - edges[0]
        assert np.sum(dens) * width == pytest.approx(1.0, abs=1e-9)

    def test_uniform_is_flat(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.0, 1.0, 10000)
        edges, dens = metrics.histogram_density(values, bin_count=50)
        width = edges[1] - edges[0]
        counts = dens * values.size * width
        expected = values.size / 50
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < CHI2_CRIT_49_DF

    def test_all_zero_values(self):
        edges, dens = metrics.histogram_density(np.zeros(5), bin_count=4)
        assert edges[-1] == 1.0
        assert dens[0] > 0

    def test_errors(self):
        with pytest.raises(ValueError):
            metrics.histogram_density(np.array([]), 10)
        with pytest.raises(ValueError):
            metrics.histogram_density(np.array([0.1]), 1)


class TestExpectedTraceDistance:
    def test_zero_when_candidate_equals_reference(self):
        src = planted_source()
        mean, se = metrics.expected_trace_distance(
            DEV1, src, src, p_max_MHz=3.47, duration_us=0.5, sample_dt_ns=20.0,
            n_samples=3, seed=0,
        )
        assert mean <= 1e-13
        assert se <= 1e-13

    def test_deterministic_given_seed(self):
        a = metrics.expected_trace_distance(
            DEV1, None, planted_source(), 3.47, 0.5, 20.0, n_samples=4, seed=9
        )
        b = metrics.expected_trace_distance(
            DEV1, None, planted_source(), 3.47, 0.5, 20.0, n_samples=4, seed=9
        )
        assert a == b

    def test_standard_error_shrinks_with_samples(self):
        # standard error scales ~ 1/sqrt(n); compare averaged over seeds
        ses_small, ses_big = [], []
        for seed in range(4):
            _, se1 = metrics.expected_trace_distance(
                dynamics.DeviceModel(3.448, 214.0, 32.0, "lvn"), None,
                planted_source(), 3.47, 0.4, 40.0, n_samples=8, seed=seed,
            )
            _, se2 = metrics.expected_trace_distance(
                dynamics.DeviceModel(3.448, 214.0, 32.0, "lvn"), None,
                planted_source(), 3.47, 0.4, 40.0, n_samples=16, seed=100 + seed,
            )
            ses_small.append(se1)
            ses_big.append(se2)
        ratio = np.mean(ses_big) / np.mean(ses_small)
        assert ratio == pytest.approx(1 / np.sqrt(2), abs=0.25)

    def test_lindblad_base_beats_lvn_base_beyond_six_us(self):
        # against a Lindblad+latent twin, the Lindblad base model stays closer
        # than the dissipation-free one once decoherence dominates
        latent = planted_source()
        lvn = dynamics.DeviceModel(3.448, 214.0, 32.0, "lvn")
        mean_lind, _ = metrics.expected_trace_distance(
            DEV1, None, latent, 3.47, 10.0, 100.0, n_samples=4, seed=2
        )
        # reference trajectories must come from the same (Lindblad) device
        mean_lvn = 0.0
        rng = np.random.default_rng(2)
        for i in range(4):
            amp = 3.47 * (1.0 - rng.random())
            exp = dynamics.Experiment(f"mc-{i:04d}", float(amp), 10.0, 100.0)
            truth = dynamics.integrate_rk4(DEV1, exp, latent, 4.0)
            pred = dynamics.integrate_rk4(lvn, exp, None, 4.0)
            filtered = qcore.spectral_filter_many(pred.states, pred.times_us)
            mean_lvn += qcore.trace_distance_many(filtered, truth.states).mean() / 4
        assert mean_lind < mean_lvn

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics.expected_trace_distance(DEV1, None, None, 1.0, 1.0, 100.0, 0, 0)


class TestEvaluateModel:
    def test_perfect_model_means_are_zero(self):
        ds = make_twin_dataset(seed=20, n_experiments=2, duration_us=1.0,
                               sample_dt_ns=40.0, shots=0, train_horizon_us=0.5)
        report, predictions = metrics.evaluate_model(
            "truth", DEV1, planted_source(), ds.experiments, ds.train_horizon_us
        )
        for row in report.moments:
            assert row.mean <= 1e-12
        assert set(predictions) == {"exp-000", "exp-001"}
        assert {r.split for r in report.moments} == {"interpolation", "extrapolation"}

    def test_one_row_per_model_split(self):
        ds = make_twin_dataset(seed=21, n_experiments=3, duration_us=1.0,
                               sample_dt_ns=40.0, shots=200, train_horizon_us=0.5)
        report, _ = metrics.evaluate_model(
            "base", DEV1, None, ds.experiments, ds.train_horizon_us
        )
        assert [(r.model, r.split) for r in report.moments] == [
            ("base", "extrapolation"),
            ("base", "interpolation"),
        ]
        for split_tag, (mean, se, n) in report.expected_trace_distance.items():
            assert n == 3
            assert 0.0 <= mean <= 1.0
            assert se >= 0.0
