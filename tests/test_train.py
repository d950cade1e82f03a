import warnings

import numpy as np
import pytest

from qude import dynamics, models, tomography, train

from conftest import DEV1, make_twin_dataset, planted_source


def relative_gradient_error(g_test: np.ndarray, g_ref: np.ndarray) -> float:
    """Componentwise relative error with the oracle's noise floor as scale.

    Components far below the gradient norm are compared against
    1e-3 * ||g||_inf, where central differences bottom out in rounding.
    """
    scale = np.maximum(np.abs(g_ref), 1e-3 * np.max(np.abs(g_ref)))
    return float(np.max(np.abs(g_test - g_ref) / scale))


class TestSplit:
    @staticmethod
    def _dataset():
        return make_twin_dataset(seed=5, n_experiments=2, duration_us=1.0,
                                 sample_dt_ns=100.0, shots=0)

    def test_counts_are_exhaustive(self):
        for _, block in self._dataset().experiments:
            keep = train.in_train_split(block.times_us, 0.5)
            r_tr, r_val = block.take(keep), block.take(~keep)
            assert len(r_tr) + len(r_val) == len(block)
            assert np.all(r_tr.times_us <= 0.5 + 1e-12)
            assert np.all(r_val.times_us > 0.5)

    def test_boundary_record_goes_to_train(self):
        times = self._dataset().experiments[0][1].times_us
        on_boundary = np.abs(times - 0.5) < 1e-12  # 0.5 us lies exactly on the 100 ns grid
        assert np.any(on_boundary)
        assert np.all(train.in_train_split(times[on_boundary], 0.5))

    def test_grid_arithmetic(self):
        ds = make_twin_dataset(seed=5, n_experiments=1, duration_us=2.0,
                               sample_dt_ns=4.0, shots=0)
        assert np.count_nonzero(train.in_train_split(ds.experiments[0][1].times_us, 1.0)) == 250

    def test_out_of_range(self):
        experiments = self._dataset().experiments
        with pytest.raises(ValueError):
            train.Dataset(experiments, train_horizon_us=0.0, total_horizon_us=1.0)
        with pytest.raises(ValueError):
            train.Dataset(experiments, train_horizon_us=1.5, total_horizon_us=1.0)


class TestLoss:
    def test_zero_noise_zero_latent(self):
        zero = models.StructurePreservingSource(dim=2, alpha=np.zeros(3), gamma_raw=np.zeros(3))
        ds = make_twin_dataset(seed=6, n_experiments=2, duration_us=1.0,
                               sample_dt_ns=20.0, shots=0, latent=zero)
        theta = np.zeros(6)
        value = train.loss(theta, ds, DEV1, zero)
        assert value <= 1e-18

    def test_latent_mismatch_is_positive(self):
        ds = make_twin_dataset(seed=6, n_experiments=2, duration_us=1.0,
                               sample_dt_ns=20.0, shots=0)
        tmpl = models.make_source("sp")
        base_theta = np.zeros(6)
        assert train.loss(base_theta, ds, DEV1, tmpl) > 0.0

    def test_true_theta_is_better_than_zero(self):
        ds = make_twin_dataset(seed=6, n_experiments=2, duration_us=1.0,
                               sample_dt_ns=20.0, shots=0)
        tmpl = models.make_source("sp")
        theta_true = planted_source().pack()
        assert train.loss(theta_true, ds, DEV1, tmpl) < train.loss(
            np.zeros(6), ds, DEV1, tmpl
        )

    def test_permutation_invariance(self):
        ds = make_twin_dataset(seed=8, n_experiments=3, duration_us=0.5,
                               sample_dt_ns=20.0, shots=500)
        tmpl = models.make_source("sp")
        theta = planted_source().pack()
        base = train.loss(theta, ds, DEV1, tmpl)
        shuffled = train.Dataset(
            [ds.experiments[2], ds.experiments[0], ds.experiments[1]],
            train_horizon_us=ds.train_horizon_us,
            total_horizon_us=ds.total_horizon_us,
        )
        assert train.loss(theta, shuffled, DEV1, tmpl) == pytest.approx(base, rel=1e-12)

    def test_only_train_split_enters(self):
        full = make_twin_dataset(seed=9, n_experiments=1, duration_us=1.0,
                                 sample_dt_ns=20.0, shots=0)
        halved = train.Dataset(full.experiments, train_horizon_us=0.5, total_horizon_us=1.0)
        tmpl = models.make_source("sp")
        theta = np.zeros(6)
        full_loss = train.loss(theta, full, DEV1, tmpl)
        half_loss = train.loss(theta, halved, DEV1, tmpl)
        assert half_loss < full_loss

    def test_overflowing_loss_is_inf_without_warning(self):
        # The states stay finite; their squared residuals overflow.
        ds = make_twin_dataset(seed=16, n_experiments=2, duration_us=0.4,
                               sample_dt_ns=20.0, shots=0)
        src = models.NetworkSource(dim=2, weights=(1500.0 * np.eye(4),), biases=(np.zeros(4),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert train.loss(src.pack(), ds, DEV1, src) == np.inf


class TestGradient:
    @pytest.mark.parametrize("kind", ["sp", "affine", "nonlinear"])
    def test_adjoint_matches_finite_differences(self, kind, smoke_dataset):
        tmpl = models.make_source(kind, seed=3)
        rng = np.random.default_rng(11)
        theta = tmpl.pack() + 0.05 * rng.standard_normal(tmpl.pack().shape)
        g_adj = train.gradient(theta, smoke_dataset, DEV1, tmpl)
        g_fd = train.gradient(theta, smoke_dataset, DEV1, tmpl, method="finite_difference")
        assert relative_gradient_error(g_adj, g_fd) <= 1e-5

    def test_duplicate_experiment_doubles_gradient(self, smoke_dataset):
        tmpl = models.make_source("sp")
        theta = 0.1 + planted_source().pack()
        g1 = train.gradient(theta, smoke_dataset, DEV1, tmpl)
        exp, records = smoke_dataset.experiments[0]
        twin_exp = dynamics.Experiment(
            id="smoke-copy",
            amplitude_p_MHz=exp.amplitude_p_MHz,
            duration_us=exp.duration_us,
            sample_dt_ns=exp.sample_dt_ns,
        )
        doubled = train.Dataset(
            [(exp, records), (twin_exp, records)],
            train_horizon_us=smoke_dataset.train_horizon_us,
            total_horizon_us=smoke_dataset.total_horizon_us,
        )
        g2 = train.gradient(theta, doubled, DEV1, tmpl)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)

    def test_stationary_at_twin_optimum(self):
        ds = make_twin_dataset(seed=10, n_experiments=2, duration_us=2.0,
                               sample_dt_ns=20.0, shots=0)
        tmpl = models.make_source("sp")
        g = train.gradient(planted_source().pack(), ds, DEV1, tmpl)
        assert np.linalg.norm(g) <= 1e-8

    def test_base_model_has_no_gradient(self, smoke_dataset):
        with pytest.raises(ValueError):
            train.gradient(np.zeros(6), smoke_dataset, DEV1, None)


class TestFit:
    @staticmethod
    def _small_config(**kw):
        defaults = dict(adam_epochs=5, adam_batch=2, adam_lr=1e-3,
                        lbfgs_max_iters=40, seed=0)
        defaults.update(kw)
        return train.TrainConfig(**defaults)

    def test_recovers_and_never_worse_than_start(self):
        ds = make_twin_dataset(seed=12, n_experiments=2, duration_us=2.0,
                               sample_dt_ns=20.0, shots=0)
        tmpl = models.make_source("sp")
        res = train.fit(ds, DEV1, tmpl, self._small_config())
        assert res.final_loss < train.loss(tmpl.pack(), ds, DEV1, tmpl)
        assert res.final_loss < 1e-10

    def test_adam_lbfgs_handoff_monotone(self):
        ds = make_twin_dataset(seed=12, n_experiments=2, duration_us=1.0,
                               sample_dt_ns=20.0, shots=1000)
        tmpl = models.make_source("sp")
        res = train.fit(ds, DEV1, tmpl, self._small_config())
        last_adam = max(i for i, p in enumerate(res.phases) if p == "adam")
        assert res.loss_history[-1] <= res.loss_history[last_adam]

    def test_full_batch_adam_bit_reproducible(self):
        ds = make_twin_dataset(seed=13, n_experiments=2, duration_us=1.0,
                               sample_dt_ns=20.0, shots=500)
        tmpl = models.make_source("sp")
        cfg = self._small_config(adam_batch=2)
        res_a = train.fit(ds, DEV1, tmpl, cfg)
        res_b = train.fit(ds, DEV1, tmpl, cfg)
        np.testing.assert_array_equal(res_a.theta_star, res_b.theta_star)
        assert res_a.loss_history == res_b.loss_history

    def test_minibatch_shuffling_is_seeded(self):
        ds = make_twin_dataset(seed=13, n_experiments=3, duration_us=1.0,
                               sample_dt_ns=20.0, shots=500)
        tmpl = models.make_source("sp")
        cfg = self._small_config(adam_batch=1, seed=21)
        res_a = train.fit(ds, DEV1, tmpl, cfg)
        res_b = train.fit(ds, DEV1, tmpl, cfg)
        np.testing.assert_array_equal(res_a.theta_star, res_b.theta_star)

    def test_exp_spec_mode_restricts(self):
        ds = make_twin_dataset(seed=14, n_experiments=3, duration_us=1.0,
                               sample_dt_ns=20.0, shots=0)
        tmpl = models.make_source("sp")
        cfg = self._small_config(mode="exp-spec", experiment_id="exp-001",
                                 adam_epochs=2, lbfgs_max_iters=10)
        res = train.fit(ds, DEV1, tmpl, cfg)
        single = ds.restrict("exp-001")
        # the reported loss matches the single-experiment objective
        assert res.final_loss == pytest.approx(
            train.loss(res.theta_star, single, DEV1, tmpl), rel=1e-9
        )

    def test_gamma_channels_converge_equal(self):
        ds = make_twin_dataset(seed=15, n_experiments=2, duration_us=2.0,
                               sample_dt_ns=20.0, shots=0)
        tmpl = models.make_source("sp")
        res = train.fit(ds, DEV1, tmpl, self._small_config())
        fitted = tmpl.with_params(res.theta_star)
        assert fitted.gammas[0] == fitted.gammas[1]

    def test_elapsed_is_recorded(self):
        ds = make_twin_dataset(seed=16, n_experiments=1, duration_us=0.4,
                               sample_dt_ns=20.0, shots=0)
        tmpl = models.make_source("sp")
        res = train.fit(ds, DEV1, tmpl, self._small_config(adam_epochs=2, lbfgs_max_iters=5))
        assert len(res.elapsed_s) == len(res.loss_history) == len(res.phases)
        assert all(b >= a for a, b in zip(res.elapsed_s, res.elapsed_s[1:]))


class TestConfigValidation:
    def test_mode(self):
        with pytest.raises(ValueError):
            train.TrainConfig(mode="global")

    def test_batch_and_lr(self):
        with pytest.raises(ValueError):
            train.TrainConfig(adam_batch=0)
        with pytest.raises(ValueError):
            train.TrainConfig(adam_lr=0.0)


class TestDataset:
    def test_records_sorted_on_construction(self):
        exp = dynamics.Experiment("e", 1.0, duration_us=0.3, sample_dt_ns=100.0)
        traj = dynamics.integrate_rk4(DEV1, exp, None, 4.0)
        block = tomography.simulate_records(traj, 0, np.random.default_rng(0))
        reversed_block = block.take(np.arange(len(block))[::-1])
        ds = train.Dataset([(exp, reversed_block)], train_horizon_us=0.3, total_horizon_us=0.3)
        sorted_block = ds.experiments[0][1]
        np.testing.assert_array_equal(sorted_block.times_us, block.times_us)
        np.testing.assert_array_equal(sorted_block.rho_hat, block.rho_hat)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train.Dataset([], 1.0, 1.0)

    def test_restrict_unknown_id(self):
        ds = make_twin_dataset(seed=17, n_experiments=1, duration_us=0.3,
                               sample_dt_ns=100.0, shots=0)
        with pytest.raises(ValueError):
            ds.restrict("nope")

    def test_restrict_without_id_picks_the_first(self):
        ds = make_twin_dataset(seed=17, n_experiments=2, duration_us=0.3,
                               sample_dt_ns=100.0, shots=0)
        for missing in (None, ""):
            (only,) = ds.restrict(missing).experiments
            assert only[0].id == "exp-000"
