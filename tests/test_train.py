import warnings
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from qude import dynamics, models, tomography, train

import loop_oracle
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
        problem = train.Problem(ds, DEV1)
        theta_true = planted_source().pack()
        assert problem.evaluate(theta_true, tmpl)[0] < problem.evaluate(np.zeros(6), tmpl)[0]

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
        problem = train.Problem(smoke_dataset, DEV1)
        g_adj = problem.evaluate(theta, tmpl)[1]
        g_fd = loop_oracle.finite_difference_gradient(problem, theta, tmpl)
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


def same_bits(a, b) -> bool:
    """Equal values, or equal arrays bit for bit (None matches None)."""
    return a == b if a is None or np.isscalar(a) else a.tobytes() == b.tobytes()


class TestProblem:
    def test_evaluating_leaves_nothing_behind(self):
        """One Problem through sp, a bounded nonlinear mini-batch and sp again
        gives the bits of a freshly built Problem at every call."""
        ds = make_twin_dataset(seed=18, n_experiments=3, duration_us=0.6,
                               sample_dt_ns=20.0, shots=500)
        sp, net = models.make_source("sp"), models.make_source("nonlinear", seed=3)
        subset = {"exp-000", "exp-002"}
        full = train.Problem(ds, DEV1).evaluate(net.pack(), net, subset, want_grad=False)[0]
        calls = [
            (planted_source().pack(), sp, {}),
            (net.pack(), net, dict(subset=subset, bound=2.0 * full)),
            (net.pack(), net, dict(subset=subset, bound=0.5 * full)),
            (planted_source().pack(), sp, {}),
        ]
        problem = train.Problem(ds, DEV1)
        for theta, template, kwargs in calls:
            held = problem.evaluate(theta, template, **kwargs)
            fresh = train.Problem(ds, DEV1).evaluate(theta, template, **kwargs)
            assert all(same_bits(a, b) for a, b in zip(held, fresh))
        assert problem.evaluate(net.pack(), net, subset, bound=0.5 * full) == (np.inf, None)

    def test_each_call_builds_one_problem(self, monkeypatch):
        """Each call compiles one Problem from the dataset it is handed, and gates
        none of its records again (no second Dataset)."""
        ds = make_twin_dataset(seed=18, n_experiments=2, duration_us=0.4,
                               sample_dt_ns=20.0, shots=0, train_horizon_us=0.2)
        tmpl = models.make_source("sp")
        built, gated = [], []
        init, gate = train.Problem.__init__, train.Dataset.__post_init__
        monkeypatch.setattr(train.Problem, "__init__",
                            lambda self, *args: built.append(1) or init(self, *args))
        monkeypatch.setattr(train.Dataset, "__post_init__",
                            lambda self: gated.append(1) or gate(self))
        config = train.TrainConfig(adam_epochs=1, lbfgs_max_iters=2)
        for call in (lambda: train.fit(ds, DEV1, tmpl, config),
                     lambda: train.loss(tmpl.pack(), ds, DEV1, tmpl),
                     lambda: train.gradient(tmpl.pack(), ds, DEV1, tmpl),
                     lambda: train.split_losses(ds, DEV1, tmpl)):
            built.clear()
            call()
            assert len(built) == 1 and not gated

    def test_split_losses_match_the_problem_loss(self):
        ds = make_twin_dataset(seed=19, n_experiments=3, duration_us=0.8,
                               sample_dt_ns=20.0, shots=500, train_horizon_us=0.3)
        whole = train.Dataset(ds.experiments, ds.total_horizon_us, ds.total_horizon_us)
        for kind in ("sp", "affine", "nonlinear"):
            src = models.make_source(kind, seed=3)
            train_loss, val_loss = train.split_losses(ds, DEV1, src)
            assert val_loss > 0.0
            problem_loss = train.Problem(ds, DEV1).evaluate(src.pack(), src, want_grad=False)[0]
            whole_loss = train.Problem(whole, DEV1).evaluate(src.pack(), src, want_grad=False)[0]
            assert train_loss == pytest.approx(problem_loss, rel=1e-12, abs=0.0)
            assert train_loss + val_loss == pytest.approx(whole_loss, rel=1e-12, abs=0.0)

    def test_records_past_the_total_horizon_are_rejected(self):
        """0.8 us experiments under a 0.5 us total horizon: the records past it
        are an error, not left out of the validation loss."""
        ds = make_twin_dataset(seed=19, n_experiments=3, duration_us=0.8,
                               sample_dt_ns=20.0, shots=500)
        with pytest.raises(ValueError, match="experiment exp-000 has records past 0.5 us"):
            train.split_losses(train.Dataset(ds.experiments, 0.3, 0.5), DEV1,
                               models.make_source("sp", seed=3))


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
        elapsed = [row.elapsed_s for row in res.rows]
        assert elapsed[0] > 0.0
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))

    def test_kept_rho_and_norms_leave_the_fit_as_it_was(self, monkeypatch):
        """A fit with the two-loop that recomputes every rho and with np.linalg.norm
        takes the same iterates, bit for bit, past the L-BFGS memory."""
        ds = make_twin_dataset(seed=12, n_experiments=2, duration_us=2.0,
                               sample_dt_ns=20.0, shots=500)
        tmpl = models.make_source("sp")
        res = train.fit(ds, DEV1, tmpl, self._small_config())
        assert [row.phase for row in res.rows].count("lbfgs") > train.LBFGS_MEMORY
        monkeypatch.setattr(train, "_two_loop_direction", lambda grad, pairs: (
            loop_oracle.two_loop_direction(grad, [p[0] for p in pairs], [p[1] for p in pairs])))
        monkeypatch.setattr(train, "_norm", lambda v: float(np.linalg.norm(v)))
        ref = train.fit(ds, DEV1, tmpl, self._small_config())
        assert res.theta_star.tobytes() == ref.theta_star.tobytes()
        assert [row[:3] for row in res.rows] == [row[:3] for row in ref.rows]


class TestLbfgsBranches:
    """The L-BFGS exits and fallbacks, each forced on a small sp twin."""

    @staticmethod
    def fit(monkeypatch, evaluate=None, direction=None, lbfgs_max_iters=1):
        """An sp fit of L-BFGS alone, with ``train.Problem.evaluate`` replaced by
        ``evaluate(original, *args, **kwargs)`` and the two-loop direction by
        ``direction``."""
        ds = make_twin_dataset(seed=12, n_experiments=2, duration_us=1.0,
                               sample_dt_ns=20.0, shots=500)
        if evaluate is not None:
            original = train.Problem.evaluate
            monkeypatch.setattr(train.Problem, "evaluate",
                                lambda *args, **kwargs: evaluate(original, *args, **kwargs))
        if direction is not None:
            monkeypatch.setattr(train, "_two_loop_direction", direction)
        config = train.TrainConfig(adam_epochs=0, lbfgs_max_iters=lbfgs_max_iters)
        return train.fit(ds, DEV1, models.make_source("sp"), config)

    def test_gradient_tolerance_stops(self, monkeypatch):
        def flat(original, *args, **kwargs):
            value, grad = original(*args, **kwargs)
            return value, grad * 0.0

        directions = []
        res = self.fit(monkeypatch, flat, lambda grad, pairs: directions.append(grad) or -grad,
                       lbfgs_max_iters=5)
        assert directions == [] and res.phases == ["adam"] and not res.stalled
        assert res.theta_star.tobytes() == models.make_source("sp").pack().tobytes()

    @pytest.mark.parametrize("direction", [np.copy, lambda grad: np.full_like(grad, np.nan)],
                             ids=["ascent", "not-finite"])
    def test_steepest_descent_when_not_a_descent_direction(self, direction, monkeypatch):
        """With no pairs kept the two-loop direction is -grad, the fallback's."""
        ref = self.fit(monkeypatch)
        res = self.fit(monkeypatch, direction=lambda grad, pairs: direction(grad))
        assert res.phases == ["adam", "lbfgs"]
        assert res.theta_star.tobytes() == ref.theta_star.tobytes()
        assert [row[:3] for row in res.rows] == [row[:3] for row in ref.rows]

    def test_step_halves_when_a_candidate_diverges(self, monkeypatch):
        candidates = []

        def first_diverges(original, self_, theta, *args, bound=np.inf, **kwargs):
            if bound < np.inf:
                candidates.append(np.array(theta))
                if len(candidates) == 1:
                    raise dynamics.DivergenceError("state became non-finite", 0.5)
            return original(self_, theta, *args, bound=bound, **kwargs)

        start = models.make_source("sp").pack()
        res = self.fit(monkeypatch, first_diverges)
        assert res.phases == ["adam", "lbfgs"] and not res.stalled
        assert len(candidates) >= 2
        np.testing.assert_allclose(candidates[1] - start, 0.5 * (candidates[0] - start),
                                   rtol=1e-12, atol=0)
        assert res.theta_star.tobytes() == candidates[-1].tobytes()

    def test_stall_returns_the_best_iterate(self, monkeypatch):
        """Every candidate past the second accepted step is rejected: the line
        search halves below MIN_STEP, and the fit returns the second iterate."""
        ref = self.fit(monkeypatch, lbfgs_max_iters=2)
        monkeypatch.undo()
        accepted = []

        def two_accepted(original, *args, bound=np.inf, **kwargs):
            if bound < np.inf and len(accepted) == 2:
                return np.inf, None
            value, grad = original(*args, bound=bound, **kwargs)
            if value <= bound < np.inf:
                accepted.append(value)
            return value, grad

        res = self.fit(monkeypatch, two_accepted, lbfgs_max_iters=10)
        assert res.stalled and not ref.stalled
        assert res.phases == ref.phases == ["adam", "lbfgs", "lbfgs"]
        assert res.theta_star.tobytes() == ref.theta_star.tobytes()


class TestTwoLoop:
    @pytest.mark.parametrize("n_pairs", range(13))
    def test_kept_rho_is_the_recomputed_one(self, n_pairs):
        """Random histories of 0 to 12 pairs, kept as fit keeps them (the last
        LBFGS_MEMORY): the same direction as recomputing rho, bit for bit."""
        rng = np.random.default_rng(n_pairs)
        grad = rng.standard_normal(20)
        pairs = deque(maxlen=train.LBFGS_MEMORY)
        s_hist, y_hist = [], []
        for _ in range(n_pairs):
            s = rng.standard_normal(20) * 10.0 ** rng.uniform(-6.0, 0.0)
            y = rng.standard_normal(20) * 10.0 ** rng.uniform(-6.0, 0.0)
            pairs.append((s, y, 1.0 / float(np.dot(y, s))))
            s_hist.append(s)
            y_hist.append(y)
        kept = slice(-train.LBFGS_MEMORY, None)
        ref = loop_oracle.two_loop_direction(grad, s_hist[kept], y_hist[kept])
        assert train._two_loop_direction(grad, pairs).tobytes() == ref.tobytes()

    def test_norm_is_numpy_norm(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 26, 1000):
            v = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
            assert train._norm(v) == float(np.linalg.norm(v))


class TestConfigValidation:
    def test_mode(self):
        with pytest.raises(ValueError):
            train.TrainConfig(mode="global")

    def test_batch_and_lr(self):
        with pytest.raises(ValueError):
            train.TrainConfig(adam_batch=0)
        with pytest.raises(ValueError):
            train.TrainConfig(adam_lr=0.0)

    @pytest.mark.parametrize("field, value", [
        ("adam_lr", np.nan), ("adam_lr", np.inf), ("adam_epochs", -1),
        ("lbfgs_max_iters", -1), ("seed", -1)])
    def test_out_of_range_value_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            train.TrainConfig(**{field: value})


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

    def test_reconstruction_is_formed_on_entry(self):
        exp = dynamics.Experiment("e", 1.0, duration_us=0.3, sample_dt_ns=100.0)
        block = tomography.simulate_records(dynamics.integrate_rk4(DEV1, exp, None, 4.0), 500,
                                            np.random.default_rng(0))
        assert "rho_hat" not in vars(block)
        ds = train.Dataset([(exp, block)], train_horizon_us=0.3, total_horizon_us=0.3)
        assert ds.experiments[0][1] is block and "rho_hat" in vars(block)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train.Dataset([], 1.0, 1.0)

    @staticmethod
    def _one_block():
        ((exp, block),) = make_twin_dataset(seed=20, n_experiments=1, duration_us=0.2,
                                            sample_dt_ns=20.0, shots=0).experiments
        return exp, block

    @pytest.mark.parametrize("edit", ["repeat", "gap", "off-grid", "past-the-end"])
    def test_records_off_the_sample_grid_are_rejected(self, edit):
        exp, block = self._one_block()
        times = block.times_us.copy()
        if edit == "repeat":
            times[4] = times[3]
        elif edit == "gap":
            times[4:] += times[0]
            exp = replace(exp, duration_us=0.22)
        elif edit == "off-grid":
            times[4] *= 1.01
        else:
            exp = replace(exp, duration_us=0.18)
        bad = tomography.RecordBlock.from_counts(times, block.shots, block.counts)
        with pytest.raises(ValueError, match="experiment exp-000 records are not a contiguous"):
            train.Dataset([(exp, bad)], 0.2, 0.2)

    def test_empty_block_rejected(self):
        exp, block = self._one_block()
        with pytest.raises(ValueError, match="experiment exp-000 has no records inside"):
            train.Dataset([(exp, block.take(np.arange(0)))], 0.2, 0.2)

    def test_record_past_the_total_horizon_rejected(self):
        exp, block = self._one_block()
        train.Dataset([(exp, block.take(np.arange(7)))], 0.1, 0.14)  # 7 x 20 ns fit in 0.14 us
        with pytest.raises(ValueError, match="experiment exp-000 has records past 0.14 us"):
            train.Dataset([(exp, block.take(np.arange(8)))], 0.1, 0.14)

    def test_repeated_experiment_id_rejected(self):
        """Predictions and losses are keyed by id, so a repeat would mix two experiments."""
        ds = make_twin_dataset(seed=17, n_experiments=2, duration_us=0.3,
                               sample_dt_ns=100.0, shots=0)
        (first, block0), (second, block1) = ds.experiments
        with pytest.raises(ValueError, match="experiment id 'exp-000' is repeated"):
            train.Dataset([(first, block0), (replace(second, id=first.id), block1)], 0.3, 0.3)

    def test_restrict_unknown_id(self):
        ds = make_twin_dataset(seed=17, n_experiments=1, duration_us=0.3,
                               sample_dt_ns=100.0, shots=0)
        with pytest.raises(ValueError):
            ds.restrict("nope")

    def test_restrict_of_its_only_experiment_is_itself(self):
        """exp-spec ``train`` restricts and ``fit`` restricts again; the second
        call returns the dataset, so the record gate runs once."""
        ds = make_twin_dataset(seed=17, n_experiments=2, duration_us=0.3,
                               sample_dt_ns=100.0, shots=0)
        single = ds.restrict("exp-001")
        assert single is not ds
        for experiment_id in ("exp-001", None, ""):
            assert single.restrict(experiment_id) is single
        with pytest.raises(ValueError, match="no experiment with id 'exp-000'"):
            single.restrict("exp-000")

    def test_restrict_without_id_picks_the_first(self):
        ds = make_twin_dataset(seed=17, n_experiments=2, duration_us=0.3,
                               sample_dt_ns=100.0, shots=0)
        for missing in (None, ""):
            (only,) = ds.restrict(missing).experiments
            assert only[0].id == "exp-000"
