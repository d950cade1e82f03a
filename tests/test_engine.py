"""The engines against the step-loop oracle (tests/loop_oracle.py).

Doubling propagation, the adjoint scan and batching over experiments reorder
floating-point work, so states, losses and gradients must agree with the
loops to 1e-12 relative (max-norm), not bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from qude import dynamics, models, qcore, train

import loop_oracle
from conftest import DEV1, make_twin_dataset, planted_source

TOL = 1e-12
N_SUB_CASES = {1: (4.0, 4.0), 5: (20.0, 4.0)}  # n_sub -> (sample dt, internal dt) in ns


def relative(value, reference) -> float:
    value, reference = np.asarray(value), np.asarray(reference)
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


def make_case(kind: str):
    """A source of the given kind at criterion 05's gradient-check point, or None."""
    if kind == "base":
        return None
    tmpl = models.make_source(kind, seed=3)
    rng = np.random.default_rng(11)
    return tmpl.with_params(tmpl.pack() + 0.05 * rng.standard_normal(tmpl.pack().shape))


def group_loss_grad(group, src, weights, linear: bool):
    """One group's loss and gradient through the linear or the network engine."""
    if linear:
        loss, forward = train._linear_loss(group, src, weights)
        return loss, train._linear_grad(group, src, weights, forward)
    loss, xs = train._network_loss(group, src, weights)
    return loss, train._network_grad(group, src, weights, xs)


def twin(n_sub: int, n_experiments: int, seed: int = 31) -> tuple[train.Dataset, float]:
    sample_dt, dt_internal = N_SUB_CASES[n_sub]
    ds = make_twin_dataset(seed=seed, n_experiments=n_experiments, duration_us=0.74,
                           sample_dt_ns=sample_dt, shots=2000)
    return ds, dt_internal


class TestBatchedStepMatrix:
    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3, 5, 5))
        batched = np.eye(5) + dynamics.rk4_step_increment(a, 0.01)
        for idx in np.ndindex(2, 3):
            ref = loop_oracle.rk4_step_matrix(a[idx], 0.01)
            np.testing.assert_allclose(batched[idx], ref, rtol=0, atol=1e-15)
            np.testing.assert_allclose(dynamics.rk4_step_increment(a, 0.01)[idx],
                                       ref - np.eye(5), rtol=0, atol=1e-15)

    def test_one_call_per_group_evaluation(self, monkeypatch):
        ds, dt = twin(5, 3)
        calls = []
        original = dynamics.rk4_step_increment
        monkeypatch.setattr(dynamics, "rk4_step_increment",
                            lambda a, h: calls.append(a.shape) or original(a, h))
        train.gradient(planted_source().pack(), ds, DEV1, models.make_source("sp"), dt)
        assert calls == [(3, 5, 5)]


class TestPropagation:
    @pytest.mark.parametrize("n_sub", [1, 5])
    @pytest.mark.parametrize("kind", ["base", "sp", "affine"])
    def test_integrate_matches_loop(self, kind, n_sub):
        sample_dt, dt_internal = N_SUB_CASES[n_sub]
        exp = dynamics.Experiment("e", 2.3, duration_us=1.5 if n_sub == 1 else 5.0,
                                  sample_dt_ns=sample_dt)
        src = make_case(kind)
        traj = dynamics.integrate_rk4(DEV1, exp, src, dt_internal)
        xs = qcore.expand_many(traj.states, qcore.hermitian_basis(2))
        assert relative(xs, loop_oracle.integrate(DEV1, exp, src, dt_internal)) <= TOL

    @pytest.mark.parametrize("n_samples", [1, 2, 3, 7, 8, 9, 100])
    def test_doubling_covers_every_sample_count(self, n_samples):
        rng = np.random.default_rng(n_samples)
        d = 0.1 * rng.standard_normal((4, 4)) / 4
        x0 = rng.standard_normal(4)
        increments = dynamics.power_increments(d, 2, n_samples)
        out = dynamics.propagate_linear(increments, x0, n_samples)
        assert out.shape == (n_samples, 4)
        assert relative(out, loop_oracle.step_loop(np.eye(4) + d, x0, n_samples, 2)) <= TOL

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_scan_solves_the_reverse_recurrence(self, n):
        rng = np.random.default_rng(n)
        d = 0.2 * rng.standard_normal((2, 3, 3))
        s = np.eye(3) + d
        g = rng.standard_normal((2, n, 3))
        lam = dynamics.adjoint_scan(dynamics.power_increments(d, 1, n), g)
        ref = np.zeros_like(g)
        nxt = np.zeros((2, 3))
        for i in range(n - 1, -1, -1):
            nxt = np.einsum("eji,ej->ei", s, nxt) + g[:, i]
            ref[:, i] = nxt
        assert relative(lam, ref) <= TOL


class TestBatchedPrediction:
    """``integrate_many`` and ``propagate_network`` against per-experiment loops."""

    @staticmethod
    def experiments(grids):
        """Three experiments per (sample dt, duration) grid, interleaved across grids."""
        rng = np.random.default_rng(5)
        exps = []
        for i in range(3):
            for g, (sample_dt, duration) in enumerate(grids):
                exps.append(dynamics.Experiment(f"g{g}-{i}", float(3.47 * (1.0 - rng.random())),
                                                duration_us=duration, sample_dt_ns=sample_dt))
        return exps

    @pytest.mark.parametrize("kind", ["base", "sp", "affine", "nonlinear"])
    def test_integrate_many_matches_loop(self, kind):
        exps = self.experiments([(4.0, 1.5)])
        src = make_case(kind)
        basis = qcore.hermitian_basis(2)
        for exp, traj in zip(exps, dynamics.integrate_many(DEV1, exps, src, 4.0)):
            np.testing.assert_array_equal(traj.times_us, exp.times_us())
            xs = qcore.expand_many(traj.states, basis)
            assert relative(xs, loop_oracle.integrate(DEV1, exp, src, 4.0)) <= TOL

    @pytest.mark.parametrize("kind", ["base", "sp", "affine", "nonlinear"])
    def test_mixed_grids_are_grouped(self, kind):
        exps = self.experiments([(4.0, 1.0), (20.0, 2.0)])
        groups = dynamics.grid_groups(DEV1, exps, 4.0)
        assert [(g.n_samples, g.n_sub, g.indices) for g in groups] == [
            (100, 5, [1, 3, 5]), (250, 1, [0, 2, 4])]
        src = make_case(kind)
        basis = qcore.hermitian_basis(2)
        for exp, traj in zip(exps, dynamics.integrate_many(DEV1, exps, src, 4.0)):
            xs = qcore.expand_many(traj.states, basis)
            assert relative(xs, loop_oracle.integrate(DEV1, exp, src, 4.0)) <= TOL

    @pytest.mark.parametrize("n_sub", [1, 5])
    def test_propagate_network_matches_step_loop(self, n_sub):
        sample_dt, dt_internal = N_SUB_CASES[n_sub]
        (group,) = dynamics.grid_groups(DEV1, self.experiments([(sample_dt, 1.0)]), dt_internal)
        src = make_case("nonlinear")
        steps = dynamics.propagate_network(group.a_base, src, group.x0, group.h_us,
                                           group.n_samples * n_sub)
        assert steps.shape == (3, group.n_samples * n_sub, 4)
        for e in range(3):
            ref = loop_oracle.network_step_loop(group.a_base[e], src, group.x0[e], group.h_us,
                                                group.n_samples, n_sub)
            assert relative(steps[e, n_sub - 1 :: n_sub], ref) <= TOL

    def test_network_chunks_change_no_prediction(self, monkeypatch):
        """Each chunk is its own Newton window, so chunk edges move only rounding."""
        exps = self.experiments([(20.0, 1.0)])  # 50 samples: one chunk, or 12 and a tail
        src = make_case("nonlinear")
        basis = qcore.hermitian_basis(2)
        whole = dynamics.integrate_many(DEV1, exps, src, 4.0)
        monkeypatch.setattr(dynamics, "FORWARD_CHUNK_SAMPLES", 4)
        for exp, ref, traj in zip(exps, whole, dynamics.integrate_many(DEV1, exps, src, 4.0)):
            assert relative(traj.states, ref.states) <= TOL
            xs = qcore.expand_many(traj.states, basis)
            assert relative(xs, loop_oracle.integrate(DEV1, exp, src, 4.0)) <= TOL

    # RK4 at h = 100 ns is unstable for a 10 MHz drive (|h lambda| ~ 12.6), so
    # the state overflows after about 100 steps whatever the bounded tanh net adds.
    UNSTABLE = dict(p_max=10.0, duration_us=20.0, sample_dt_ns=100.0, dt_internal_ns=100.0)

    def test_network_divergence_time_matches_loop(self):
        c = self.UNSTABLE
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0, "lvn")
        exp = dynamics.Experiment("e", c["p_max"], duration_us=c["duration_us"],
                                  sample_dt_ns=c["sample_dt_ns"])
        src = make_case("nonlinear")
        xs = loop_oracle.integrate(dev, exp, src, c["dt_internal_ns"])
        bad = loop_oracle.first_non_finite(xs)
        assert bad is not None and exp.times_us()[bad] < c["duration_us"]
        with pytest.raises(dynamics.DivergenceError) as err:
            dynamics.integrate_rk4(dev, exp, src, c["dt_internal_ns"])
        assert err.value.time_us == exp.times_us()[bad]

    def test_group_divergence_reports_the_earliest_sample(self):
        """The experiment that leaves the finite range first, not the first listed."""
        c = self.UNSTABLE
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0, "lvn")
        exps = [dynamics.Experiment(f"e{i}", p, duration_us=c["duration_us"],
                                    sample_dt_ns=c["sample_dt_ns"])
                for i, p in enumerate((6.0, 12.0, 8.0))]
        src = make_case("nonlinear")
        first = [loop_oracle.first_non_finite(loop_oracle.integrate(dev, exp, src,
                                                                    c["dt_internal_ns"]))
                 for exp in exps]
        bad = min(first)
        assert first.index(bad) == 1 and first[0] > bad
        with pytest.raises(dynamics.DivergenceError) as err:
            dynamics.integrate_many(dev, exps, src, c["dt_internal_ns"])
        assert err.value.experiment_id == "e1"
        assert err.value.time_us == exps[1].times_us()[bad]

    def test_network_training_divergence_time_matches_loop(self):
        c = self.UNSTABLE
        ds = make_twin_dataset(seed=3, n_experiments=3, duration_us=c["duration_us"],
                               sample_dt_ns=c["sample_dt_ns"], shots=0, p_max=c["p_max"])
        src = make_case("nonlinear")
        first = [
            loop_oracle.first_non_finite(loop_oracle.integrate(DEV1, exp, src, c["dt_internal_ns"]))
            for exp, _ in ds.experiments
        ]
        bad = min(i for i in first if i is not None)
        with pytest.raises(dynamics.DivergenceError) as err:
            train.loss(src.pack(), ds, DEV1, src, c["dt_internal_ns"])
        exp = ds.experiments[first.index(bad)][0]
        assert err.value.time_us == exp.times_us()[bad] < c["duration_us"]
        assert err.value.experiment_id == exp.id


class TestTrainingEngine:
    @pytest.mark.parametrize("n_experiments", [1, 3])
    @pytest.mark.parametrize("n_sub", [1, 5])
    @pytest.mark.parametrize("kind", ["base", "sp", "affine", "nonlinear"])
    def test_loss_and_gradient_match_loop(self, kind, n_sub, n_experiments):
        ds, dt_internal = twin(n_sub, n_experiments)
        compiled = train._compile(ds, DEV1, dt_internal)
        (group,) = compiled.groups
        src = make_case(kind)
        if kind == "nonlinear":
            ref_loss, ref_grad = loop_oracle.network_group_loss_grad(
                group.a_base, group.x0, group.targets, group.n_sub, group.h_us, src,
                compiled.weights,
            )
        else:
            m = loop_oracle.augmented_generator(group.a_base, src)
            x0 = np.concatenate([group.x0, np.ones((n_experiments, 1))], axis=1)
            ref_loss, q = loop_oracle.group_loss_grad(
                m, x0, group.targets, group.n_sub, group.h_us, compiled.weights
            )
            ref_grad = None if src is None else loop_oracle.param_grad(src, q)
        theta = np.zeros(0) if src is None else src.pack()
        assert relative(train.loss(theta, ds, DEV1, src, dt_internal), ref_loss) <= TOL
        if src is not None:
            grad = train.gradient(theta, ds, DEV1, src, dt_internal)
            assert relative(grad, ref_grad) <= TOL

    def test_network_chunk_edges_change_nothing(self, monkeypatch):
        """Forward and reverse chunks that end mid-sample and leave a ragged tail."""
        ds, dt_internal = twin(5, 3)
        compiled = train._compile(ds, DEV1, dt_internal)
        (group,) = compiled.groups
        src = make_case("nonlinear")
        whole_loss, _ = group_loss_grad(group, src, compiled.weights, linear=False)
        monkeypatch.setattr(dynamics, "FORWARD_CHUNK_SAMPLES", 4)
        monkeypatch.setattr(train, "REVERSE_CHUNK_STEPS", 7)
        loss, grad = group_loss_grad(group, src, compiled.weights, linear=False)
        assert relative(loss, whole_loss) <= TOL
        ref_loss, ref_grad = loop_oracle.network_group_loss_grad(
            group.a_base, group.x0, group.targets, group.n_sub, group.h_us, src, compiled.weights
        )
        assert relative(loss, ref_loss) <= TOL
        assert relative(grad, ref_grad) <= TOL

    @pytest.mark.parametrize("n_sub", [1, 5])
    def test_affine_matches_network_path(self, n_sub):
        ds, dt_internal = twin(n_sub, 3)
        compiled = train._compile(ds, DEV1, dt_internal)
        (group,) = compiled.groups
        src = make_case("affine")
        net_loss, net_grad = group_loss_grad(group, src, compiled.weights, linear=False)
        lin_loss, lin_grad = group_loss_grad(group, src, compiled.weights, linear=True)
        assert relative(lin_loss, net_loss) <= TOL
        assert relative(lin_grad, net_grad) <= TOL
        assert relative(train.loss(src.pack(), ds, DEV1, src, dt_internal), net_loss) <= TOL

    def test_deep_identity_net_collapses_with_chain_rule_gradients(self):
        ds, dt_internal = twin(5, 2)
        compiled = train._compile(ds, DEV1, dt_internal)
        (group,) = compiled.groups
        rng = np.random.default_rng(4)
        weights = tuple(np.eye(4) + 0.2 * rng.standard_normal((4, 4)) for _ in range(3))
        biases = tuple(0.05 * rng.standard_normal(4) for _ in range(3))
        src = models.NetworkSource(dim=2, weights=weights, biases=biases)
        x = rng.standard_normal((6, 4))
        w_eff, b_eff = src.coeff_affine()
        np.testing.assert_allclose(x @ w_eff.T + b_eff, src.coeff_forward(x), rtol=1e-13)
        net_loss, net_grad = group_loss_grad(group, src, compiled.weights, linear=False)
        lin_loss, lin_grad = group_loss_grad(group, src, compiled.weights, linear=True)
        assert relative(lin_loss, net_loss) <= TOL
        assert relative(lin_grad, net_grad) <= TOL

    def test_tanh_net_is_not_affine(self):
        src = models.make_source("nonlinear", seed=0)
        assert not src.is_linear
        with pytest.raises(ValueError):
            src.coeff_affine()


def scaled_template(scale: float) -> models.NetworkSource:
    """The nonlinear template (seed 3) with every parameter multiplied by ``scale``."""
    tmpl = models.make_source("nonlinear", seed=3)
    return tmpl.with_params(scale * tmpl.pack())


def loop_samples(group, src) -> np.ndarray:
    return np.stack([
        loop_oracle.network_step_loop(group.a_base[e], src, group.x0[e], group.h_us,
                                      group.n_samples, group.n_sub)
        for e in range(len(group.x0))
    ])


def spy_newton(monkeypatch) -> list[bool]:
    """Record, per Newton window, whether it fell back to the step loop."""
    fell_back = []
    original = dynamics.newton_window

    def spy(*args):
        steps = original(*args)
        fell_back.append(steps is None)
        return steps

    monkeypatch.setattr(dynamics, "newton_window", spy)
    return fell_back


class TestNewtonForward:
    """The Newton-in-time network forward against the step loop, and its fallback."""

    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("n_experiments", [1, 3])
    @pytest.mark.parametrize("n_sub", [1, 5])
    def test_matches_loop(self, scale, n_sub, n_experiments, monkeypatch):
        ds, dt_internal = twin(n_sub, n_experiments)
        compiled = train._compile(ds, DEV1, dt_internal)
        (group,) = compiled.groups
        src = scaled_template(scale)
        ref_loss, ref_grad = loop_oracle.network_group_loss_grad(
            group.a_base, group.x0, group.targets, group.n_sub, group.h_us, src, compiled.weights
        )
        ref_samples = loop_samples(group, src)
        fell_back = spy_newton(monkeypatch)
        assert relative(dynamics.group_samples(group, src), ref_samples) <= TOL
        assert relative(train.loss(src.pack(), ds, DEV1, src, dt_internal), ref_loss) <= TOL
        assert relative(train.gradient(src.pack(), ds, DEV1, src, dt_internal), ref_grad) <= TOL
        windows = -(-group.n_samples // dynamics.FORWARD_CHUNK_SAMPLES)
        assert fell_back == [False] * 3 * windows  # three forwards, every window converged

    @pytest.mark.parametrize("dim, hidden_layers", [(2, 0), (2, 3), (3, 1)])
    def test_any_depth_and_dimension(self, dim, hidden_layers, monkeypatch):
        dev = replace(DEV1, dim=dim)
        exps = [dynamics.Experiment(f"e{i}", p, duration_us=0.6, sample_dt_ns=20.0)
                for i, p in enumerate((1.3, 3.1))]
        (group,) = dynamics.grid_groups(dev, exps, 4.0)
        tmpl = models.make_source("nonlinear", dim=dim, hidden_layers=hidden_layers, seed=2)
        src = tmpl.with_params(30.0 * tmpl.pack())
        ref = loop_samples(group, src)
        weights = qcore.hermitian_basis(dim).gram_norms.astype(float)
        targets = ref + 0.01 * np.random.default_rng(dim).standard_normal(ref.shape)
        ref_loss, ref_grad = loop_oracle.network_group_loss_grad(
            group.a_base, group.x0, targets, group.n_sub, group.h_us, src, weights)
        fell_back = spy_newton(monkeypatch)
        assert relative(dynamics.group_samples(group, src), ref) <= TOL
        loss, grad = group_loss_grad(train._Group(**vars(group), targets=targets), src, weights,
                                     linear=False)
        assert relative(loss, ref_loss) <= TOL
        assert relative(grad, ref_grad) <= TOL
        assert fell_back == [False, False]

    @pytest.mark.parametrize("n_sub", [1, 5])
    def test_no_iterations_is_the_step_loop(self, n_sub, monkeypatch):
        ds, dt_internal = twin(n_sub, 3)
        (group,) = train._compile(ds, DEV1, dt_internal).groups
        src = scaled_template(1.0)
        ref = dynamics.propagate_network(group.a_base, src, group.x0, group.h_us,
                                         group.n_samples * n_sub)
        monkeypatch.setattr(dynamics, "NEWTON_MAX_ITERS", 0)
        steps = np.concatenate([s for _, _, s in dynamics.network_chunks(group, src)], axis=1)
        np.testing.assert_array_equal(steps, ref)

    def test_unconverged_window_is_the_step_loop(self, monkeypatch):
        """At 1000 times the template the iterates of the one 185-step window
        do not settle, and the window is the step loop's, bit for bit."""
        ds, dt_internal = twin(5, 3)
        (group,) = train._compile(ds, DEV1, dt_internal).groups
        src = scaled_template(1000.0)
        ref = dynamics.propagate_network(group.a_base, src, group.x0, group.h_us,
                                         group.n_samples * group.n_sub)
        fell_back = spy_newton(monkeypatch)
        np.testing.assert_array_equal(dynamics.group_samples(group, src), ref[:, 4::5])
        assert fell_back == [True]
        assert relative(ref[:, 4::5], loop_samples(group, src)) <= TOL

    def test_each_experiment_converges_on_its_own_scale(self, monkeypatch):
        """A state 1e12 times larger in the group does not loosen the others' tolerance."""
        exps = [dynamics.Experiment(f"e{i}", 2.3, duration_us=0.5, sample_dt_ns=4.0,
                                    initial_state=np.diag([scale, 0.0]))
                for i, scale in enumerate((1.0, 1e12))]
        (group,) = dynamics.grid_groups(DEV1, exps, 4.0)
        src = scaled_template(10.0)
        ref = loop_samples(group, src)
        fell_back = spy_newton(monkeypatch)
        samples = dynamics.group_samples(group, src)
        assert not any(fell_back)
        for e in range(2):
            assert relative(samples[e], ref[e]) <= TOL

    def test_divergence_after_converged_windows(self, monkeypatch):
        """The window that overflows falls back, so integrate_rk4 and train.loss
        report the loop's time."""
        c = TestBatchedPrediction.UNSTABLE
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0, "lvn")
        exp = dynamics.Experiment("e", c["p_max"], duration_us=c["duration_us"],
                                  sample_dt_ns=c["sample_dt_ns"])
        src = make_case("nonlinear")
        bad = loop_oracle.first_non_finite(loop_oracle.integrate(dev, exp, src,
                                                                 c["dt_internal_ns"]))
        fell_back = spy_newton(monkeypatch)
        with pytest.raises(dynamics.DivergenceError) as err:
            dynamics.integrate_rk4(dev, exp, src, c["dt_internal_ns"])
        assert err.value.time_us == exp.times_us()[bad]
        assert fell_back == [False, True]

        ds = make_twin_dataset(seed=3, n_experiments=1, duration_us=c["duration_us"],
                               sample_dt_ns=c["sample_dt_ns"], shots=0, p_max=c["p_max"])
        ((exp, _),) = ds.experiments
        bad = loop_oracle.first_non_finite(loop_oracle.integrate(DEV1, exp, src,
                                                                 c["dt_internal_ns"]))
        fell_back.clear()
        with pytest.raises(dynamics.DivergenceError) as err:
            train.loss(src.pack(), ds, DEV1, src, c["dt_internal_ns"])
        assert err.value.time_us == exp.times_us()[bad]
        assert fell_back[0] is False and fell_back[-1] is True

    def test_loss_is_a_function_of_theta(self):
        """No state is carried between evaluations: the same theta, the same bits."""
        ds, dt_internal = twin(1, 3)
        src = scaled_template(10.0)
        first = train.loss(src.pack(), ds, DEV1, src, dt_internal)
        other = scaled_template(100.0)
        train.loss(other.pack(), ds, DEV1, other, dt_internal)
        assert train.loss(src.pack(), ds, DEV1, src, dt_internal) == first


class TestDivergenceTime:
    """The reported time is the first non-finite sample, as the step loop finds it."""

    FAST = dict(gamma=-1e6, duration_us=10.0, sample_dt_ns=100.0, dt_internal_ns=100.0)
    SLOW = dict(gamma=-3.0, duration_us=400.0, sample_dt_ns=100.0, dt_internal_ns=20.0)

    @staticmethod
    def unstable(gamma: float) -> models.StructurePreservingSource:
        return models.StructurePreservingSource(
            dim=2, alpha=np.zeros(3), gamma_raw=np.array([gamma, 0.0, 0.0]), signed=True
        )

    @pytest.mark.parametrize("case", ["FAST", "SLOW"])
    def test_integrate_rk4_reports_loop_time(self, case):
        c = getattr(self, case)
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0, "lvn")
        exp = dynamics.Experiment("e", 1.0, duration_us=c["duration_us"],
                                  sample_dt_ns=c["sample_dt_ns"])
        src = self.unstable(c["gamma"])
        bad = loop_oracle.first_non_finite(loop_oracle.integrate(dev, exp, src, c["dt_internal_ns"]))
        assert bad is not None
        with pytest.raises(dynamics.DivergenceError) as err:
            dynamics.integrate_rk4(dev, exp, src, c["dt_internal_ns"])
        assert err.value.time_us == exp.times_us()[bad]

    @pytest.mark.parametrize("case", ["FAST", "SLOW"])
    def test_train_loss_reports_loop_time(self, case):
        c = getattr(self, case)
        ds = make_twin_dataset(seed=3, n_experiments=3, duration_us=c["duration_us"],
                               sample_dt_ns=c["sample_dt_ns"], shots=0)
        src = self.unstable(c["gamma"])
        first = [
            loop_oracle.first_non_finite(loop_oracle.integrate(DEV1, exp, src, c["dt_internal_ns"]))
            for exp, _ in ds.experiments
        ]
        bad = min(i for i in first if i is not None)
        with pytest.raises(dynamics.DivergenceError) as err:
            train.loss(src.pack(), ds, DEV1, src, c["dt_internal_ns"])
        exp = ds.experiments[first.index(bad)][0]
        assert err.value.time_us == exp.times_us()[bad] < c["duration_us"]
        assert err.value.experiment_id == exp.id


def two_grids() -> tuple[train.Dataset, float]:
    """Two experiments on each of the n_sub = 1 and n_sub = 5 grids: two groups."""
    pairs = []
    for n_sub in N_SUB_CASES:
        ds, dt_internal = twin(n_sub, 2, seed=30 + n_sub)
        pairs += [(replace(exp, id=f"{exp.id}-{n_sub}"), block) for exp, block in ds.experiments]
    return train.Dataset(pairs, ds.train_horizon_us, ds.total_horizon_us), dt_internal


class TestBoundedLoss:
    """A bounded evaluation stops once the running loss is past the Armijo bound."""

    @pytest.mark.parametrize("kind", ["base", "sp", "affine", "nonlinear"])
    def test_bound_gives_the_loss_or_inf_above_it(self, kind):
        ds, dt_internal = two_grids()
        compiled = train._compile(ds, DEV1, dt_internal)
        assert len(compiled.groups) == 2
        src = make_case(kind)
        theta = np.zeros(0) if src is None else src.pack()
        full, _ = train._evaluate(compiled, theta, src, None, want_grad=False)
        for bound in (0.0, 1e-3 * full, 0.5 * full, full * (1 - 1e-6), full * (1 - 1e-12),
                      full, full * (1 + 1e-12), 2.0 * full, np.inf):
            value, grad = train._evaluate(compiled, theta, src, None, False, bound=bound)
            assert grad is None
            assert value == full or (value == np.inf and full > bound), bound
        assert train._evaluate(compiled, theta, src, None, False, bound=0.0)[0] == np.inf
        assert train._evaluate(compiled, theta, src, None, False, bound=full)[0] == full

    def test_diverging_candidate(self):
        c = TestBatchedPrediction.UNSTABLE
        ds = make_twin_dataset(seed=3, n_experiments=3, duration_us=c["duration_us"],
                               sample_dt_ns=c["sample_dt_ns"], shots=0, p_max=c["p_max"])
        compiled = train._compile(ds, DEV1, c["dt_internal_ns"])
        src = make_case("nonlinear")
        with pytest.raises(dynamics.DivergenceError) as unbounded:
            train._evaluate(compiled, src.pack(), src, None, want_grad=False)
        for bound in (1e-3, 1e300):
            try:
                value, _ = train._evaluate(compiled, src.pack(), src, None, False, bound=bound)
            except dynamics.DivergenceError as err:
                assert err.time_us == unbounded.value.time_us
            else:
                assert value == np.inf
        assert train._evaluate(compiled, src.pack(), src, None, False, bound=0.0)[0] == np.inf

    @pytest.mark.parametrize("kind", ["sp", "affine", "nonlinear"])
    def test_line_search_accepts_the_same_steps(self, kind, monkeypatch):
        ds, dt_internal = two_grids()
        template = models.make_source(kind, seed=1)
        config = train.TrainConfig(adam_epochs=2, adam_batch=2, lbfgs_max_iters=4,
                                   dt_internal_ns=dt_internal, seed=0)
        original = train._evaluate
        cut = []

        def counting(*args, **kwargs):
            value, grad = original(*args, **kwargs)
            cut.append(value == np.inf)
            return value, grad

        monkeypatch.setattr(train, "_evaluate", counting)
        bounded = train.fit(ds, DEV1, template, config)
        monkeypatch.setattr(train, "_evaluate",
                            lambda *args, bound=np.inf, **kwargs: original(*args, **kwargs))
        free = train.fit(ds, DEV1, template, config)
        np.testing.assert_array_equal(bounded.theta_star, free.theta_star)
        assert bounded.loss_history == free.loss_history
        assert bounded.phases == free.phases
        if kind == "nonlinear":
            assert any(cut)

    @pytest.mark.parametrize("kind", ["sp", "nonlinear"])
    def test_accepted_candidate_is_propagated_once(self, kind, monkeypatch):
        """The line search's evaluation of the accepted step also gives its gradient."""
        ds, dt_internal = two_grids()
        template = models.make_source(kind, seed=1)
        evaluated = []
        with_params = type(template).with_params
        monkeypatch.setattr(type(template), "with_params", lambda self, theta: (
            evaluated.append(np.asarray(theta).tobytes()) or with_params(self, theta)))
        config = train.TrainConfig(adam_epochs=0, lbfgs_max_iters=4, dt_internal_ns=dt_internal)
        fit = train.fit(ds, DEV1, template, config)
        assert fit.phases.count("lbfgs") >= 2
        assert len(evaluated) - len(set(evaluated)) == 0  # no parameter vector twice
