"""The engines against the step-loop oracle (tests/loop_oracle.py).

Doubling propagation, the adjoint scan and batching over experiments reorder
floating-point work, so states, losses and gradients must agree with the
loops to 1e-12 relative (max-norm), not bit for bit.
"""

import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from qude import dynamics, models, qcore, train

import loop_oracle
from conftest import DEV1, adjoint_solves, make_twin_dataset, newton_windows, planted_source

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
        forward = dynamics.linear_forward(group, src)
        samples = forward[-1][..., :-1]
        pullback = partial(dynamics.linear_pullback, group, src, forward)
    else:
        windows = list(dynamics.network_chunks(group, src))
        samples = np.concatenate([states[:, group.n_sub :: group.n_sub]
                                  for _, _, states, *_ in windows], axis=1)
        pullback = partial(dynamics.network_pullback, group, src, windows)
    delta = samples - group.targets
    return float(np.einsum("esk,k->", delta * delta, weights)), pullback(2.0 * weights * delta)


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
        assert calls == [(3, 5, 5), (3, 10, 10)]  # the step of M, then of the dL/dM block


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
        lam = dynamics.adjoint_scan(dynamics.power_increments(d, 1, n), g.copy())
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
    def test_sample_counts_cut_the_grid(self, kind):
        """``n_samples`` predicts the first samples of each grid and no more: the
        same states as the whole grid's, to the loop oracle's tolerance."""
        exps = self.experiments([(4.0, 1.5)])  # 375 samples each
        counts = [375, 130, 7]
        src = make_case(kind)
        basis = qcore.hermitian_basis(2)
        trajectories = dynamics.integrate_many(DEV1, exps, src, 4.0, counts)
        for exp, n, traj in zip(exps, counts, trajectories):
            np.testing.assert_array_equal(traj.times_us, exp.times_us()[:n])
            xs = qcore.expand_many(traj.states, basis)
            assert relative(xs, loop_oracle.integrate(DEV1, exp, src, 4.0)[:n]) <= TOL

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
        states = dynamics.propagate_network(group.a_base, src, group.x0, group.h_us,
                                            group.n_samples * n_sub)
        assert states.shape == (3, group.n_samples * n_sub + 1, 4)
        np.testing.assert_array_equal(states[:, 0], group.x0)
        for e in range(3):
            ref = loop_oracle.network_step_loop(group.a_base[e], src, group.x0[e], group.h_us,
                                                group.n_samples, n_sub)
            assert relative(states[e, n_sub::n_sub], ref) <= TOL

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
        problem = train.Problem(ds, DEV1, dt_internal)
        (group,) = problem.groups
        src = make_case(kind)
        if kind == "nonlinear":
            ref_loss, ref_grad = loop_oracle.network_group_loss_grad(
                group.a_base, group.x0, group.targets, group.n_sub, group.h_us, src,
                problem.weights,
            )
        else:
            m = loop_oracle.augmented_generator(group.a_base, src)
            x0 = np.concatenate([group.x0, np.ones((n_experiments, 1))], axis=1)
            ref_loss, q = loop_oracle.group_loss_grad(
                m, x0, group.targets, group.n_sub, group.h_us, problem.weights
            )
            ref_grad = None if src is None else loop_oracle.param_grad(src, q)
        theta = np.zeros(0) if src is None else src.pack()
        assert relative(problem.evaluate(theta, src, want_grad=False)[0], ref_loss) <= TOL
        if src is not None:
            assert relative(problem.evaluate(theta, src)[1], ref_grad) <= TOL

    @pytest.mark.parametrize("n_sub", [1, 5])
    @pytest.mark.parametrize("kind", ["sp", "affine"])
    def test_linear_grad_block_is_the_np_block_form(self, kind, n_sub):
        """[[M^T, dL/dS], [0, M^T]] filled in place gives the gradient bit for bit."""
        ds, dt_internal = twin(n_sub, 3)
        problem = train.Problem(ds, DEV1, dt_internal)
        (group,) = problem.groups
        tmpl = models.make_source(kind, seed=3)
        rng = np.random.default_rng(12)
        for scale in (0.0, 0.05, 0.5):
            src = tmpl.with_params(tmpl.pack() + scale * rng.standard_normal(tmpl.pack().shape))
            forward = dynamics.linear_forward(group, src)
            g = 2.0 * problem.weights * (forward[-1][..., :-1] - group.targets)
            got = dynamics.linear_pullback(group, src, forward, g)
            ref = loop_oracle.linear_grad_block(group, src, forward, g)
            assert got.tobytes() == ref.tobytes()

    def test_network_chunk_edges_change_nothing(self, monkeypatch):
        """4-sample windows, 37 samples in all: the forward and the reverse
        sweep cut the horizon at the same edges and leave a ragged tail."""
        ds, dt_internal = twin(5, 3)
        problem = train.Problem(ds, DEV1, dt_internal)
        (group,) = problem.groups
        src = make_case("nonlinear")
        whole_loss, _ = group_loss_grad(group, src, problem.weights, linear=False)
        monkeypatch.setattr(dynamics, "FORWARD_CHUNK_SAMPLES", 4)
        loss, grad = group_loss_grad(group, src, problem.weights, linear=False)
        assert relative(loss, whole_loss) <= TOL
        ref_loss, ref_grad = loop_oracle.network_group_loss_grad(
            group.a_base, group.x0, group.targets, group.n_sub, group.h_us, src, problem.weights
        )
        assert relative(loss, ref_loss) <= TOL
        assert relative(grad, ref_grad) <= TOL

    def test_pullback_takes_the_forward_stages(self, monkeypatch):
        """Under the cap a loss-and-gradient evaluation calls ``rk4_stages`` only
        in its forward. With the cap at 0 the pullback rebuilds each window's
        stages once, from that window's own states, and the gradient keeps its
        bits. No sample and no gradient shares memory with a kept stage."""
        ds, dt_internal = twin(5, 3)
        problem = train.Problem(ds, DEV1, dt_internal)
        src = make_case("nonlinear")
        monkeypatch.setattr(dynamics, "FORWARD_CHUNK_SAMPLES", 4)
        windows, calls = [], []
        chunks, stages = dynamics.network_chunks, dynamics.rk4_stages

        def recorded_chunks(*args):
            for window in chunks(*args):
                windows.append(window)
                yield window
            calls.clear()  # the calls so far were the forward's

        def recorded_stages(a_base, source, h_us, x):
            calls.append(x)
            return stages(a_base, source, h_us, x)

        monkeypatch.setattr(dynamics, "network_chunks", recorded_chunks)
        monkeypatch.setattr(dynamics, "rk4_stages", recorded_stages)
        kept = problem.evaluate(src.pack(), src)[1]
        assert len(windows) == 10 and calls == []

        windows.clear()
        forward = dynamics.GroupForward(problem.groups[0], src, keep_stages=True)
        given = [samples for _, _, samples in forward]
        given.append(forward.pullback(np.ones(problem.groups[0].targets.shape)))
        arrays = [a for *_, stages, _ in windows for ins in stages for a in ins if a is not None]
        assert len(arrays) == 10 * 4 * src.n_layers - 10  # stage 0's first input is the states
        assert not any(np.shares_memory(a, b) for a in arrays for b in given)

        windows.clear()
        monkeypatch.setattr(dynamics, "MAX_KEPT_STAGE_BYTES", 0)
        rebuilt = problem.evaluate(src.pack(), src)[1]
        assert len(windows) == 10 and len(calls) == len(windows)
        owners = [[i for i, w in enumerate(windows) if np.shares_memory(x, w[2])] for x in calls]
        assert sorted(owners) == [[i] for i in range(10)]
        for x, (i,) in zip(calls, owners):
            np.testing.assert_array_equal(x, windows[i][2][:, :-1])
        np.testing.assert_array_equal(rebuilt, kept)

    def test_windows_carry_lam_across_their_boundaries(self, monkeypatch):
        """12 windows (11 of 16 samples and one of 9), one adjoint solve each:
        the gradient is the step loop's."""
        ds, dt_internal = twin(1, 3)
        problem = train.Problem(ds, DEV1, dt_internal)
        (group,) = problem.groups
        src = scaled_template(10.0)
        ref_grad = loop_oracle.network_group_loss_grad(
            group.a_base, group.x0, group.targets, group.n_sub, group.h_us, src, problem.weights
        )[1]
        monkeypatch.setattr(dynamics, "FORWARD_CHUNK_SAMPLES", 16)
        adjoints = adjoint_solves(monkeypatch)
        assert relative(problem.evaluate(src.pack(), src)[1], ref_grad) <= TOL
        assert [a.steps for a in reversed(adjoints)] == [16] * 11 + [9]
        assert not any(a.fell_back for a in adjoints)

    @pytest.mark.parametrize("perturbation, d_bars", [(0.0, 1), (0.6, 10)])
    def test_powers_are_formed_once_per_d_bar(self, perturbation, d_bars, monkeypatch):
        """47 windows of 4 samples (the last of 1), all sharing one D_bar, or
        with a D_bar formed again in 10 of them: the pullback forms the powers
        of each distinct D_bar once, at a whole window's steps, and the
        gradient is the step loop's."""
        ds, dt_internal = twin(1, 3)
        problem = train.Problem(ds, DEV1, dt_internal)
        (group,) = problem.groups
        src = perturbed_template(perturbation)
        ref_grad = loop_oracle.network_group_loss_grad(
            group.a_base, group.x0, group.targets, group.n_sub, group.h_us, src, problem.weights
        )[1]
        monkeypatch.setattr(dynamics, "FORWARD_CHUNK_SAMPLES", 4)
        windows, formed = [], []
        chunks, powers = dynamics.network_chunks, dynamics.power_increments

        def recorded_chunks(*args):
            for window in chunks(*args):
                windows.append(window)
                yield window
            formed.clear()  # the forward's own

        def recorded_powers(d_step, n_sub, n_samples):
            formed.append((id(d_step), n_sub, n_samples))
            return powers(d_step, n_sub, n_samples)

        monkeypatch.setattr(dynamics, "network_chunks", recorded_chunks)
        monkeypatch.setattr(dynamics, "power_increments", recorded_powers)
        assert relative(problem.evaluate(src.pack(), src)[1], ref_grad) <= TOL
        d_bar_ids = {id(w[4]) for w in windows}
        assert len(windows) == 47 and len(d_bar_ids) == d_bars
        assert sorted(formed) == sorted((i, 1, 4 * group.n_sub) for i in d_bar_ids)

    def test_prediction_keeps_no_stages(self, monkeypatch):
        """``group_samples`` and ``integrate_many`` hold no earlier window's
        stages while a window is solved; a forward that may be pulled back
        holds them all."""
        ds, dt_internal = twin(5, 3)
        problem = train.Problem(ds, DEV1, dt_internal)
        src = make_case("nonlinear")
        monkeypatch.setattr(dynamics, "FORWARD_CHUNK_SAMPLES", 4)
        yielded, alive = [], []  # the yielded stages; per window solved, which are held
        chunks, window = dynamics.network_chunks, dynamics.newton_window

        def watched_chunks(*args):
            for w in chunks(*args):
                yielded.extend(weakref.ref(a) for ins in w[3] for a in ins if a is not None)
                yield w
                del w  # held past the yield, it would keep the stages alive

        def watched_window(*args):
            alive.append([ref() is not None for ref in yielded])
            return window(*args)

        monkeypatch.setattr(dynamics, "network_chunks", watched_chunks)
        monkeypatch.setattr(dynamics, "newton_window", watched_window)
        exps = [exp for exp, _ in ds.experiments]
        for predict in (lambda: dynamics.group_samples(problem.groups[0], src),
                        lambda: dynamics.integrate_many(DEV1, exps, src, dt_internal)):
            yielded.clear()
            alive.clear()
            predict()
            assert len(alive) == 10 and not any(any(held) for held in alive)
        yielded.clear()
        alive.clear()
        problem.evaluate(src.pack(), src)
        assert len(alive) == 10 and all(all(held) for held in alive)

    @pytest.mark.parametrize("n_sub", [1, 5])
    def test_affine_matches_network_path(self, n_sub):
        ds, dt_internal = twin(n_sub, 3)
        problem = train.Problem(ds, DEV1, dt_internal)
        (group,) = problem.groups
        src = make_case("affine")
        net_loss, net_grad = group_loss_grad(group, src, problem.weights, linear=False)
        lin_loss, lin_grad = group_loss_grad(group, src, problem.weights, linear=True)
        assert relative(lin_loss, net_loss) <= TOL
        assert relative(lin_grad, net_grad) <= TOL
        assert relative(problem.evaluate(src.pack(), src, want_grad=False)[0], net_loss) <= TOL

    def test_tanh_net_is_not_affine(self):
        src = models.make_source("nonlinear", seed=0)
        assert not src.is_linear
        with pytest.raises(ValueError):
            src.coeff_affine()


def scaled_template(scale: float) -> models.NetworkSource:
    """The nonlinear template (seed 3) with every parameter multiplied by ``scale``."""
    tmpl = models.make_source("nonlinear", seed=3)
    return tmpl.with_params(scale * tmpl.pack())


def step_jacobian_error(group, src) -> float:
    """The relative error of ``rk4_increment`` along the step loop's trajectory
    over a group's horizon, against the loop oracle's stage walk."""
    x = dynamics.propagate_network(group.a_base, src, group.x0, group.h_us,
                                   group.n_samples * group.n_sub)[:, :-1]
    _, stages = dynamics.rk4_stages(group.a_base, src, group.h_us, x)
    return relative(dynamics.rk4_increment(group.a_base, src, group.h_us, stages),
                    loop_oracle.step_increments(group.a_base, src, group.h_us, x))


def loop_samples(group, src) -> np.ndarray:
    return np.stack([
        loop_oracle.network_step_loop(group.a_base[e], src, group.x0[e], group.h_us,
                                      group.n_samples, group.n_sub)
        for e in range(len(group.x0))
    ])


def base_guess(group) -> np.ndarray:
    """The base-model trajectory over a group's whole horizon, a first Newton iterate."""
    n_steps = group.n_samples * group.n_sub
    base = dynamics.power_increments(dynamics.rk4_step_increment(group.a_base, group.h_us),
                                     1, n_steps)
    return dynamics.propagate_linear(base, group.x0, n_steps)


class TestNewtonForward:
    """The Newton-in-time network forward against the step loop, and its fallback."""

    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("n_experiments", [1, 3])
    @pytest.mark.parametrize("n_sub", [1, 5])
    def test_matches_loop(self, scale, n_sub, n_experiments, monkeypatch):
        ds, dt_internal = twin(n_sub, n_experiments)
        problem = train.Problem(ds, DEV1, dt_internal)
        (group,) = problem.groups
        src = scaled_template(scale)
        ref_loss, ref_grad = loop_oracle.network_group_loss_grad(
            group.a_base, group.x0, group.targets, group.n_sub, group.h_us, src, problem.weights
        )
        ref_samples = loop_samples(group, src)
        windows = newton_windows(monkeypatch)
        assert relative(dynamics.group_samples(group, src), ref_samples) <= TOL
        assert relative(problem.evaluate(src.pack(), src, want_grad=False)[0], ref_loss) <= TOL
        assert relative(problem.evaluate(src.pack(), src)[1], ref_grad) <= TOL
        n_windows = -(-group.n_samples // dynamics.FORWARD_CHUNK_SAMPLES)
        # three forwards, every window converged
        assert [w.fell_back for w in windows] == [False] * 3 * n_windows

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
        windows = newton_windows(monkeypatch)
        assert relative(dynamics.group_samples(group, src), ref) <= TOL
        loss, grad = group_loss_grad(train._Group(**vars(group), targets=targets), src, weights,
                                     linear=False)
        assert relative(loss, ref_loss) <= TOL
        assert relative(grad, ref_grad) <= TOL
        assert [w.fell_back for w in windows] == [False, False]
        assert step_jacobian_error(group, src) <= TOL

    @pytest.mark.parametrize("n_sub", [1, 5])
    def test_no_iterations_is_the_step_loop(self, n_sub, monkeypatch):
        ds, dt_internal = twin(n_sub, 3)
        (group,) = train.Problem(ds, DEV1, dt_internal).groups
        src = scaled_template(1.0)
        ref = dynamics.propagate_network(group.a_base, src, group.x0, group.h_us,
                                         group.n_samples * n_sub)
        monkeypatch.setattr(dynamics, "NEWTON_MAX_ITERS", 0)
        for lo, hi, states, *_ in dynamics.network_chunks(group, src):
            np.testing.assert_array_equal(states, ref[:, lo * n_sub : hi * n_sub + 1])

    def test_unconverged_window_is_the_step_loop(self, monkeypatch):
        """At 1000 times the template the iterates of the one 185-step window
        do not settle, and the window is the step loop's, bit for bit."""
        ds, dt_internal = twin(5, 3)
        (group,) = train.Problem(ds, DEV1, dt_internal).groups
        src = scaled_template(1000.0)
        ref = dynamics.propagate_network(group.a_base, src, group.x0, group.h_us,
                                         group.n_samples * group.n_sub)
        (states,) = [states for _, _, states, *_ in dynamics.network_chunks(group, src)]
        np.testing.assert_array_equal(states, ref)
        states, stages, (d_bar, _) = dynamics.newton_window(group.a_base, src, group.x0,
                                                            group.h_us, base_guess(group))
        assert states is None and stages is None and d_bar.shape == group.a_base.shape
        windows = newton_windows(monkeypatch)
        np.testing.assert_array_equal(dynamics.group_samples(group, src), ref[:, 5::5])
        # every evaluation of the window, and none of the step loop's rk4_stages calls
        assert [w[:2] for w in windows] == [(True, dynamics.NEWTON_MAX_ITERS)]
        assert relative(ref[:, 5::5], loop_samples(group, src)) <= TOL

    def test_each_experiment_converges_on_its_own_scale(self, monkeypatch):
        """A state 1e12 times larger in the group does not loosen the others' tolerance."""
        exps = [dynamics.Experiment(f"e{i}", 2.3, duration_us=0.5, sample_dt_ns=4.0,
                                    initial_state=np.diag([scale, 0.0]))
                for i, scale in enumerate((1.0, 1e12))]
        (group,) = dynamics.grid_groups(DEV1, exps, 4.0)
        src = scaled_template(10.0)
        ref = loop_samples(group, src)
        windows = newton_windows(monkeypatch)
        samples = dynamics.group_samples(group, src)
        assert not any(w.fell_back for w in windows)
        for e in range(2):
            assert relative(samples[e], ref[e]) <= TOL

    def test_divergence_after_converged_windows(self, monkeypatch):
        """The window that overflows falls back, so integrate_rk4 and train.loss
        report the loop's time. With 64-sample windows the first converges and
        the overflow lands in the second."""
        monkeypatch.setattr(dynamics, "FORWARD_CHUNK_SAMPLES", 64)
        c = TestBatchedPrediction.UNSTABLE
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0, "lvn")
        exp = dynamics.Experiment("e", c["p_max"], duration_us=c["duration_us"],
                                  sample_dt_ns=c["sample_dt_ns"])
        src = make_case("nonlinear")
        bad = loop_oracle.first_non_finite(loop_oracle.integrate(dev, exp, src,
                                                                 c["dt_internal_ns"]))
        windows = newton_windows(monkeypatch)
        with pytest.raises(dynamics.DivergenceError) as err:
            dynamics.integrate_rk4(dev, exp, src, c["dt_internal_ns"])
        assert err.value.time_us == exp.times_us()[bad]
        assert [w.fell_back for w in windows] == [False, True]

        ds = make_twin_dataset(seed=3, n_experiments=1, duration_us=c["duration_us"],
                               sample_dt_ns=c["sample_dt_ns"], shots=0, p_max=c["p_max"])
        ((exp, _),) = ds.experiments
        bad = loop_oracle.first_non_finite(loop_oracle.integrate(DEV1, exp, src,
                                                                 c["dt_internal_ns"]))
        windows.clear()
        with pytest.raises(dynamics.DivergenceError) as err:
            train.loss(src.pack(), ds, DEV1, src, c["dt_internal_ns"])
        assert err.value.time_us == exp.times_us()[bad]
        assert not windows[0].fell_back and windows[-1].fell_back

    def test_ragged_windows_with_substeps_match_loop(self, monkeypatch):
        """135 samples of 5 steps each: a full 128-sample window of 640 steps,
        then a 7-sample tail, each started from the window before."""
        ds = make_twin_dataset(seed=5, n_experiments=2, duration_us=2.7, sample_dt_ns=20.0,
                               shots=2000)
        problem = train.Problem(ds, DEV1, 4.0)
        (group,) = problem.groups
        assert (group.n_sub, group.n_samples) == (5, 135)
        src = scaled_template(100.0)
        ref_loss, ref_grad = loop_oracle.network_group_loss_grad(
            group.a_base, group.x0, group.targets, group.n_sub, group.h_us, src, problem.weights
        )
        ref = dynamics.propagate_network(group.a_base, src, group.x0, group.h_us, 135 * 5)
        windows = newton_windows(monkeypatch)
        assert relative(dynamics.group_samples(group, src), loop_samples(group, src)) <= TOL
        assert relative(dynamics.group_samples(group, src), ref[:, 5::5]) <= TOL
        loss, grad = problem.evaluate(src.pack(), src)
        assert relative(loss, ref_loss) <= TOL
        assert relative(grad, ref_grad) <= TOL
        assert [w.fell_back for w in windows] == [False] * 2 * 3
        assert max(w.evaluations for w in windows) > 2  # an iteration past the first correction

    def test_no_window_falls_back_on_the_rank_twin(self, twin_noisy_20us, monkeypatch):
        """The fit-rank20 twin (criterion 07's) over its 2500 train samples, at the
        template and at the benchmark's fitted weights (one L-BFGS iteration),
        forward and pullback. At the template the forward forms its Jacobian once,
        in the first window, every window converges in 2 evaluations, and the
        pullback solves the adjoint of each window once, in one sweep."""
        problem = train.Problem(twin_noisy_20us, DEV1)
        template = models.make_source("nonlinear", seed=1)
        fitted = train.fit(twin_noisy_20us, DEV1, template,
                           train.TrainConfig(adam_epochs=0, lbfgs_max_iters=1)).theta_star
        windows, adjoints = newton_windows(monkeypatch), adjoint_solves(monkeypatch)
        for name, theta in (("template", template.pack()), ("fitted", fitted)):
            windows.clear()
            adjoints.clear()
            problem.evaluate(theta, template)
            assert len(windows) == -(-2500 // dynamics.FORWARD_CHUNK_SAMPLES) == len(adjoints)
            assert not any(w.fell_back for w in windows)
            assert not any(a.fell_back for a in adjoints)
            jacobians = sum(w.jacobians for w in windows)
            if name == "template":
                assert jacobians == 1 and all(w.evaluations == 2 for w in windows), windows
                assert all(a.sweeps == 1 for a in adjoints), adjoints
            print(f"\n{name}: {np.mean([w.evaluations for w in windows]):.2f} evaluations per "
                  f"window, {jacobians} Jacobians per forward, "
                  f"{np.mean([a.sweeps for a in adjoints]):.2f} adjoint sweeps per window")

    def test_loss_is_a_function_of_theta(self):
        """No state is carried between evaluations: the same theta, the same bits."""
        ds, dt_internal = twin(1, 3)
        problem = train.Problem(ds, DEV1, dt_internal)
        src = scaled_template(10.0)
        first = problem.evaluate(src.pack(), src, want_grad=False)[0]
        other = scaled_template(100.0)
        problem.evaluate(other.pack(), other, want_grad=False)
        assert problem.evaluate(src.pack(), src, want_grad=False)[0] == first


def perturbed_template(perturbation: float) -> models.NetworkSource:
    """The benchmark's nonlinear template (seed 1) plus seeded normal noise."""
    tmpl = models.make_source("nonlinear", seed=1)
    noise = np.random.default_rng(21).standard_normal(tmpl.pack().shape)
    return tmpl.with_params(tmpl.pack() + perturbation * noise)


class TestScanWindow:
    """Every window after the first starts from the affine map fitted to the
    window before and corrects with the carried window-mean Jacobian by the
    doubling scan; its states are the step loop's to 1e-12."""

    @staticmethod
    def grid(n_sub: int) -> train._Group:
        if n_sub == 1:  # 185 samples of one step
            ds, dt_internal = twin(1, 3)
        else:  # chain-tiny's grid: 2 experiments, 100 samples of 5 steps
            ds = make_twin_dataset(seed=5, n_experiments=2, duration_us=2.0,
                                   sample_dt_ns=20.0, shots=5000)
            dt_internal = 4.0
        (group,) = train.Problem(ds, DEV1, dt_internal).groups
        return group

    @pytest.mark.parametrize("perturbation", [0.0, 0.3, 0.6])
    @pytest.mark.parametrize("n_sub", [1, 5])
    def test_window_states_match_the_loops(self, n_sub, perturbation, monkeypatch):
        """16-sample windows, the last one ragged."""
        group = self.grid(n_sub)
        src = perturbed_template(perturbation)
        ref = dynamics.propagate_network(group.a_base, src, group.x0, group.h_us,
                                         group.n_samples * n_sub)
        monkeypatch.setattr(dynamics, "FORWARD_CHUNK_SAMPLES", 16)
        windows = newton_windows(monkeypatch)
        for lo, hi, states, *_ in dynamics.network_chunks(group, src):
            assert relative(states, ref[:, lo * n_sub : hi * n_sub + 1]) <= TOL
        assert len(windows) == -(-group.n_samples // 16)
        assert not any(w.fell_back for w in windows)
        if perturbation == 0.0:  # formed in the first window, carried to every other
            assert [w.jacobians for w in windows] == [1] + [0] * (len(windows) - 1)
        assert relative(dynamics.group_samples(group, src), loop_samples(group, src)) <= TOL

    @pytest.mark.parametrize("n_sub", [1, 5])
    def test_stale_jacobian_is_formed_again_once(self, n_sub, monkeypatch):
        """A window handed D_bar = 0 converges without the step loop, forming
        its Jacobian once and returning it in place of the stale one."""
        group = self.grid(n_sub)
        src = perturbed_template(0.0)
        n_steps = group.n_samples * n_sub
        ref = dynamics.propagate_network(group.a_base, src, group.x0, group.h_us, n_steps)
        stale = dynamics.window_jacobian(np.zeros_like(group.a_base), n_steps)
        windows = newton_windows(monkeypatch)
        states, _, (d_bar, _) = dynamics.newton_window(group.a_base, src, group.x0, group.h_us,
                                                       base_guess(group), stale)
        ((fell_back, _, jacobians),) = windows
        assert not fell_back and jacobians == 1
        assert relative(states, ref) <= TOL
        assert np.max(np.abs(d_bar)) > 0.0


def step_loop_adjoint(group, src, stages, g) -> np.ndarray:
    """One window's adjoint walked back step by step (``tangent_recurrence``)
    with the window's own D_n, the path ``window_adjoint`` refines a scan to."""
    d_t = np.swapaxes(dynamics.rk4_increment(group.a_base, src, group.h_us, stages), -1, -2)
    lams = dynamics.tangent_recurrence(np.ascontiguousarray(d_t[::-1][:-1]),
                                       np.ascontiguousarray(np.moveaxis(g, 1, 0)[::-1]))
    return np.moveaxis(lams[::-1], 0, 1)


class TestWindowAdjoint:
    """The scan-and-sweep adjoint of a window against the step-by-step walk."""

    @staticmethod
    def adjoints(group, src, seed: int = 4):
        """(window_adjoint, step loop) of each forward window for seeded g, with
        D_n^T lam_n and the relative error of D_n, both against the loop
        oracle's D_n."""
        rng = np.random.default_rng(seed)
        for _, _, states, _, d_bar in dynamics.network_chunks(group, src):
            _, stages = dynamics.rk4_stages(group.a_base, src, group.h_us, states[:, :-1])
            g = rng.standard_normal(states[:, 1:].shape)
            increments = dynamics.power_increments(d_bar, 1, g.shape[1])
            lam, (d_t_lam, _) = dynamics.window_adjoint(group.a_base, src, group.h_us, stages, g,
                                                        increments)
            ref = step_loop_adjoint(group, src, stages, g)
            d_ref = loop_oracle.step_increments(group.a_base, src, group.h_us, states[:, :-1])
            d_step = dynamics.rk4_increment(group.a_base, src, group.h_us, stages)
            d_error = relative(d_step, d_ref)
            product = np.einsum("cekj,eck->ecj", d_ref, lam)  # D_n^T lam_n
            yield lam, ref, d_t_lam, product, d_error

    @pytest.mark.parametrize("perturbation", [0.0, 0.3])
    def test_matches_the_step_loop_on_the_rank_twin(self, twin_noisy_20us, perturbation,
                                                    monkeypatch):
        """At the template and away from it the sweeps converge in every window,
        and the step Jacobians are the oracle's."""
        (group,) = train.Problem(twin_noisy_20us, DEV1).groups
        adjoints = adjoint_solves(monkeypatch)
        for lam, ref, d_t_lam, product, d_error in self.adjoints(group,
                                                                perturbed_template(perturbation)):
            assert relative(lam, ref) <= TOL
            assert relative(d_t_lam, product) <= TOL
            assert d_error <= TOL
        assert len(adjoints) == 20 and not any(a.fell_back for a in adjoints), adjoints
        if perturbation == 0.0:
            assert {a.sweeps for a in adjoints} == {1}

    def test_falls_back_where_the_sweeps_do_not_contract(self, monkeypatch):
        """At 1000 times the template the sweeps do not settle, and the window
        walks back step by step: the step loop's lam, bit for bit."""
        ds, dt_internal = twin(5, 3)
        (group,) = train.Problem(ds, DEV1, dt_internal).groups
        adjoints = adjoint_solves(monkeypatch)
        ((lam, ref, d_t_lam, product, d_error),) = self.adjoints(group, scaled_template(1000.0))
        assert [a.fell_back for a in adjoints] == [True]
        np.testing.assert_array_equal(lam, ref)
        assert relative(d_t_lam, product) <= TOL
        assert d_error <= TOL


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
        problem = train.Problem(ds, DEV1, dt_internal)
        assert len(problem.groups) == 2
        src = make_case(kind)
        theta = np.zeros(0) if src is None else src.pack()
        full, _ = problem.evaluate(theta, src, want_grad=False)
        for bound in (0.0, 1e-3 * full, 0.5 * full, full * (1 - 1e-6), full * (1 - 1e-12),
                      full, full * (1 + 1e-12), 2.0 * full, np.inf):
            value, grad = problem.evaluate(theta, src, want_grad=False, bound=bound)
            assert grad is None
            assert value == full or (value == np.inf and full > bound), bound
        assert problem.evaluate(theta, src, want_grad=False, bound=0.0)[0] == np.inf
        assert problem.evaluate(theta, src, want_grad=False, bound=full)[0] == full

    def test_diverging_candidate(self, monkeypatch):
        """With 64-sample windows the first window ends before the overflow, so a
        zero bound rejects the candidate before it diverges."""
        monkeypatch.setattr(dynamics, "FORWARD_CHUNK_SAMPLES", 64)
        c = TestBatchedPrediction.UNSTABLE
        ds = make_twin_dataset(seed=3, n_experiments=3, duration_us=c["duration_us"],
                               sample_dt_ns=c["sample_dt_ns"], shots=0, p_max=c["p_max"])
        problem = train.Problem(ds, DEV1, c["dt_internal_ns"])
        src = make_case("nonlinear")
        with pytest.raises(dynamics.DivergenceError) as unbounded:
            problem.evaluate(src.pack(), src, want_grad=False)
        for bound in (1e-3, 1e300):
            try:
                value, _ = problem.evaluate(src.pack(), src, want_grad=False, bound=bound)
            except dynamics.DivergenceError as err:
                assert err.time_us == unbounded.value.time_us
            else:
                assert value == np.inf
        assert problem.evaluate(src.pack(), src, want_grad=False, bound=0.0)[0] == np.inf

    @pytest.mark.parametrize("kind", ["base", "sp", "affine", "nonlinear"])
    def test_subset_of_every_experiment_is_the_whole(self, kind):
        """A batch that names every experiment evaluates the groups themselves."""
        ds, dt_internal = two_grids()
        problem = train.Problem(ds, DEV1, dt_internal)
        src = make_case(kind)
        theta = np.zeros(0) if src is None else src.pack()
        everyone = {exp.id for exp, _ in ds.experiments}
        whole = problem.evaluate(theta, src)
        for subset in (everyone, everyone | {"not-in-the-dataset"}):
            loss, grad = problem.evaluate(theta, src, subset)
            assert loss == whole[0]
            if src is None:
                assert grad is None and whole[1] is None
            else:
                np.testing.assert_array_equal(grad, whole[1])

    @pytest.mark.parametrize("kind", ["sp", "affine", "nonlinear"])
    def test_line_search_accepts_the_same_steps(self, kind, monkeypatch):
        ds, dt_internal = two_grids()
        template = models.make_source(kind, seed=1)
        config = train.TrainConfig(adam_epochs=2, adam_batch=2, lbfgs_max_iters=4,
                                   dt_internal_ns=dt_internal, seed=0)
        original = train.Problem.evaluate
        cut = []

        def counting(*args, **kwargs):
            value, grad = original(*args, **kwargs)
            cut.append(value == np.inf)
            return value, grad

        monkeypatch.setattr(train.Problem, "evaluate", counting)
        bounded = train.fit(ds, DEV1, template, config)
        monkeypatch.setattr(train.Problem, "evaluate",
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
