"""The log-depth linear engine against the step-loop oracle (tests/loop_oracle.py).

Doubling propagation and the adjoint scan reorder floating-point work, so
states, losses and gradients must agree with the loops to 1e-12 relative
(max-norm), not bit for bit.
"""

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


def twin(n_sub: int, n_experiments: int, seed: int = 31) -> tuple[train.Dataset, float]:
    sample_dt, dt_internal = N_SUB_CASES[n_sub]
    ds = make_twin_dataset(seed=seed, n_experiments=n_experiments, duration_us=0.74,
                           sample_dt_ns=sample_dt, shots=2000)
    return ds, dt_internal


class TestBatchedStepMatrix:
    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3, 5, 5))
        batched = dynamics.rk4_step_matrix(a, 0.01)
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


class TestTrainingEngine:
    @pytest.mark.parametrize("n_experiments", [1, 3])
    @pytest.mark.parametrize("n_sub", [1, 5])
    @pytest.mark.parametrize("kind", ["base", "sp", "affine"])
    def test_loss_and_gradient_match_loop(self, kind, n_sub, n_experiments):
        ds, dt_internal = twin(n_sub, n_experiments)
        compiled = train._compile(ds, DEV1, dt_internal)
        (group,) = compiled.groups
        src = make_case(kind)
        m = loop_oracle.augmented_generator(group.a_base, src)
        x0 = np.concatenate([group.x0, np.ones((n_experiments, 1))], axis=1)
        ref_loss, q = loop_oracle.group_loss_grad(
            m, x0, group.targets, group.n_sub, group.h_us, compiled.weights
        )
        if src is None:
            assert relative(train.loss(np.zeros(0), ds, DEV1, None, dt_internal), ref_loss) <= TOL
            return
        theta = src.pack()
        assert relative(train.loss(theta, ds, DEV1, src, dt_internal), ref_loss) <= TOL
        grad = train.gradient(theta, ds, DEV1, src, dt_internal)
        assert relative(grad, loop_oracle.param_grad(src, q)) <= TOL

    @pytest.mark.parametrize("n_sub", [1, 5])
    def test_affine_matches_network_path(self, n_sub):
        ds, dt_internal = twin(n_sub, 3)
        compiled = train._compile(ds, DEV1, dt_internal)
        (group,) = compiled.groups
        src = make_case("affine")
        theta = src.pack()
        net_loss, net_grad = train._network_group_loss_grad(group, src, theta, compiled.weights)
        lin_loss, lin_grad = train._linear_group_loss_grad(group, src, theta, compiled.weights)
        assert relative(lin_loss, net_loss) <= TOL
        assert relative(lin_grad, net_grad) <= TOL
        assert relative(train._linear_group_loss(group, src, theta, compiled.weights),
                        train._network_group_loss(group, src, theta, compiled.weights)) <= TOL

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
        theta = src.pack()
        net_loss, net_grad = train._network_group_loss_grad(group, src, theta, compiled.weights)
        lin_loss, lin_grad = train._linear_group_loss_grad(group, src, theta, compiled.weights)
        assert relative(lin_loss, net_loss) <= TOL
        assert relative(lin_grad, net_grad) <= TOL

    def test_tanh_net_is_not_affine(self):
        src = models.make_source("nonlinear", seed=0)
        assert not src.is_linear
        with pytest.raises(ValueError):
            src.coeff_affine()


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
