import numpy as np
import pytest

from qude import dynamics, models, qcore

import loop_oracle
import states

TWO_PI = 2.0 * np.pi

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def lvn_device(**kw):
    return dynamics.DeviceModel(
        omega01_GHz=3.448, T1_us=214.0, T2_us=32.0, base_kind="lvn", **kw
    )


def lindblad_device(**kw):
    return dynamics.DeviceModel(
        omega01_GHz=3.448, T1_us=214.0, T2_us=32.0, base_kind="lindblad", **kw
    )


class TestDeviceModel:
    def test_rotating_frame_defaults_to_resonant(self):
        dev = lindblad_device()
        assert dev.omega_rot_GHz == dev.omega01_GHz

    def test_rates(self):
        dev = lindblad_device()
        assert dev.tau1 == 1.0 / 214.0
        assert dev.tau2 == 1.0 / 32.0
        assert lvn_device().tau1 == 0.0

    def test_lindblad_requires_positive_times(self):
        with pytest.raises(ValueError):
            dynamics.DeviceModel(3.4, T1_us=-1.0, T2_us=2.0, base_kind="lindblad")

    def test_unknown_base_kind(self):
        with pytest.raises(ValueError):
            dynamics.DeviceModel(3.4, 1.0, 1.0, base_kind="heisenberg")


class TestExperiment:
    def test_sample_grid(self):
        exp = dynamics.Experiment("e", 1.0, duration_us=50.0, sample_dt_ns=4.0)
        assert exp.n_samples == 12500
        times = exp.times_us()
        assert times[0] == pytest.approx(0.004)
        assert times[-1] == pytest.approx(50.0)
        assert np.all(np.diff(times) > 0)

    def test_non_integer_grid_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            dynamics.Experiment("e", 1.0, duration_us=1.0, sample_dt_ns=3.0)

    @pytest.mark.parametrize("p_MHz, q_MHz", [(float("nan"), 0.0), (1.0, float("-inf"))])
    def test_non_finite_amplitude_rejected(self, p_MHz, q_MHz):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            dynamics.Experiment("e", p_MHz, duration_us=1.0, sample_dt_ns=20.0,
                                amplitude_q_MHz=q_MHz)

    @pytest.mark.parametrize("key", ["duration_us", "sample_dt_ns"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_grid_rejected(self, key, value):
        grid = {"duration_us": 1.0, "sample_dt_ns": 20.0, key: value}
        with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
            dynamics.Experiment("e", 1.0, **grid)

    def test_grid_ends_within_the_duration(self):
        with pytest.raises(ValueError, match="past the duration"):
            dynamics.Experiment("e", 1.0, duration_us=1.0, sample_dt_ns=20.00000001)
        with pytest.raises(ValueError, match="positive integer"):  # rounds to no sample
            dynamics.Experiment("e", 1.0, duration_us=1e-8, sample_dt_ns=20.0)
        dynamics.Experiment("e", 1.0, duration_us=1.0, sample_dt_ns=19.99999999)  # ends inside

    def test_off_grid_flags_the_rows_that_break_the_grid(self):
        exp = dynamics.Experiment("e", 1.0, duration_us=0.1, sample_dt_ns=20.0)
        grid = exp.times_us()
        assert not exp.off_grid(grid[::-1]).any()  # any order, any prefix
        assert not exp.off_grid(grid[:2]).any()
        assert not exp.off_grid(np.array([0.02, 0.04, 0.06])).any()  # decimals, not products
        repeat = np.array([grid[0], grid[1], grid[1], grid[3]])
        np.testing.assert_array_equal(exp.off_grid(repeat), [False, False, True, False])
        np.testing.assert_array_equal(exp.off_grid(grid[[0, 2]]), [False, True])  # gap
        np.testing.assert_array_equal(exp.off_grid(grid * (1 + 1e-6)), [True] * 5)
        past = np.append(grid, grid[-1] + grid[0])
        np.testing.assert_array_equal(exp.off_grid(past), [False] * 5 + [True])
        assert not exp.off_grid(np.zeros(0)).size


class TestHamiltonian:
    def test_resonant_drive_free_frame_is_zero(self):
        dev = lvn_device()
        exp = dynamics.Experiment("e", 0.0, duration_us=1.0, sample_dt_ns=4.0)
        np.testing.assert_allclose(dynamics.hamiltonian(dev, exp), np.zeros((2, 2)))

    def test_in_phase_drive(self):
        dev = lvn_device()
        exp = dynamics.Experiment("e", 1.7, duration_us=1.0, sample_dt_ns=4.0)
        np.testing.assert_allclose(dynamics.hamiltonian(dev, exp), TWO_PI * 1.7 * SX)

    def test_detuning_units(self):
        # 1 MHz detuning, no drive: H = 2*pi*diag(0, 1) rad/us
        dev = dynamics.DeviceModel(
            omega01_GHz=3.448, omega_rot_GHz=3.448 - 1e-3, T1_us=1, T2_us=1, base_kind="lvn"
        )
        exp = dynamics.Experiment("e", 0.0, duration_us=1.0, sample_dt_ns=4.0)
        np.testing.assert_allclose(
            dynamics.hamiltonian(dev, exp), TWO_PI * np.diag([0.0, 1.0]), atol=1e-9
        )

    def test_quadrature_drive_is_hermitian(self):
        dev = lvn_device()
        exp = dynamics.Experiment("e", 0.3, 1.0, 4.0, amplitude_q_MHz=0.9)
        h = dynamics.hamiltonian(dev, exp)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14


class TestLindbladDissipator:
    def test_ground_state_fixed_point(self):
        dev = lindblad_device()
        out = dynamics.lindblad_dissipator(dev, qcore.ground_state(2))
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-15)

    def test_pure_decay(self):
        dev = dynamics.DeviceModel(3.4, T1_us=1.0, T2_us=1e9, base_kind="lindblad")
        out = dynamics.lindblad_dissipator(dev, qcore.basis_projector(2, 1))
        np.testing.assert_allclose(out, np.diag([1.0, -1.0]), atol=1e-9)

    def test_dephasing_coherence_rate(self):
        # coherence c in the (0,1) slot loses tau2 * c / 2 from the dephasing term
        dev = dynamics.DeviceModel(3.4, T1_us=1e12, T2_us=2.0, base_kind="lindblad")
        c = 0.37 + 0.11j
        rho = np.array([[0.6, c], [np.conj(c), 0.4]])
        out = dynamics.lindblad_dissipator(dev, rho)
        assert abs(out[0, 1] - (-0.5 * c / 2.0)) < 1e-12

    def test_lvn_is_zero(self):
        out = dynamics.lindblad_dissipator(lvn_device(), qcore.basis_projector(2, 1))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_traceless(self):
        dev = lindblad_device()
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = states.random_density_matrix(2, rng)
            assert abs(np.trace(dynamics.lindblad_dissipator(dev, rho))) < 1e-12


def augmented_rhs(dev, exp, source, rho):
    """d(rho)/dt through the augmented generator [[A + W, b], [0, 0]] acting on [x; 1]."""
    basis = qcore.hermitian_basis(dev.dim)
    g = dynamics.augmented_generator(dynamics.base_generator(dev, exp), source)
    x = np.append(qcore.expand_many(rho[None], basis)[0], 1.0)
    return qcore.reconstruct_many((g @ x)[None, :-1], basis)[0]


class TestRhs:
    def test_commutator_form(self):
        dev = lvn_device()
        exp = dynamics.Experiment("e", 1.2, 1.0, 4.0)
        rho = qcore.ground_state(2)
        h = TWO_PI * 1.2 * SX
        expected = -1j * (h @ rho - rho @ h)
        np.testing.assert_allclose(dynamics.rhs(dev, exp, rho), expected, atol=1e-13)

    def test_zero_source_equals_base(self):
        dev = lindblad_device()
        exp = dynamics.Experiment("e", 0.9, 1.0, 4.0)
        src = models.StructurePreservingSource(dim=2, alpha=np.zeros(3), gamma_raw=np.zeros(3))
        rng = np.random.default_rng(3)
        rho = states.random_density_matrix(2, rng)
        np.testing.assert_array_equal(
            augmented_rhs(dev, exp, src, rho), augmented_rhs(dev, exp, None, rho)
        )

    def test_trace_free(self):
        dev = lindblad_device()
        exp = dynamics.Experiment("e", 2.3, 1.0, 4.0)
        src = models.StructurePreservingSource(
            dim=2, alpha=np.array([0.1, -0.2, 0.3]), gamma_raw=np.array([0.1, 0.2, 0.05])
        )
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = states.random_density_matrix(2, rng)
            out = augmented_rhs(dev, exp, src, rho)
            assert abs(np.trace(out)) < 1e-11
            assert np.max(np.abs(out - out.conj().T)) < 1e-11


class TestBaseGenerator:
    def test_matches_matrix_rhs(self):
        # the coefficient-space generator must agree with the matrix rhs
        dev = lindblad_device()
        exp = dynamics.Experiment("e", 1.4, 1.0, 4.0)
        basis = qcore.hermitian_basis(2)
        a = dynamics.base_generator(dev, exp)
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = states.random_density_matrix(2, rng)
            x = qcore.expand_many(rho[None], basis)[0]
            lhs = qcore.reconstruct_many((a @ x)[None], basis)[0]
            rhs_matrix = dynamics.rhs(dev, exp, rho)
            assert np.max(np.abs(lhs - rhs_matrix)) < 1e-12


    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("base", ["lindblad", "lvn"])
    def test_one_rhs_call_is_the_per_element_form(self, dim, base):
        """Bit for bit, with a quadrature drive and a detuned frame too."""
        for omega_rot, q_MHz in ((None, 0.0), (3.4475, 0.0), (3.4475, 0.7)):
            dev = dynamics.DeviceModel(omega01_GHz=3.448, T1_us=214.0, T2_us=32.0,
                                       base_kind=base, omega_rot_GHz=omega_rot, dim=dim)
            exp = dynamics.Experiment("e", 1.4, 1.0, 4.0, amplitude_q_MHz=q_MHz)
            a = dynamics.base_generator(dev, exp)
            ref = loop_oracle.base_generator_per_element(dev, exp)
            assert a.shape == ref.shape == (dim * dim, dim * dim)
            assert a.tobytes() == ref.tobytes()

    def test_non_hermitian_state_rejected(self):
        dev = lindblad_device()
        exp = dynamics.Experiment("e", 1.4, 1.0, 4.0)
        rho = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
        message = r"^rhs\(\) state is not Hermitian: max \|A - A\^dagger\| = 5\.000e-01 > 1\.0e-09$"
        for state in (rho, np.stack([qcore.ground_state(2), rho])):
            with pytest.raises(ValueError, match=message):
                dynamics.rhs(dev, exp, state)


class TestIntegrateRk4:
    def test_stationary_when_hamiltonian_vanishes(self):
        dev = lvn_device()
        exp = dynamics.Experiment("e", 0.0, duration_us=5.0, sample_dt_ns=100.0)
        traj = dynamics.integrate_rk4(dev, exp, None, 4.0)
        for state in traj.states:
            np.testing.assert_allclose(state, qcore.ground_state(2), atol=1e-13)

    def test_rabi_oracle(self):
        # closed form: excited population sin^2(2 pi p t), Rabi period 1/(2p)
        dev = lvn_device()
        exp = dynamics.Experiment("e", 0.5, duration_us=10.0, sample_dt_ns=4.0)
        traj = dynamics.integrate_rk4(dev, exp, None, dt_internal_ns=1.0)
        p1 = traj.states[:, 1, 1].real
        expected = np.sin(2.0 * np.pi * 0.5 * traj.times_us) ** 2
        assert np.max(np.abs(p1 - expected)) < 1e-8
        # period check: population returns to ~0 at t = 1/(2p) = 1 us
        idx = np.argmin(np.abs(traj.times_us - 1.0))
        assert p1[idx] < 1e-6

    def test_decay_oracle(self):
        dev = lindblad_device()
        exp = dynamics.Experiment(
            "e", 0.0, duration_us=10.0, sample_dt_ns=4.0,
            initial_state=qcore.basis_projector(2, 1),
        )
        traj = dynamics.integrate_rk4(dev, exp, None, dt_internal_ns=1.0)
        p1 = traj.states[:, 1, 1].real
        assert np.max(np.abs(p1 - np.exp(-traj.times_us / dev.T1_us))) < 1e-8

    def test_convergence_order(self):
        dev = lvn_device()
        exp = dynamics.Experiment("e", 2.0, duration_us=2.0, sample_dt_ns=8.0)
        errs = []
        for dt in (8.0, 4.0):
            traj = dynamics.integrate_rk4(dev, exp, None, dt_internal_ns=dt)
            p1 = traj.states[:, 1, 1].real
            errs.append(np.max(np.abs(p1 - np.sin(2 * np.pi * 2.0 * traj.times_us) ** 2)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 3.7

    def test_trace_and_hermiticity_preserved(self):
        dev = lindblad_device()
        exp = dynamics.Experiment("e", 3.47, duration_us=50.0, sample_dt_ns=4.0)
        src = models.StructurePreservingSource(
            dim=2,
            alpha=TWO_PI * 1e-3 * np.array([0.15, 2.18, 5.66]),
            gamma_raw=np.sqrt([1 / 1686, 1 / 1686, 1 / 688]),
        )
        traj = dynamics.integrate_rk4(dev, exp, src, dt_internal_ns=4.0)
        traces = np.trace(traj.states, axis1=1, axis2=2)
        assert np.max(np.abs(traces - 1.0)) <= 1e-9
        herm = np.max(np.abs(traj.states - np.conj(np.swapaxes(traj.states, 1, 2))))
        assert herm <= 1e-10

    def test_cptp_eigenvalue_floor(self):
        dev = lindblad_device()
        exp = dynamics.Experiment("e", 1.5, duration_us=50.0, sample_dt_ns=20.0)
        src = models.StructurePreservingSource(
            dim=2, alpha=np.array([0.01, 0.02, 0.05]), gamma_raw=np.array([0.05, 0.05, 0.08])
        )
        traj = dynamics.integrate_rk4(dev, exp, src, dt_internal_ns=4.0)
        eigs = np.linalg.eigvalsh(traj.states)
        assert eigs.min() >= -1e-8

    def test_step_mismatch_rejected(self):
        dev = lvn_device()
        exp = dynamics.Experiment("e", 1.0, 1.0, sample_dt_ns=10.0)
        with pytest.raises(ValueError, match="divide"):
            dynamics.integrate_rk4(dev, exp, None, dt_internal_ns=3.0)

    @pytest.mark.parametrize("dt_internal_ns", [float("inf"), float("nan")])
    def test_non_finite_internal_step_rejected(self, dt_internal_ns):
        exp = dynamics.Experiment("e", 1.0, 1.0, sample_dt_ns=10.0)
        with pytest.raises(ValueError, match="dt_internal_ns must be positive and finite"):
            dynamics.integration_steps(exp, dt_internal_ns)

    def test_divergence_reported_with_time(self):
        dev = lvn_device()
        exp = dynamics.Experiment("e", 1.0, duration_us=10.0, sample_dt_ns=100.0)
        unstable = models.StructurePreservingSource(
            dim=2, alpha=np.zeros(3), gamma_raw=np.array([-1e6, 0.0, 0.0]), signed=True
        )
        with pytest.raises(dynamics.DivergenceError) as err:
            dynamics.integrate_rk4(dev, exp, unstable, dt_internal_ns=100.0)
        assert err.value.time_us > 0.0
        assert err.value.experiment_id == "e"

    def test_network_source_path(self):
        # affine source with all-zero parameters reproduces the base trajectory
        dev = lindblad_device()
        exp = dynamics.Experiment("e", 1.1, duration_us=2.0, sample_dt_ns=20.0)
        zero_net = models.NetworkSource(
            dim=2, weights=(np.zeros((4, 4)),), biases=(np.zeros(4),)
        )
        base = dynamics.integrate_rk4(dev, exp, None, 4.0)
        netted = dynamics.integrate_rk4(dev, exp, zero_net, 4.0)
        assert np.max(np.abs(base.states - netted.states)) < 1e-12
