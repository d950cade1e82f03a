import numpy as np
import pytest

from qude import dynamics, qcore, tomography


class TestInversionMatrix:
    def test_entries_verbatim(self):
        expected = np.array(
            [
                [1, 0, 0, 1],
                [0, -1, -1, 0],
                [0, 1j, -1j, 0],
                [-1, 0, 0, 1],
            ],
            dtype=complex,
        )
        np.testing.assert_array_equal(tomography.M_MATRIX, expected)

    def test_inverse_exact(self):
        prod = tomography.M_MATRIX @ tomography.M_MATRIX_INV
        assert np.max(np.abs(prod - np.eye(4))) <= 1e-14

    def test_first_row_is_trace(self):
        rng = np.random.default_rng(0)
        rho = qcore.random_density_matrix(2, rng)
        p = tomography.M_MATRIX @ qcore.vec(rho)
        assert abs(p[0] - np.trace(rho)) < 1e-14


class TestMeasurementProbs:
    def test_maximally_mixed(self):
        probs = tomography.measurement_probs(qcore.maximally_mixed(2))
        assert probs.px == pytest.approx(0.5)
        assert probs.py == pytest.approx(0.5)
        assert probs.pz == pytest.approx(0.5)

    def test_ground_state(self):
        # oracle: multiply the printed matrix against vec(|0><0|) = (1,0,0,0)
        p = (tomography.M_MATRIX @ np.array([1, 0, 0, 0])).real
        assert tuple((p[1:] + 1) / 2) == (0.5, 0.5, 0.0)
        probs = tomography.measurement_probs(qcore.ground_state(2))
        assert (probs.px, probs.py, probs.pz) == (0.5, 0.5, 0.0)

    def test_excited_state_population(self):
        probs = tomography.measurement_probs(qcore.basis_projector(2, 1))
        assert probs.pz == pytest.approx(1.0)

    def test_pz_is_expected_energy(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = qcore.random_density_matrix(2, rng)
            probs = tomography.measurement_probs(rho)
            assert probs.pz == pytest.approx(tomography.expected_energy(rho), abs=1e-12)

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            tomography.measurement_probs(np.diag([1.6, -0.6]).astype(complex))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(2)
        states = np.stack([qcore.random_density_matrix(2, rng) for _ in range(9)])
        many = tomography.measurement_probs_many(states)
        for i in range(9):
            single = tomography.measurement_probs(states[i])
            np.testing.assert_allclose(many[i], single.as_array(), atol=1e-14)


class TestSampleCounts:
    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(3)
        probs = tomography.MeasurementProbs(0.0, 1.0, 0.5)
        kx, ky, kz = tomography.sample_counts(probs, 100, rng)
        assert kx == 0
        assert ky == 100
        assert 0 <= kz <= 100

    def test_half_probability_concentration(self):
        # Hoeffding: P(|k/n - 1/2| > 0.05) < 1e-10 at n = 5000
        rng = np.random.default_rng(4)
        probs = tomography.MeasurementProbs(0.5, 0.5, 0.5)
        kx, _, _ = tomography.sample_counts(probs, 5000, rng)
        assert abs(kx / 5000 - 0.5) <= 0.05

    def test_seed_determinism(self):
        probs = tomography.MeasurementProbs(0.3, 0.6, 0.9)
        a = tomography.sample_counts(probs, 1000, np.random.default_rng(99))
        b = tomography.sample_counts(probs, 1000, np.random.default_rng(99))
        assert a == b

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            tomography.sample_counts(tomography.MeasurementProbs(0.5, 0.5, 0.5), 0, np.random.default_rng(0))

    def test_axis_budget_modes(self):
        assert tomography.axis_shot_budget(5000, "per-axis") == 5000
        assert tomography.axis_shot_budget(5000, "split") == 1666
        with pytest.raises(ValueError):
            tomography.axis_shot_budget(5000, "whole")


class TestLieReconstruct:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rho = qcore.random_density_matrix(2, rng)
            rec = tomography.lie_reconstruct(tomography.measurement_probs(rho))
            assert qcore.trace_distance(rec, rho) <= 1e-12

    def test_maximally_mixed(self):
        rec = tomography.lie_reconstruct((0.5, 0.5, 0.5))
        np.testing.assert_allclose(rec, qcore.maximally_mixed(2), atol=1e-14)

    def test_noisy_probs_give_valid_state(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            probs = np.clip(np.array([0.5, 0.5, 0.02]) + 0.05 * rng.standard_normal(3), 0, 1)
            rec = tomography.lie_reconstruct(tuple(probs))
            qcore.assert_density_matrix(rec)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tomography.lie_reconstruct((1.2, 0.5, 0.5))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(7)
        probs = rng.uniform(0.2, 0.8, size=(8, 3))
        many = tomography.lie_reconstruct_many(probs)
        for i in range(8):
            np.testing.assert_allclose(
                many[i], tomography.lie_reconstruct(tuple(probs[i])), atol=1e-13
            )

    def test_shot_noise_scaling(self):
        # trace distance of the reconstruction shrinks like shots^(-1/2)
        rng = np.random.default_rng(8)
        rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
        probs = tomography.measurement_probs(rho)
        means = []
        for shots in (10**5, 10**6):
            dists = []
            for _ in range(200):
                counts = tomography.sample_counts(probs, shots, rng)
                rec = tomography.lie_reconstruct(tuple(k / shots for k in counts))
                dists.append(qcore.trace_distance(rec, rho))
            means.append(np.mean(dists))
        slope = np.log(means[1] / means[0]) / np.log(10.0)
        assert abs(slope + 0.5) <= 0.1


class TestExpectedEnergy:
    def test_pure_states(self):
        assert tomography.expected_energy(qcore.ground_state(2)) == 0.0
        assert tomography.expected_energy(qcore.basis_projector(2, 1)) == 1.0

    def test_mixed_state(self):
        assert tomography.expected_energy(np.diag([0.3, 0.7])) == pytest.approx(0.7)

    def test_batched(self):
        states = np.stack([qcore.ground_state(2), np.diag([0.4, 0.6]).astype(complex)])
        np.testing.assert_allclose(tomography.expected_energy_many(states), [0.0, 0.6])


class TestSimulateRecords:
    @staticmethod
    def _trajectory(n=5):
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0, "lindblad")
        exp = dynamics.Experiment("e", 1.3, duration_us=n * 0.1, sample_dt_ns=100.0)
        return dynamics.integrate_rk4(dev, exp, None, 4.0)

    def test_noiseless_records_hold_exact_probabilities(self):
        traj = self._trajectory()
        block = tomography.simulate_records(traj, 0, np.random.default_rng(0))
        assert len(block) == len(traj)
        np.testing.assert_array_equal(block.times_us, traj.times_us)
        np.testing.assert_array_equal(block.shots, 0)
        for i, state in enumerate(traj.states):
            probs = tomography.measurement_probs(state)
            np.testing.assert_allclose(block.probs[i], probs.as_array(), atol=1e-12)
            assert qcore.trace_distance(block.rho_hat[i], state) <= 1e-12

    def test_draw_order_contract(self):
        # stream order is x, y, z within a step, steps ascending
        traj = self._trajectory()
        block = tomography.simulate_records(traj, 500, np.random.default_rng(321))
        rng = np.random.default_rng(321)
        for counts, state in zip(block.counts, traj.states):
            probs = tomography.measurement_probs(state)
            expected = tomography.sample_counts(probs, 500, rng)
            assert tuple(counts) == expected

    def test_record_fields(self):
        traj = self._trajectory()
        block = tomography.simulate_records(traj, 200, np.random.default_rng(5))
        np.testing.assert_array_equal(block.shots, 200)
        assert block.counts.shape == block.probs.shape == (len(traj), 3)
        assert np.all((0 <= block.counts) & (block.counts <= 200))
        np.testing.assert_array_equal(block.counts, np.round(block.counts))
        np.testing.assert_array_equal(block.probs, block.counts / 200)
        for rho in block.rho_hat:
            qcore.assert_density_matrix(rho)

    def test_split_mode_budget(self):
        traj = self._trajectory()
        block = tomography.simulate_records(
            traj, 5000, np.random.default_rng(6), shot_mode="split"
        )
        np.testing.assert_array_equal(block.shots, 1666)
