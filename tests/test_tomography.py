import numpy as np
import pytest

from qude import dynamics, qcore, tomography

import states


def probs(rho: np.ndarray) -> np.ndarray:
    return tomography.measurement_probs_many(rho[None])[0]


def records(axis_probs, shots: int, rng: np.random.Generator, **kw) -> tomography.RecordBlock:
    """Records of one time step of the state with the given axis probabilities."""
    p = np.concatenate(([1.0], 2.0 * np.asarray(axis_probs) - 1.0))
    traj = dynamics.Trajectory(np.array([0.1]), (tomography.M_MATRIX_INV @ p).reshape(1, 2, 2))
    return tomography.simulate_records(traj, shots, rng, **kw)


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
        rho = states.random_density_matrix(2, rng)
        p = tomography.M_MATRIX @ rho.reshape(-1)  # row-major (rho00, rho01, rho10, rho11)
        assert abs(p[0] - np.trace(rho)) < 1e-14


class TestMeasurementProbs:
    def test_maximally_mixed(self):
        assert probs(states.maximally_mixed(2)) == pytest.approx([0.5, 0.5, 0.5])

    def test_ground_state(self):
        # oracle: multiply the printed matrix against vec(|0><0|) = (1,0,0,0)
        p = (tomography.M_MATRIX @ np.array([1, 0, 0, 0])).real
        assert tuple((p[1:] + 1) / 2) == (0.5, 0.5, 0.0)
        assert tuple(probs(qcore.ground_state(2))) == (0.5, 0.5, 0.0)

    def test_excited_state_population(self):
        assert probs(qcore.basis_projector(2, 1))[2] == pytest.approx(1.0)

    def test_pz_is_expected_energy(self):
        rng = np.random.default_rng(1)
        rhos = np.stack([states.random_density_matrix(2, rng) for _ in range(20)])
        pz = tomography.measurement_probs_many(rhos)[:, 2]
        np.testing.assert_allclose(pz, tomography.expected_energy_many(rhos), rtol=0, atol=1e-12)

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            probs(np.diag([1.6, -0.6]).astype(complex))


class TestSampleCounts:
    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(3)
        kx, ky, kz = records((0.0, 1.0, 0.5), 100, rng).counts[0]
        assert kx == 0
        assert ky == 100
        assert 0 <= kz <= 100

    def test_half_probability_concentration(self):
        # Hoeffding: P(|k/n - 1/2| > 0.05) < 1e-10 at n = 5000
        rng = np.random.default_rng(4)
        kx, _, _ = records((0.5, 0.5, 0.5), 5000, rng).counts[0]
        assert abs(kx / 5000 - 0.5) <= 0.05

    def test_seed_determinism(self):
        a = records((0.3, 0.6, 0.9), 1000, np.random.default_rng(99)).counts
        b = records((0.3, 0.6, 0.9), 1000, np.random.default_rng(99)).counts
        np.testing.assert_array_equal(a, b)

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            records((0.5, 0.5, 0.5), -1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            records((0.5, 0.5, 0.5), 2, np.random.default_rng(0), shot_mode="split")

    def test_axis_budget_modes(self):
        assert tomography.axis_shot_budget(5000, "per-axis") == 5000
        assert tomography.axis_shot_budget(5000, "split") == 1666
        with pytest.raises(ValueError):
            tomography.axis_shot_budget(5000, "whole")


class TestLieReconstruct:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(5)
        rhos = np.stack([states.random_density_matrix(2, rng) for _ in range(200)])
        rec = tomography.lie_reconstruct_many(tomography.measurement_probs_many(rhos))
        assert np.max(qcore.trace_distance_many(rec, rhos)) <= 1e-12

    def test_maximally_mixed(self):
        rec = tomography.lie_reconstruct_many(np.array([[0.5, 0.5, 0.5]]))[0]
        np.testing.assert_allclose(rec, states.maximally_mixed(2), atol=1e-14)

    def test_noisy_probs_give_valid_state(self):
        rng = np.random.default_rng(6)
        noisy = [np.clip(np.array([0.5, 0.5, 0.02]) + 0.05 * rng.standard_normal(3), 0, 1)
                 for _ in range(100)]
        for rec in tomography.lie_reconstruct_many(np.stack(noisy)):
            states.assert_density_matrix(rec)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tomography.lie_reconstruct_many(np.array([[1.2, 0.5, 0.5]]))

    def test_batched_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"row 0 \(t = 0.004 us\) outside"):
            tomography.RecordBlock.from_counts([0.004], [100], [[150, 50, 0]])
        with pytest.raises(ValueError, match=r"row 1 outside"):
            tomography.lie_reconstruct_many(np.array([[0.5, 0.5, 0.5], [0.5, -0.1, 0.5]]))

    def test_shot_noise_scaling(self):
        # trace distance of the reconstruction shrinks like shots^(-1/2)
        rng = np.random.default_rng(8)
        rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
        exact = np.repeat(probs(rho)[None], 200, axis=0)
        truth = np.repeat(rho[None], 200, axis=0)
        means = []
        for shots in (10**5, 10**6):
            # C order: x, y, z of each draw in turn, as 200 single draws would take them
            counts = rng.binomial(shots, exact)
            rec = tomography.lie_reconstruct_many(counts / shots)
            means.append(np.mean(qcore.trace_distance_many(rec, truth)))
        slope = np.log(means[1] / means[0]) / np.log(10.0)
        assert abs(slope + 0.5) <= 0.1


class TestExpectedEnergy:
    def test_pure_states(self):
        pure = np.stack([qcore.ground_state(2), qcore.basis_projector(2, 1)])
        assert tomography.expected_energy_many(pure).tolist() == [0.0, 1.0]

    def test_mixed_state(self):
        assert tomography.expected_energy_many(np.diag([0.3, 0.7])[None])[0] == pytest.approx(0.7)

    def test_batched(self):
        rhos = np.stack([qcore.ground_state(2), np.diag([0.4, 0.6]).astype(complex)])
        np.testing.assert_allclose(tomography.expected_energy_many(rhos), [0.0, 0.6])


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
        exact = tomography.measurement_probs_many(traj.states)
        np.testing.assert_allclose(block.probs, exact, atol=1e-12)
        assert np.max(qcore.trace_distance_many(block.rho_hat, traj.states)) <= 1e-12

    def test_draw_order_contract(self):
        # stream order is x, y, z within a step, steps ascending
        traj = self._trajectory()
        block = tomography.simulate_records(traj, 500, np.random.default_rng(321))
        rng = np.random.default_rng(321)
        exact = tomography.measurement_probs_many(traj.states)
        for counts, (px, py, pz) in zip(block.counts, exact):
            expected = (rng.binomial(500, px), rng.binomial(500, py), rng.binomial(500, pz))
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
            states.assert_density_matrix(rho)

    def test_split_mode_budget(self):
        traj = self._trajectory()
        block = tomography.simulate_records(
            traj, 5000, np.random.default_rng(6), shot_mode="split"
        )
        np.testing.assert_array_equal(block.shots, 1666)


class TestRecordBlock:
    @staticmethod
    def _block():
        return tomography.simulate_records(TestSimulateRecords._trajectory(8), 500,
                                           np.random.default_rng(9))

    def test_rho_hat_is_the_reconstruction_on_first_use(self):
        block = self._block()
        assert "rho_hat" not in vars(block)
        np.testing.assert_array_equal(
            block.rho_hat, tomography.lie_reconstruct_many(block.probs, block.times_us))
        assert block.rho_hat is block.rho_hat

    def test_take_and_sorted_slice_a_computed_reconstruction(self):
        rows = np.array([5, 0, 7, 2])
        lazy = self._block().take(rows)  # reconstructs the taken rows on first use
        block = self._block()
        block.rho_hat
        taken = block.take(rows)
        assert "rho_hat" in vars(taken) and "rho_hat" not in vars(lazy)
        np.testing.assert_array_equal(taken.rho_hat, block.rho_hat[rows])
        np.testing.assert_array_equal(taken.rho_hat, lazy.rho_hat)
        in_order = block.rho_hat[np.sort(rows)]  # the rows' times ascend with their index
        np.testing.assert_array_equal(taken.sorted().rho_hat, in_order)
        np.testing.assert_array_equal(lazy.sorted().rho_hat, in_order)

    @pytest.mark.parametrize("bad", [[4, 101, 6], [4, np.nan, 6]])
    def test_from_counts_checks_probabilities_eagerly(self, bad):
        with pytest.raises(ValueError, match=r"row 1 \(t = 0.2 us\) outside"):
            tomography.RecordBlock.from_counts([0.1, 0.2], [100, 100], [[1, 2, 3], bad])
