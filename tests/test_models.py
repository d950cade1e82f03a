from dataclasses import replace

import numpy as np
import pytest

from qude import dynamics, models, qcore

import states

TWO_PI = 2.0 * np.pi

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def sp(alpha=None, gamma_raw=None, **kw):
    return models.StructurePreservingSource(
        dim=2,
        alpha=np.zeros(3) if alpha is None else np.asarray(alpha, float),
        gamma_raw=np.zeros(3) if gamma_raw is None else np.asarray(gamma_raw, float),
        **kw,
    )


class TestSpHermitian:
    def test_zero(self):
        np.testing.assert_array_equal(models.sp_hermitian(sp()), np.zeros((2, 2)))

    def test_closed_form(self):
        a1, a2, a3 = 0.4, -1.3, 0.7
        out = models.sp_hermitian(sp(alpha=[a1, a2, a3]))
        expected = np.array([[0.0, a1 - 1j * a2], [a1 + 1j * a2, -2.0 * a3]])
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_ground_state_energy_anchored(self):
        rng = np.random.default_rng(0)
        out = models.sp_hermitian(sp(alpha=rng.standard_normal(3)))
        assert out[0, 0] == 0.0

    def test_reported_scale(self):
        # readout convention: off-diagonal a1 -+ i a2, diagonal (0, -2 a3);
        # alpha = (0.15, 2.18, 5.66) kHz displays as 0.15-2.18i / -11.32
        out = models.sp_hermitian(sp(alpha=[0.15, 2.18, 5.66]))
        assert out[0, 1] == pytest.approx(0.15 - 2.18j)
        assert out[1, 1].real == pytest.approx(-11.32)


def sp_dissipator(src: models.StructurePreservingSource, rho: np.ndarray) -> np.ndarray:
    """The dissipative part of a source: its coefficient-space generator at alpha = 0."""
    basis = qcore.hermitian_basis(src.dim)
    gen = replace(src, alpha=np.zeros_like(src.alpha)).coeff_generator()
    return qcore.reconstruct_many(qcore.expand_many(rho[None], basis) @ gen.T, basis)[0]


class TestSpDissipator:
    def test_zero_rates(self):
        rng = np.random.default_rng(1)
        rho = states.random_density_matrix(2, rng)
        np.testing.assert_array_equal(sp_dissipator(sp(), rho), np.zeros((2, 2)))

    def test_diagonal_channel_is_four_times_number_dissipator(self):
        rng = np.random.default_rng(2)
        n_op = dynamics.number_operator(2)
        for _ in range(100):
            rho = states.random_density_matrix(2, rng)
            lhs = sp_dissipator(sp(gamma_raw=[0, 0, 1.0]), rho)
            rhs = 4.0 * dynamics.dissipator(n_op, rho)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_first_two_channels_identical(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = states.random_density_matrix(2, rng)
            d1 = sp_dissipator(sp(gamma_raw=[1.0, 0, 0]), rho)
            d2 = sp_dissipator(sp(gamma_raw=[0, 1.0, 0]), rho)
            assert np.max(np.abs(d1 - d2)) < 1e-14

    def test_sigma_z_closed_form(self):
        # gamma3 channel only: gamma3 * (sz rho sz - rho)
        g3 = 0.31
        src = sp(gamma_raw=[0.0, 0.0, np.sqrt(g3)])
        rng = np.random.default_rng(4)
        rho = states.random_density_matrix(2, rng)
        expected = g3 * (SZ @ rho @ SZ - rho)
        np.testing.assert_allclose(sp_dissipator(src, rho), expected, atol=1e-13)

    def test_traceless_hermitian_for_signed_rates(self):
        src = sp(gamma_raw=[0.2, -0.4, 0.1], signed=True)
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = states.random_density_matrix(2, rng)
            out = sp_dissipator(src, rho)
            assert abs(np.trace(out)) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_default_mode_rates_nonnegative(self):
        src = sp(gamma_raw=[-0.5, 0.2, -0.1])
        assert np.all(src.gammas >= 0)
        signed = sp(gamma_raw=[-0.5, 0.2, -0.1], signed=True)
        assert signed.gammas[0] == -0.5


class TestEffectiveTimes:
    def test_dev1_values(self):
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0, "lindblad")
        src = sp(gamma_raw=np.sqrt([1 / 1686, 1 / 1686, 1 / 688]))
        et = models.effective_times(dev, src)
        assert et.T1_eff_us == pytest.approx(171.0, abs=0.5)
        assert et.T2_eff_us == pytest.approx(27.0, abs=0.5)
        assert et.per_channel_us[0] == pytest.approx(1686.0)
        assert et.per_channel_us[1] == pytest.approx(688.0)

    def test_dev2_values(self):
        dev = dynamics.DeviceModel(4.086, 62.0, 6.0, "lindblad")
        src = sp(gamma_raw=np.sqrt([1 / 10, 1 / 10, 1 / 8.5]))
        et = models.effective_times(dev, src)
        assert et.T1_eff_us == pytest.approx(4.6, abs=0.1)
        assert et.T2_eff_us == pytest.approx(1.6, abs=0.1)

    def test_zero_source_returns_bare_times(self):
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0, "lindblad")
        et = models.effective_times(dev, sp())
        assert et.T1_eff_us == pytest.approx(214.0)
        assert et.T2_eff_us == pytest.approx(32.0)

    def test_unphysical_rate(self):
        dev = dynamics.DeviceModel(3.448, 214.0, 32.0, "lindblad")
        src = sp(gamma_raw=[-1.0, 0.0, 0.0], signed=True)
        with pytest.raises(models.UnphysicalRateError):
            models.effective_times(dev, src)


def net_source(src: models.NetworkSource, rho: np.ndarray) -> np.ndarray:
    """The matrix a network source adds at a state, through ``coeff_forward``."""
    basis = qcore.hermitian_basis(src.dim)
    return qcore.reconstruct_many(src.coeff_forward(qcore.expand_many(rho[None], basis)), basis)[0]


class TestNetworkSource:
    def test_zero_parameters_give_zero_source(self):
        src = models.NetworkSource(dim=2, weights=(np.zeros((4, 4)),), biases=(np.zeros(4),))
        rng = np.random.default_rng(6)
        rho = states.random_density_matrix(2, rng)
        np.testing.assert_array_equal(net_source(src, rho), np.zeros((2, 2)))

    def test_identity_single_layer_reproduces_state(self):
        src = models.NetworkSource(dim=2, weights=(np.eye(4),), biases=(np.zeros(4),))
        rng = np.random.default_rng(7)
        rho = states.random_density_matrix(2, rng)
        np.testing.assert_allclose(net_source(src, rho), rho, atol=1e-14)

    def test_tanh_output_hermitian_and_bounded(self):
        src = models.make_source("nonlinear", seed=42)
        big = src.with_params(src.pack() + 0.7)  # push into the nonlinear range
        rng = np.random.default_rng(8)
        w_last, b_last = big.weights[-1], big.biases[-1]
        coeff_bound = np.max(np.sum(np.abs(w_last), axis=1) + np.abs(b_last))
        for _ in range(20):
            rho = states.random_density_matrix(2, rng)
            out = net_source(big, rho)
            assert np.max(np.abs(out - out.conj().T)) < 1e-14
            assert np.max(np.abs(out)) <= coeff_bound + 1e-12

    @pytest.mark.parametrize("activation", [models.ACTIVATION_IDENTITY, models.ACTIVATION_TANH])
    @pytest.mark.parametrize("n_layers", [1, 2, 4])
    def test_coeff_forward_is_the_layer_loop(self, activation, n_layers):
        """Bit for bit x -> act(W x + b) layer by layer, identity on the last layer."""
        rng = np.random.default_rng(n_layers)
        src = models.NetworkSource(
            dim=2, weights=tuple(rng.standard_normal((4, 4)) for _ in range(n_layers)),
            biases=tuple(rng.standard_normal(4) for _ in range(n_layers)), activation=activation)
        x = rng.standard_normal((3, 5, 4))
        z = x
        for l, (w, b) in enumerate(zip(src.weights, src.biases)):
            z = z @ w.T + b
            if l < n_layers - 1 and activation == models.ACTIVATION_TANH:
                z = np.tanh(z)
        np.testing.assert_array_equal(src.coeff_forward(x), z)

    def test_kind_follows_activation(self):
        assert models.make_source("affine").kind == "affine"
        assert models.make_source("nonlinear").kind == "nonlinear"
        assert models.make_source("nonlinear").n_layers == 3


class TestPackUnpack:
    def test_sp_length(self):
        assert sp().pack().shape == (6,)

    def test_affine_length(self):
        assert models.make_source("affine").pack().shape == (20,)

    def test_nonlinear_length(self):
        assert models.make_source("nonlinear").pack().shape == (60,)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            sp().with_params(np.zeros(5))
        with pytest.raises(ValueError):
            models.make_source("affine").with_params(np.zeros(19))


class TestMakeSource:
    def test_sp_starts_with_source_nearly_off(self):
        src = models.make_source("sp")
        assert np.all(src.alpha == 0.0)
        assert np.all(src.gammas <= 1e-4 + 1e-15)
        assert np.all(src.gammas > 0.0)

    def test_network_init_is_small(self):
        src = models.make_source("nonlinear", seed=0)
        for w in src.weights:
            assert np.max(np.abs(w)) <= 0.01 / 2.0  # 0.01 / sqrt(4)
        for b in src.biases:
            np.testing.assert_array_equal(b, np.zeros(4))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            models.make_source("recurrent")

    def test_seeded_determinism(self):
        a = models.make_source("affine", seed=3)
        b = models.make_source("affine", seed=3)
        np.testing.assert_array_equal(a.pack(), b.pack())


class TestCoeffGenerator:
    def test_sp_generator_matches_matrix_source(self):
        # matrix-form reference: -i[S_H, rho] + sum_j gamma_j D[U_j](rho)
        basis = qcore.hermitian_basis(2)
        src = sp(alpha=[0.2, -0.1, 0.4], gamma_raw=[0.3, 0.1, 0.2])
        s_h = models.sp_hermitian(src)
        gen = src.coeff_generator()
        rng = np.random.default_rng(10)
        for _ in range(10):
            rho = states.random_density_matrix(2, rng)
            expected = -1j * (s_h @ rho - rho @ s_h) + sum(
                g * dynamics.dissipator(jump, rho) for g, jump in zip(src.gammas, src.basis.uppers)
            )
            x = qcore.expand(rho, basis)
            lhs = qcore.reconstruct_many((gen @ x)[None], basis)[0]
            np.testing.assert_allclose(lhs, expected, atol=1e-12)
