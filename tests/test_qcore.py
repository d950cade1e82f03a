import numpy as np
import pytest

from qude import qcore

import states

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestGellMannBasis:
    def test_n2_is_pauli(self):
        gm = qcore.gell_mann_basis(2)
        np.testing.assert_array_equal(gm.elements[0], SX)
        np.testing.assert_array_equal(gm.elements[1], SY)
        np.testing.assert_array_equal(gm.elements[2], SZ)

    def test_n2_uppers(self):
        gm = qcore.gell_mann_basis(2)
        # upper triangle of sigma_x is the lowering operator
        np.testing.assert_array_equal(gm.uppers[0], np.array([[0, 1], [0, 0]]))
        # first upper equals i times the second, exactly
        np.testing.assert_array_equal(gm.uppers[0], 1j * gm.uppers[1])
        np.testing.assert_array_equal(gm.uppers[2], np.diag([1.0, -1.0]))

    def test_n3_standard_set(self):
        # brute-force oracle: 8 traceless Hermitian matrices, Tr(L^2) = 2,
        # pairwise trace-orthogonal
        gm = qcore.gell_mann_basis(3)
        assert gm.elements.shape == (8, 3, 3)
        for el in gm.elements:
            assert abs(np.trace(el)) < 1e-12
            assert np.max(np.abs(el - el.conj().T)) < 1e-12
            assert abs(np.trace(el @ el).real - 2.0) < 1e-12
        for i in range(8):
            for j in range(i + 1, 8):
                assert abs(np.trace(gm.elements[i] @ gm.elements[j])) < 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            qcore.gell_mann_basis(1)


class TestHermitianBasis:
    def test_n2_elements(self):
        hb = qcore.hermitian_basis(2)
        # (0,0) -> |0><0|
        np.testing.assert_array_equal(hb.elements[0], np.diag([1.0, 0.0]))
        # (0,1) -> (|0><1| + |1><0|)/2 with squared trace norm 1/2
        np.testing.assert_allclose(hb.elements[1], 0.5 * SX)
        assert abs(np.trace(hb.elements[1] @ hb.elements[1]).real - 0.5) < 1e-15
        np.testing.assert_array_equal(hb.gram_norms, [1.0, 0.5, 0.5, 1.0])

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_trace_orthogonal(self, dim):
        hb = qcore.hermitian_basis(dim)
        n = dim * dim
        gram = np.einsum("ikl,jlk->ij", hb.elements, hb.elements)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12
        np.testing.assert_allclose(np.diag(gram).real, hb.gram_norms, atol=1e-15)
        for el in hb.elements:
            assert np.max(np.abs(el - el.conj().T)) < 1e-15
        assert hb.elements.shape == (n, dim, dim)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            qcore.hermitian_basis(1)


class TestExpandReconstruct:
    def test_zero(self):
        hb = qcore.hermitian_basis(2)
        np.testing.assert_array_equal(qcore.expand_many(np.zeros((1, 2, 2)), hb), np.zeros((1, 4)))
        np.testing.assert_array_equal(
            qcore.reconstruct_many(np.zeros((1, 4)), hb), np.zeros((1, 2, 2))
        )

    def test_basis_element_maps_to_unit_vector(self):
        hb = qcore.hermitian_basis(2)
        np.testing.assert_allclose(qcore.expand_many(hb.elements, hb), np.eye(4), atol=1e-14)
        np.testing.assert_allclose(qcore.reconstruct_many(np.eye(4), hb), hb.elements)

    def test_diagonal_example(self):
        hb = qcore.hermitian_basis(2)
        coeffs = qcore.expand_many(np.diag([0.3, 0.7]).astype(complex)[None], hb)[0]
        np.testing.assert_allclose(coeffs, [0.3, 0.0, 0.0, 0.7], atol=1e-14)

    def test_wrong_length_rejected(self):
        hb = qcore.hermitian_basis(2)
        with pytest.raises(ValueError):
            qcore.reconstruct_many(np.zeros((1, 3)), hb)

    def test_batched_matches_single(self):
        hb = qcore.hermitian_basis(2)
        rng = np.random.default_rng(9)
        rhos = np.stack([states.random_density_matrix(2, rng) for _ in range(7)])
        many = qcore.expand_many(rhos, hb)
        for i in range(7):
            expected = [np.trace(el @ rhos[i]).real / g for el, g in zip(hb.elements, hb.gram_norms)]
            np.testing.assert_allclose(many[i], expected, atol=1e-14)
        np.testing.assert_allclose(qcore.reconstruct_many(many, hb), rhos, atol=1e-13)

    def test_frobenius_weights(self):
        hb = qcore.hermitian_basis(2)
        rng = np.random.default_rng(13)
        h = qcore.hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        coeffs = qcore.expand_many(h[None], hb)[0]
        frob = np.sum(np.abs(h) ** 2)
        assert abs(np.dot(hb.gram_norms, coeffs**2) - frob) < 1e-12


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(qcore.trace_distance_many(a[None], b[None])[0])


class TestTraceDistance:
    def test_identical_states(self):
        rho = states.maximally_mixed(2)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        d = trace_distance(qcore.basis_projector(2, 0), qcore.basis_projector(2, 1))
        assert abs(d - 1.0) < 1e-14

    def test_diagonal_example(self):
        d = trace_distance(
            np.diag([0.75, 0.25]).astype(complex), np.diag([0.5, 0.5]).astype(complex)
        )
        assert abs(d - 0.25) < 1e-14

    def test_metric_properties(self):
        rng = np.random.default_rng(3)
        rhos = np.stack([states.random_density_matrix(2, rng) for _ in range(6)])
        a, b = np.broadcast_arrays(rhos[:, None], rhos[None, :])
        d = qcore.trace_distance_many(a, b)  # d[i, j] = T(rho_i, rho_j)
        assert np.all(d >= 0.0)
        assert np.max(np.abs(d - d.T)) < 1e-12
        assert np.all(d[~np.eye(6, dtype=bool)] > 0.0)
        # d[i, j] <= d[i, k] + d[k, j] for every k
        assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qcore.trace_distance_many(np.eye(2)[None], np.eye(3)[None])

    def test_batched(self):
        # reference: half the nuclear norm (sum of singular values) of the difference
        rng = np.random.default_rng(4)
        a = np.stack([states.random_density_matrix(2, rng) for _ in range(5)])
        b = np.stack([states.random_density_matrix(2, rng) for _ in range(5)])
        many = qcore.trace_distance_many(a, b)
        for i in range(5):
            assert abs(many[i] - 0.5 * np.linalg.norm(a[i] - b[i], "nuc")) < 1e-13


def spectral_filter(h: np.ndarray) -> np.ndarray:
    return qcore.spectral_filter_many(h[None])[0]


class TestSpectralFilter:
    def test_identity_on_valid_state(self):
        rng = np.random.default_rng(11)
        rho = states.random_density_matrix(2, rng)
        np.testing.assert_allclose(spectral_filter(rho), rho, atol=1e-12)

    def test_clips_negative_eigenvalue(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(g)
        rho = q @ np.diag([1.1, -0.1]) @ q.conj().T
        filtered = spectral_filter(rho)
        w, v = np.linalg.eigh(filtered)
        np.testing.assert_allclose(sorted(w), [0.0, 1.0], atol=1e-12)
        # retained eigenvector is preserved
        w0, v0 = np.linalg.eigh(qcore.hermitize(rho))
        top = v0[:, np.argmax(w0)]
        overlap = abs(np.vdot(top, v[:, np.argmax(w)]))
        assert abs(overlap - 1.0) < 1e-12

    def test_random_indefinite_property(self):
        rng = np.random.default_rng(13)
        draws = [
            qcore.hermitize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            for _ in range(50)
        ]
        hs = np.stack([h for h in draws if not np.all(np.linalg.eigvalsh(h) <= 0)])
        out = qcore.spectral_filter_many(hs)
        assert np.linalg.eigvalsh(out).min() >= -1e-12
        assert np.max(np.abs(np.trace(out, axis1=1, axis2=2).real - 1.0)) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        h = qcore.hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        once = spectral_filter(h)
        twice = spectral_filter(once)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_degenerate_spectrum(self):
        with pytest.raises(qcore.DegenerateSpectrumError):
            spectral_filter(-np.eye(2, dtype=complex))

    def test_degenerate_spectrum_with_time(self):
        with pytest.raises(qcore.DegenerateSpectrumError, match="t = 3"):
            qcore.spectral_filter_many(-np.eye(2)[None, :, :], np.array([3.0]))


class TestStateHelpers:
    def test_assert_density_matrix(self):
        states.assert_density_matrix(states.maximally_mixed(2))
        with pytest.raises(ValueError, match="trace"):
            states.assert_density_matrix(2 * states.maximally_mixed(2))
        with pytest.raises(ValueError, match="eigenvalue"):
            states.assert_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_random_density_matrix_valid(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3):
            states.assert_density_matrix(states.random_density_matrix(dim, rng))
