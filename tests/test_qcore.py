import numpy as np
import pytest

from qude import qcore

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
        np.testing.assert_array_equal(qcore.expand(np.zeros((2, 2)), hb), np.zeros(4))
        np.testing.assert_array_equal(qcore.reconstruct(np.zeros(4), hb), np.zeros((2, 2)))

    def test_basis_element_maps_to_unit_vector(self):
        hb = qcore.hermitian_basis(2)
        for k in range(4):
            coeffs = qcore.expand(hb.elements[k], hb)
            expected = np.zeros(4)
            expected[k] = 1.0
            np.testing.assert_allclose(coeffs, expected, atol=1e-14)
            np.testing.assert_allclose(qcore.reconstruct(expected, hb), hb.elements[k])

    def test_diagonal_example(self):
        hb = qcore.hermitian_basis(2)
        coeffs = qcore.expand(np.diag([0.3, 0.7]).astype(complex), hb)
        np.testing.assert_allclose(coeffs, [0.3, 0.0, 0.0, 0.7], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_round_trip_random(self, dim):
        hb = qcore.hermitian_basis(dim)
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = qcore.hermitize(g)
            back = qcore.reconstruct(qcore.expand(h, hb), hb)
            assert np.max(np.abs(back - h)) < 1e-12

    def test_non_hermitian_rejected(self):
        hb = qcore.hermitian_basis(2)
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.expand(np.array([[0.0, 1.0], [0.0, 0.0]]), hb)

    def test_wrong_length_rejected(self):
        hb = qcore.hermitian_basis(2)
        with pytest.raises(ValueError):
            qcore.reconstruct(np.zeros(3), hb)

    def test_batched_matches_single(self):
        hb = qcore.hermitian_basis(2)
        rng = np.random.default_rng(9)
        states = np.stack([qcore.random_density_matrix(2, rng) for _ in range(7)])
        many = qcore.expand_many(states, hb)
        for i in range(7):
            np.testing.assert_allclose(many[i], qcore.expand(states[i], hb), atol=1e-14)
        np.testing.assert_allclose(qcore.reconstruct_many(many, hb), states, atol=1e-13)

    def test_frobenius_weights(self):
        hb = qcore.hermitian_basis(2)
        rng = np.random.default_rng(13)
        h = qcore.hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        coeffs = qcore.expand(h, hb)
        frob = np.sum(np.abs(h) ** 2)
        assert abs(np.dot(hb.gram_norms, coeffs**2) - frob) < 1e-12


class TestTraceDistance:
    def test_identical_states(self):
        rho = qcore.maximally_mixed(2)
        assert qcore.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        d = qcore.trace_distance(qcore.basis_projector(2, 0), qcore.basis_projector(2, 1))
        assert abs(d - 1.0) < 1e-14

    def test_diagonal_example(self):
        d = qcore.trace_distance(
            np.diag([0.75, 0.25]).astype(complex), np.diag([0.5, 0.5]).astype(complex)
        )
        assert abs(d - 0.25) < 1e-14

    def test_metric_properties(self):
        rng = np.random.default_rng(3)
        states = [qcore.random_density_matrix(2, rng) for _ in range(6)]
        for a in states:
            for b in states:
                dab = qcore.trace_distance(a, b)
                assert dab >= 0.0
                assert abs(dab - qcore.trace_distance(b, a)) < 1e-12
                if a is not b:
                    assert dab > 0.0
                for c in states:
                    assert dab <= (
                        qcore.trace_distance(a, c) + qcore.trace_distance(c, b) + 1e-10
                    )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qcore.trace_distance(np.eye(2), np.eye(3))

    def test_batched(self):
        rng = np.random.default_rng(4)
        a = np.stack([qcore.random_density_matrix(2, rng) for _ in range(5)])
        b = np.stack([qcore.random_density_matrix(2, rng) for _ in range(5)])
        many = qcore.trace_distance_many(a, b)
        for i in range(5):
            assert abs(many[i] - qcore.trace_distance(a[i], b[i])) < 1e-13


class TestSpectralFilter:
    def test_identity_on_valid_state(self):
        rng = np.random.default_rng(11)
        rho = qcore.random_density_matrix(2, rng)
        np.testing.assert_allclose(qcore.spectral_filter(rho), rho, atol=1e-12)

    def test_clips_negative_eigenvalue(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(g)
        rho = q @ np.diag([1.1, -0.1]) @ q.conj().T
        filtered = qcore.spectral_filter(rho)
        w, v = np.linalg.eigh(filtered)
        np.testing.assert_allclose(sorted(w), [0.0, 1.0], atol=1e-12)
        # retained eigenvector is preserved
        w0, v0 = np.linalg.eigh(qcore.hermitize(rho))
        top = v0[:, np.argmax(w0)]
        overlap = abs(np.vdot(top, v[:, np.argmax(w)]))
        assert abs(overlap - 1.0) < 1e-12

    def test_random_indefinite_property(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            h = qcore.hermitize(
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            )
            if np.all(np.linalg.eigvalsh(h) <= 0):
                continue
            out = qcore.spectral_filter(h)
            w = np.linalg.eigvalsh(out)
            assert w.min() >= -1e-12
            assert abs(np.trace(out).real - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        h = qcore.hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        once = qcore.spectral_filter(h)
        twice = qcore.spectral_filter(once)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_degenerate_spectrum(self):
        with pytest.raises(qcore.DegenerateSpectrumError):
            qcore.spectral_filter(-np.eye(2, dtype=complex))

    def test_degenerate_spectrum_with_time(self):
        with pytest.raises(qcore.DegenerateSpectrumError, match="t = 3"):
            qcore.spectral_filter_many(-np.eye(2)[None, :, :], np.array([3.0]))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(15)
        mats = np.stack(
            [
                qcore.hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                for _ in range(6)
            ]
        )
        many = qcore.spectral_filter_many(mats)
        for i in range(6):
            np.testing.assert_allclose(many[i], qcore.spectral_filter(mats[i]), atol=1e-12)


class TestStateHelpers:
    def test_vec_ordering(self):
        rho = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(qcore.vec(rho), [1, 2, 3, 4])
        np.testing.assert_array_equal(qcore.unvec(qcore.vec(rho), 2), rho)

    def test_assert_density_matrix(self):
        qcore.assert_density_matrix(qcore.maximally_mixed(2))
        with pytest.raises(ValueError, match="trace"):
            qcore.assert_density_matrix(2 * qcore.maximally_mixed(2))
        with pytest.raises(ValueError, match="eigenvalue"):
            qcore.assert_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_random_density_matrix_valid(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3):
            qcore.assert_density_matrix(qcore.random_density_matrix(dim, rng))
