"""Dense complex linear algebra for small quantum systems.

Everything operates on plain numpy arrays: density matrices are complex
``(n, n)`` arrays, coefficient vectors are real ``(n*n,)`` arrays. The
``*_many`` helpers accept stacked arrays with a leading sample axis and are
used throughout the package to keep per-record work vectorized.

Conventions fixed here and relied on everywhere else:

* A matrix flattens row-major: for n=2, ``(rho00, rho01, rho10, rho11)``,
  the layout that ``tomography.M_MATRIX`` acts on.
* ``gell_mann_basis(n)`` orders the n^2-1 traceless Hermitian generators as
  all symmetric off-diagonal pairs (j<k lexicographic), then all
  antisymmetric pairs, then the diagonal ones. For n=2 this is exactly
  ``sigma_x, sigma_y, sigma_z``.
* ``hermitian_basis(n)`` holds the n^2 elementary Hermitian matrices indexed
  by (j, k) row-major; diagonal elements have squared trace norm 1, the
  off-diagonal ones 1/2, and the recorded gram norms make expand/reconstruct
  an exact round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

HERMITICITY_TOL = 1e-12


class DegenerateSpectrumError(ValueError):
    """No positive spectral weight is left to renormalize."""

    def __init__(self, message: str, time_us: float | None = None):
        if time_us is not None:
            message = f"{message} (t = {time_us:.6g} us)"
        super().__init__(message)
        self.time_us = time_us


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return np.conj(np.swapaxes(a, -2, -1))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dagger) / 2."""
    return 0.5 * (a + dagger(a))


def assert_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL, what: str = "matrix") -> None:
    dev = float(np.max(np.abs(a - dagger(a))))
    if dev > tol:
        raise ValueError(f"{what} is not Hermitian: max |A - A^dagger| = {dev:.3e} > {tol:.1e}")


def basis_projector(dim: int, k: int) -> np.ndarray:
    """Projector |k><k| in the computational basis."""
    p = np.zeros((dim, dim), dtype=complex)
    p[k, k] = 1.0
    return p


def ground_state(dim: int) -> np.ndarray:
    return basis_projector(dim, 0)


@dataclass(frozen=True, eq=False)
class GellMannBasis:
    """Traceless Hermitian generators and their upper-triangular parts.

    ``elements[j]`` is the j-th generator; ``uppers[j]`` is its upper
    triangle (diagonal included), used as a jump operator downstream.
    """

    dim: int
    elements: np.ndarray  # (dim^2 - 1, dim, dim) complex
    uppers: np.ndarray  # (dim^2 - 1, dim, dim) complex


@dataclass(frozen=True, eq=False)
class HermitianBasis:
    """Elementary Hermitian basis with recorded trace norms.

    The elements are trace-orthogonal but not orthonormal: diagonal elements
    have Tr(H^2) = 1 while off-diagonal ones have Tr(H^2) = 1/2. Expansion
    coefficients divide by the recorded gram norms, which makes the
    expand/reconstruct round trip exact.
    """

    dim: int
    elements: np.ndarray  # (dim^2, dim, dim) complex
    gram_norms: np.ndarray  # (dim^2,) real


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def gell_mann_basis(dim: int) -> GellMannBasis:
    """Generalized Gell-Mann matrices for su(dim).

    Order: symmetric pairs E_jk + E_kj for j<k, then antisymmetric pairs
    -i(E_jk - E_kj), then the diagonal generators. For dim=2 this yields the
    Pauli matrices (sigma_x, sigma_y, sigma_z).
    """
    if dim < 2:
        raise ValueError(f"Gell-Mann basis needs dimension >= 2, got {dim}")
    mats = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * m)
    elements = np.stack(mats)
    uppers = np.triu(elements)
    return GellMannBasis(dim=dim, elements=_freeze(elements), uppers=_freeze(uppers))


@lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> HermitianBasis:
    """Elementary Hermitian basis indexed by (j, k) row-major.

    j == k: |j><j|; j < k: (|j><k| + |k><j|)/2; j > k: i(|j><k| - |k><j|)/2.
    """
    if dim < 2:
        raise ValueError(f"Hermitian basis needs dimension >= 2, got {dim}")
    mats = []
    norms = []
    for j in range(dim):
        for k in range(dim):
            m = np.zeros((dim, dim), dtype=complex)
            if j == k:
                m[j, j] = 1.0
                norms.append(1.0)
            elif j < k:
                m[j, k] = 0.5
                m[k, j] = 0.5
                norms.append(0.5)
            else:
                m[j, k] = 0.5j
                m[k, j] = -0.5j
                norms.append(0.5)
            mats.append(m)
    return HermitianBasis(
        dim=dim,
        elements=_freeze(np.stack(mats)),
        gram_norms=_freeze(np.array(norms)),
    )


def expand(h: np.ndarray, basis: HermitianBasis, check: bool = True) -> np.ndarray:
    """Coefficients c_i = Tr(H_i h) / gram_i of a Hermitian matrix."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (basis.dim, basis.dim):
        raise ValueError(f"expected a {basis.dim}x{basis.dim} matrix, got {h.shape}")
    if check:
        assert_hermitian(h, 1e-10, "expand() input")
    coeffs = np.einsum("ikl,lk->i", basis.elements, h)
    return coeffs.real / basis.gram_norms


def expand_many(states: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Batched ``expand`` without the hermiticity check; shape (m, dim^2)."""
    coeffs = np.einsum("ikl,mlk->mi", basis.elements, states)
    return coeffs.real / basis.gram_norms


def reconstruct_many(coeffs: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Sum_i c_i H_i per row of (m, dim^2) coefficients; exactly Hermitian for real ones."""
    return np.einsum("mi,ikl->mkl", np.asarray(coeffs, dtype=float), basis.elements)


def trace_distance_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the summed absolute eigenvalues of a - b, over a leading sample axis."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    w = np.linalg.eigvalsh(hermitize(a - b))
    return 0.5 * np.sum(np.abs(w), axis=-1)


def spectral_filter_many(states: np.ndarray, times_us: np.ndarray | None = None) -> np.ndarray:
    """Project Hermitian matrices onto the valid-state manifold, over a leading sample axis.

    Eigen-decomposes, zeroes non-positive eigenvalues, renormalizes the
    retained ones to unit sum and reassembles. Identity (to rounding) on
    matrices that are already valid density matrices, and idempotent. A
    sample with no positive eigenvalue raises DegenerateSpectrumError, with
    its time when ``times_us`` is given.
    """
    states = hermitize(np.asarray(states, dtype=complex))
    w, v = np.linalg.eigh(states)
    w = np.where(w > 0.0, w, 0.0)
    totals = w.sum(axis=-1)
    bad = ~(totals > 0.0)
    if np.any(bad):
        idx = int(np.argmax(bad))
        t = float(times_us[idx]) if times_us is not None else None
        raise DegenerateSpectrumError(
            f"all eigenvalues non-positive at sample {idx}; cannot renormalize", t
        )
    w = w / totals[..., None]
    return hermitize(np.einsum("...ij,...j,...kj->...ik", v, w, np.conj(v)))
