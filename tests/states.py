"""Density-matrix fixtures for the tests: random and maximally mixed states
and the density-matrix contract check."""

from __future__ import annotations

import numpy as np

from qude.qcore import HERMITICITY_TOL, assert_hermitian, dagger, hermitize

TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10


def assert_density_matrix(
    rho: np.ndarray,
    herm_tol: float = HERMITICITY_TOL,
    trace_tol: float = TRACE_TOL,
    eig_tol: float = EIGENVALUE_TOL,
) -> None:
    """Validate the density-matrix contract: Hermitian, unit trace, PSD."""
    assert_hermitian(rho, herm_tol, "density matrix")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {tr:.12g} deviates from 1 by more than {trace_tol:.1e}")
    w = np.linalg.eigvalsh(hermitize(rho))
    if float(w.min()) < -eig_tol:
        raise ValueError(f"density matrix has eigenvalue {w.min():.3e} below -{eig_tol:.1e}")


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix, rho = G G^dagger / Tr(G G^dagger)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real
