"""Step-by-step RK4 recurrences for sources that are linear in the state.

The reference implementation the log-depth engine (doubling propagation and
the adjoint scan in qude.dynamics / qude.train) is checked against: one
matrix-vector product per internal step forward, one per internal step in
the reverse sweep, with nothing shared with the engine beyond the problem
data. Generators act on the augmented state [x; 1], so the base model, the
structure-preserving source and single-layer affine sources all run here.
"""

from __future__ import annotations

import numpy as np

from qude import dynamics, models, qcore


def rk4_step_matrix(a: np.ndarray, h_us: float) -> np.ndarray:
    """One RK4 step of x' = A x for a single matrix A."""
    n = a.shape[0]
    r = np.eye(n)
    term = np.eye(n)
    for m in range(1, 5):
        term = (h_us / m) * (term @ a)
        r = r + term
    return r


def augmented_generator(a_base: np.ndarray, source) -> np.ndarray:
    """[[A + W, b], [0, 0]] for the base model, SP or a one-layer affine net."""
    k = a_base.shape[-1]
    w, b = np.zeros((k, k)), np.zeros(k)
    if isinstance(source, models.StructurePreservingSource):
        w = source.coeff_generator()
    elif source is not None:
        assert source.n_layers == 1 and source.activation == models.ACTIVATION_IDENTITY
        w, b = source.weights[0], source.biases[0]
    g = np.zeros(a_base.shape[:-2] + (k + 1, k + 1))
    g[..., :k, :k] = a_base + w
    g[..., :k, k] = b
    return g


def step_loop(r_step: np.ndarray, x0: np.ndarray, n_samples: int, n_sub: int) -> np.ndarray:
    """Iterate x -> R x, recording after every n_sub steps; returns (n_samples, K)."""
    out = np.empty((n_samples, x0.size))
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_samples):
            for _ in range(n_sub):
                x = r_step @ x
            out[j] = x
    return out


def integrate(dev, exp, source, dt_internal_ns: float) -> np.ndarray:
    """Coefficient states (n_samples, k) of one experiment, non-finite rows kept."""
    n_sub, h_us = dynamics.integration_steps(exp, dt_internal_ns)
    basis = qcore.hermitian_basis(dev.dim)
    x0 = qcore.expand(exp.initial_density(dev.dim), basis, check=False)
    g = augmented_generator(dynamics.base_generator(dev, exp), source)
    xs = step_loop(rk4_step_matrix(g, h_us), np.append(x0, 1.0), exp.n_samples, n_sub)
    return xs[:, :-1]


def first_non_finite(xs: np.ndarray) -> int | None:
    """Index of the first sample row that is not finite, or None."""
    bad = ~np.all(np.isfinite(xs), axis=-1)
    return int(np.argmax(bad)) if bad.any() else None


def group_loss_grad(
    m: np.ndarray,
    x0: np.ndarray,
    targets: np.ndarray,
    n_sub: int,
    h_us: float,
    weights: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Loss and dL/dM, summed over experiments, for augmented generators.

    ``m`` is (E, K, K), ``x0`` (E, K) augmented, ``targets`` (E, S, K-1).
    Forward step loop storing every internal state, the per-step reverse
    sweep lam_n = R^T lam_{n+1} + dl/dx_n, dL/dR = sum_n lam_n x_{n-1}^T and
    its pullback through R = sum_m (h M)^m / m!.
    """
    e_count, kk = x0.shape
    n_records = targets.shape[1]
    n_steps = n_records * n_sub
    r = np.stack([rk4_step_matrix(m[e], h_us) for e in range(e_count)])

    xs = np.empty((n_steps + 1, e_count, kk))
    xs[0] = x0
    for n in range(1, n_steps + 1):
        xs[n] = np.einsum("eij,ej->ei", r, xs[n - 1])
    samples = xs[n_sub::n_sub]  # (S, E, K)
    delta = samples[..., :-1] - np.swapaxes(targets, 0, 1)
    loss = float(np.einsum("sek,k->", delta * delta, weights))

    lams = np.empty((n_steps + 1, e_count, kk))
    lam = np.zeros((e_count, kk))
    for n in range(n_steps, 0, -1):
        if n % n_sub == 0:
            lam[:, :-1] = lam[:, :-1] + 2.0 * weights * delta[n // n_sub - 1]
        lams[n] = lam
        if n > 1:
            lam = np.einsum("eij,ei->ej", r, lam)
    p = np.einsum("nei,nej->eij", lams[1:], xs[:-1])

    powers = [np.broadcast_to(np.eye(kk), (e_count, kk, kk)).copy()]
    for _ in range(3):
        powers.append(np.einsum("eij,ejk->eik", powers[-1], m))
    q = np.zeros_like(p)
    coeff = 1.0
    for order in range(1, 5):
        coeff *= h_us / order
        for j in range(order):
            q += coeff * np.einsum("eji,ejl,ekl->eik", powers[j], p, powers[order - 1 - j])
    return loss, q.sum(axis=0)


def param_grad(source, q: np.ndarray) -> np.ndarray:
    """Packed-parameter gradient from dL/dM for SP or a one-layer affine net."""
    k = q.shape[0] - 1
    if isinstance(source, models.StructurePreservingSource):
        b_alpha, b_gamma = models.sp_generator_blocks(source.dim)
        g_alpha = np.einsum("jik,ik->j", b_alpha, q[:k, :k])
        g_gamma = np.einsum("jik,ik->j", b_gamma, q[:k, :k])
        g_raw = g_gamma if source.signed else 2.0 * source.gamma_raw * g_gamma
        return np.concatenate([g_alpha, g_raw])
    return np.concatenate([q[:k, :k].reshape(-1), q[:k, k]])
