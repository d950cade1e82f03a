"""Step-by-step RK4 recurrences, one experiment at a time.

The reference implementation the engines in qude.dynamics / qude.train are
checked against. For sources linear in the state (doubling propagation and
the adjoint scan): one matrix-vector product per internal step forward, one
per internal step in the reverse sweep, with nothing shared with the engine
beyond the problem data. Generators act on the augmented state [x; 1], so the
base model, the structure-preserving source and single-layer affine sources
all run here. For nonlinear networks (the batched ``propagate_network``):
the stage-by-stage step loop of one experiment; for their training loss and
gradient, a forward loop storing every internal state and the per-step
reverse sweep that recomputes the network at each stage and backpropagates
through it (``network_group_loss_grad``). ``loss_by_split`` is the
per-experiment train/validation loss report the CLI's ``train`` verb gave
before it used the training engine.
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


def network_step_loop(
    a_base: np.ndarray, source, x0: np.ndarray, h_us: float, n_samples: int, n_sub: int
) -> np.ndarray:
    """Stage-by-stage RK4 for x' = A x + net(x); returns (n_samples, k)."""

    def f(x):
        return a_base @ x + source.coeff_forward(x)

    out = np.empty((n_samples, x0.size))
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_samples):
            for _ in range(n_sub):
                k1 = f(x)
                k2 = f(x + 0.5 * h_us * k1)
                k3 = f(x + 0.5 * h_us * k2)
                k4 = f(x + h_us * k3)
                x = x + (h_us / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            out[j] = x
    return out


def integrate(dev, exp, source, dt_internal_ns: float) -> np.ndarray:
    """Coefficient states (n_samples, k) of one experiment, non-finite rows kept."""
    n_sub, h_us = dynamics.integration_steps(exp, dt_internal_ns)
    basis = qcore.hermitian_basis(dev.dim)
    x0 = qcore.expand(exp.initial_density(dev.dim), basis, check=False)
    a_base = dynamics.base_generator(dev, exp)
    if source is not None and not source.is_linear:
        return network_step_loop(a_base, source, x0, h_us, exp.n_samples, n_sub)
    g = augmented_generator(a_base, source)
    xs = step_loop(rk4_step_matrix(g, h_us), np.append(x0, 1.0), exp.n_samples, n_sub)
    return xs[:, :-1]


def loss_by_split(dev, source, experiments, t_tr_us: float, dt_internal_ns: float):
    """Unfiltered squared-Frobenius losses (train, validation), experiment by experiment."""
    basis = qcore.hermitian_basis(dev.dim)
    weights = basis.gram_norms
    train_loss = 0.0
    val_loss = 0.0
    for exp, block in experiments:
        x_pred = integrate(dev, exp, source, dt_internal_ns)
        idx = np.searchsorted(exp.times_us(), block.times_us - 1e-12)
        x_tgt = qcore.expand_many(block.rho_hat, basis)
        sq = np.einsum("sk,k->s", (x_pred[idx] - x_tgt) ** 2, weights)
        mask = block.times_us <= t_tr_us * (1.0 + 1e-12)
        train_loss += float(sq[mask].sum())
        val_loss += float(sq[~mask].sum())
    return train_loss, val_loss


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


def _net_acts(source, x: np.ndarray) -> list[np.ndarray]:
    """Layer outputs [input, layer1, ..., output] for batched inputs (E, k)."""
    acts = [x]
    last = source.n_layers - 1
    tanh = source.activation == models.ACTIVATION_TANH
    z = x
    for l, (w, b) in enumerate(zip(source.weights, source.biases)):
        z = z @ w.T + b
        if l < last and tanh:
            z = np.tanh(z)
        acts.append(z)
    return acts


def _net_vjp(source, acts, delta, grad_w, grad_b) -> np.ndarray:
    """Backprop ``delta`` through the net; accumulates parameter gradients."""
    last = source.n_layers - 1
    tanh = source.activation == models.ACTIVATION_TANH
    for l in range(last, -1, -1):
        if l < last and tanh:
            delta = delta * (1.0 - acts[l + 1] * acts[l + 1])
        grad_w[l] += delta.T @ acts[l]
        grad_b[l] += delta.sum(axis=0)
        delta = delta @ source.weights[l]
    return delta


def network_group_loss_grad(
    a_base: np.ndarray,
    x0: np.ndarray,
    targets: np.ndarray,
    n_sub: int,
    h_us: float,
    source,
    weights: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Loss and packed-parameter gradient for a network source, batched over E.

    ``a_base`` is (E, k, k), ``x0`` (E, k), ``targets`` (E, S, k). Each step
    of the reverse sweep recomputes the four stage inputs and backpropagates
    the stage adjoints through the network one at a time.
    """
    e_count, k = x0.shape
    n_steps = targets.shape[1] * n_sub
    a_t = np.swapaxes(a_base, -2, -1)

    def f(c):
        return np.einsum("eij,ej->ei", a_base, c) + _net_acts(source, c)[-1]

    xs = np.empty((n_steps + 1, e_count, k))
    xs[0] = x = x0
    for n in range(1, n_steps + 1):
        k1 = f(x)
        k2 = f(x + 0.5 * h_us * k1)
        k3 = f(x + 0.5 * h_us * k2)
        k4 = f(x + h_us * k3)
        xs[n] = x = x + (h_us / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    deltas = xs[n_sub::n_sub] - np.swapaxes(targets, 0, 1)  # (S, E, k)
    loss = float(np.einsum("sek,k->", deltas * deltas, weights))

    grad_w = [np.zeros_like(w) for w in source.weights]
    grad_b = [np.zeros_like(b) for b in source.biases]

    def f_vjp(c, u):
        gx = np.einsum("eij,ej->ei", a_t, u)
        return gx + _net_vjp(source, _net_acts(source, c), u, grad_w, grad_b)

    h = h_us
    lam = np.zeros((e_count, k))
    for n in range(n_steps, 0, -1):
        if n % n_sub == 0:
            lam = lam + 2.0 * weights * deltas[n // n_sub - 1]
        x = xs[n - 1]
        c2 = x + 0.5 * h * f(x)
        c3 = x + 0.5 * h * f(c2)
        c4 = x + h * f(c3)
        q4 = f_vjp(c4, (h / 6.0) * lam)
        q3 = f_vjp(c3, (h / 3.0) * lam + h * q4)
        q2 = f_vjp(c2, (h / 3.0) * lam + 0.5 * h * q3)
        q1 = f_vjp(x, (h / 6.0) * lam + 0.5 * h * q2)
        lam = lam + q1 + q2 + q3 + q4

    parts = []
    for gw, gb in zip(grad_w, grad_b):
        parts += [gw.reshape(-1), gb]
    return loss, np.concatenate(parts)
