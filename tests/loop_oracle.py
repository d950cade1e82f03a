"""Step-by-step RK4 recurrences, one experiment at a time.

The reference implementation the engines in qude.dynamics are checked
against; its step loops share nothing with them beyond the problem
data and the source's parameters. For sources linear in the state (doubling
propagation and the adjoint scan): one matrix-vector product per internal
step forward, one per internal step in the reverse sweep. Generators act on
the augmented state [x; 1], so the base model, the structure-preserving
source and single-layer affine sources all run here. For nonlinear networks
(the Newton forward and its fallback ``propagate_network``): the
stage-by-stage step loop of one experiment, with its own layer loop
(``_net_acts``); for their training loss and gradient, a forward loop
storing every internal state and the per-step reverse sweep that recomputes
the network at each stage and backpropagates through it
(``network_group_loss_grad``), whose stage walk of the unit vectors also
gives the step Jacobians (``step_increments``). ``loss_by_split`` is the
per-experiment train/validation loss report the CLI's ``train`` verb gave
before it used the training engine. ``finite_difference_gradient`` is the other gradient
oracle: central differences of the engine's own loss, so it checks each
engine's adjoint against its forward.

The last section keeps the forms that faster code in qude replaced without
changing any floating-point operation, so the tests require bit-for-bit
equality with them: the base generator built by one ``rhs`` call per basis
element, the ``np.block`` assembly of the linear engine's dL/dM block and
the L-BFGS two-loop recursion that recomputes every rho = 1 / (y^T s).
"""

from __future__ import annotations

import numpy as np

from qude import dynamics, models, qcore, train

FD_RELATIVE_STEP = 1e-6


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
        w = source.coeff_affine()[0]
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
        return a_base @ x + _net_acts(source, x)[-1]

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
    x0 = qcore.expand_many(exp.initial_density(dev.dim)[None], basis)[0]
    a_base = dynamics.base_generator(dev, exp)
    if source is not None and not source.is_linear:
        return network_step_loop(a_base, source, x0, h_us, exp.n_samples, n_sub)
    g = augmented_generator(a_base, source)
    xs = step_loop(rk4_step_matrix(g, h_us), np.append(x0, 1.0), exp.n_samples, n_sub)
    return xs[:, :-1]


def loss_by_split(dev, source, experiments, t_tr_us: float, dt_internal_ns: float):
    """Unfiltered squared-Frobenius losses (train, validation), experiment by
    experiment; each record is compared with its nearest grid sample and split
    by its own time."""
    basis = qcore.hermitian_basis(dev.dim)
    weights = basis.gram_norms
    train_loss = 0.0
    val_loss = 0.0
    for exp, block in experiments:
        x_pred = integrate(dev, exp, source, dt_internal_ns)
        idx = np.rint(block.times_us / (exp.sample_dt_ns * 1e-3)).astype(int) - 1
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


def _net_rhs(a_base: np.ndarray, source, c: np.ndarray) -> np.ndarray:
    """A c + net(c) for batched states c (E, k) and generators A (E, k, k)."""
    return np.einsum("eij,ej->ei", a_base, c) + _net_acts(source, c)[-1]


def _stage_adjoints(a_base, source, h: float, x, lam, grad_w, grad_b) -> tuple:
    """The stage adjoints (q1, q2, q3, q4) of one RK4 step from x (E, k),
    whose sum is D^T lam: the four stage inputs are recomputed, and each
    stage adjoint is backpropagated through the network, adding its
    parameter gradients into grad_w and grad_b."""
    a_t = np.swapaxes(a_base, -2, -1)

    def f_vjp(c, u):
        gx = np.einsum("eij,ej->ei", a_t, u)
        return gx + _net_vjp(source, _net_acts(source, c), u, grad_w, grad_b)

    c2 = x + 0.5 * h * _net_rhs(a_base, source, x)
    c3 = x + 0.5 * h * _net_rhs(a_base, source, c2)
    c4 = x + h * _net_rhs(a_base, source, c3)
    q4 = f_vjp(c4, (h / 6.0) * lam)
    q3 = f_vjp(c3, (h / 3.0) * lam + h * q4)
    q2 = f_vjp(c2, (h / 3.0) * lam + 0.5 * h * q3)
    q1 = f_vjp(x, (h / 6.0) * lam + 0.5 * h * q2)
    return q1, q2, q3, q4


def step_increments(a_base: np.ndarray, source, h_us: float, x: np.ndarray) -> np.ndarray:
    """D = dF/dx - I of the RK4 step from every state of x (E, C, k), step-major
    (C, E, k, k): row i is D^T e_i, the reverse sweep's stage walk
    (``_stage_adjoints``) of the unit vector e_i, with every step a row of
    one batch."""
    e_count, c, k = x.shape
    a_rows = np.repeat(a_base, c, axis=0)  # row e C + n is step n of experiment e
    unused = [np.zeros_like(w) for w in source.weights], [np.zeros_like(b) for b in source.biases]
    d = np.empty((e_count * c, k, k))
    for i in range(k):
        unit = np.zeros((e_count * c, k))
        unit[:, i] = 1.0
        d[:, i] = sum(_stage_adjoints(a_rows, source, h_us, x.reshape(-1, k), unit, *unused))
    return np.swapaxes(d.reshape(e_count, c, k, k), 0, 1)


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

    def f(c):
        return _net_rhs(a_base, source, c)

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
    lam = np.zeros((e_count, k))
    for n in range(n_steps, 0, -1):
        if n % n_sub == 0:
            lam = lam + 2.0 * weights * deltas[n // n_sub - 1]
        q1, q2, q3, q4 = _stage_adjoints(a_base, source, h_us, xs[n - 1], lam, grad_w, grad_b)
        lam = lam + q1 + q2 + q3 + q4

    parts = []
    for gw, gb in zip(grad_w, grad_b):
        parts += [gw.reshape(-1), gb]
    return loss, np.concatenate(parts)


def finite_difference_gradient(problem: train.Problem, theta: np.ndarray, template) -> np.ndarray:
    """Central differences of ``problem``'s loss, with the step 1e-6 (1 + |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = FD_RELATIVE_STEP * (1.0 + abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        up_loss, down_loss = (problem.evaluate(th, template, want_grad=False)[0]
                              for th in (up, down))
        grad[i] = (up_loss - down_loss) / (2.0 * step)
    if not np.all(np.isfinite(grad)):
        raise train.GradientFailureError("gradient has non-finite components")
    return grad


# -- the forms replaced by faster code with the same floating-point operations ----


def base_generator_per_element(dev, exp) -> np.ndarray:
    """``dynamics.base_generator`` with one ``rhs`` call per basis element."""
    basis = qcore.hermitian_basis(dev.dim)
    return qcore.expand_many(
        np.stack([dynamics.rhs(dev, exp, el) for el in basis.elements]), basis).T


def linear_grad_block(group, source, forward, g: np.ndarray) -> np.ndarray:
    """``dynamics.linear_pullback`` with [[M^T, dL/dS], [0, M^T]] assembled by ``np.block``."""
    m, increments, samples = forward
    x0 = np.concatenate([group.x0, np.ones((len(group.x0), 1))], axis=1)
    states = np.concatenate([x0[:, None, :], samples], axis=1)
    g_aug = np.zeros(samples.shape)
    g_aug[..., :-1] = g
    lam = dynamics.adjoint_scan(increments, g_aug)
    p_s = np.swapaxes(lam, -1, -2) @ states[:, :-1, :]
    kk, m_t = m.shape[-1], np.swapaxes(m, -1, -2)
    block = np.block([[m_t, p_s], [np.zeros_like(m_t), m_t]])
    step = dynamics.rk4_step_increment(block, group.h_us)
    q = dynamics.power_increments(step, group.n_sub, 1)[0][..., :kk, kk:].sum(axis=0)
    return source.coeff_affine_vjp(q[:-1, :-1], q[:-1, -1])


def two_loop_direction(grad: np.ndarray, s_hist: list, y_hist: list) -> np.ndarray:
    """The L-BFGS two-loop recursion, forming every rho = 1 / (y^T s) on each call."""
    q = grad.copy()
    alphas = []
    rhos = [1.0 / float(np.dot(y, s)) for s, y in zip(s_hist, y_hist)]
    for i in range(len(s_hist) - 1, -1, -1):
        a = rhos[i] * float(np.dot(s_hist[i], q))
        alphas.append(a)
        q -= a * y_hist[i]
    alphas.reverse()
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        q *= float(np.dot(s, y)) / float(np.dot(y, y))
    for i in range(len(s_hist)):
        beta = rhos[i] * float(np.dot(y_hist[i], q))
        q += (alphas[i] - beta) * s_hist[i]
    return -q
