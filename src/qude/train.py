"""Fitting source terms to tomography data.

The loss is the summed squared Frobenius distance between predicted and
reconstructed states over the train-split records of every in-scope
experiment; predictions integrate the augmented equation with the same
fixed-step RK4 discretization used everywhere else (see qude.dynamics), and
are not spectral-filtered during training.

Gradients come from the discrete adjoint of the RK4 recursion, i.e. the
exact gradient of the discretized loss. For the base model and every linear
source (structure-preserving, affine) one step on the augmented state
[x; 1] is a constant matrix R(theta) and one sample a constant S = R^n_sub.
The states come from doubling and the sample adjoints
lam_s = S^T lam_{s+1} + dl/dx_s from a log-depth scan over the same powers
of S (see qude.dynamics); dL/dS = sum_s lam_s x_{s-1}^T is then pushed
back through S = R^n_sub, R = sum_m (h M)^m / m! and the source's
``coeff_affine_vjp`` to the parameters.

Nonlinear networks run the batched step loop ``dynamics.propagate_network``
forward in chunks of FORWARD_CHUNK_SAMPLES samples, each from the last
state of the one before, adding each chunk's part of the loss as it goes.
The reverse sweep walks back REVERSE_CHUNK_STEPS steps at a time. From the
stored states it rebuilds, in bulk, the four RK4 stages' layer inputs and
tanh derivatives and each step's Jacobian increment D_n = dx_n/dx_{n-1} - I;
then lam_{n-1} = lam_n + D_n^T lam_n (plus dl/dx on sample steps) runs step
by step, and the stage adjoints are pushed through the network and
contracted with the layer inputs for the whole chunk at once. Central
finite differences are kept as an independent oracle and fallback
(``grad_method="finite_difference"``).

Training runs mini-batch ADAM over whole-experiment batches first, then
full-batch L-BFGS (two-loop recursion, backtracking Armijo line search)
from ADAM's final iterate. The line search evaluates each candidate with
its Armijo bound: the loss is a sum of non-negative terms, so once the
running total is past the bound the candidate is rejected without
finishing the horizon. A candidate that stays inside gets the same loss as
an unbounded evaluation, so the accepted steps do not change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, models, qcore
from .dynamics import DeviceModel, DivergenceError, Experiment
from .tomography import RecordBlock

MODE_EXP_GEN = "exp-gen"
MODE_EXP_SPEC = "exp-spec"

GRAD_DISCRETE_ADJOINT = "discrete_adjoint"
GRAD_FINITE_DIFFERENCE = "finite_difference"

FD_RELATIVE_STEP = 1e-6
LBFGS_GRAD_TOL = 1e-13
LBFGS_PROGRESS_TOL = 1e-15  # relative decrease below this counts as converged
BOUND_MARGIN = 1e-9  # relative slack before a bounded loss gives up, far above rounding


class GradientFailureError(RuntimeError):
    """Gradient evaluation produced non-finite components."""


@dataclass(eq=False)
class Dataset:
    """One record block per experiment plus the train/validation horizons.

    Blocks are put in time order on construction.
    """

    experiments: list[tuple[Experiment, RecordBlock]]
    train_horizon_us: float
    total_horizon_us: float

    def __post_init__(self):
        if not self.experiments:
            raise ValueError("dataset needs at least one experiment")
        if not 0 < self.train_horizon_us <= self.total_horizon_us:
            raise ValueError(
                f"train horizon {self.train_horizon_us} us must lie in "
                f"(0, {self.total_horizon_us}]"
            )
        self.experiments = [(exp, block.sorted()) for exp, block in self.experiments]

    @property
    def n_experiments(self) -> int:
        return len(self.experiments)

    def restrict(self, experiment_id: str) -> "Dataset":
        """View containing a single experiment (Experiment-Specific mode)."""
        for exp, block in self.experiments:
            if exp.id == experiment_id:
                return Dataset(
                    [(exp, block)],
                    train_horizon_us=self.train_horizon_us,
                    total_horizon_us=self.total_horizon_us,
                )
        raise ValueError(f"no experiment with id {experiment_id!r} in dataset")


def in_train_split(times_us, t_tr_us: float):
    """True where a time belongs to the train split: t <= T_Tr.

    The relative 1e-12 margin keeps a record that lies on T_Tr up to grid
    round-off in the train split. Works on scalars and arrays.
    """
    return np.asarray(times_us) <= t_tr_us * (1.0 + 1e-12)


def split(dataset: Dataset, t_tr_us: float) -> tuple[Dataset, Dataset]:
    """Disjoint train/validation views by time; t = T_Tr goes to train."""
    if not 0 < t_tr_us < dataset.total_horizon_us:
        raise ValueError(
            f"split horizon {t_tr_us} us must lie inside (0, {dataset.total_horizon_us})"
        )
    train, val = [], []
    for exp, block in dataset.experiments:
        keep = in_train_split(block.times_us, t_tr_us)
        train.append((exp, block.take(keep)))
        val.append((exp, block.take(~keep)))
    train_ds = Dataset(train, train_horizon_us=t_tr_us, total_horizon_us=t_tr_us)
    val_ds = Dataset(val, train_horizon_us=t_tr_us, total_horizon_us=dataset.total_horizon_us)
    return train_ds, val_ds


@dataclass(frozen=True)
class TrainConfig:
    mode: str = MODE_EXP_GEN
    experiment_id: str | None = None  # exp-spec target; defaults to the first
    adam_lr: float = 1e-3
    adam_epochs: int = 300
    adam_batch: int = 1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    lbfgs_memory: int = 10
    lbfgs_max_iters: int = 200
    armijo_c: float = 1e-4
    min_step: float = 1e-14
    grad_method: str = GRAD_DISCRETE_ADJOINT
    dt_internal_ns: float = dynamics.DEFAULT_DT_INTERNAL_NS
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_EXP_GEN, MODE_EXP_SPEC):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.grad_method not in (GRAD_DISCRETE_ADJOINT, GRAD_FINITE_DIFFERENCE):
            raise ValueError(f"unknown grad_method {self.grad_method!r}")
        if self.adam_lr <= 0:
            raise ValueError("adam_lr must be positive")
        if self.adam_batch < 1:
            raise ValueError("adam_batch must be >= 1")


@dataclass(eq=False)
class FitResult:
    theta_star: np.ndarray
    loss_history: list[float]
    grad_norm_history: list[float]
    phases: list[str]
    elapsed_s: list[float]
    wall_time_s: float
    stalled: bool = False

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


# -- compiled forward problems --------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Group(dynamics.GridGroup):
    """A grid group of the train split with its experiment ids and targets."""

    exp_ids: list[str]
    targets: np.ndarray  # (E, S, k)


@dataclass(eq=False)
class _Compiled:
    groups: list[_Group]
    weights: np.ndarray  # (k,) Frobenius weights of the coefficient basis


def _compile(dataset: Dataset, dev: DeviceModel, dt_internal_ns: float) -> _Compiled:
    basis = qcore.hermitian_basis(dev.dim)
    experiments = [exp for exp, _ in dataset.experiments]
    targets = []
    for exp, block in dataset.experiments:
        keep = in_train_split(block.times_us, dataset.train_horizon_us)
        times = block.times_us[keep]
        if not times.size:
            raise ValueError(f"experiment {exp.id} has no records inside the train horizon")
        expected = np.arange(1, len(times) + 1) * (exp.sample_dt_ns * 1e-3)
        if np.max(np.abs(times - expected)) > 1e-9 * (1.0 + times[-1]):
            raise ValueError(
                f"experiment {exp.id} records are not a contiguous sample grid from t = dt"
            )
        targets.append(qcore.expand_many(block.rho_hat[keep], basis))
    groups = [
        _Group(
            **vars(g),
            exp_ids=[experiments[i].id for i in g.indices],
            targets=np.stack([targets[i] for i in g.indices]),
        )
        for g in dynamics.grid_groups(dev, experiments, dt_internal_ns, [len(t) for t in targets])
    ]
    return _Compiled(groups=groups, weights=basis.gram_norms.astype(float))


def _group_subset(group: _Group, wanted: set[str] | None) -> _Group | None:
    if wanted is None:
        return group
    idx = [i for i, eid in enumerate(group.exp_ids) if eid in wanted]
    if not idx:
        return None
    return replace(
        group,
        indices=[group.indices[i] for i in idx],
        exp_ids=[group.exp_ids[i] for i in idx],
        a_base=group.a_base[idx],
        x0=group.x0[idx],
        targets=group.targets[idx],
    )


def _check_finite(x: np.ndarray, group: _Group, theta: np.ndarray, first: int = 0) -> None:
    """Raise DivergenceError at the first sample of x (E, S, K) that is not
    finite; x starts at sample index ``first``."""
    finite = np.all(np.isfinite(x), axis=-1)
    if np.all(finite):
        return
    s = int(np.argmax(~np.all(finite, axis=0)))
    e = int(np.argmax(~finite[:, s]))
    raise DivergenceError(
        f"training trajectory diverged (|theta| = {np.linalg.norm(theta):.3g})",
        (first + s + 1) * group.dt_us,
        group.exp_ids[e],
    )


def _sq_loss(delta: np.ndarray, weights: np.ndarray) -> float:
    """Weighted squared Frobenius distance summed over (E, S, k) residuals."""
    return float(np.einsum("esk,k->", delta * delta, weights))


# -- linear engine (base model and sources linear in [x; 1]) ----------------------


def _linear_forward(group: _Group, source, theta: np.ndarray):
    """Augmented generators M, step increments D = R - I, the increments of the
    doubling powers of S = R^n_sub, and the checked states [x_0, ..., x_S]
    as (E, S+1, k+1)."""
    m = dynamics.augmented_generator(group.a_base, source)
    d = dynamics.rk4_step_increment(m, group.h_us)
    increments = dynamics.power_increments(d, group.n_sub, group.n_samples)
    x0 = np.concatenate([group.x0, np.ones((group.x0.shape[0], 1))], axis=1)
    samples = dynamics.propagate_linear(increments, x0, group.n_samples)
    _check_finite(samples, group, theta)
    return m, d, increments, np.concatenate([x0[:, None, :], samples], axis=1)


def _linear_group_loss_grad(
    group: _Group, source, theta: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    m, d, increments, states = _linear_forward(group, source, theta)
    delta = states[:, 1:, :-1] - group.targets  # (E, S, k)
    loss = _sq_loss(delta, weights)

    # Sample adjoints lam_s = S^T lam_{s+1} + dl/dx_s by the log-depth scan,
    # then dL/dS = sum_s lam_s x_{s-1}^T as one batched product.
    g = np.zeros(delta.shape[:-1] + (states.shape[-1],))
    g[..., :-1] = 2.0 * weights * delta
    lam = dynamics.adjoint_scan(increments, g)
    p_s = np.swapaxes(lam, -1, -2) @ states[:, :-1, :]

    # dL/dR (= dL/dD) from S = R^n_sub: sum_j (R^T)^j dL/dS (R^T)^(n_sub-1-j).
    e_count, kk = m.shape[:2]
    r_t = np.eye(kk) + np.swapaxes(d, -1, -2)
    r_t_powers = [np.broadcast_to(np.eye(kk), m.shape)]
    for _ in range(group.n_sub - 1):
        r_t_powers.append(r_t_powers[-1] @ r_t)
    p = sum(
        r_t_powers[j] @ p_s @ r_t_powers[group.n_sub - 1 - j] for j in range(group.n_sub)
    )

    # Push dL/dR back to dL/dM through R = sum_m (hM)^m / m!, then to the
    # source parameters through M = [[A + W, b], [0, 0]].
    powers_m = [np.broadcast_to(np.eye(kk), (e_count, kk, kk)).copy()]
    for _ in range(3):
        powers_m.append(np.einsum("eij,ejk->eik", powers_m[-1], m))
    q = np.zeros_like(p)
    coeff = 1.0
    for order in range(1, 5):
        coeff *= group.h_us / order
        for j in range(order):
            q += coeff * np.einsum(
                "eji,ejl,ekl->eik", powers_m[j], p, powers_m[order - 1 - j]
            )
    q_total = q.sum(axis=0)
    k = kk - 1
    return loss, source.coeff_affine_vjp(q_total[:k, :k], q_total[:k, k])


# -- network engine (nonlinear sources) -------------------------------------------

FORWARD_CHUNK_SAMPLES = 64  # samples propagated between running-loss checks
REVERSE_CHUNK_STEPS = 256  # steps whose stage activations are rebuilt at once


def _network_forward(
    group: _Group, source: models.NetworkSource, theta: np.ndarray, weights: np.ndarray,
    limit: float = np.inf,
) -> np.ndarray | None:
    """Checked states [x_0, x_1, ..., x_N] after every internal step, (E, N+1, k).

    Propagates FORWARD_CHUNK_SAMPLES samples at a time, each chunk from the
    last state of the one before, and returns None as soon as the running
    loss of the samples so far passes ``limit``.
    """
    n_sub = group.n_sub
    xs = np.empty((group.x0.shape[0], group.n_samples * n_sub + 1, group.x0.shape[1]))
    xs[:, 0] = x = group.x0
    running = 0.0
    for lo in range(0, group.n_samples, FORWARD_CHUNK_SAMPLES):
        hi = min(lo + FORWARD_CHUNK_SAMPLES, group.n_samples)
        steps = dynamics.propagate_network(
            group.a_base, source, x, group.h_us, (hi - lo) * n_sub
        )
        xs[:, lo * n_sub + 1 : hi * n_sub + 1] = steps
        x = steps[:, -1]
        samples = steps[:, n_sub - 1 :: n_sub]
        _check_finite(samples, group, theta, first=lo)
        with np.errstate(over="ignore"):  # an overflowing square is past any bound
            running += _sq_loss(samples - group.targets[:, lo:hi], weights)
        if running > limit:
            return None
    return xs


def _rk4_stages(group: _Group, source: models.NetworkSource, x: np.ndarray):
    """The four RK4 stages of the steps leaving the states x (E, C, k), in bulk.

    Returns, per stage, the inputs of every layer and the tanh derivatives
    (None for the identity activation), and D = dx_n/dx_{n-1} - I of each
    step as (E, C, k, k).
    """
    h = group.h_us
    a = group.a_base[:, None]  # (E, 1, k, k)
    last = source.n_layers - 1
    tanh = source.activation == models.ACTIVATION_TANH
    coefs = (0.5 * h, 0.5 * h, h)  # stage input c_{s+1} = x + coef_s k_s
    stages, slopes = [], []
    c = x
    for s in range(4):
        ins, derivs = [c], []
        z = c
        for l, (w, b) in enumerate(zip(source.weights, source.biases)):
            z = z @ w.T + b
            if l < last:
                if tanh:
                    z = np.tanh(z)
                    derivs.append(1.0 - z * z)
                ins.append(z)
        stages.append((ins, derivs if tanh else None))
        # Jacobian of F(c) = A c + net(c): A + W_last diag(d_last-1) ... diag(d_0) W_0.
        jac = source.weights[0]
        for l in range(1, last + 1):
            jac = source.weights[l] @ (derivs[l - 1][..., None] * jac if tanh else jac)
        jac = a + jac
        # dk_s/dx = J_s (I + coef_{s-1} dk_{s-1}/dx).
        slopes.append(jac if s == 0 else jac + coefs[s - 1] * (jac @ slopes[-1]))
        if s < 3:
            c = x + coefs[s] * ((a @ c[..., None])[..., 0] + z)
    k1, k2, k3, k4 = slopes
    d_step = (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return stages, np.broadcast_to(d_step, x.shape + x.shape[-1:])


def _network_group_loss_grad(
    group: _Group, source: models.NetworkSource, theta: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    h, n_sub = group.h_us, group.n_sub
    xs = _network_forward(group, source, theta, weights)
    deltas = xs[:, n_sub::n_sub] - group.targets  # (E, S, k)
    loss = _sq_loss(deltas, weights)
    g = 2.0 * weights * deltas

    last = source.n_layers - 1
    grad_w = [np.zeros_like(w) for w in source.weights]
    grad_b = [np.zeros_like(b) for b in source.biases]
    a_t = np.swapaxes(group.a_base, -2, -1)[:, None]  # (E, 1, k, k)
    lam = np.zeros_like(group.x0)
    for hi in range(xs.shape[1] - 1, 0, -REVERSE_CHUNK_STEPS):
        lo = max(hi - REVERSE_CHUNK_STEPS, 0)
        stages, d_step = _rk4_stages(group, source, xs[:, lo:hi])
        d_step = np.ascontiguousarray(np.moveaxis(d_step, 1, 0))  # (C, E, k, k)

        # lam_n = dL/dx_n for the chunk's steps n = lo+1..hi, walking back by
        # lam_{n-1} = lam_n + D_n^T lam_n plus dl/dx_{n-1} on sample steps.
        lams = np.empty((hi - lo,) + lam.shape)
        for n in range(hi, lo, -1):
            if n % n_sub == 0:
                lam = lam + g[:, n // n_sub - 1]
            lams[n - lo - 1] = lam
            lam = lam + (lam[:, None, :] @ d_step[n - lo - 1])[:, 0]
        lams = np.swapaxes(lams, 0, 1)  # (E, C, k)

        # Stage adjoints of the RK4 update, last stage first, and each layer's
        # output gradient contracted with its inputs over the whole chunk.
        q = None
        for (ins, derivs), c_lam, c_q in zip(
            reversed(stages), (h / 6.0, h / 3.0, h / 3.0, h / 6.0), (None, h, 0.5 * h, 0.5 * h)
        ):
            u = c_lam * lams if q is None else c_lam * lams + c_q * q
            delta = u
            for l in range(last, -1, -1):
                if l < last and derivs is not None:
                    delta = delta * derivs[l]
                grad_w[l] += np.einsum("eci,ecj->ij", delta, ins[l])
                grad_b[l] += delta.sum(axis=(0, 1))
                delta = delta @ source.weights[l]
            q = delta + (a_t @ u[..., None])[..., 0]

    parts = []
    for gw, gb in zip(grad_w, grad_b):
        parts.append(gw.reshape(-1))
        parts.append(gb)
    return loss, np.concatenate(parts)


def _group_samples(
    group: _Group, source, theta: np.ndarray, weights: np.ndarray, limit: float = np.inf
) -> np.ndarray | None:
    """Predicted coefficient states on the record grid, (E, S, k); None once a
    network forward's running loss passes ``limit``."""
    if source is None or source.is_linear:
        return _linear_forward(group, source, theta)[-1][:, 1:, :-1]
    xs = _network_forward(group, source, theta, weights, limit)
    return None if xs is None else xs[:, group.n_sub :: group.n_sub]


def _group_loss(
    group: _Group, source, theta: np.ndarray, weights: np.ndarray, limit: float = np.inf
) -> float:
    samples = _group_samples(group, source, theta, weights, limit)
    return np.inf if samples is None else _sq_loss(samples - group.targets, weights)


# -- public loss / gradient ------------------------------------------------------


def _evaluate(
    compiled: _Compiled,
    theta: np.ndarray,
    template,
    subset: set[str] | None,
    want_grad: bool,
    bound: float = np.inf,
) -> tuple[float, np.ndarray | None]:
    """Loss (and gradient) summed over the groups.

    A loss evaluation returns inf as soon as its running total, a sum of
    non-negative terms, passes ``bound`` by more than BOUND_MARGIN relative:
    the full loss is then above the bound too, whatever the rounding of the
    partial sums. The linear engine checks between groups, the network
    engine every FORWARD_CHUNK_SAMPLES samples; a loss that stays inside is
    computed exactly as without a bound.
    """
    source = None if template is None else template.with_params(theta)
    limit = bound + BOUND_MARGIN * abs(bound)
    total = 0.0
    grad = np.zeros_like(theta) if want_grad and template is not None else None
    if template is None or template.is_linear:
        group_loss_grad = _linear_group_loss_grad
    else:
        group_loss_grad = _network_group_loss_grad
    for group in compiled.groups:
        sub = _group_subset(group, subset)
        if sub is None:
            continue
        if grad is not None:
            l, g = group_loss_grad(sub, source, theta, compiled.weights)
            total += l
            grad += g
        else:
            total += _group_loss(sub, source, theta, compiled.weights, limit - total)
            if total > limit:
                return np.inf, None
    if grad is not None and not np.all(np.isfinite(grad)):
        raise GradientFailureError("gradient has non-finite components")
    return total, grad


def loss(
    theta: np.ndarray,
    dataset: Dataset,
    dev: DeviceModel,
    ansatz,
    dt_internal_ns: float = dynamics.DEFAULT_DT_INTERNAL_NS,
) -> float:
    """Training loss at ``theta``; ``ansatz`` is a source template or None."""
    compiled = _compile(dataset, dev, dt_internal_ns)
    theta = np.asarray(theta, dtype=float)
    value, _ = _evaluate(compiled, theta, ansatz, None, want_grad=False)
    return value


def split_losses(
    dataset: Dataset,
    dev: DeviceModel,
    source,
    dt_internal_ns: float = dynamics.DEFAULT_DT_INTERNAL_NS,
) -> tuple[float, float]:
    """Unfiltered squared-Frobenius losses of ``source`` over the train and
    the validation records, from the training engine run over all records."""
    whole = Dataset(dataset.experiments, dataset.total_horizon_us, dataset.total_horizon_us)
    compiled = _compile(whole, dev, dt_internal_ns)
    train_loss = val_loss = 0.0
    for group in compiled.groups:
        delta = _group_samples(group, source, source.pack(), compiled.weights) - group.targets
        sq = np.einsum("esk,k->es", delta * delta, compiled.weights)
        times = group.dt_us * np.arange(1, group.n_samples + 1)
        in_train = in_train_split(times, dataset.train_horizon_us)
        train_loss += float(sq[:, in_train].sum())
        val_loss += float(sq[:, ~in_train].sum())
    return train_loss, val_loss


def _fd_gradient(value_fn, theta: np.ndarray) -> np.ndarray:
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = FD_RELATIVE_STEP * (1.0 + abs(theta[i]))
        up = theta.copy()
        up[i] += step
        down = theta.copy()
        down[i] -= step
        grad[i] = (value_fn(up) - value_fn(down)) / (2.0 * step)
    return grad


def gradient(
    theta: np.ndarray,
    dataset: Dataset,
    dev: DeviceModel,
    ansatz,
    dt_internal_ns: float = dynamics.DEFAULT_DT_INTERNAL_NS,
    method: str = GRAD_DISCRETE_ADJOINT,
) -> np.ndarray:
    """Gradient of the training loss with respect to the packed parameters."""
    if ansatz is None:
        raise ValueError("the base model has no trainable parameters")
    compiled = _compile(dataset, dev, dt_internal_ns)
    theta = np.asarray(theta, dtype=float)
    if method == GRAD_DISCRETE_ADJOINT:
        _, grad = _evaluate(compiled, theta, ansatz, None, want_grad=True)
        return grad
    if method == GRAD_FINITE_DIFFERENCE:
        grad = _fd_gradient(
            lambda th: _evaluate(compiled, th, ansatz, None, want_grad=False)[0], theta
        )
        if not np.all(np.isfinite(grad)):
            raise GradientFailureError("gradient has non-finite components")
        return grad
    raise ValueError(f"unknown gradient method {method!r}")


# -- optimizers -------------------------------------------------------------------


def _two_loop_direction(grad: np.ndarray, s_hist: list, y_hist: list) -> np.ndarray:
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


def fit(dataset: Dataset, dev: DeviceModel, ansatz, config: TrainConfig) -> FitResult:
    """Two-phase optimization: mini-batch ADAM, then full-batch L-BFGS.

    Experiment-Specific mode restricts the dataset to one experiment and
    runs ADAM full-batch. Line-search failure in the L-BFGS phase returns
    the best iterate found with the ``stalled`` flag set.
    """
    t_start = time.perf_counter()
    if ansatz is None:
        raise ValueError("fit requires a trainable source ansatz")
    if config.mode == MODE_EXP_SPEC:
        target = config.experiment_id or dataset.experiments[0][0].id
        dataset = dataset.restrict(target)

    compiled = _compile(dataset, dev, config.dt_internal_ns)
    exp_ids = [exp.id for exp, _ in dataset.experiments]
    theta = ansatz.pack().astype(float)

    use_fd = config.grad_method == GRAD_FINITE_DIFFERENCE

    def eval_loss(th, subset=None, bound=np.inf):
        value, _ = _evaluate(compiled, th, ansatz, subset, want_grad=False, bound=bound)
        return value

    def eval_subset(th, subset):
        if use_fd:
            value = eval_loss(th, subset)
            grad = _fd_gradient(lambda q: eval_loss(q, subset), th)
            return value, grad
        return _evaluate(compiled, th, ansatz, subset, want_grad=True)

    losses: list[float] = []
    grad_norms: list[float] = []
    phases: list[str] = []
    elapsed: list[float] = []

    def record(phase: str, value: float, grad: np.ndarray) -> None:
        losses.append(value)
        grad_norms.append(float(np.linalg.norm(grad)))
        phases.append(phase)
        elapsed.append(time.perf_counter() - t_start)

    # Phase 1: ADAM over mini-batches of whole experiments.
    rng = np.random.default_rng(config.seed)
    batch_size = config.adam_batch if config.mode == MODE_EXP_GEN else len(exp_ids)
    batch_size = min(batch_size, len(exp_ids))
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step_count = 0
    for _ in range(config.adam_epochs):
        order = rng.permutation(len(exp_ids))
        for lo in range(0, len(exp_ids), batch_size):
            subset = {exp_ids[i] for i in order[lo : lo + batch_size]}
            value, grad = eval_subset(theta, subset)
            step_count += 1
            m = config.adam_beta1 * m + (1.0 - config.adam_beta1) * grad
            v = config.adam_beta2 * v + (1.0 - config.adam_beta2) * grad * grad
            m_hat = m / (1.0 - config.adam_beta1**step_count)
            v_hat = v / (1.0 - config.adam_beta2**step_count)
            theta = theta - config.adam_lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)
            record("adam", value, grad)

    # Hand off on a full-batch evaluation so the phase boundary is comparable.
    f_cur, g_cur = eval_subset(theta, None)
    record("adam", f_cur, g_cur)

    # Phase 2: full-batch L-BFGS with backtracking line search.
    best_theta = theta.copy()
    best_f = f_cur
    stalled = False
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    for _ in range(config.lbfgs_max_iters):
        gnorm = float(np.max(np.abs(g_cur)))
        if gnorm <= LBFGS_GRAD_TOL * (1.0 + abs(f_cur)):
            break
        direction = _two_loop_direction(g_cur, s_hist, y_hist)
        slope = float(np.dot(direction, g_cur))
        if not np.isfinite(slope) or slope >= 0.0:
            direction = -g_cur
            slope = -float(np.dot(g_cur, g_cur))
        step = 1.0
        accepted = False
        while step >= config.min_step:
            cand = theta + step * direction
            armijo = f_cur + config.armijo_c * step * slope
            try:
                f_new = eval_loss(cand, bound=armijo)
            except DivergenceError:
                step *= 0.5
                continue
            if f_new <= armijo:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stalled = True
            break
        progress = f_cur - f_new
        _, g_new = eval_subset(cand, None)
        s = step * direction
        y = g_new - g_cur
        if float(np.dot(s, y)) > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > config.lbfgs_memory:
                s_hist.pop(0)
                y_hist.pop(0)
        theta = cand
        f_cur, g_cur = f_new, g_new
        if f_cur < best_f:
            best_f = f_cur
            best_theta = theta.copy()
        record("lbfgs", f_cur, g_cur)
        if progress <= LBFGS_PROGRESS_TOL * (1.0 + abs(f_cur)):
            break

    if f_cur < best_f:
        best_f = f_cur
        best_theta = theta.copy()

    return FitResult(
        theta_star=best_theta,
        loss_history=losses,
        grad_norm_history=grad_norms,
        phases=phases,
        elapsed_s=elapsed,
        wall_time_s=time.perf_counter() - t_start,
        stalled=stalled,
    )
