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
``coeff_affine_vjp`` to the parameters. Nonlinear networks take the batched
step loop ``dynamics.propagate_network`` forward and a stage-by-stage
reverse sweep with network vector-Jacobian products. Central
finite differences are kept as an independent oracle and fallback
(``grad_method="finite_difference"``).

Training runs mini-batch ADAM over whole-experiment batches first, then
full-batch L-BFGS (two-loop recursion, backtracking Armijo line search)
from ADAM's final iterate.
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


def _check_finite(x: np.ndarray, group: _Group, theta: np.ndarray) -> None:
    """Raise DivergenceError at the first sample of x (E, S, K) that is not finite."""
    finite = np.all(np.isfinite(x), axis=-1)
    if np.all(finite):
        return
    s = int(np.argmax(~np.all(finite, axis=0)))
    e = int(np.argmax(~finite[:, s]))
    raise DivergenceError(
        f"training trajectory diverged (|theta| = {np.linalg.norm(theta):.3g})",
        (s + 1) * group.dt_us,
        group.exp_ids[e],
    )


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
    loss = float(np.einsum("esk,k->", delta * delta, weights))

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


def _net_forward_acts(source: models.NetworkSource, x: np.ndarray) -> list[np.ndarray]:
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


def _net_vjp(
    source: models.NetworkSource,
    acts: list[np.ndarray],
    delta: np.ndarray,
    grad_w: list[np.ndarray],
    grad_b: list[np.ndarray],
) -> np.ndarray:
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


def _network_forward(group: _Group, source: models.NetworkSource, theta: np.ndarray) -> np.ndarray:
    """Checked states [x_0, x_1, ..., x_N] after every internal step, (E, N+1, k)."""
    steps = dynamics.propagate_network(
        group.a_base, source, group.x0, group.h_us, group.n_samples * group.n_sub
    )
    _check_finite(steps[:, group.n_sub - 1 :: group.n_sub], group, theta)
    return np.concatenate([group.x0[:, None, :], steps], axis=1)


def _group_samples(group: _Group, source, theta: np.ndarray) -> np.ndarray:
    """Predicted coefficient states on the record grid, (E, S, k)."""
    if source is None or source.is_linear:
        return _linear_forward(group, source, theta)[-1][:, 1:, :-1]
    return _network_forward(group, source, theta)[:, group.n_sub :: group.n_sub]


def _group_loss(group: _Group, source, theta: np.ndarray, weights: np.ndarray) -> float:
    delta = _group_samples(group, source, theta) - group.targets
    return float(np.einsum("esk,k->", delta * delta, weights))


def _network_group_loss_grad(
    group: _Group, source: models.NetworkSource, theta: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    h = group.h_us
    n_steps = group.n_samples * group.n_sub
    e_count, k = group.x0.shape
    a_t = np.swapaxes(group.a_base, -2, -1)

    def f_from_acts(c, acts):
        return np.einsum("eij,ej->ei", group.a_base, c) + acts[-1]

    xs = _network_forward(group, source, theta)
    deltas = xs[:, group.n_sub :: group.n_sub] - group.targets  # (E, S, k)
    loss = float(np.einsum("esk,k->", deltas * deltas, weights))

    grad_w = [np.zeros_like(w) for w in source.weights]
    grad_b = [np.zeros_like(b) for b in source.biases]

    def f_vjp(c, u):
        """VJP of F(x) = A x + net(x) at c; accumulates parameter grads."""
        acts = _net_forward_acts(source, c)
        gx = np.einsum("eij,ej->ei", a_t, u)
        return gx + _net_vjp(source, acts, u, grad_w, grad_b)

    # Reverse sweep with per-stage adjoints of the RK4 update.
    lam = np.zeros((e_count, k))
    for n in range(n_steps, 0, -1):
        if n % group.n_sub == 0:
            lam = lam + 2.0 * weights * deltas[:, n // group.n_sub - 1]
        x = xs[:, n - 1]
        acts1 = _net_forward_acts(source, x)
        k1 = f_from_acts(x, acts1)
        c2 = x + 0.5 * h * k1
        acts2 = _net_forward_acts(source, c2)
        k2 = f_from_acts(c2, acts2)
        c3 = x + 0.5 * h * k2
        c4 = x + h * f_from_acts(c3, _net_forward_acts(source, c3))

        b4 = (h / 6.0) * lam
        q4 = f_vjp(c4, b4)
        b3 = (h / 3.0) * lam + h * q4
        q3 = f_vjp(c3, b3)
        b2 = (h / 3.0) * lam + 0.5 * h * q3
        q2 = f_vjp(c2, b2)
        b1 = (h / 6.0) * lam + 0.5 * h * q2
        q1 = f_vjp(x, b1)
        lam = lam + q1 + q2 + q3 + q4

    parts = []
    for gw, gb in zip(grad_w, grad_b):
        parts.append(gw.reshape(-1))
        parts.append(gb)
    return loss, np.concatenate(parts)


# -- public loss / gradient ------------------------------------------------------


def _evaluate(
    compiled: _Compiled,
    theta: np.ndarray,
    template,
    subset: set[str] | None,
    want_grad: bool,
) -> tuple[float, np.ndarray | None]:
    source = None if template is None else template.with_params(theta)
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
            total += _group_loss(sub, source, theta, compiled.weights)
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
        delta = _group_samples(group, source, source.pack()) - group.targets
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

    def eval_loss(th, subset=None):
        value, _ = _evaluate(compiled, th, ansatz, subset, want_grad=False)
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
            try:
                f_new = eval_loss(cand)
            except DivergenceError:
                step *= 0.5
                continue
            if f_new <= f_cur + config.armijo_c * step * slope:
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
