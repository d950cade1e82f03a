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

Nonlinear networks run ``dynamics.network_chunks``, one Newton window per
dynamics.FORWARD_CHUNK_SAMPLES samples, adding each chunk's part of the
loss as it goes. The reverse sweep walks back REVERSE_CHUNK_STEPS steps at
a time. From the stored states the bulk RK4 step of the forward
(``dynamics.rk4_stages`` / ``rk4_increment``) rebuilds the four stages'
layer inputs and tanh derivatives and each step's Jacobian increment
D_n = dx_n/dx_{n-1} - I; then lam_{n-1} = (I + D_n^T) lam_n (plus dl/dx on
sample steps) runs step by step (``dynamics.tangent_recurrence``), and the
stage adjoints are pushed through the network and contracted with the
layer inputs for the whole chunk at once. Central finite differences are
kept as an independent oracle (``gradient(method="finite_difference")``).

Both engines take their forward from qude.dynamics, the one prediction
uses, so evaluating a group is that forward followed by the adjoint on its
states.

Training runs mini-batch ADAM over whole-experiment batches first, then
full-batch L-BFGS (two-loop recursion, backtracking Armijo line search)
from ADAM's final iterate. The line search evaluates each candidate with
its Armijo bound: the loss is a sum of non-negative terms, so once the
running total is past the bound the candidate is rejected without
finishing the horizon. A candidate that stays inside gets the same loss as
an unbounded evaluation, so the accepted steps do not change, and an
accepted candidate's gradient comes from the same evaluation.
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
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator guard
LBFGS_MEMORY, ARMIJO_C, MIN_STEP = 10, 1e-4, 1e-14  # pairs kept, Armijo fraction, least step
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

    def restrict(self, experiment_id: str | None) -> "Dataset":
        """View containing a single experiment (Experiment-Specific mode).

        No id (None or empty) picks the first experiment.
        """
        for exp, block in self.experiments:
            if not experiment_id or exp.id == experiment_id:
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


@dataclass(frozen=True)
class TrainConfig:
    mode: str = MODE_EXP_GEN
    experiment_id: str | None = None  # exp-spec target; defaults to the first
    adam_lr: float = 1e-3
    adam_epochs: int = 300
    adam_batch: int = 1
    lbfgs_max_iters: int = 200
    dt_internal_ns: float = dynamics.DEFAULT_DT_INTERNAL_NS
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_EXP_GEN, MODE_EXP_SPEC):
            raise ValueError(f"unknown training mode {self.mode!r}")
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
    """A grid group of the train split with its targets."""

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
        _Group(**vars(g), targets=np.stack([targets[i] for i in g.indices]))
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


def _sq_loss(delta: np.ndarray, weights: np.ndarray) -> float:
    """Weighted squared Frobenius distance summed over (E, S, k) residuals."""
    with np.errstate(over="ignore"):  # an overflowing square is past any bound
        return float(np.einsum("esk,k->", delta * delta, weights))


# -- linear engine (base model and sources linear in [x; 1]) ----------------------


def _linear_loss(group: _Group, source, weights: np.ndarray, limit: float = np.inf):
    """Loss of a group and its forward. The linear forward is one chain of
    matrix products, so ``limit`` is checked by the caller between groups."""
    forward = dynamics.linear_forward(group, source)
    return _sq_loss(forward[-1][..., :-1] - group.targets, weights), forward


def _linear_grad(group: _Group, source, weights: np.ndarray, forward) -> np.ndarray:
    m, d, increments, samples = forward
    delta = samples[..., :-1] - group.targets  # (E, S, k)
    x0 = np.concatenate([group.x0, np.ones((len(group.x0), 1))], axis=1)
    states = np.concatenate([x0[:, None, :], samples], axis=1)

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
    return source.coeff_affine_vjp(q_total[:k, :k], q_total[:k, k])


# -- network engine (nonlinear sources) -------------------------------------------

REVERSE_CHUNK_STEPS = 256  # steps whose stage activations are rebuilt at once


def _network_loss(
    group: _Group, source: models.NetworkSource, weights: np.ndarray, limit: float = np.inf
):
    """Loss of a group and its states [x_0, x_1, ..., x_N] after every internal
    step, (E, N+1, k); (inf, None) as soon as the running loss of the samples
    so far passes ``limit``."""
    n_sub = group.n_sub
    xs = np.empty((group.x0.shape[0], group.n_samples * n_sub + 1, group.x0.shape[1]))
    xs[:, 0] = group.x0
    running = 0.0
    for lo, hi, steps in dynamics.network_chunks(group, source):
        xs[:, lo * n_sub + 1 : hi * n_sub + 1] = steps
        running += _sq_loss(steps[:, n_sub - 1 :: n_sub] - group.targets[:, lo:hi], weights)
        if running > limit:
            return np.inf, None
    return _sq_loss(xs[:, n_sub::n_sub] - group.targets, weights), xs


def _network_grad(
    group: _Group, source: models.NetworkSource, weights: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    h, n_sub = group.h_us, group.n_sub
    # dl/dx_n of every step n = 1..N, nonzero on sample steps, step-major.
    g = np.zeros((xs.shape[1] - 1,) + group.x0.shape)
    g[n_sub - 1 :: n_sub] = np.swapaxes(2.0 * weights * (xs[:, n_sub::n_sub] - group.targets), 0, 1)

    last, k = source.n_layers - 1, group.x0.shape[-1]
    grad_w = [np.zeros_like(w) for w in source.weights]
    grad_b = [np.zeros_like(b) for b in source.biases]
    lam = np.zeros_like(group.x0)
    for hi in range(xs.shape[1] - 1, 0, -REVERSE_CHUNK_STEPS):
        lo = max(hi - REVERSE_CHUNK_STEPS, 0)
        _, stages = dynamics.rk4_stages(group.a_base, source, h, xs[:, lo:hi])
        d_step = dynamics.rk4_increment(group.a_base, source, h, stages)
        # D_n^T of the chunk's steps n = hi, hi-1, ..., lo+1.
        d_t = np.ascontiguousarray(np.swapaxes(np.moveaxis(d_step, 1, 0), -1, -2)[::-1])

        # lam_n = dL/dx_n for the chunk's steps, walking back by
        # lam_{n-1} = (I + D_n^T) lam_n + dl/dx_{n-1}; lam carries
        # (I + D_{hi+1}^T) lam_{hi+1} in from the chunk after.
        r = g[lo:hi][::-1].copy()
        r[0] += lam
        lams = dynamics.tangent_recurrence(d_t[:-1], r)
        lam = lams[-1] + (d_t[-1] @ lams[-1][..., None])[..., 0]
        lams = np.swapaxes(lams[::-1], 0, 1)  # (E, C, k), steps lo+1..hi

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
                grad_w[l] += delta.reshape(-1, k).T @ ins[l].reshape(-1, k)
                grad_b[l] += delta.sum(axis=(0, 1))
                delta = delta @ source.weights[l]
            q = delta + u @ group.a_base  # A^T u, row-wise

    parts = []
    for gw, gb in zip(grad_w, grad_b):
        parts.append(gw.reshape(-1))
        parts.append(gb)
    return np.concatenate(parts)


# -- public loss / gradient ------------------------------------------------------


def _evaluate(
    compiled: _Compiled,
    theta: np.ndarray,
    template,
    subset: set[str] | None,
    want_grad: bool = True,
    bound: float = np.inf,
) -> tuple[float, np.ndarray | None]:
    """Loss and gradient summed over the groups, each group propagated once.

    A loss evaluation returns inf as soon as its running total, a sum of
    non-negative terms, passes ``bound`` by more than BOUND_MARGIN relative:
    the full loss is then above the bound too, whatever the rounding of the
    partial sums. The linear engine checks between groups, the network
    engine every dynamics.FORWARD_CHUNK_SAMPLES samples; a loss that stays inside is
    computed exactly as without a bound. The gradient comes from the adjoint
    on the same forwards, and only when the loss is not above ``bound``, so
    a rejected line-search candidate pays no adjoint.
    """
    source = None if template is None else template.with_params(theta)
    linear = template is None or template.is_linear
    group_loss = _linear_loss if linear else _network_loss
    limit = bound + BOUND_MARGIN * abs(bound)
    total = 0.0
    forwards = []
    for group in compiled.groups:
        sub = _group_subset(group, subset)
        if sub is None:
            continue
        value, forward = group_loss(sub, source, compiled.weights, limit - total)
        total += value
        if total > limit:
            return np.inf, None
        forwards.append((sub, forward))
    if not want_grad or template is None or total > bound:
        return total, None
    group_grad = _linear_grad if linear else _network_grad
    grad = np.zeros_like(theta)
    for sub, forward in forwards:
        grad += group_grad(sub, source, compiled.weights, forward)
    if not np.all(np.isfinite(grad)):
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
        delta = dynamics.group_samples(group, source) - group.targets
        sq = np.einsum("esk,k->es", delta * delta, compiled.weights)
        times = group.dt_us * np.arange(1, group.n_samples + 1)
        in_train = in_train_split(times, dataset.train_horizon_us)
        train_loss += float(sq[:, in_train].sum())
        val_loss += float(sq[:, ~in_train].sum())
    return train_loss, val_loss


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
        return _evaluate(compiled, theta, ansatz, None)[1]
    if method == GRAD_FINITE_DIFFERENCE:
        grad = np.empty_like(theta)
        for i in range(theta.size):
            step = FD_RELATIVE_STEP * (1.0 + abs(theta[i]))
            up = theta.copy()
            up[i] += step
            down = theta.copy()
            down[i] -= step
            up_loss, down_loss = (_evaluate(compiled, th, ansatz, None, want_grad=False)[0]
                                  for th in (up, down))
            grad[i] = (up_loss - down_loss) / (2.0 * step)
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
        dataset = dataset.restrict(config.experiment_id)

    compiled = _compile(dataset, dev, config.dt_internal_ns)
    exp_ids = [exp.id for exp, _ in dataset.experiments]
    theta = ansatz.pack().astype(float)

    def evaluate(th, subset=None, bound=np.inf):
        return _evaluate(compiled, th, ansatz, subset, bound=bound)

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
            value, grad = evaluate(theta, subset)
            step_count += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**step_count)
            v_hat = v / (1.0 - ADAM_BETA2**step_count)
            theta = theta - config.adam_lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            record("adam", value, grad)

    # Hand off on a full-batch evaluation so the phase boundary is comparable.
    f_cur, g_cur = evaluate(theta)
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
        while step >= MIN_STEP:
            cand = theta + step * direction
            armijo = f_cur + ARMIJO_C * step * slope
            try:
                f_new, g_new = evaluate(cand, bound=armijo)
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
        s = step * direction
        y = g_new - g_cur
        if float(np.dot(s, y)) > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > LBFGS_MEMORY:
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

    return FitResult(
        theta_star=best_theta,
        loss_history=losses,
        grad_norm_history=grad_norms,
        phases=phases,
        elapsed_s=elapsed,
        wall_time_s=time.perf_counter() - t_start,
        stalled=stalled,
    )
