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
of S (see qude.dynamics), so dL/dS = sum_s lam_s x_{s-1}^T. S is a matrix
polynomial of the generator M, whose derivative at X in direction E is the
upper-right block of S([[X, E], [0, X]]) (Mathias, SIAM J. Matrix Anal.
Appl. 17, 1996): the forward's own polynomial of [[M^T, dL/dS], [0, M^T]]
gives dL/dM, and ``coeff_affine_vjp`` takes it to the parameters.

Nonlinear networks run ``dynamics.network_chunks``: the loss is the sum of
its Newton windows' losses, and the reverse sweep walks back over the same
windows. The forward corrects most windows with one carried window-mean
Jacobian by the doubling scan and forms the step Jacobians about once per
forward; the adjoint needs every step's own. From a window's states the
bulk RK4 step of the forward (``dynamics.rk4_stages`` / ``rk4_increment``)
rebuilds the four stages' layer inputs and each step's Jacobian increment
D_n = dx_n/dx_{n-1} - I; then lam_{n-1} = (I + D_n^T) lam_n (plus dl/dx on
sample steps) runs step by step (``dynamics.tangent_recurrence``), and the
stage adjoints are pushed through the network, its tanh derivatives
1 - a * a formed from the layer inputs a, and contracted with the layer
inputs for the whole window at once. The test suite checks both
engines' gradients against central finite differences of the same loss.

A ``Problem`` compiles the train split once into grid groups with their
targets, and each of ``fit``, ``loss``, ``gradient`` and ``split_losses``
builds one. Both engines take their forward from qude.dynamics, the one
prediction uses, so evaluating a group is that forward followed by the
adjoint on its states.

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
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import dynamics, models, qcore
from .dynamics import DeviceModel, DivergenceError, Experiment, in_train_split
from .tomography import RecordBlock

MODE_EXP_GEN = "exp-gen"
MODE_EXP_SPEC = "exp-spec"
MODES = (MODE_EXP_GEN, MODE_EXP_SPEC)

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

    The one record gate: experiment ids are unique, blocks are sorted by time,
    then a block off its sample grid (``Experiment.off_grid``), empty below the
    train horizon or past the total horizon is rejected. Record i of a block is
    thus sample i + 1. Every consumer compares against the blocks' ``rho_hat``,
    so each accepted block's reconstruction is formed here, once.
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
        ids = [exp.id for exp, _ in self.experiments]
        for exp, block in self.experiments:
            if ids.count(exp.id) > 1:
                raise ValueError(f"experiment id {exp.id!r} is repeated")
            if exp.off_grid(block.times_us).any():
                raise ValueError(f"experiment {exp.id} records are not a contiguous sample grid")
            if not in_train_split(block.times_us[:1], self.train_horizon_us).any():
                raise ValueError(f"experiment {exp.id} has no records inside the train "
                                 f"horizon {self.train_horizon_us} us")
            if not in_train_split(block.times_us, self.total_horizon_us).all():
                raise ValueError(f"experiment {exp.id} has records past {self.total_horizon_us} us")
            block.rho_hat  # formed on entry, as the docstring says

    def restrict(self, experiment_id: str | None) -> "Dataset":
        """View containing a single experiment (Experiment-Specific mode).

        No id (None or empty) picks the first experiment. A dataset that holds
        only that experiment is returned itself, not gated again.
        """
        for exp, block in self.experiments:
            if not experiment_id or exp.id == experiment_id:
                if len(self.experiments) == 1:
                    return self
                return Dataset(
                    [(exp, block)],
                    train_horizon_us=self.train_horizon_us,
                    total_horizon_us=self.total_horizon_us,
                )
        raise ValueError(f"no experiment with id {experiment_id!r} in dataset")


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
        if self.mode not in MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        if not 0 < self.adam_lr < np.inf:
            raise ValueError(f"adam_lr must be positive and finite, got {self.adam_lr}")
        for name, least in (("adam_batch", 1), ("adam_epochs", 0), ("lbfgs_max_iters", 0),
                            ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


class FitRow(NamedTuple):
    """One optimizer iteration; ``elapsed_s`` counts from the start of the fit."""

    phase: str
    loss: float
    grad_norm: float
    elapsed_s: float


@dataclass(eq=False)
class FitResult:
    theta_star: np.ndarray
    rows: list[FitRow]  # one per iteration, in order
    stalled: bool = False

    @property
    def loss_history(self) -> list[float]:
        return [row.loss for row in self.rows]

    @property
    def phases(self) -> list[str]:
        return [row.phase for row in self.rows]

    @property
    def final_loss(self) -> float:
        return self.rows[-1].loss if self.rows else float("nan")


# -- compiled forward problems --------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Group(dynamics.GridGroup):
    """A grid group of the train split with its targets."""

    targets: np.ndarray  # (E, S, k)


def _group_subset(group: _Group, wanted: set[str] | None) -> _Group | None:
    """The members of ``group`` named in ``wanted`` (all if None), or None;
    a subset that covers the whole group is the group itself, not a copy."""
    if wanted is None or wanted.issuperset(group.exp_ids):
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
    """Loss of a group and its forward with the residuals (E, S, k). The linear
    forward is one chain of matrix products, so ``limit`` is checked by the
    caller between groups."""
    m, increments, samples = dynamics.linear_forward(group, source)
    delta = samples[..., :-1] - group.targets
    return _sq_loss(delta, weights), (m, increments, samples, delta)


def _linear_grad(group: _Group, source, weights: np.ndarray, forward) -> np.ndarray:
    m, increments, samples, delta = forward
    x0 = np.concatenate([group.x0, np.ones((len(group.x0), 1))], axis=1)
    states = np.concatenate([x0[:, None, :], samples], axis=1)

    # Sample adjoints lam_s = S^T lam_{s+1} + dl/dx_s by the log-depth scan,
    # then dL/dS = sum_s lam_s x_{s-1}^T as one batched product.
    g = np.zeros(samples.shape)
    np.multiply(delta, 2.0 * weights, out=g[..., :-1])
    lam = dynamics.adjoint_scan(increments, g)
    p_s = lam.swapaxes(-1, -2) @ states[:, :-1, :]

    # dL/dM, the derivative of S = R(hM)^n_sub at M^T in the direction dL/dS, is
    # the upper-right block of the same polynomial of [[M^T, dL/dS], [0, M^T]];
    # then on to the parameters through M = [[A + W, b], [0, 0]].
    kk, m_t = m.shape[-1], m.swapaxes(-1, -2)
    block = np.zeros((len(m), 2 * kk, 2 * kk))
    block[:, :kk, :kk] = block[:, kk:, kk:] = m_t
    block[:, :kk, kk:] = p_s
    step = dynamics.rk4_step_increment(block, group.h_us)
    q = dynamics.power_increments(step, group.n_sub, 1)[0][..., :kk, kk:].sum(axis=0)
    return source.coeff_affine_vjp(q[:-1, :-1], q[:-1, -1])


# -- network engine (nonlinear sources) -------------------------------------------

def _network_loss(
    group: _Group, source: models.NetworkSource, weights: np.ndarray, limit: float = np.inf
):
    """Loss of a group, the sum of its Newton windows' losses, and the windows
    (lo, hi, states); (inf, None) as soon as the running sum passes ``limit``."""
    n_sub = group.n_sub
    total = 0.0
    windows = []
    for lo, hi, states in dynamics.network_chunks(group, source):
        total += _sq_loss(states[:, n_sub::n_sub] - group.targets[:, lo:hi], weights)
        if total > limit:
            return np.inf, None
        windows.append((lo, hi, states))
    return total, windows


def _network_grad(
    group: _Group, source: models.NetworkSource, weights: np.ndarray, windows: list
) -> np.ndarray:
    h, n_sub = group.h_us, group.n_sub
    last, k = source.n_layers - 1, group.x0.shape[-1]
    grad_w = [np.zeros_like(w) for w in source.weights]
    grad_b = [np.zeros_like(b) for b in source.biases]
    lam = np.zeros_like(group.x0)
    for lo, hi, states in reversed(windows):
        _, stages = dynamics.rk4_stages(group.a_base, source, h, states[:, :-1])
        d_step = dynamics.rk4_increment(group.a_base, source, h, stages)
        # D_n^T of the window's steps, last step first.
        d_t = np.ascontiguousarray(np.swapaxes(d_step, -1, -2)[::-1])

        # dl/dx_n of the window's steps, nonzero on sample steps, step-major.
        g = np.zeros((states.shape[1] - 1,) + group.x0.shape)
        g[n_sub - 1 :: n_sub] = np.swapaxes(
            2.0 * weights * (states[:, n_sub::n_sub] - group.targets[:, lo:hi]), 0, 1)

        # lam_n = dL/dx_n for the window's steps, walking back by
        # lam_{n-1} = (I + D_n^T) lam_n + dl/dx_{n-1}; lam carries
        # (I + D^T) lam in from the first step of the window after.
        r = g[::-1]
        r[0] += lam
        lams = dynamics.tangent_recurrence(d_t[:-1], r)
        lam = lams[-1] + (d_t[-1] @ lams[-1][..., None])[..., 0]
        lams = np.swapaxes(lams[::-1], 0, 1)  # (E, C, k), the window's steps in order

        # Stage adjoints of the RK4 update, last stage first, and each layer's
        # output gradient contracted with its inputs over the whole window.
        q = None
        for ins, c_lam, c_q in zip(
            reversed(stages), (h / 6.0, h / 3.0, h / 3.0, h / 6.0), (None, h, 0.5 * h, 0.5 * h)
        ):
            u = c_lam * lams if q is None else c_lam * lams + c_q * q
            delta = u
            for l in range(last, -1, -1):
                if l < last:  # through the tanh whose output is layer l + 1's input
                    a = ins[l + 1]
                    delta = delta * (1.0 - a * a)
                grad_w[l] += delta.reshape(-1, k).T @ ins[l].reshape(-1, k)
                grad_b[l] += delta.sum(axis=(0, 1))
                delta = delta @ source.weights[l]
            q = delta + u @ group.a_base  # A^T u, row-wise

    parts = []
    for gw, gb in zip(grad_w, grad_b):
        parts.append(gw.reshape(-1))
        parts.append(gb)
    return np.concatenate(parts)


# -- the compiled problem and the public loss / gradient -------------------------


class Problem:
    """The training loss of one dataset, compiled once: ``groups``, the train
    split's grid groups with their targets, and ``weights``, the Frobenius
    weights of the coefficient basis. Evaluating leaves nothing behind, so one
    Problem serves every loss and gradient of a fit, an oracle or a probe."""

    def __init__(self, dataset: Dataset, dev: DeviceModel,
                 dt_internal_ns: float = dynamics.DEFAULT_DT_INTERNAL_NS):
        basis = qcore.hermitian_basis(dev.dim)
        experiments = [exp for exp, _ in dataset.experiments]
        targets = []
        for exp, block in dataset.experiments:
            keep = in_train_split(block.times_us, dataset.train_horizon_us)
            targets.append(qcore.expand_many(block.rho_hat[keep], basis))
        self.groups = [
            _Group(**vars(g), targets=np.stack([targets[i] for i in g.indices]))
            for g in dynamics.grid_groups(dev, experiments, dt_internal_ns, [len(t) for t in targets])
        ]
        self.weights = basis.gram_norms.astype(float)  # (k,)

    def evaluate(
        self,
        theta: np.ndarray,
        template,
        subset: set[str] | None = None,
        want_grad: bool = True,
        bound: float = np.inf,
    ) -> tuple[float, np.ndarray | None]:
        """Loss and gradient summed over the groups, each group propagated
        once; ``subset`` names the experiments to include (all if None).

        A loss evaluation returns inf as soon as its running total, a sum of
        non-negative terms, passes ``bound`` by more than BOUND_MARGIN relative:
        the full loss is then above the bound too, whatever the rounding of the
        partial sums. The linear engine checks between groups, the network
        engine after each Newton window; a loss that stays inside is
        computed exactly as without a bound. The gradient comes from the adjoint
        on the same forwards, and only when the loss is not above ``bound``, so
        a rejected line-search candidate pays no adjoint.
        """
        theta = np.asarray(theta, dtype=float)
        source = None if template is None else template.with_params(theta)
        linear = template is None or template.is_linear
        group_loss = _linear_loss if linear else _network_loss
        limit = bound + BOUND_MARGIN * abs(bound)
        total = 0.0
        forwards = []
        for group in self.groups:
            sub = _group_subset(group, subset)
            if sub is None:
                continue
            value, forward = group_loss(sub, source, self.weights, limit - total)
            total += value
            if total > limit:
                return np.inf, None
            forwards.append((sub, forward))
        if not want_grad or template is None or total > bound:
            return total, None
        group_grad = _linear_grad if linear else _network_grad
        grad = np.zeros_like(theta)
        for sub, forward in forwards:
            grad += group_grad(sub, source, self.weights, forward)
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
    return Problem(dataset, dev, dt_internal_ns).evaluate(theta, ansatz, want_grad=False)[0]


def gradient(
    theta: np.ndarray,
    dataset: Dataset,
    dev: DeviceModel,
    ansatz,
    dt_internal_ns: float = dynamics.DEFAULT_DT_INTERNAL_NS,
) -> np.ndarray:
    """Discrete-adjoint gradient of the training loss with respect to the packed parameters."""
    if ansatz is None:
        raise ValueError("the base model has no trainable parameters")
    return Problem(dataset, dev, dt_internal_ns).evaluate(theta, ansatz)[1]


def split_losses(
    dataset: Dataset,
    dev: DeviceModel,
    source,
    dt_internal_ns: float = dynamics.DEFAULT_DT_INTERNAL_NS,
) -> tuple[float, float]:
    """Unfiltered squared-Frobenius losses of ``source`` over the train and
    the validation records, from the training engine run over all records."""
    whole = Dataset(dataset.experiments, dataset.total_horizon_us, dataset.total_horizon_us)
    problem = Problem(whole, dev, dt_internal_ns)
    train_loss = val_loss = 0.0
    for group in problem.groups:
        delta = dynamics.group_samples(group, source) - group.targets
        sq = np.einsum("esk,k->es", delta * delta, problem.weights)
        times = group.dt_us * np.arange(1, group.n_samples + 1)
        in_train = in_train_split(times, dataset.train_horizon_us)
        train_loss += float(sq[:, in_train].sum())
        val_loss += float(sq[:, ~in_train].sum())
    return train_loss, val_loss


# -- optimizers -------------------------------------------------------------------


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a 1-D float vector, as ``np.linalg.norm`` computes it."""
    return float(np.sqrt(v.dot(v)))


def _two_loop_direction(grad: np.ndarray, pairs: deque) -> np.ndarray:
    """The L-BFGS direction -H grad from the kept pairs (s, y, rho = 1 / (y^T s)),
    oldest first."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= a * y
    alphas.reverse()
    if pairs:
        s, y, _ = pairs[-1]
        q *= float(np.dot(s, y)) / float(np.dot(y, y))
    for (s, y, rho), a in zip(pairs, alphas):
        beta = rho * float(np.dot(y, q))
        q += (a - beta) * s
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

    problem = Problem(dataset, dev, config.dt_internal_ns)
    exp_ids = [exp.id for exp, _ in dataset.experiments]
    theta = ansatz.pack().astype(float)

    rows: list[FitRow] = []

    def record(phase: str, value: float, grad: np.ndarray) -> None:
        elapsed = time.perf_counter() - t_start
        rows.append(FitRow(phase, value, _norm(grad), elapsed))

    # Phase 1: ADAM over mini-batches of whole experiments.
    rng = np.random.default_rng(config.seed)
    batch_size = min(config.adam_batch, len(exp_ids))
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step_count = 0
    for _ in range(config.adam_epochs):
        order = rng.permutation(len(exp_ids))
        for lo in range(0, len(exp_ids), batch_size):
            subset = {exp_ids[i] for i in order[lo : lo + batch_size]}
            value, grad = problem.evaluate(theta, ansatz, subset)
            step_count += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**step_count)
            v_hat = v / (1.0 - ADAM_BETA2**step_count)
            theta = theta - config.adam_lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            record("adam", value, grad)

    # Hand off on a full-batch evaluation so the phase boundary is comparable.
    f_cur, g_cur = problem.evaluate(theta, ansatz)
    record("adam", f_cur, g_cur)

    # Phase 2: full-batch L-BFGS with backtracking line search.
    best_theta = theta.copy()
    best_f = f_cur
    stalled = False
    pairs: deque = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / (y^T s)), rho formed once
    for _ in range(config.lbfgs_max_iters):
        gnorm = float(np.max(np.abs(g_cur)))
        if gnorm <= LBFGS_GRAD_TOL * (1.0 + abs(f_cur)):
            break
        direction = _two_loop_direction(g_cur, pairs)
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
                f_new, g_new = problem.evaluate(cand, ansatz, bound=armijo)
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
        if float(np.dot(s, y)) > 1e-12 * (_norm(s) * _norm(y)):
            pairs.append((s, y, 1.0 / float(np.dot(y, s))))
        theta = cand
        f_cur, g_cur = f_new, g_new
        if f_cur < best_f:
            best_f = f_cur
            best_theta = theta.copy()
        record("lbfgs", f_cur, g_cur)
        if progress <= LBFGS_PROGRESS_TOL * (1.0 + abs(f_cur)):
            break

    return FitResult(theta_star=best_theta, rows=rows, stalled=stalled)
