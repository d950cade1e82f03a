"""Fitting source terms to tomography data.

The loss is the summed squared Frobenius distance between predicted and
reconstructed states over the train-split records of every in-scope
experiment; predictions integrate the augmented equation with the same
fixed-step RK4 discretization used everywhere else (see qude.dynamics), and
are not spectral-filtered during training.

A ``Problem`` compiles the train split (``split_losses``: every record)
once into grid groups with their targets, and each of ``fit``, ``loss``,
``gradient`` and ``split_losses`` builds one. Evaluating a group runs its ``dynamics.GroupForward``, the
forward prediction uses, window by window into one residual array; the
gradient, exact for the discretized loss, is the forward's pullback of that
array scaled in place to dl/dx = 2 w (x - x_hat). The test suite checks it
against central finite differences of the same loss.

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
from collections import Counter, deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import dynamics, qcore
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
        uses = Counter(exp.id for exp, _ in self.experiments)
        for exp, block in self.experiments:
            if uses[exp.id] > 1:
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


# -- the compiled problem and the public loss / gradient -------------------------


class Problem:
    """The loss of one dataset's records up to ``horizon_us`` (the train split by
    default), compiled once: ``groups``, their grid groups with targets, and
    ``weights``, the Frobenius weights of the coefficient basis. Evaluating leaves
    nothing behind, so one Problem serves every loss and gradient of a fit."""

    def __init__(self, dataset: Dataset, dev: DeviceModel,
                 dt_internal_ns: float = dynamics.DEFAULT_DT_INTERNAL_NS,
                 horizon_us: float | None = None):
        basis = qcore.hermitian_basis(dev.dim)
        experiments = [exp for exp, _ in dataset.experiments]
        targets = []
        for exp, block in dataset.experiments:
            keep = in_train_split(block.times_us, horizon_us or dataset.train_horizon_us)
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
        partial sums. It checks after each window of a group's forward (the
        linear engine has one, the network engine one per Newton window) and
        after each group; a loss that stays inside is computed exactly as
        without a bound. The gradient is the pullback of the same forwards,
        and only when the loss is not above ``bound``, so a rejected
        line-search candidate pays no adjoint.
        """
        theta = np.asarray(theta, dtype=float)
        source = None if template is None else template.with_params(theta)
        limit = bound + BOUND_MARGIN * abs(bound)
        total = 0.0
        pulled = []  # (forward, residuals) of each group
        for group in self.groups:
            sub = _group_subset(group, subset)
            if sub is None:
                continue
            forward = dynamics.GroupForward(sub, source, keep_stages=want_grad)
            delta = np.empty(sub.targets.shape)
            value = 0.0
            for lo, hi, samples in forward:  # the weighted squared Frobenius distance
                window = np.subtract(samples, sub.targets[:, lo:hi], out=delta[:, lo:hi])
                with np.errstate(over="ignore"):  # an overflowing square is past any bound
                    value += float(np.einsum("esk,k->", window * window, self.weights))
                if value > limit - total:
                    return np.inf, None
            total += value
            if total > limit:
                return np.inf, None
            pulled.append((forward, delta))
        if not want_grad or template is None or total > bound:
            return total, None
        grad = np.zeros_like(theta)
        for forward, delta in pulled:
            delta *= 2.0 * self.weights  # g = dl/dx, in place
            grad += forward.pullback(delta)
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
    """Unfiltered squared-Frobenius losses of ``source`` over the train and the
    validation records (split by their own times), one forward over all records."""
    problem = Problem(dataset, dev, dt_internal_ns, dataset.total_horizon_us)
    train_loss = val_loss = 0.0
    for group in problem.groups:
        delta = dynamics.group_samples(group, source) - group.targets
        sq = np.einsum("esk,k->es", delta * delta, problem.weights)
        in_train = np.stack([in_train_split(dataset.experiments[i][1].times_us,
                                            dataset.train_horizon_us) for i in group.indices], 1)
        train_loss += float(sq.T[in_train].sum())  # (S, E): summed sample by sample
        val_loss += float(sq.T[~in_train].sum())
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
