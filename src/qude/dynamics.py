"""Baseline and augmented equations of motion, and their RK4 integration.

Units: time in microseconds throughout. Device frequencies are entered in
GHz, drive amplitudes in MHz (both ordinary frequencies); they are scaled by
2*pi internally so the assembled Hamiltonian is in rad/us. With an in-phase
amplitude p (MHz) and a resonant rotating frame this pins the Rabi period of
the ground-to-excited population to 1/(2p) us.

Integration runs in the coefficient space of the elementary Hermitian basis:
a Hermitian state maps to a real vector x with rho = sum_i x_i H_i, and the
right-hand side becomes A x + W x + b for a source that is affine in the
state (the structure-preserving source with b = 0, identity-activation
networks) or A x + net(x) for a nonlinear network. Affine right-hand sides
are made linear on the augmented state [x; 1] with the generator
G = [[A + W, b], [0, 0]] (Van Loan's augmentation), so the base model and
every linear source take one path. There the classic four-stage Runge-Kutta
step collapses to a constant matrix R = sum_{m<=4} (h G)^m / m!, the
sample-to-sample map is S = R^n_sub, and x_s = S^s x_0 is computed by
doubling: block [m, 2m) of the sample states is S^m applied to block
[0, m), so n samples cost about log2(n) batched matrix products. The
adjoint recurrence lam_s = S^T lam_{s+1} + g_s of the training code runs
over the same powers as a log-depth scan. Powers are carried as increments
S^d - I so that the identity does not round away the small per-step
change.

Nonlinear networks are solved by Newton's method in time (DEER: Lim et
al., ICLR 2024), one window of FORWARD_CHUNK_SAMPLES samples at a time.
Every step x_n = F(x_{n-1}) of the current iterate and its Jacobian
increment D_n = dF/dx - I are evaluated in bulk (``rk4_stages``,
``rk4_increment``), and the tangent recurrence
delta_n = (I + D_n) delta_{n-1} + F(x_{n-1}) - x_n corrects the iterate.
The first iterate is the base-model trajectory from the window's start
state, propagated by doubling, and the window is done once
max |F(x_{n-1}) - x_n| is within NEWTON_TOL_ULPS ulp of the largest state,
experiment by experiment. A window that does not converge in
NEWTON_MAX_ITERS evaluations, or whose iterate is not finite, is run again
by the stage-by-stage step loop ``propagate_network`` from the same start
state, so a diverging trajectory is reported at the loop's sample. The
converged states agree with the step loop to rounding, not bit for bit.

Both engines are batched over experiments: ``grid_groups`` stacks the base
generators and initial states of the experiments that share a sample grid.
``linear_forward`` and ``network_chunks`` are the only forwards of a group;
prediction (``integrate_many``) and training (qude.train) both run them,
and ``check_finite`` is their one divergence check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import qcore

TWO_PI = 2.0 * np.pi

BASE_LVN = "lvn"
BASE_LINDBLAD = "lindblad"

DEFAULT_DT_INTERNAL_NS = 4.0


class DivergenceError(RuntimeError):
    """Trajectory left the finite range during integration."""

    def __init__(self, message: str, time_us: float, experiment_id: str | None = None):
        if experiment_id:
            message = f"{message} (experiment {experiment_id})"
        super().__init__(f"{message} at t = {time_us:.6g} us")
        self.time_us = time_us
        self.experiment_id = experiment_id


@dataclass(frozen=True)
class DeviceModel:
    """Baseline physics of one qubit/qudit.

    ``omega_rot_GHz`` defaults to the transition frequency (resonant frame),
    which makes the drift term of the Hamiltonian vanish.
    """

    omega01_GHz: float
    T1_us: float
    T2_us: float
    base_kind: str = BASE_LINDBLAD
    omega_rot_GHz: Optional[float] = None
    dim: int = 2

    def __post_init__(self):
        if self.base_kind not in (BASE_LVN, BASE_LINDBLAD):
            raise ValueError(f"base_kind must be '{BASE_LVN}' or '{BASE_LINDBLAD}', got {self.base_kind!r}")
        if self.base_kind == BASE_LINDBLAD and (self.T1_us <= 0 or self.T2_us <= 0):
            raise ValueError("Lindblad base model requires T1 > 0 and T2 > 0")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.omega_rot_GHz is None:
            object.__setattr__(self, "omega_rot_GHz", self.omega01_GHz)

    @property
    def tau1(self) -> float:
        """Energy decay rate 1/T1 in 1/us (zero for the LvN base)."""
        return 1.0 / self.T1_us if self.base_kind == BASE_LINDBLAD else 0.0

    @property
    def tau2(self) -> float:
        """Dephasing rate 1/T2 in 1/us (zero for the LvN base)."""
        return 1.0 / self.T2_us if self.base_kind == BASE_LINDBLAD else 0.0


@dataclass(frozen=True, eq=False)
class Experiment:
    """One control setting: a constant square pulse and its sample grid."""

    id: str
    amplitude_p_MHz: float
    duration_us: float
    sample_dt_ns: float
    amplitude_q_MHz: float = 0.0
    initial_state: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.duration_us <= 0:
            raise ValueError("duration_us must be positive")
        if self.sample_dt_ns <= 0:
            raise ValueError("sample_dt_ns must be positive")
        ratio = self.duration_us / (self.sample_dt_ns * 1e-3)
        if abs(ratio - round(ratio)) > 1e-6:
            raise ValueError(
                f"duration ({self.duration_us} us) is not an integer number of "
                f"samples at {self.sample_dt_ns} ns"
            )

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_us / (self.sample_dt_ns * 1e-3)))

    def times_us(self) -> np.ndarray:
        """Output grid sample_dt, 2 sample_dt, ..., duration; t=0 is not a sample."""
        return np.arange(1, self.n_samples + 1) * (self.sample_dt_ns * 1e-3)

    def initial_density(self, dim: int) -> np.ndarray:
        if self.initial_state is None:
            return qcore.ground_state(dim)
        rho0 = np.asarray(self.initial_state, dtype=complex)
        if rho0.shape != (dim, dim):
            raise ValueError(f"initial state shape {rho0.shape} does not match dim {dim}")
        return rho0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded on the output grid."""

    times_us: np.ndarray
    states: np.ndarray  # (n_times, dim, dim) complex

    def __len__(self) -> int:
        return len(self.times_us)


def lowering_operator(dim: int) -> np.ndarray:
    """Truncated annihilation operator; [[0, 1], [0, 0]] for dim=2."""
    a = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        a[k, k + 1] = np.sqrt(k + 1.0)
    return a


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def hamiltonian(dev: DeviceModel, exp: Experiment) -> np.ndarray:
    """Rotating-frame Hamiltonian in rad/us.

    H = 2*pi*(omega01 - omega_rot) a^dag a + 2*pi*p (a + a^dag)
        + 2*pi*q i(a - a^dag), detuning in MHz, amplitudes in MHz.
    Time-independent because the shipped pulses are constant.
    """
    a = lowering_operator(dev.dim)
    ad = qcore.dagger(a)
    detuning_MHz = (dev.omega01_GHz - dev.omega_rot_GHz) * 1e3
    h = TWO_PI * detuning_MHz * (ad @ a)
    h = h + TWO_PI * exp.amplitude_p_MHz * (a + ad)
    h = h + TWO_PI * exp.amplitude_q_MHz * 1j * (a - ad)
    return h


def dissipator(jump: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[L](rho) = L rho L^dag - (L^dag L rho + rho L^dag L) / 2."""
    ld = qcore.dagger(jump)
    ldl = ld @ jump
    return jump @ rho @ ld - 0.5 * (ldl @ rho + rho @ ldl)


def lindblad_dissipator(dev: DeviceModel, rho: np.ndarray) -> np.ndarray:
    """Baseline decoherence: tau1 D[a] + tau2 D[a^dag a]; zero for LvN."""
    if dev.base_kind == BASE_LVN:
        return np.zeros((dev.dim, dev.dim), dtype=complex)
    a = lowering_operator(dev.dim)
    n = number_operator(dev.dim)
    return dev.tau1 * dissipator(a, rho) + dev.tau2 * dissipator(n, rho)


def rhs(dev: DeviceModel, exp: Experiment, rho: np.ndarray) -> np.ndarray:
    """Time derivative of rho under the baseline master equation.

    The physics definition -i[H, rho] + lindblad_dissipator(rho) that
    ``base_generator`` expands column by column. A source enters only in
    coefficient space (qude.models).
    """
    qcore.assert_hermitian(rho, 1e-9, "rhs() state")
    h = hamiltonian(dev, exp)
    return -1j * (h @ rho - rho @ h) + lindblad_dissipator(dev, rho)


# -- coefficient-space engines ------------------------------------------------

def base_generator(dev: DeviceModel, exp: Experiment) -> np.ndarray:
    """Real matrix A with d(x)/dt = A x for the baseline model.

    Columns are the Hermitian-basis coefficients of the baseline right-hand
    side applied to each basis element, so the matrix and the matrix-space
    ``rhs`` agree by construction.
    """
    basis = qcore.hermitian_basis(dev.dim)
    cols = []
    for el in basis.elements:
        cols.append(qcore.expand(rhs(dev, exp, el), basis, check=False))
    return np.stack(cols, axis=1)


def augmented_generator(a_base: np.ndarray, source=None) -> np.ndarray:
    """Generator [[A + W, b], [0, 0]] acting on the augmented state [x; 1].

    ``source`` is None or a linear source with ``coeff_affine()`` = (W, b).
    Batched over the leading axes of ``a_base`` (..., k, k).
    """
    k = a_base.shape[-1]
    g = np.zeros(a_base.shape[:-2] + (k + 1, k + 1))
    g[..., :k, :k] = a_base
    if source is not None:
        w, b = source.coeff_affine()
        g[..., :k, :k] += w
        g[..., :k, k] = b
    return g


def rk4_step_increment(a: np.ndarray, h_us: float) -> np.ndarray:
    """D = R - I = sum_{1<=m<=4} (h A)^m / m! for one RK4 step of x' = A x.

    Kept apart from the identity: rounding R itself would drop the low digits
    of a short step, and that error repeats coherently on every step.
    Batched over the leading axes of A.
    """
    term = h_us * a
    d = term
    for m in range(2, 5):
        term = (h_us / m) * (term @ a)
        d = d + term
    return d


def integration_steps(exp: Experiment, dt_internal_ns: float) -> tuple[int, float]:
    """Validate the internal step and return (substeps per sample, h in us)."""
    if dt_internal_ns <= 0:
        raise ValueError("dt_internal_ns must be positive")
    ratio = exp.sample_dt_ns / dt_internal_ns
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ValueError(
            f"internal step {dt_internal_ns} ns does not evenly divide "
            f"sample step {exp.sample_dt_ns} ns"
        )
    return int(round(ratio)), dt_internal_ns * 1e-3


def power_increments(d_step: np.ndarray, n_sub: int, n_samples: int) -> list[np.ndarray]:
    """Increments E_d = S^d - I, d = 2^i < n_samples (at least E_1), of the
    sample map S = R^n_sub, from the step increment D = R - I.

    Products are formed on increments, (I + E)(I + F) - I = E + F + E F, so
    the identity never absorbs their low digits. Batched over the leading
    axes of ``d_step``. Overflow is left to show up as non-finite states for
    the caller's divergence check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = d_step
        for _ in range(n_sub - 1):
            e = e + d_step + e @ d_step
        increments = [e]
        while 2 ** len(increments) < n_samples:
            increments.append(2.0 * e + e @ e)
            e = increments[-1]
    return increments


def propagate_linear(increments: list[np.ndarray], x0: np.ndarray, n_samples: int) -> np.ndarray:
    """States x_s = S^s x0 for s = 1..n_samples, shape (..., n_samples, k).

    Doubling: block [m, 2m) is S^m applied to block [0, m), with
    S^m - I taken from ``power_increments``; x0 is (..., k) with the same
    leading axes.
    """
    out = np.empty(x0.shape[:-1] + (n_samples, x0.shape[-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        out[..., 0, :] = x0 + (increments[0] @ x0[..., None])[..., 0]
        m = 1
        for e in increments:
            if m >= n_samples:
                break
            count = min(m, n_samples - m)
            block = out[..., :count, :]
            out[..., m : m + count, :] = block + block @ np.swapaxes(e, -1, -2)
            m *= 2
    return out


def adjoint_scan(increments: list[np.ndarray], g: np.ndarray) -> np.ndarray:
    """Solve lam_s = S^T lam_{s+1} + g_s backwards from lam_{n+1} = 0.

    ``g`` is (..., n, k). A log-depth scan: after the round with shift d,
    lam_s holds sum_{j < 2d} (S^T)^j g_{s+j}, by adding (S^T)^d times the
    entry d samples later; S^d - I comes from ``power_increments``.
    """
    lam = g.copy()
    n = g.shape[-2]
    d = 1
    for e in increments:
        if d >= n:
            break
        later = lam[..., d:, :]
        lam[..., : n - d, :] += later + later @ e
        d *= 2
    return lam


def propagate_network(
    a_base: np.ndarray, source, x0: np.ndarray, h_us: float, n_steps: int
) -> np.ndarray:
    """Stage-by-stage RK4 for x' = A x + net(x), batched over experiments.

    The reference step loop, and what ``network_chunks`` runs for a window
    that ``newton_window`` does not solve.
    ``a_base`` is (E, k, k) and ``x0`` (E, k). Returns the state after every
    internal step, (E, n_steps, k); non-finite states are kept for the
    caller's divergence check.
    """

    def f(x):
        return (a_base @ x[..., None])[..., 0] + source.coeff_forward(x)

    out = np.empty((n_steps,) + x0.shape)
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            k1 = f(x)
            k2 = f(x + 0.5 * h_us * k1)
            k3 = f(x + 0.5 * h_us * k2)
            k4 = f(x + h_us * k3)
            x = x + (h_us / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            out[n] = x
    return np.swapaxes(out, 0, 1)


def _transposed(a: np.ndarray) -> np.ndarray:
    """Contiguous transpose of the last two axes; numpy's matmul takes a
    slow path for a transposed view as its second operand."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def _rows(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """z @ w for the last axis of z, as one 2-D product over all leading axes."""
    return (z.reshape(-1, z.shape[-1]) @ w).reshape(z.shape[:-1] + w.shape[-1:])


_RK4_STAGE_STEPS = (0.5, 0.5, 1.0)  # stage input c_{s+1} = x + step_s h k_s


def rk4_stages(a_base: np.ndarray, source, h_us: float, x: np.ndarray):
    """One RK4 step of x' = A x + net(x) from every state of x (E, C, k) at once.

    Returns F(x), the state after each step, and per stage the inputs of
    every layer and the tanh derivatives (None for the identity
    activation); ``rk4_increment`` takes the stages to the step Jacobians.
    """
    a_t = _transposed(a_base)
    w_t = [_transposed(w) for w in source.weights]
    last = len(w_t) - 1
    tanh = not source.is_linear
    stages, slopes = [], []
    c = x
    for s in range(4):
        ins, derivs = [c], []
        z = c
        for l, b in enumerate(source.biases):
            z = _rows(z, w_t[l]) + b
            if l < last:
                if tanh:
                    z = np.tanh(z)
                    derivs.append(1.0 - z * z)
                ins.append(z)
        stages.append((ins, derivs if tanh else None))
        slopes.append(c @ a_t + z)
        if s < 3:
            c = x + (_RK4_STAGE_STEPS[s] * h_us) * slopes[-1]
    k1, k2, k3, k4 = slopes
    return x + (h_us / 6.0) * (k1 + 2.0 * (k2 + k3) + k4), stages


def rk4_increment(a_base: np.ndarray, source, h_us: float, stages) -> np.ndarray:
    """D = dF/dx - I of every step of ``rk4_stages``, (E, C, k, k).

    Stage s has the Jacobian J_s = A + W_L diag(d_{L-1}) W_{L-1} ... diag(d_0) W_0
    and dk_s/dx = J_s P_s, with P_0 = I and P_s = I + step_s h dk_{s-1}/dx.
    They are formed transposed, P^T J^T, and laid out (E, k_in, C, k_out):
    each shared weight then multiplies the rows of one 2-D array over all
    steps, and each diag(d) scales contiguous (C, k_out) blocks.
    """
    a_t = _transposed(a_base)
    w_t = [_transposed(w) for w in source.weights]
    e, c, k = stages[0][0][0].shape  # the first stage's first layer input is x
    eye = np.zeros((e, k, c, k))
    diag = np.arange(k)
    eye[:, diag, :, diag] = 1.0
    slopes = []
    for s, (_, derivs) in enumerate(stages):
        p = eye if s == 0 else (_RK4_STAGE_STEPS[s - 1] * h_us) * slopes[-1] + eye
        q = _rows(p, w_t[0])
        for l in range(1, len(w_t)):
            if derivs is not None:
                q = q * derivs[l - 1][:, None]
            q = _rows(q, w_t[l])
        slopes.append(q + (p.reshape(e, -1, k) @ a_t).reshape(q.shape))
    k1, k2, k3, k4 = slopes
    return np.transpose((h_us / 6.0) * (k1 + 2.0 * (k2 + k3) + k4), (0, 2, 3, 1))


def tangent_recurrence(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """y_0 = r_0 and y_i = (I + d_{i-1}) y_{i-1} + r_i, step-major.

    ``d`` is (n-1, E, k, k) and ``r`` (n, E, k); returns y (n, E, k). One
    batched matrix-vector product per step, written in place.
    """
    y = np.empty(r.shape + (1,))
    r = r[..., None]
    y[0] = r[0]
    prev = y[0]
    for di, ri, cur in zip(d, r[1:], y[1:]):
        np.matmul(di, prev, out=cur)
        cur += prev
        cur += ri
        prev = cur
    return y[..., 0]


NEWTON_MAX_ITERS = 8  # residual evaluations per window before the step loop takes over
# Converged once max |F(x_{n-1}) - x_n| is within this many ulp of an
# experiment's largest state. At the fixed point the residual is the
# rounding of F, measured at up to 2 ulp; the iterate before is typically
# 1e6 ulp or more off.
NEWTON_TOL_ULPS = 4.0


def newton_window(
    a_base: np.ndarray, source, x0: np.ndarray, h_us: float, guess: np.ndarray
) -> np.ndarray | None:
    """The states of ``propagate_network`` over one window, by Newton's method
    in time from ``guess`` (E, L, k); None if it does not converge.

    Each iteration evaluates every step x_n = F(x_{n-1}) of the current
    iterate at once (``rk4_stages``) and stops when, for every experiment,
    the residual max |F(x_{n-1}) - x_n| is within NEWTON_TOL_ULPS ulp of its
    largest state; otherwise it adds the solution of the tangent recurrence
    delta_n = (I + D_n) delta_{n-1} + F(x_{n-1}) - x_n, delta_0 = 0. A
    non-finite iterate, or no convergence in NEWTON_MAX_ITERS evaluations,
    gives None.
    """
    e, n, k = guess.shape
    xs = np.empty((e, n + 1, k))
    xs[:, 0] = x0
    xs[:, 1:] = guess
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITERS):
            f, stages = rk4_stages(a_base, source, h_us, xs[:, :-1])
            residual = f - xs[:, 1:]
            err = np.max(np.abs(residual), axis=(1, 2))
            if not np.all(np.isfinite(err)):
                return None
            scale = np.max(np.abs(xs), axis=(1, 2))
            if np.all(err <= NEWTON_TOL_ULPS * np.finfo(float).eps * scale):
                return xs[:, 1:]
            d = np.moveaxis(rk4_increment(a_base, source, h_us, stages), 1, 0)
            delta = tangent_recurrence(np.ascontiguousarray(d[1:]),
                                       np.ascontiguousarray(np.moveaxis(residual, 1, 0)))
            xs[:, 1:] += np.moveaxis(delta, 0, 1)
    return None


FORWARD_CHUNK_SAMPLES = 64  # samples a network forward propagates per chunk


@dataclass(frozen=True, eq=False)
class GridGroup:
    """Experiments that share one sample grid, stacked for batched propagation."""

    indices: list[int]  # positions in the caller's experiment list
    exp_ids: list[str]
    a_base: np.ndarray  # (E, k, k)
    x0: np.ndarray  # (E, k)
    n_samples: int
    n_sub: int
    h_us: float
    dt_us: float  # sample spacing


def grid_groups(
    dev: DeviceModel,
    experiments: list[Experiment],
    dt_internal_ns: float,
    n_samples: list[int] | None = None,
) -> list[GridGroup]:
    """Group experiments by (samples, substeps per sample, internal step).

    ``n_samples`` overrides each experiment's own sample count (training
    propagates over the train split only). Groups come in sorted grid order,
    members in input order.
    """
    basis = qcore.hermitian_basis(dev.dim)
    buckets: dict[tuple, list[int]] = {}
    for i, exp in enumerate(experiments):
        n_sub, h_us = integration_steps(exp, dt_internal_ns)
        n = exp.n_samples if n_samples is None else n_samples[i]
        buckets.setdefault((n, n_sub, round(h_us, 12)), []).append(i)
    groups = []
    for (n, n_sub, _), indices in sorted(buckets.items()):
        members = [experiments[i] for i in indices]
        groups.append(
            GridGroup(
                indices=indices,
                exp_ids=[exp.id for exp in members],
                a_base=np.stack([base_generator(dev, exp) for exp in members]),
                x0=np.stack([
                    qcore.expand(exp.initial_density(dev.dim), basis, check=False)
                    for exp in members
                ]),
                n_samples=n,
                n_sub=n_sub,
                h_us=integration_steps(members[0], dt_internal_ns)[1],
                dt_us=members[0].sample_dt_ns * 1e-3,
            )
        )
    return groups


def check_finite(samples: np.ndarray, group: GridGroup, first: int = 0) -> None:
    """Raise DivergenceError at the earliest sample of ``samples`` (E, S, k)
    that is not finite, naming the first experiment non-finite there;
    ``samples`` starts at sample index ``first``."""
    finite = np.all(np.isfinite(samples), axis=-1)
    if np.all(finite):
        return
    s = int(np.argmax(~np.all(finite, axis=0)))
    e = int(np.argmax(~finite[:, s]))
    raise DivergenceError("state became non-finite", (first + s + 1) * group.dt_us,
                          group.exp_ids[e])


def linear_forward(group: GridGroup, source=None):
    """The doubling forward of the base model or a linear source over a group.

    Returns the augmented generators M (E, k+1, k+1), the step increments
    D = R - I, the increments of the doubling powers of S = R^n_sub and the
    checked sample states [x_s; 1], s = 1..n_samples, as (E, n_samples, k+1).
    """
    m = augmented_generator(group.a_base, source)
    d = rk4_step_increment(m, group.h_us)
    increments = power_increments(d, group.n_sub, group.n_samples)
    x0 = np.concatenate([group.x0, np.ones((len(group.x0), 1))], axis=1)
    samples = propagate_linear(increments, x0, group.n_samples)
    check_finite(samples, group)
    return m, d, increments, samples


def network_chunks(group: GridGroup, source):
    """The forward of a nonlinear source over a group, one Newton window per chunk.

    Yields (lo, hi, steps) for samples lo..hi-1, FORWARD_CHUNK_SAMPLES at a
    time: ``steps`` (E, (hi - lo) n_sub, k) holds the state after every
    internal step, each chunk starting from the last state of the one before.
    A chunk is solved by ``newton_window`` from the base-model trajectory of
    its start state, or, if that does not converge, by ``propagate_network``.
    Every chunk's samples are checked before it is yielded.
    """
    increments = power_increments(
        rk4_step_increment(group.a_base, group.h_us), 1, FORWARD_CHUNK_SAMPLES * group.n_sub
    )
    x = group.x0
    for lo in range(0, group.n_samples, FORWARD_CHUNK_SAMPLES):
        hi = min(lo + FORWARD_CHUNK_SAMPLES, group.n_samples)
        n_steps = (hi - lo) * group.n_sub
        guess = propagate_linear(increments, x, n_steps)
        steps = newton_window(group.a_base, source, x, group.h_us, guess)
        if steps is None:
            steps = propagate_network(group.a_base, source, x, group.h_us, n_steps)
        check_finite(steps[:, group.n_sub - 1 :: group.n_sub], group, first=lo)
        x = steps[:, -1]
        yield lo, hi, steps


def group_samples(group: GridGroup, source=None) -> np.ndarray:
    """Checked coefficient states on the sample grid of a group, (E, n_samples, k)."""
    if source is None or source.is_linear:
        return linear_forward(group, source)[-1][..., :-1]
    return np.concatenate(
        [steps[:, group.n_sub - 1 :: group.n_sub] for _, _, steps in network_chunks(group, source)],
        axis=1,
    )


def integrate_many(
    dev: DeviceModel,
    experiments: list[Experiment],
    source=None,
    dt_internal_ns: float = DEFAULT_DT_INTERNAL_NS,
) -> list[Trajectory]:
    """``integrate_rk4`` for each experiment, one batched propagation per grid group.

    Raises DivergenceError, with the experiment and the time of the earliest
    non-finite sample of its group, if a state leaves the finite range.
    """
    basis = qcore.hermitian_basis(dev.dim)
    trajectories: list[Trajectory] = [None] * len(experiments)
    for g in grid_groups(dev, experiments, dt_internal_ns):
        for i, x in zip(g.indices, group_samples(g, source)):
            times = experiments[i].times_us()
            trajectories[i] = Trajectory(times_us=times, states=qcore.reconstruct_many(x, basis))
    return trajectories


def integrate_rk4(
    dev: DeviceModel,
    exp: Experiment,
    source=None,
    dt_internal_ns: float = DEFAULT_DT_INTERNAL_NS,
) -> Trajectory:
    """Fixed-step RK4 from t=0, recording states at every sample instant.

    Deterministic given its inputs. Raises DivergenceError (with the time
    reached) if the state leaves the finite range, and ValueError if the
    internal step does not divide the sample step.
    """
    (traj,) = integrate_many(dev, [exp], source, dt_internal_ns)
    return traj
