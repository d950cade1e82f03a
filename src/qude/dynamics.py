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
change. Nonlinear networks take the stage-by-stage step loop.

Both engines are batched over experiments: ``grid_groups`` stacks the base
generators and initial states of the experiments that share a sample grid,
and each group is propagated in one call.
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

    def times_us(self, include_t0: bool = False) -> np.ndarray:
        """Output grid; starts at sample_dt unless t=0 is requested."""
        start = 0 if include_t0 else 1
        return np.arange(start, self.n_samples + 1) * (self.sample_dt_ns * 1e-3)

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


def rhs(dev: DeviceModel, exp: Experiment, source, rho: np.ndarray, t_us: float = 0.0) -> np.ndarray:
    """Time derivative of rho under the (possibly augmented) master equation.

    ``source`` is None for the base model, or any object from qude.models. A
    structure-preserving source folds its Hermitian part into the commutator
    and adds its dissipator; network sources add their output directly. Both
    are expressed through the source protocol ``hermitian_shift()`` /
    ``residual_term(rho)``.
    """
    qcore.assert_hermitian(rho, 1e-9, "rhs() state")
    h = hamiltonian(dev, exp)
    if source is not None:
        shift = source.hermitian_shift()
        if shift is not None:
            h = h + shift
    out = -1j * (h @ rho - rho @ h) + lindblad_dissipator(dev, rho)
    if source is not None:
        out = out + source.residual_term(rho)
    return out


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
        cols.append(qcore.expand(rhs(dev, exp, None, el), basis, check=False))
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


@dataclass(frozen=True, eq=False)
class GridGroup:
    """Experiments that share one sample grid, stacked for batched propagation."""

    indices: list[int]  # positions in the caller's experiment list
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


def integrate_many(
    dev: DeviceModel,
    experiments: list[Experiment],
    source=None,
    dt_internal_ns: float = DEFAULT_DT_INTERNAL_NS,
) -> list[Trajectory]:
    """``integrate_rk4`` for each experiment, one batched propagation per grid group.

    Sources linear in the state take the doubling engine, nonlinear networks
    the batched step loop. Raises DivergenceError, with the experiment and the
    time reached, if a state leaves the finite range.
    """
    basis = qcore.hermitian_basis(dev.dim)
    trajectories: list[Trajectory] = [None] * len(experiments)
    for g in grid_groups(dev, experiments, dt_internal_ns):
        if source is None or source.is_linear:
            d_step = rk4_step_increment(augmented_generator(g.a_base, source), g.h_us)
            increments = power_increments(d_step, g.n_sub, g.n_samples)
            x0 = np.concatenate([g.x0, np.ones((len(g.indices), 1))], axis=1)
            xs = propagate_linear(increments, x0, g.n_samples)[..., :-1]
        else:
            steps = propagate_network(g.a_base, source, g.x0, g.h_us, g.n_samples * g.n_sub)
            xs = steps[:, g.n_sub - 1 :: g.n_sub]
        for i, x in zip(g.indices, xs):
            times = experiments[i].times_us()
            finite = np.all(np.isfinite(x), axis=1)
            if not np.all(finite):
                bad = float(times[np.argmin(finite)])
                raise DivergenceError("state became non-finite", bad, experiments[i].id)
            trajectories[i] = Trajectory(times_us=times, states=qcore.reconstruct_many(x, basis))
    return trajectories


def integrate_rk4(
    dev: DeviceModel,
    exp: Experiment,
    source=None,
    dt_internal_ns: float = DEFAULT_DT_INTERNAL_NS,
    include_t0: bool = False,
) -> Trajectory:
    """Fixed-step RK4 from t=0, recording states at every sample instant.

    Deterministic given its inputs. Raises DivergenceError (with the time
    reached) if the state leaves the finite range, and ValueError if the
    internal step does not divide the sample step.
    """
    (traj,) = integrate_many(dev, [exp], source, dt_internal_ns)
    if include_t0:
        rho0 = exp.initial_density(dev.dim)
        traj = Trajectory(
            times_us=np.concatenate(([0.0], traj.times_us)),
            states=np.concatenate((rho0[None, :, :], traj.states)),
        )
    return traj
