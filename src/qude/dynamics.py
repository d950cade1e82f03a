"""Baseline and augmented equations of motion, and their RK4 integration.

Units: time in microseconds throughout. Device frequencies are entered in
GHz, drive amplitudes in MHz (both ordinary frequencies); they are scaled by
2*pi internally so the assembled Hamiltonian is in rad/us. With an in-phase
amplitude p (MHz) and a resonant rotating frame this pins the Rabi period of
the ground-to-excited population to 1/(2p) us.

Integration runs in the coefficient space of the elementary Hermitian basis:
a Hermitian state maps to a real vector x with rho = sum_i x_i H_i, and the
right-hand side becomes A x + W x + b for a source that is affine in the
state (the structure-preserving source with b = 0, the one-layer identity
networks) or A x + net(x) for a nonlinear network. Affine right-hand sides
are made linear on the augmented state [x; 1] with the generator
G = [[A + W, b], [0, 0]] (Van Loan's augmentation), so the base model and
every linear source take one path. There the classic four-stage Runge-Kutta
step collapses to a constant matrix R = sum_{m<=4} (h G)^m / m!, the
sample-to-sample map is S = R^n_sub, and x_s = S^s x_0 is computed by
doubling: block [m, 2m) of the sample states is S^m applied to block
[0, m), so n samples cost about log2(n) batched matrix products. Powers
are carried as increments S^d - I so that the identity does not round away
the small per-step change.

Nonlinear networks are solved by Newton's method in time (DEER: Lim et
al., ICLR 2024), one window of FORWARD_CHUNK_SAMPLES samples at a time, the
one cut of the horizon. Every step x_n = F(x_{n-1}) of the current iterate
is evaluated in bulk (``rk4_stages``), and the tangent recurrence
delta_n = (I + D_n) delta_{n-1} + F(x_{n-1}) - x_n corrects the iterate.
While the network works in its near-linear range the Jacobian increments
D_n = dF/dx - I barely move along a window, so the corrections take one
window-mean D_bar per experiment, carried from window to window, and the
recurrence becomes a scan over powers of one matrix: ``adjoint_scan`` on
the time-reversed residual (Blelloch, CMU-CS-90-190). The step increments
(``rk4_increment``, dearer than an evaluation) are formed in the first
window, and again only where a correction shrinks the residual less than
NEWTON_MIN_SHRINK times; that window then corrects with them step by step
(``tangent_recurrence``, a chord method) and D_bar becomes their mean. The
first window starts from the base-model trajectory of its start state,
every later one from the affine map x -> (I + D_bar) x + c_bar fitted to
the window before, both propagated by doubling. A window is done once
max |F(x_{n-1}) - x_n| is within NEWTON_TOL_ULPS ulp of the largest state,
experiment by experiment. A window that does not converge in
NEWTON_MAX_ITERS evaluations, or whose iterate is not finite, is run again
by the step loop ``propagate_network`` from the same start state, so a
diverging trajectory is reported at the loop's sample. The loop applies the
same F (``rk4_stages``) one step at a time, so the network has one layer
loop (``NetworkSource.layers``) and its RK4 step one implementation. The
converged states agree with the step loop to rounding, not bit for bit.

Both engines are batched over experiments: ``grid_groups`` stacks the base
generators and initial states of the experiments that share a sample grid.
``GroupForward`` is the one forward of a group, for prediction
(``integrate_many``) and training (qude.train), and the one place that
picks the engine: it runs ``linear_forward`` or ``network_chunks``, whose
states ``check_finite`` checks, and then their pullback. A pullback is the
discrete adjoint of the RK4 recursion: it maps g = dl/dx at every sample,
for any loss l, to the exact gradient of the packed parameters.
``linear_pullback`` solves lam_s = S^T lam_{s+1} + g_s by a log-depth scan
over the forward's powers (``adjoint_scan``), and dL/dS = sum_s lam_s
x_{s-1}^T. S is a matrix polynomial of the generator M, whose derivative
at X in direction E is the upper-right block of S([[X, E], [0, X]])
(Mathias, SIAM J. Matrix Anal. Appl. 17, 1996): the forward's polynomial of
[[M^T, dL/dS], [0, M^T]] gives dL/dM, and ``coeff_affine_vjp`` the
parameters. ``network_pullback`` needs each step's own Jacobian D_n. A
forward that may be pulled back (``GroupForward`` with ``keep_stages``)
keeps, for every window Newton solved, the stages of its last evaluation,
which were formed at exactly the states it returns, up to
MAX_KEPT_STAGE_BYTES; the pullback rebuilds the stages of any other window
(``rk4_stages``). It walks back over spans of consecutive windows
(``adjoint_spans``), and in each solves lam_{n-1} = (I + D_n^T) lam_n + g_{n-1}
as the forward solves its corrections (Lim et al., ICLR 2024; Blelloch,
CMU-CS-90-190): a scan over powers of the forward's window-mean D_bar
(``adjoint_scan``), refined by sweeps that each take D_n^T lam at every
step at once, by a vector-Jacobian product back through the stages
(``rk4_vjp``), and scan the residual (``window_adjoint``). Where the sweeps
do not contract fast enough, away from the near-linear regime, the span
forms its D_n (``rk4_increment``) and walks back step by step
(``tangent_recurrence``, which also takes the forward's chord corrections).
The stage adjoints of the last sweep go back through the network (its
``slope``) into views of the packed gradient (``layer_gradients``,
``NetworkSource.unpacked``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import qcore

TWO_PI = 2.0 * np.pi

BASE_LVN = "lvn"
BASE_LINDBLAD = "lindblad"
BASE_KINDS = (BASE_LINDBLAD, BASE_LVN)  # the first is the default

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
        for name in ("omega01_GHz", "omega_rot_GHz", "T1_us", "T2_us"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.base_kind not in BASE_KINDS:
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


def in_train_split(times_us, t_tr_us: float):
    """True where a time belongs to the train split: t <= T_Tr.

    The relative 1e-12 margin keeps a record that lies on T_Tr up to grid
    round-off in the train split, and bounds a sample grid by its duration.
    Works on scalars and arrays.
    """
    return np.asarray(times_us) <= t_tr_us * (1.0 + 1e-12)


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
        if not np.isfinite([self.amplitude_p_MHz, self.amplitude_q_MHz]).all():
            raise ValueError("drive amplitudes must be finite")
        for name in ("duration_us", "sample_dt_ns"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        step_us = self.sample_dt_ns * 1e-3
        if step_us == 0.0:
            raise ValueError(f"sample_dt_ns must be a step of more than 0 us, got "
                             f"{self.sample_dt_ns}")
        ratio = self.duration_us / step_us
        if ratio == np.inf:
            raise ValueError(f"duration_us must be a finite number of {self.sample_dt_ns} ns "
                             f"samples, got {self.duration_us}")
        if abs(ratio - round(ratio)) > 1e-6 or round(ratio) < 1:
            raise ValueError(
                f"duration ({self.duration_us} us) is not a positive integer number of "
                f"samples at {self.sample_dt_ns} ns"
            )
        if not in_train_split(self.n_samples * (self.sample_dt_ns * 1e-3), self.duration_us):
            raise ValueError(f"the last sample at {self.sample_dt_ns} ns lies past the "
                             f"duration ({self.duration_us} us)")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_us / (self.sample_dt_ns * 1e-3)))

    def times_us(self) -> np.ndarray:
        """Output grid sample_dt, 2 sample_dt, ..., duration; t=0 is not a sample."""
        return np.arange(1, self.n_samples + 1) * (self.sample_dt_ns * 1e-3)

    def off_grid(self, times_us: np.ndarray) -> np.ndarray:
        """True at each record time whose place in sorted order is not its grid
        point: the sorted times must be sample_dt, 2 sample_dt, ... (to 1e-9 of
        the last), so a gap, a repeat or a time past n_samples is flagged."""
        order = np.argsort(times_us, kind="stable")
        grid = np.arange(1, len(order) + 1) * (self.sample_dt_ns * 1e-3)
        bad = np.empty(len(order), dtype=bool)
        bad[order] = np.abs(times_us[order] - grid) > 1e-9 * grid[-1:]
        bad[order[self.n_samples:]] = True
        return bad

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

    The physics definition -i[H, rho] + lindblad_dissipator(rho), for one
    state (dim, dim) or a stack of states (m, dim, dim), each of which must
    be Hermitian; ``base_generator`` applies it to the whole Hermitian basis
    at once. A source enters only in coefficient space (qude.models).
    """
    qcore.assert_hermitian(rho, 1e-9, "rhs() state")
    h = hamiltonian(dev, exp)
    return -1j * (h @ rho - rho @ h) + lindblad_dissipator(dev, rho)


# -- coefficient-space engines ------------------------------------------------

def base_generator(dev: DeviceModel, exp: Experiment) -> np.ndarray:
    """Real matrix A with d(x)/dt = A x for the baseline model.

    Columns are the Hermitian-basis coefficients of the baseline right-hand
    side applied to each basis element, so the matrix and the matrix-space
    ``rhs`` agree by construction. One ``rhs`` call takes the stacked basis,
    so the Hamiltonian and the dissipators are formed once per experiment.
    """
    basis = qcore.hermitian_basis(dev.dim)
    return qcore.expand_many(rhs(dev, exp, basis.elements), basis).T


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


# The step matrix of a sample is a product of one factor per substep, and a
# network window holds 128 n_sub + 1 states per experiment. The tests use at
# most 100 substeps, so 10**3 leaves a tenfold margin at about 4 MB per qubit
# window; a step of 1e-300 ns would ask for 2e301 factors and never finish.
MAX_SUBSTEPS = 10**3


def integration_steps(exp: Experiment, dt_internal_ns: float) -> tuple[int, float]:
    """Validate the internal step and return (substeps per sample, h in us)."""
    if not 0 < dt_internal_ns < np.inf:
        raise ValueError(f"dt_internal_ns must be positive and finite, got {dt_internal_ns}")
    ratio = exp.sample_dt_ns / dt_internal_ns
    if not ratio < MAX_SUBSTEPS + 0.5:  # inf included, which round() cannot take
        raise ValueError(f"internal step {dt_internal_ns} ns takes more than {MAX_SUBSTEPS} "
                         f"substeps per sample step {exp.sample_dt_ns} ns")
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
            out[..., m : m + count, :] = block + block @ e.swapaxes(-1, -2)
            m *= 2
    return out


def adjoint_scan(increments: list[np.ndarray], g: np.ndarray) -> np.ndarray:
    """Solve lam_s = S^T lam_{s+1} + g_s backwards from lam_{n+1} = 0.

    ``g`` is (..., n, k), solved in place: lam is ``g``, which the caller
    owns and reads no more. A log-depth scan: after the round with shift d,
    lam_s holds sum_{j < 2d} (S^T)^j g_{s+j}, by adding (S^T)^d times the
    entry d samples later; S^d - I comes from ``power_increments``. Every
    round writes its product into one buffer.
    """
    lam = g
    buf = np.empty_like(g)
    n = g.shape[-2]
    d = 1
    for e in increments:
        if d >= n:
            break
        later = lam[..., d:, :]
        step = np.matmul(later, e, out=buf[..., : n - d, :])
        step += later
        lam[..., : n - d, :] += step
        d *= 2
    return lam


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

    Returns F(x), the state after each step, and per stage the layer inputs
    of ``source.layers``; ``rk4_increment`` takes the stages to the step
    Jacobians.
    """
    a_t = _transposed(a_base)
    stages, slopes = [], []
    c = x
    for s in range(4):
        z, ins = source.layers(c)
        stages.append(ins)
        slopes.append(c @ a_t + z)
        if s < 3:
            c = x + (_RK4_STAGE_STEPS[s] * h_us) * slopes[-1]
    k1, k2, k3, k4 = slopes
    return x + (h_us / 6.0) * (k1 + 2.0 * (k2 + k3) + k4), stages


def propagate_network(
    a_base: np.ndarray, source, x0: np.ndarray, h_us: float, n_steps: int
) -> np.ndarray:
    """The step loop: ``rk4_stages`` one step at a time, batched over experiments.

    It iterates the map F whose fixed point ``newton_window`` solves, and is
    what ``network_chunks`` runs for a window that Newton does not solve.
    ``a_base`` is (E, k, k) and ``x0`` (E, k). Returns the window's states
    from x0 on, (E, n_steps + 1, k); non-finite states are kept for the
    caller's divergence check.
    """
    out = np.empty((len(x0), n_steps + 1, x0.shape[-1]))
    out[:, 0] = x0
    x = x0[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            x = rk4_stages(a_base, source, h_us, x)[0]
            out[:, n] = x[:, 0]
    return out


def rk4_increment(a_base: np.ndarray, source, h_us: float, stages) -> np.ndarray:
    """D = dF/dx - I of every step of ``rk4_stages``, step-major (C, E, k, k).

    Stage s has the Jacobian J_s = A + W_L diag(d_{L-1}) W_{L-1} ... diag(d_0) W_0
    and dk_s/dx = J_s P_s, with P_0 = I and P_s = I + step_s h dk_{s-1}/dx;
    d_l = ``source.slope(a)``, with a the input of layer l + 1 (the tanh output
    of layer l).
    They are formed transposed, P^T J^T, and laid out (E, k_in, C, k_out):
    each shared weight then multiplies the rows of one 2-D array over all
    steps, and each diag(d) scales contiguous (C, k_out) blocks.
    """
    a_t = _transposed(a_base)
    w_t = source.weights_t
    e, c, k = stages[0][0].shape  # the first stage's first layer input is x
    eye = np.zeros((e, k, c, k))
    diag = np.arange(k)
    eye[:, diag, :, diag] = 1.0
    slopes = []
    for s, ins in enumerate(stages):
        p = eye if s == 0 else (_RK4_STAGE_STEPS[s - 1] * h_us) * slopes[-1] + eye
        q = _rows(p, w_t[0])
        for l in range(1, len(w_t)):
            q = _rows(q * source.slope(ins[l][:, None]), w_t[l])
        slopes.append(q + (p.reshape(e, -1, k) @ a_t).reshape(q.shape))
    k1, k2, k3, k4 = slopes
    return np.transpose((h_us / 6.0) * (k1 + 2.0 * (k2 + k3) + k4), (2, 0, 3, 1))


def rk4_vjp(a_base: np.ndarray, source, h_us: float, slopes, lam: np.ndarray):
    """D_n^T lam_n at every step of ``rk4_stages``, without forming D_n.

    ``lam`` (E, C, k) holds dL/dx_n for the steps' outputs and ``slopes`` the
    activation derivatives ``source.slope`` of each stage's hidden layer
    inputs. The stage adjoints run back through the RK4 update, last stage
    first, with dk_s/dc_s = J_s (``rk4_increment``); returns the sum of their
    state adjoints, (E, C, k), and per stage, last first, the gradient at
    each layer's output, which ``layer_gradients`` contracts with its input.
    """
    last = len(source.weights) - 1
    sixth, third = (h_us / 6.0) * lam, (h_us / 3.0) * lam
    total, q, deltas = None, None, []
    for s in range(3, -1, -1):
        u = sixth if s == 3 else (_RK4_STAGE_STEPS[s] * h_us) * q
        if s < 3:
            u += sixth if s == 0 else third
        delta, layer = u, [None] * (last + 1)
        for l in range(last, -1, -1):
            if l < last:  # through the tanh whose output is layer l + 1's input
                delta = delta * slopes[s][l]
            layer[l] = delta
            delta = delta @ source.weights[l]
        q = delta + u @ a_base  # A^T u, row-wise
        total = q if total is None else total + q
        deltas.append(layer)
    return total, deltas


def layer_gradients(source, stages, deltas, grad: np.ndarray) -> None:
    """Add each layer's weight and bias gradient over a window into the packed
    ``grad``: the output gradients ``deltas`` of ``rk4_vjp`` contracted with
    the layer inputs ``stages`` of ``rk4_stages``."""
    grad_w, grad_b = source.unpacked(grad)
    k = grad_b[0].shape[-1]
    ones = np.ones(stages[0][0].size // k)  # a product sums the rows faster than sum()
    for ins, layer in zip(reversed(stages), deltas):
        for l in range(len(layer) - 1, -1, -1):
            rows = layer[l].reshape(-1, k)
            grad_w[l] += rows.T @ ins[l].reshape(-1, k)
            grad_b[l] += ones @ rows


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
# A correction must shrink every open experiment's residual this many times,
# or the window forms its own step Jacobians: taking a residual of 1e-3 to
# 4 ulp in the 7 corrections of NEWTON_MAX_ITERS needs about 50-fold each.
NEWTON_MIN_SHRINK = 100.0


def window_jacobian(d_bar: np.ndarray, n_steps: int):
    """The Jacobian a Newton window carries to the next: the window-mean step
    increment D_bar (E, k, k) with the increments of the doubling powers of
    I + D_bar^T over ``n_steps`` steps, which also serve every shorter window."""
    return d_bar, power_increments(_transposed(d_bar), 1, n_steps)


def newton_window(
    a_base: np.ndarray, source, x0: np.ndarray, h_us: float, guess: np.ndarray, jac=None
):
    """The states (E, L + 1, k) of ``propagate_network`` over one window, by
    Newton's method in time from ``guess`` (E, L, k), the stages of its last
    evaluation and the Jacobian for the next window: (states, stages, jac),
    with states and stages None if it does not converge. The stages are those
    of ``rk4_stages`` at the returned states, without stage 0's first layer
    input, which is the states themselves (None in its place).

    Each iteration evaluates every step x_n = F(x_{n-1}) of the current
    iterate at once (``rk4_stages``) and stops when, for every experiment,
    the residual max |F(x_{n-1}) - x_n| is within NEWTON_TOL_ULPS ulp of its
    largest state. Otherwise it adds the solution of the tangent recurrence
    delta_n = (I + D_n) delta_{n-1} + F(x_{n-1}) - x_n, delta_0 = 0, with
    one of two Jacobians:

    * the carried ``jac`` (``window_jacobian``), one D_bar per experiment
      for every step: ``adjoint_scan`` on the time-reversed residual, log2(L)
      batched products;
    * the step increments D_n of one iterate of this window
      (``rk4_increment``), step by step (``tangent_recurrence``): a chord.

    The increments are formed when no ``jac`` is carried in, or when a
    correction shrank an open experiment's residual less than
    NEWTON_MIN_SHRINK times; every later correction of the window uses them,
    and their mean is the jac returned. A non-finite iterate, or no
    convergence in NEWTON_MAX_ITERS evaluations, gives None.
    """
    e, n, k = guess.shape
    xs = np.empty((e, n + 1, k))
    xs[:, 0] = x0
    xs[:, 1:] = guess
    tol = NEWTON_TOL_ULPS * np.finfo(float).eps
    last = d = None
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluations in range(1, NEWTON_MAX_ITERS + 1):
            f, stages = rk4_stages(a_base, source, h_us, xs[:, :-1])
            residual = f - xs[:, 1:]
            err = np.max(np.abs(residual), axis=(1, 2))
            if not np.all(np.isfinite(err)):
                return None, None, jac
            open_ = err > tol * np.max(np.abs(xs), axis=(1, 2))
            if not open_.any():
                stages[0][0] = None
                return xs, stages, jac
            if evaluations == NEWTON_MAX_ITERS:  # no evaluation left to check a correction
                break
            slow = last is not None and np.any(open_ & (err * NEWTON_MIN_SHRINK > last))
            if jac is None or slow:
                d = rk4_increment(a_base, source, h_us, stages)
                jac = window_jacobian(d.mean(axis=0), n)
                d = np.ascontiguousarray(d[1:])
            last = err
            if d is None:
                # a reversed copy: numpy's matmul takes a slow path for a reversed view
                xs[:, 1:] += adjoint_scan(jac[1], residual[:, ::-1].copy())[:, ::-1]
            else:
                delta = tangent_recurrence(d, np.ascontiguousarray(np.moveaxis(residual, 1, 0)))
                xs[:, 1:] += np.moveaxis(delta, 0, 1)
    return None, None, jac


def window_adjoint(a_base: np.ndarray, source, h_us: float, stages, g: np.ndarray,
                   increments: list[np.ndarray]):
    """The adjoint of C steps, one or more windows': lam (E, C, k) with
    lam_C = g_C and lam_{n-1} = (I + D_n^T) lam_n + g_{n-1}, the D_n of
    ``rk4_stages`` at ``stages``; with it ``rk4_vjp`` of lam, (D^T lam, deltas).

    ``adjoint_scan`` solves the recurrence with one D_bar per experiment,
    given as the ``increments`` of the powers of I + D_bar, and sweeps refine
    it: each takes D_n^T lam at every step at once (``rk4_vjp``), and the scan
    of the residual lam_{n-1} - (I + D_n^T) lam_n - g_{n-1} corrects lam. It
    stops when, for every experiment, the residual is within NEWTON_TOL_ULPS
    ulp of max |lam|, as ``newton_window`` does, after at most NEWTON_MAX_ITERS
    residuals. The sweeps converge linearly, so where the shrink of the last
    one, repeated over the sweeps left, would not bring an open experiment
    within that bound (the sweeps do not contract, away from the near-linear
    regime), it forms the D_n (``rk4_increment``) and walks back step by step
    (``tangent_recurrence``).
    """
    slopes = [[source.slope(a) for a in ins[1:]] for ins in stages]
    tol = NEWTON_TOL_ULPS * np.finfo(float).eps
    lam = adjoint_scan(increments, g.copy())
    last = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for sweeps_left in range(NEWTON_MAX_ITERS - 1, -1, -1):
            product = rk4_vjp(a_base, source, h_us, slopes, lam)
            residual = g - lam
            residual[:, :-1] += lam[:, 1:] + product[0][:, 1:]
            err = np.max(np.abs(residual), axis=(1, 2))
            if not np.all(np.isfinite(err)):
                break
            bound = tol * np.max(np.abs(lam), axis=(1, 2))
            open_ = err > bound
            if not open_.any():
                return lam, product
            # each sweep shrinks the residual by about the same factor: the last
            # one's must bring every open experiment within bound in time
            if last is not None and np.any(open_ & ~(err * (err / last) ** sweeps_left <= bound)):
                break
            last, product = err, None  # the next sweep's deltas take the place of these
            lam += adjoint_scan(increments, residual)
    d_t = np.swapaxes(rk4_increment(a_base, source, h_us, stages), -1, -2)[::-1]
    lams = tangent_recurrence(np.ascontiguousarray(d_t[:-1]),
                              np.ascontiguousarray(np.moveaxis(g, 1, 0)[::-1]))
    lam = np.moveaxis(lams[::-1], 0, 1)
    return lam, rk4_vjp(a_base, source, h_us, slopes, lam)


FORWARD_CHUNK_SAMPLES = 128  # samples per Newton window
# Bytes of converged stages a network forward keeps for its pullback: 4
# stages x layer inputs x E x C x k floats, less stage 0's first input (the
# states), so 11 x 5 x 128 x 4 x 8 B = 225 KB per 128-sample window of the
# criterion-07 network (3 layers, 5 experiments, qubit), 4.4 MB for the 2500
# one-step samples (20 windows) it trains on. Past the cap the pullback
# rebuilds a window's stages from its states.
MAX_KEPT_STAGE_BYTES = 8 * 2**20
# Bytes of stages the pullback joins into one adjoint solve, a span of
# windows: 4 stages x layer inputs x E x C x k floats, so 2 windows of the
# criterion-07 network (12 x 5 x 128 x 4 x 8 B = 240 KiB each). Fewer, longer
# solves cost fewer numpy calls per step, but their working set (the joined
# stages, the activation slopes and one set of stage adjoints) grows with the
# span, and the sweeps converge more slowly over a longer span.
ADJOINT_SPAN_BYTES = 2**19


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

    ``n_samples`` overrides each experiment's own sample count: a consumer of
    records predicts exactly the samples they hold. Groups come in sorted grid
    order, members in input order.
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
                x0=qcore.expand_many(
                    np.stack([exp.initial_density(dev.dim) for exp in members]), basis
                ),
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
    finite = np.isfinite(samples)
    if finite.all():  # one flat reduction; the per-sample one only to name the sample
        return
    finite = finite.all(axis=-1)
    s = int(np.argmax(~np.all(finite, axis=0)))
    e = int(np.argmax(~finite[:, s]))
    raise DivergenceError("state became non-finite", (first + s + 1) * group.dt_us,
                          group.exp_ids[e])


def linear_forward(group: GridGroup, source=None):
    """The doubling forward of the base model or a linear source over a group.

    Returns the augmented generators M (E, k+1, k+1), the increments of the
    doubling powers of S = R^n_sub and the checked sample states [x_s; 1],
    s = 1..n_samples, as (E, n_samples, k+1).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # check_finite reports overflow
        m = augmented_generator(group.a_base, source)
        d_step = rk4_step_increment(m, group.h_us)
    increments = power_increments(d_step, group.n_sub, group.n_samples)
    x0 = np.concatenate([group.x0, np.ones((len(group.x0), 1))], axis=1)
    samples = propagate_linear(increments, x0, group.n_samples)
    check_finite(samples, group)
    return m, increments, samples


def network_chunks(group: GridGroup, source):
    """The forward of a nonlinear source over a group, one Newton window at a time.

    Yields (lo, hi, states, stages, d_bar) for samples lo..hi-1,
    FORWARD_CHUNK_SAMPLES at a time: ``states`` (E, (hi - lo) n_sub + 1, k)
    holds the window's start state, the last of the window before, and the
    state after every step. A window is solved by ``newton_window``, whose
    converged ``stages`` it passes on, or, if that does not converge, by
    ``propagate_network``, with ``stages`` None. The window-mean Jacobian
    D_bar passes from window to window, so a forward usually forms it once;
    ``d_bar`` is the one carried out of the window (the base model's step
    increment until one is formed), the same object for every window that
    shares it. Each window's first iterate follows an affine step
    x -> (I + D) x + c from its start state, propagated by doubling: the base
    model's step in the first window, then D_bar with the mean step residual
    c of the window before. Each window's samples ``states[:, n_sub::n_sub]``
    are checked before it is yielded.
    """
    e, k = group.x0.shape
    d_bar = rk4_step_increment(group.a_base, group.h_us)
    step = np.zeros((e, k + 1, k + 1))  # [[D, c], [0, 0]] on the augmented state [x; 1]
    step[:, :k, :k] = d_bar
    x, jac = group.x0, None
    for lo in range(0, group.n_samples, FORWARD_CHUNK_SAMPLES):
        hi = min(lo + FORWARD_CHUNK_SAMPLES, group.n_samples)
        n_steps = (hi - lo) * group.n_sub
        guess = propagate_linear(power_increments(step, 1, n_steps),
                                 np.concatenate([x, np.ones((e, 1))], axis=1), n_steps)
        states, stages, jac = newton_window(group.a_base, source, x, group.h_us, guess[..., :k],
                                            jac)
        if states is None:
            states = propagate_network(group.a_base, source, x, group.h_us, n_steps)
        check_finite(states[:, group.n_sub :: group.n_sub], group, first=lo)
        if jac is not None:  # c = mean_n (x_n - (I + D_bar) x_{n-1}) over this window
            d_bar = jac[0]
            step[:, :k, :k] = d_bar
            step[:, :k, k] = ((states[:, -1] - x) / n_steps
                              - (d_bar @ states[:, :-1].mean(axis=1)[..., None])[..., 0])
        x = states[:, -1]
        yield lo, hi, states, stages, d_bar
        del stages  # not held while the next window is solved: prediction keeps none


def linear_pullback(group: GridGroup, source, forward, g: np.ndarray) -> np.ndarray:
    """The packed-parameter gradient of a linear source from g = dl/dx (E, S, k)
    at every sample, on its ``linear_forward`` (m, increments, samples)."""
    m, increments, samples = forward
    x0 = np.concatenate([group.x0, np.ones((len(group.x0), 1))], axis=1)
    states = np.concatenate([x0[:, None, :], samples], axis=1)

    # Sample adjoints lam_s = S^T lam_{s+1} + dl/dx_s by the log-depth scan,
    # then dL/dS = sum_s lam_s x_{s-1}^T as one batched product.
    g_aug = np.zeros(samples.shape)
    g_aug[..., :-1] = g
    lam = adjoint_scan(increments, g_aug)
    p_s = lam.swapaxes(-1, -2) @ states[:, :-1, :]

    # dL/dM, the derivative of S = R(hM)^n_sub at M^T in the direction dL/dS, is
    # the upper-right block of the same polynomial of [[M^T, dL/dS], [0, M^T]];
    # then on to the parameters through M = [[A + W, b], [0, 0]].
    kk, m_t = m.shape[-1], m.swapaxes(-1, -2)
    block = np.zeros((len(m), 2 * kk, 2 * kk))
    block[:, :kk, :kk] = block[:, kk:, kk:] = m_t
    block[:, :kk, kk:] = p_s
    step = rk4_step_increment(block, group.h_us)
    q = power_increments(step, group.n_sub, 1)[0][..., :kk, kk:].sum(axis=0)
    return source.coeff_affine_vjp(q[:-1, :-1], q[:-1, -1])


def adjoint_spans(windows: list, n_layers: int) -> list[list]:
    """The forward windows (lo, hi, states, stages, d_bar) cut into runs of
    consecutive windows that share one ``d_bar`` and whose stages, joined,
    take at most ADJOINT_SPAN_BYTES (at least one window each)."""
    spans, size = [], 0
    for window in windows:
        window_size = 4 * n_layers * window[2][:, :-1].nbytes
        if spans and window[4] is spans[-1][0][4] and size + window_size <= ADJOINT_SPAN_BYTES:
            spans[-1].append(window)
            size += window_size
        else:
            spans.append([window])
            size = window_size
    return spans


def network_pullback(group: GridGroup, source, windows: list, g: np.ndarray) -> np.ndarray:
    """The packed-parameter gradient of a network from g = dl/dx (E, S, k) at
    every sample, walking back over the windows (lo, hi, states, stages, d_bar)
    of its ``network_chunks`` one ``adjoint_spans`` span at a time; a window
    without ``stages`` has them rebuilt from its own states."""
    n_sub = group.n_sub
    grad = np.zeros_like(source.pack())
    lam = np.zeros_like(group.x0)  # (I + D^T) lam of the first step of the span after
    for span in reversed(adjoint_spans(windows, source.n_layers)):
        parts = []
        for _, _, states, kept, _ in span:
            x = states[:, :-1]
            if kept is None:
                parts.append(rk4_stages(group.a_base, source, group.h_us, x)[1])
            else:  # stage 0's first layer input is the states themselves
                parts.append([[x, *kept[0][1:]], *kept[1:]])
        stages = parts[0] if len(parts) == 1 else [
            [np.concatenate(ins, axis=1) for ins in zip(*stage)] for stage in zip(*parts)]
        x = stages[0][0]

        # dl/dx_n of the span's steps, nonzero on sample steps; the last step
        # also takes (I + D^T) lam in from the span after.
        g_steps = np.zeros(x.shape)
        g_steps[:, n_sub - 1 :: n_sub] = g[:, span[0][0] : span[-1][1]]
        g_steps[:, -1] += lam
        increments = power_increments(span[0][4], 1, x.shape[1])
        lams, (d_t_lam, deltas) = window_adjoint(group.a_base, source, group.h_us, stages,
                                                 g_steps, increments)
        lam = lams[:, 0] + d_t_lam[:, 0]
        layer_gradients(source, stages, deltas, grad)
    return grad


class GroupForward:
    """A grid group's forward under ``source`` (None: the base model) and its
    pullback. Iterating yields (lo, hi, samples), the checked states
    (E, hi - lo, k) at samples lo..hi-1, window by window; then ``pullback(g)``
    takes g (E, n_samples, k) to the gradient of the packed parameters.

    With ``keep_stages`` (a gradient may follow) the network engine keeps each
    converged window's stages for the pullback, up to MAX_KEPT_STAGE_BYTES per
    forward; the pullback rebuilds those of any other window."""

    def __init__(self, group: GridGroup, source=None, keep_stages: bool = False):
        self.group, self.source = group, source
        self.linear = source is None or source.is_linear
        self.keep_stages = keep_stages

    def __iter__(self):
        group, self._kept = self.group, []  # the linear forward, or the network's windows
        if self.linear:
            self._kept.append(linear_forward(group, self.source))
            yield 0, group.n_samples, self._kept[0][-1][..., :-1]
            return
        room = MAX_KEPT_STAGE_BYTES if self.keep_stages else -1
        for lo, hi, states, stages, d_bar in network_chunks(group, self.source):
            if stages is not None:
                size = sum(a.nbytes for ins in stages for a in ins if a is not None)
                room, stages = (room - size, stages) if size <= room else (room, None)
            self._kept.append((lo, hi, states, stages, d_bar))
            yield lo, hi, states[:, group.n_sub :: group.n_sub]

    def pullback(self, g: np.ndarray) -> np.ndarray:
        if self.linear:
            return linear_pullback(self.group, self.source, self._kept[0], g)
        return network_pullback(self.group, self.source, self._kept, g)


def group_samples(group: GridGroup, source=None) -> np.ndarray:
    """Checked coefficient states on the sample grid of a group, (E, n_samples, k)."""
    windows = [samples for _, _, samples in GroupForward(group, source)]
    return windows[0] if len(windows) == 1 else np.concatenate(windows, axis=1)  # no copy of one


def integrate_many(
    dev: DeviceModel,
    experiments: list[Experiment],
    source=None,
    dt_internal_ns: float = DEFAULT_DT_INTERNAL_NS,
    n_samples: list[int] | None = None,
) -> list[Trajectory]:
    """``integrate_rk4`` of each experiment (for ``n_samples`` samples), batched by grid group.

    Raises DivergenceError, with the experiment and the time of the earliest
    non-finite sample of its group, if a state leaves the finite range.
    """
    basis = qcore.hermitian_basis(dev.dim)
    trajectories: list[Trajectory] = [None] * len(experiments)
    for g in grid_groups(dev, experiments, dt_internal_ns, n_samples):
        times = g.dt_us * np.arange(1, g.n_samples + 1)
        for i, x in zip(g.indices, group_samples(g, source)):
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
