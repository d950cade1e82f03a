"""Trainable source-term ansatze and their interpretability readouts.

Three families share one protocol so the integrator and trainer can stay
agnostic:

* ``is_linear`` -- True when the source is a fixed affine map W x + b of
  the state's coefficient vector x: the structure-preserving source (b = 0)
  and identity-activation networks, whose layers collapse to one affine map.
  Such a source is linear in the augmented state [x; 1], with the generator
  [[A + W, b], [0, 0]] for a base generator A, so it takes the base model's
  integration and adjoint path (see qude.dynamics).
* ``coeff_affine()`` / ``coeff_affine_vjp(g_w, g_b)`` -- for linear sources,
  (W, b) and the pullback of dL/dW, dL/db to the packed parameters.
* ``coeff_generator()`` / ``coeff_forward(x)`` -- the source as a map on the
  real coefficient space of the elementary Hermitian basis: the constant
  generator of the structure-preserving source, the network output of a
  network source.
* ``pack()`` / ``with_params(theta)`` -- flat parameter vector round trip.

The structure-preserving source keeps its rates non-negative by training
gamma_raw with gamma = gamma_raw**2 (a ``signed`` mode exposes raw rates for
diagnostics, at the cost of the CPTP guarantee). Network sources map the
real coefficient vector of the state to real coefficients, so the matrix
they add is Hermitian for any parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from . import dynamics, qcore

KIND_SP = "sp"
KIND_AFFINE = "affine"
KIND_NONLINEAR = "nonlinear"

ACTIVATION_IDENTITY = "identity"
ACTIVATION_TANH = "tanh"

# Squared reparameterization has zero gradient at exactly zero, so the rates
# start at a small positive value instead of switching the source fully off.
SP_GAMMA_RAW_INIT = 1e-2
NET_INIT_SCALE = 1e-2


class UnphysicalRateError(ValueError):
    """Effective decoherence rate came out non-positive."""


@dataclass(frozen=True, eq=False)
class EffectiveTimes:
    """Perturbed decoherence times and the per-channel inverse rates."""

    T1_eff_us: float
    T2_eff_us: float
    per_channel_us: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class StructurePreservingSource:
    """Linear-operator source split into unitary and dissipative parts.

    ``alpha`` (rad/us) weights the traceless Hermitian generators; the
    resulting Hermitian shift is spectrum-anchored so its ground-state
    expectation vanishes. ``gamma_raw`` parameterizes the per-channel jump
    rates gamma_j (1/us), with the jump operators taken as the upper
    triangles of the same generators.
    """

    dim: int = 2
    alpha: np.ndarray = None
    gamma_raw: np.ndarray = None
    signed: bool = False

    def __post_init__(self):
        n = self.dim * self.dim - 1
        alpha = np.zeros(n) if self.alpha is None else np.asarray(self.alpha, dtype=float)
        graw = (
            np.full(n, SP_GAMMA_RAW_INIT)
            if self.gamma_raw is None
            else np.asarray(self.gamma_raw, dtype=float)
        )
        if alpha.shape != (n,) or graw.shape != (n,):
            raise ValueError(f"alpha and gamma_raw must have length {n}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma_raw", graw)

    kind = KIND_SP
    is_linear = True

    @property
    def basis(self) -> qcore.GellMannBasis:
        return qcore.gell_mann_basis(self.dim)

    @property
    def gammas(self) -> np.ndarray:
        """Channel rates in 1/us; non-negative unless in signed mode."""
        if self.signed:
            return self.gamma_raw
        return self.gamma_raw**2

    def coeff_generator(self) -> np.ndarray:
        b_alpha, b_gamma = sp_generator_blocks(self.dim)
        return np.einsum("j,jkl->kl", self.alpha, b_alpha) + np.einsum(
            "j,jkl->kl", self.gammas, b_gamma
        )

    def coeff_affine(self) -> tuple[np.ndarray, np.ndarray]:
        return self.coeff_generator(), np.zeros(self.dim * self.dim)

    def coeff_affine_vjp(self, g_w: np.ndarray, g_b: np.ndarray) -> np.ndarray:
        """Parameter gradient from dL/dW through the constant generator blocks."""
        b_alpha, b_gamma = sp_generator_blocks(self.dim)
        g_alpha = np.einsum("jik,ik->j", b_alpha, g_w)
        g_gamma = np.einsum("jik,ik->j", b_gamma, g_w)
        g_raw = g_gamma if self.signed else 2.0 * self.gamma_raw * g_gamma
        return np.concatenate([g_alpha, g_raw])

    def pack(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.gamma_raw])

    def with_params(self, theta: np.ndarray) -> "StructurePreservingSource":
        theta = np.asarray(theta, dtype=float)
        n = self.dim * self.dim - 1
        if theta.shape != (2 * n,):
            raise ValueError(f"expected {2 * n} parameters, got shape {theta.shape}")
        return replace(self, alpha=theta[:n].copy(), gamma_raw=theta[n:].copy())


def sp_hermitian(src: StructurePreservingSource) -> np.ndarray:
    """Hermitian perturbation sum_j alpha_j (L_j - <0|L_j|0> I).

    For dim=2 this is [[0, a1 - i a2], [a1 + i a2, -2 a3]].
    """
    basis = src.basis
    eye = np.eye(src.dim)
    shifted = basis.elements - basis.elements[:, 0, 0].real[:, None, None] * eye
    return np.einsum("j,jkl->kl", src.alpha, shifted)


_SP_BLOCK_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def sp_generator_blocks(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant coefficient-space blocks of the structure-preserving source.

    Returns (B_alpha, B_gamma), each (dim^2-1, dim^2, dim^2), with the full
    source generator equal to sum_j alpha_j B_alpha[j] + gamma_j B_gamma[j].
    """
    cached = _SP_BLOCK_CACHE.get(dim)
    if cached is not None:
        return cached
    gm = qcore.gell_mann_basis(dim)
    hb = qcore.hermitian_basis(dim)
    eye = np.eye(dim)
    n2 = dim * dim
    b_alpha = np.empty((n2 - 1, n2, n2))
    b_gamma = np.empty((n2 - 1, n2, n2))
    for j in range(n2 - 1):
        shifted = gm.elements[j] - gm.elements[j, 0, 0].real * eye
        jump = gm.uppers[j]
        for i, el in enumerate(hb.elements):
            comm = -1j * (shifted @ el - el @ shifted)
            b_alpha[j, :, i] = qcore.expand(comm, hb, check=False)
            b_gamma[j, :, i] = qcore.expand(dynamics.dissipator(jump, el), hb, check=False)
    b_alpha.setflags(write=False)
    b_gamma.setflags(write=False)
    _SP_BLOCK_CACHE[dim] = (b_alpha, b_gamma)
    return b_alpha, b_gamma


def effective_times(dev: dynamics.DeviceModel, src: StructurePreservingSource) -> EffectiveTimes:
    """Perturbed single-qubit decoherence times.

    The first two channels share the energy-decay jump operator, so the decay
    rate perturbation is gamma_1 + gamma_2; the diagonal channel acts like
    four times the baseline dephasing jump, so the dephasing perturbation is
    4 gamma_3. Effective times are the inverse total rates. Only the first
    and third inverse rates are reported per channel (the second duplicates
    the first channel's jump).
    """
    if src.dim != 2:
        raise ValueError("effective_times is defined for single-qubit sources (dim=2)")
    g1, g2, g3 = src.gammas
    rate1 = 1.0 / dev.T1_us + g1 + g2
    rate2 = 1.0 / dev.T2_us + 4.0 * g3
    if rate1 <= 0 or rate2 <= 0:
        raise UnphysicalRateError(
            f"effective rates must be positive, got ({rate1:.3e}, {rate2:.3e}) 1/us"
        )
    per_channel = tuple(1.0 / g if g > 0 else np.inf for g in (g1, g3))
    return EffectiveTimes(T1_eff_us=1.0 / rate1, T2_eff_us=1.0 / rate2, per_channel_us=per_channel)


@dataclass(frozen=True, eq=False)
class NetworkSource:
    """Feed-forward source acting on Hermitian-basis coefficients.

    Layers apply x -> act(W x + b); the activation is the identity on the
    last layer so the output is not range-limited. With the identity
    activation throughout, the whole map is affine.
    """

    dim: int
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activation: str = ACTIVATION_IDENTITY

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need matching, non-empty weight and bias tuples")
        n2 = self.dim * self.dim
        for w, b in zip(self.weights, self.biases):
            if w.shape != (n2, n2) or b.shape != (n2,):
                raise ValueError(f"layers must be {n2}x{n2} with length-{n2} biases")
        if self.activation not in (ACTIVATION_IDENTITY, ACTIVATION_TANH):
            raise ValueError(f"unknown activation {self.activation!r}")
        # Resolved once for coeff_forward, which the step loop calls per stage.
        object.__setattr__(self, "_hidden", tuple(zip(self.weights[:-1], self.biases[:-1])))
        object.__setattr__(self, "_tanh", self.activation == ACTIVATION_TANH)

    @property
    def is_linear(self) -> bool:
        return self.activation == ACTIVATION_IDENTITY

    @property
    def kind(self) -> str:
        return KIND_AFFINE if self.activation == ACTIVATION_IDENTITY else KIND_NONLINEAR

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def coeff_forward(self, x: np.ndarray) -> np.ndarray:
        """Network output for coefficient vectors; batched over leading axes."""
        z = x
        for w, b in self._hidden:
            z = z @ w.T + b
            if self._tanh:
                z = np.tanh(z)
        return z @ self.weights[-1].T + self.biases[-1]

    def coeff_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, b) of the identity-activation net collapsed to x -> W x + b."""
        if not self.is_linear:
            raise ValueError(f"a {self.activation} network is not affine")
        n2 = self.dim * self.dim
        w_eff, b_eff = np.eye(n2), np.zeros(n2)
        for w, b in zip(self.weights, self.biases):
            w_eff, b_eff = w @ w_eff, w @ b_eff + b
        return w_eff, b_eff

    def coeff_affine_vjp(self, g_w: np.ndarray, g_b: np.ndarray) -> np.ndarray:
        """Per-layer gradients from dL/dW, dL/db of the collapsed map (chain rule).

        Layer l maps the partial products (P, c) to (W_l P, W_l c + b_l).
        """
        n2 = self.dim * self.dim
        partial = [(np.eye(n2), np.zeros(n2))]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            p, c = partial[-1]
            partial.append((w @ p, w @ c + b))
        flat = []
        for w, (p, c) in zip(reversed(self.weights), reversed(partial)):
            flat = [(g_w @ p.T + np.outer(g_b, c)).reshape(-1), g_b] + flat
            g_w, g_b = w.T @ g_w, w.T @ g_b
        return np.concatenate(flat)

    def pack(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.reshape(-1))
            parts.append(b)
        return np.concatenate(parts)

    def with_params(self, theta: np.ndarray) -> "NetworkSource":
        theta = np.asarray(theta, dtype=float)
        n2 = self.dim * self.dim
        per_layer = n2 * n2 + n2
        if theta.shape != (per_layer * self.n_layers,):
            raise ValueError(
                f"expected {per_layer * self.n_layers} parameters, got shape {theta.shape}"
            )
        weights = []
        biases = []
        pos = 0
        for _ in range(self.n_layers):
            weights.append(theta[pos : pos + n2 * n2].reshape(n2, n2).copy())
            pos += n2 * n2
            biases.append(theta[pos : pos + n2].copy())
            pos += n2
        return replace(self, weights=tuple(weights), biases=tuple(biases))


def make_source(
    kind: str,
    dim: int = 2,
    hidden_layers: int = 2,
    seed: int = 0,
    signed: bool = False,
) -> StructurePreservingSource | NetworkSource:
    """Default-initialized source of the requested family.

    Structure-preserving sources start with the perturbation effectively off;
    network weights start near zero (uniform +-0.01/sqrt(fan_in), zero
    biases) so training begins at the base model.
    """
    if kind == KIND_SP:
        return StructurePreservingSource(dim=dim, signed=signed)
    if kind not in (KIND_AFFINE, KIND_NONLINEAR):
        raise ValueError(f"unknown source kind {kind!r}")
    n2 = dim * dim
    n_layers = 1 if kind == KIND_AFFINE else hidden_layers + 1
    rng = np.random.default_rng(seed)
    bound = NET_INIT_SCALE / np.sqrt(n2)
    weights = tuple(rng.uniform(-bound, bound, size=(n2, n2)) for _ in range(n_layers))
    biases = tuple(np.zeros(n2) for _ in range(n_layers))
    activation = ACTIVATION_IDENTITY if kind == KIND_AFFINE else ACTIVATION_TANH
    return NetworkSource(dim=dim, weights=weights, biases=biases, activation=activation)
