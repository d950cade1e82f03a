"""Forward measurement model, shot sampling, and linear inversion.

The forward model is p = M v with the fixed 4x4 inversion matrix below and
v = (rho00, rho01, rho10, rho11) the row-major flattening of rho; the
population vector is p = (1, 2P(x)-1, 2P(y)-1, 2P(z)-1). Reconstruction
inverts the same relation, hermitizes defensively, and applies the spectral
filter, so generation and inversion are self-consistent by construction.
P(z) is the excited-state population.

Shot sampling draws an independent binomial per measurement axis. The
default budget is the full shot count per axis; ``split`` mode divides it
by three for sensitivity studies. Sampling for a whole trajectory consumes
the stream in axis order x, y, z within each time step, times ascending,
which pins the draws for a given seed. ``shots=0`` marks a noiseless
record: the stored counts are then the exact probabilities.

The records of one experiment are held as one ``RecordBlock`` of columns,
one row per measured time step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qcore
from .dynamics import Trajectory

PROB_TOL = 1e-10

SHOT_MODE_PER_AXIS = "per-axis"
SHOT_MODE_SPLIT = "split"

M_MATRIX = np.array(
    [
        [1, 0, 0, 1],
        [0, -1, -1, 0],
        [0, 1j, -1j, 0],
        [-1, 0, 0, 1],
    ],
    dtype=complex,
)
M_MATRIX.setflags(write=False)

M_MATRIX_INV = np.linalg.inv(M_MATRIX)
M_MATRIX_INV.setflags(write=False)


@dataclass(frozen=True, eq=False)
class RecordBlock:
    """The tomography records of one experiment as columns, one row per time step.

    ``counts`` holds the successes per axis, or the exact probabilities on a
    ``shots == 0`` row; ``probs`` the empirical probabilities and ``rho_hat``
    their reconstruction, computed on first use.
    """

    times_us: np.ndarray  # (n,)
    shots: np.ndarray  # (n,) int
    counts: np.ndarray  # (n, 3)
    probs: np.ndarray  # (n, 3)

    def __len__(self) -> int:
        return len(self.times_us)

    @classmethod
    def from_counts(cls, times_us, shots, counts) -> "RecordBlock":
        """Rows from their counts, with their empirical probabilities checked."""
        times_us = np.asarray(times_us, dtype=float)
        shots = np.asarray(shots, dtype=np.int64)
        counts = np.asarray(counts, dtype=float)
        probs = np.divide(counts, shots[:, None], out=counts.copy(), where=shots[:, None] > 0)
        return cls(times_us, shots, counts, _checked_probs(probs, times_us))

    @cached_property
    def rho_hat(self) -> np.ndarray:
        """(n, 2, 2) complex: the reconstruction of every row."""
        return lie_reconstruct_many(self.probs, self.times_us)

    def take(self, rows) -> "RecordBlock":
        """The block of the given rows (an index array or a boolean mask); an
        already computed reconstruction is sliced, not computed again."""
        block = RecordBlock(self.times_us[rows], self.shots[rows], self.counts[rows],
                            self.probs[rows])
        if "rho_hat" in self.__dict__:
            block.__dict__["rho_hat"] = self.rho_hat[rows]
        return block

    def sorted(self) -> "RecordBlock":
        """The rows in time order (stable); the block itself if already sorted."""
        if np.all(np.diff(self.times_us) >= 0.0):
            return self
        return self.take(np.argsort(self.times_us, kind="stable"))


def measurement_probs_many(states: np.ndarray) -> np.ndarray:
    """Axis probabilities (P(x), P(y), P(z)) of stacked qubit states, shape (m, 3).

    Rejects states that are not 2x2 and a state whose probabilities leave
    [0, 1] by more than PROB_TOL.
    """
    states = np.asarray(states, dtype=complex)
    if states.shape[-2:] != (2, 2):
        raise ValueError(f"tomography measures qubits (dim 2), got dim {states.shape[-1]}")
    vecs = states.reshape(-1, 4)
    p = vecs @ M_MATRIX.T
    probs = (p[:, 1:].real + 1.0) / 2.0
    if np.any(probs < -PROB_TOL) or np.any(probs > 1.0 + PROB_TOL):
        bad = int(np.argmax(np.any((probs < -PROB_TOL) | (probs > 1.0 + PROB_TOL), axis=1)))
        raise ValueError(f"probabilities outside [0, 1] at sample {bad}")
    return np.clip(probs, 0.0, 1.0)


def axis_shot_budget(shots: int, mode: str = SHOT_MODE_PER_AXIS) -> int:
    """Shots spent on each measurement axis under the given budget mode."""
    if mode == SHOT_MODE_PER_AXIS:
        return shots
    if mode == SHOT_MODE_SPLIT:
        return shots // 3
    raise ValueError(f"unknown shot mode {mode!r}")


def _checked_probs(probs: np.ndarray, times_us: np.ndarray | None) -> np.ndarray:
    """``probs`` (m, 3); rejects probabilities outside [0, 1] (NaN included),
    naming the first such row and its time when ``times_us`` is given."""
    outside = ~np.all((probs >= 0.0) & (probs <= 1.0), axis=1)
    if np.any(outside):
        row = int(np.argmax(outside))
        at = "" if times_us is None else f" (t = {times_us[row]:.6g} us)"
        raise ValueError(f"empirical probabilities {probs[row]} of row {row}{at} outside [0, 1]")
    return probs


def lie_reconstruct_many(probs_hat: np.ndarray, times_us: np.ndarray | None = None) -> np.ndarray:
    """Linear inversion followed by spectral filtering; probs_hat has shape (m, 3).

    Exact probabilities of a valid state are recovered exactly (the filter
    is the identity there). Rejects probabilities outside [0, 1], naming the
    first such row and its time when ``times_us`` is given.
    """
    probs = _checked_probs(np.asarray(probs_hat, dtype=float), times_us)
    m = probs.shape[0]
    p = np.empty((m, 4))
    p[:, 0] = 1.0
    p[:, 1:] = 2.0 * probs - 1.0
    raw = (p @ M_MATRIX_INV.T).reshape(m, 2, 2)
    return qcore.spectral_filter_many(raw, times_us)


def expected_energy_many(states: np.ndarray) -> np.ndarray:
    """Tr(rho a^dag a) of stacked states; the excited-state population for a qubit."""
    states = np.asarray(states)
    levels = np.arange(states.shape[-1])
    return np.einsum("k,mkk->m", levels, states.real)


def simulate_records(
    trajectory: Trajectory,
    shots: int,
    rng: np.random.Generator,
    shot_mode: str = SHOT_MODE_PER_AXIS,
) -> RecordBlock:
    """Measure every state of a trajectory; shots=0 keeps exact probabilities.

    Draw order is fixed (x, y, z per step, steps in time order) so a given
    generator state yields the same records regardless of the caller.
    """
    probs = measurement_probs_many(trajectory.states)
    if shots == 0:
        per_axis = 0
        counts = probs
    else:
        per_axis = axis_shot_budget(shots, shot_mode)
        if per_axis < 1:
            raise ValueError(f"shot budget {shots} too small for mode {shot_mode!r}")
        # Element-wise binomial over a (n, 3) array consumes the stream in C
        # order, i.e. x, y, z per step with steps ascending.
        counts = rng.binomial(per_axis, probs).astype(float)
    return RecordBlock.from_counts(trajectory.times_us, np.full(len(probs), per_axis), counts)
