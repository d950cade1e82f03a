"""Shared twin-study fixtures.

The heavy fixtures build synthetic datasets from a planted
structure-preserving latent source on Dev1-like parameters and are session
scoped so the acceptance tests can share them.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest

from qude import dynamics, models, tomography, train

TWO_PI = 2.0 * np.pi

DEV1 = dynamics.DeviceModel(
    omega01_GHz=3.448, T1_us=214.0, T2_us=32.0, base_kind="lindblad"
)
DEV2 = dynamics.DeviceModel(omega01_GHz=4.086, T1_us=62.0, T2_us=6.0, base_kind="lindblad")

PLANT_ALPHA_KHZ = np.array([0.15, 2.18, 5.66])
PLANT_ALPHA = TWO_PI * 1e-3 * PLANT_ALPHA_KHZ  # rad/us
PLANT_GAMMA = np.array([1.0 / 1686.0, 1.0 / 1686.0, 1.0 / 688.0])  # 1/us
P_MAX_DEV1 = 3.47


def planted_source() -> models.StructurePreservingSource:
    return models.StructurePreservingSource(
        dim=2, alpha=PLANT_ALPHA.copy(), gamma_raw=np.sqrt(PLANT_GAMMA)
    )


def make_twin_dataset(
    seed: int,
    n_experiments: int = 5,
    duration_us: float = 10.0,
    sample_dt_ns: float = 4.0,
    shots: int = 0,
    train_horizon_us: float | None = None,
    dev: dynamics.DeviceModel = DEV1,
    latent=None,
    p_max: float = P_MAX_DEV1,
) -> train.Dataset:
    if latent is None:
        latent = planted_source()
    rng = np.random.default_rng([seed, 0])
    amps = [p_max * (1.0 - rng.random()) for _ in range(n_experiments)]
    pairs = []
    for i, amp in enumerate(amps):
        exp = dynamics.Experiment(
            id=f"exp-{i:03d}",
            amplitude_p_MHz=float(amp),
            duration_us=duration_us,
            sample_dt_ns=sample_dt_ns,
        )
        traj = dynamics.integrate_rk4(dev, exp, latent, 4.0)
        records = tomography.simulate_records(traj, shots, np.random.default_rng([seed, 1 + i]))
        pairs.append((exp, records))
    return train.Dataset(
        pairs,
        train_horizon_us=train_horizon_us if train_horizon_us is not None else duration_us,
        total_horizon_us=duration_us,
    )


@contextmanager
def within(seconds: float):
    """Fail the test if its block runs longer than ``seconds`` of wall time, so a
    hang fails instead of stalling the suite. A real-time timer interrupts
    Python code between bytecodes; a single long call into C finishes first.
    The failure is pytest's outcome exception, which no ``except Exception``
    (nor the CLI's handlers) catches."""

    def expired(signum, frame):
        pytest.fail(f"did not finish within {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Window(NamedTuple):
    """One Newton window: whether it fell back to the step loop, its evaluations
    of F (``rk4_stages``) and its Jacobian formations (``rk4_increment``)."""

    fell_back: bool
    evaluations: int
    jacobians: int


def newton_windows(monkeypatch) -> list[Window]:
    """Record every Newton window as a ``Window``.

    The step loop calls ``rk4_stages``, and the pullback calls it for a window
    whose stages the forward did not keep, and ``rk4_increment`` for a window
    whose adjoint falls back to the step loop; but only outside a window, and
    each window starts its counts from zero."""
    windows, counts = [], {"evaluations": 0, "jacobians": 0}
    window, stages, increment = dynamics.newton_window, dynamics.rk4_stages, dynamics.rk4_increment

    def counted_stages(*args):
        counts["evaluations"] += 1
        return stages(*args)

    def counted_increment(*args):
        counts["jacobians"] += 1
        return increment(*args)

    def counted_window(*args):
        counts.update(evaluations=0, jacobians=0)
        result = window(*args)
        windows.append(Window(result[0] is None, counts["evaluations"], counts["jacobians"]))
        return result

    monkeypatch.setattr(dynamics, "rk4_stages", counted_stages)
    monkeypatch.setattr(dynamics, "rk4_increment", counted_increment)
    monkeypatch.setattr(dynamics, "newton_window", counted_window)
    return windows


class Adjoint(NamedTuple):
    """One adjoint solve of a network pullback (``dynamics.window_adjoint``),
    over the steps of one forward window: whether it fell back to the
    step loop (``tangent_recurrence``), its refinement sweeps (the
    ``adjoint_scan`` calls after the first) and its number of steps."""

    fell_back: bool
    sweeps: int
    steps: int


def adjoint_solves(monkeypatch) -> list[Adjoint]:
    """Record every adjoint solve of every network pullback, one per forward
    window, as an ``Adjoint``. The Newton windows of the forward also scan
    and walk step by step, but outside a solve, and each solve starts its
    counts from zero."""
    adjoints, counts = [], {"scans": 0, "loops": 0}
    adjoint, scan, loop = dynamics.window_adjoint, dynamics.adjoint_scan, dynamics.tangent_recurrence

    def counted_scan(*args):
        counts["scans"] += 1
        return scan(*args)

    def counted_loop(*args):
        counts["loops"] += 1
        return loop(*args)

    def counted_adjoint(a_base, source, h_us, stages, g, increments):
        counts.update(scans=0, loops=0)
        result = adjoint(a_base, source, h_us, stages, g, increments)
        adjoints.append(Adjoint(counts["loops"] > 0, counts["scans"] - 1, g.shape[1]))
        return result

    monkeypatch.setattr(dynamics, "adjoint_scan", counted_scan)
    monkeypatch.setattr(dynamics, "tangent_recurrence", counted_loop)
    monkeypatch.setattr(dynamics, "window_adjoint", counted_adjoint)
    return adjoints


@pytest.fixture(scope="session")
def dev1() -> dynamics.DeviceModel:
    return DEV1


@pytest.fixture(scope="session")
def twin_clean_10us() -> train.Dataset:
    """Zero-shot-noise twin over the 10 us training window."""
    return make_twin_dataset(seed=1234, duration_us=10.0, shots=0)


@pytest.fixture(scope="session")
def twin_noisy_50us() -> train.Dataset:
    """5000-shot twin over the full 50 us horizon, T_Tr = 10 us."""
    return make_twin_dataset(seed=7, duration_us=50.0, shots=5000, train_horizon_us=10.0)


@pytest.fixture(scope="session")
def twin_noisy_20us() -> train.Dataset:
    """Criterion 07's twin (and the benchmark's fit-rank20): 5000 shots over
    20 us, T_Tr = 10 us."""
    return make_twin_dataset(seed=42, duration_us=20.0, shots=5000, train_horizon_us=10.0)


@pytest.fixture(scope="session")
def smoke_dataset() -> train.Dataset:
    """Tiny single-experiment problem for gradient checks."""
    exp = dynamics.Experiment(
        id="smoke", amplitude_p_MHz=2.0, duration_us=0.5, sample_dt_ns=20.0
    )
    traj = dynamics.integrate_rk4(DEV1, exp, planted_source(), 4.0)
    records = tomography.simulate_records(traj, 0, np.random.default_rng(7))
    return train.Dataset([(exp, records)], train_horizon_us=0.5, total_horizon_us=0.5)
