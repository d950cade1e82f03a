"""Host-calibrated stopwatch for the end-to-end timings.

On a shared host the speed left to one process drifts by tens of percent,
in stretches that last from a second to minutes, with other tenants' load.
A median over one run cannot remove a drift that lasts the whole run, and
process CPU time drifts just as much, so raw seconds from two runs minutes
apart differ by more than a regression worth catching.

``Clock`` therefore brackets every timed operation with a short, fixed
calibration loop that mixes the kinds of work qude does (small-array numpy
calls, JSON encoding and decoding, batched 2x2 eigendecompositions). An
operation's calibrated time is its measured time scaled by
``REFERENCE_S / c``, where ``c`` is the mean of the two loop times around it:
seconds as they would read on a host where the loop takes ``REFERENCE_S``,
the loop's time on this 2-core host when it is quiet. Raw seconds are kept
next to the calibrated ones.

One loop time is itself noisy (its interquartile range reached 38% of its
median on a loaded host), while an operation's raw time repeats within a
few percent inside one run. So after a long operation the loop runs several
times and its median is used: as many times as fit in ``CALIBRATION_SHARE``
of the operation's time, at most ``MAX_LOOPS``. Short operations, such as
chain-tiny's verbs, keep a single loop.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.020
CALIBRATION_SHARE = 0.05
MAX_LOOPS = 7

_MATRIX = np.random.default_rng(0).standard_normal((4, 4))
_STATES = np.tile(np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]), (256, 1, 1))
_ROW = {"exp_id": "exp-000", "amplitude_MHz": 1.2345, "time_us": 0.004,
        "shots": 5000, "kx": 2500, "ky": 2400, "kz": 10}


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of numpy, JSON and eigh work."""
    start = time.perf_counter()
    x = np.ones(4)
    for _ in range(1500):
        x = _MATRIX @ x
        x /= np.abs(x).max()
    for _ in range(1500):
        json.loads(json.dumps(_ROW))
    for _ in range(30):
        np.linalg.eigh(_STATES)
    return time.perf_counter() - start


class Span:
    """Result of one timed block: raw and calibrated seconds."""

    raw_s = 0.0
    seconds = 0.0


class Clock:
    def __init__(self):
        self._last = statistics.median(calibration_loop() for _ in range(MAX_LOOPS))
        self.calibrations = [self._last]
        self._depth = 0

    @contextmanager
    def timed(self):
        """Time the block; the calibration loop runs after it.

        A block timed inside another one is not bracketed (its calibrated
        seconds equal its raw seconds); the outer block's calibration covers it.
        """
        span = Span()
        self._depth += 1
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.raw_s = span.seconds = time.perf_counter() - start
            self._depth -= 1
            if self._depth == 0:
                loops = int(span.raw_s * CALIBRATION_SHARE / self._last)
                after = statistics.median(
                    calibration_loop() for _ in range(min(MAX_LOOPS, max(1, loops)))
                )
                span.seconds = span.raw_s * REFERENCE_S / (0.5 * (self._last + after))
                self._last = after
                self.calibrations.append(after)
