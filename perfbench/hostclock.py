"""Timing in reference-host seconds.

On a shared host the speed of the same code drifts by up to 1.6x over
periods of seconds (turbo clocks, busy neighbours), which swamps any
change worth measuring.  The benchmark therefore times a fixed calibration
loop next to what it measures and scales each wall time by the loop's
nominal time over its measured time: the result is what the operation
would have taken on the reference host.  The engine's code never runs in
the loop, so a faster engine still reads faster.

Run as a script, this module is the sampler that calibrates while a
server is under load (see :class:`LoadSampler`).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Seconds the calibration loop takes on the reference host (the 2-core
#: host the benchmark was defined on).
CALIBRATION_NOMINAL_S = 0.0125
#: Pause between samples of the load sampler: about 5 % of one core.
SAMPLER_PERIOD_S = 0.25


def calibrate() -> float:
    """Wall seconds of a fixed CPU-bound loop of dict stores and adds."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for index in range(100_000):
        table[index & 1023] = total
        total += index
    return time.perf_counter() - started


class HostClock:
    """Calibration samples taken between operations in this process."""

    def __init__(self) -> None:
        self.samples = [calibrate()]

    def sample(self) -> float:
        self.samples.append(calibrate())
        return self.samples[-1]

    def reference(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` of wall time between two samples, host-scaled."""
        return seconds * CALIBRATION_NOMINAL_S * 2 / (before + after)

    @property
    def speed(self) -> float:
        """Host speed relative to the reference host (above 1 is faster)."""
        return CALIBRATION_NOMINAL_S / statistics.median(self.samples)


class LoadSampler:
    """Calibration in a child process while a server is under load.

    The loop cannot run in the load generator itself: it would hold the
    generator's interpreter lock and delay the reader threads that
    timestamp replies.  A separate process samples every
    ``SAMPLER_PERIOD_S`` until its standard input closes.
    """

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def scale(self) -> float:
        """Stop sampling; the factor from wall to reference-host time."""
        out, _ = self._process.communicate("", timeout=30)
        return CALIBRATION_NOMINAL_S / float(out)

    def close(self) -> None:
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait()


def _sample_until_stdin_closes() -> None:
    closed = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.read()
        closed.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    samples = [calibrate()]
    while not closed.wait(SAMPLER_PERIOD_S):
        samples.append(calibrate())
    print(statistics.median(samples))


if __name__ == "__main__":
    _sample_until_stdin_closes()
