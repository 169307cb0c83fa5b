"""Calibration loop: a fixed piece of work timed next to every op.

The host this benchmark was built on runs 20-30% faster or slower for
minutes at a time, so a run's wall times say as much about the host as
about the program.  ``calibrate`` does a fixed mix of the same kinds of
work the ops do (CSV formatting and parsing in Python, a small dense
distance matrix and a stable sort in numpy) without touching the
package.  The median of its times over a run measures the host's speed
during that run; ``rows_per_cal`` and ``setup_s`` divide it out.

The loop runs in a process of its own (``Calibrator``), started fresh
for each run and idle while an op runs, so the measured process's heap,
allocator state and memory use cannot reach it.

    python3 bench/calib.py     # serve: one line in, one time out
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import time

import numpy as np

# median loop time (seconds) on the baseline host; setup_s is scaled to it
CAL_REF_S = 0.065

_RNG = np.random.default_rng(0)
_POINTS = _RNG.normal(size=(700, 2))
_ROWS = [
    [repr(float(a)), "cat" if a > 0 else "dog", repr(float(b))]
    for a, b in _RNG.normal(size=(4000, 2))
]


def calibrate() -> float:
    """Wall time of one pass of the fixed work, in seconds (about 0.06 s)."""
    started = time.perf_counter()
    buf = io.StringIO()
    csv.writer(buf).writerows(_ROWS)
    parsed = [float(row[0]) for row in csv.reader(io.StringIO(buf.getvalue()))]
    diff = _POINTS[:, None, :] - _POINTS[None, :, :]
    np.argsort(np.sqrt((diff**2).sum(axis=2)), axis=1, kind="stable")
    elapsed = time.perf_counter() - started
    if len(parsed) != len(_ROWS):
        raise RuntimeError("calibration loop lost rows")
    return elapsed


class Calibrator:
    """Client of a calibration process: ``measure()`` returns one loop time.

    ``Calibrator.start(env)`` starts the process and returns the client
    with its two pipe ends as ``fds``; another process can talk to the
    same calibration process through ``Calibrator(*fds)``.
    """

    def __init__(self, request_fd: int, reply_fd: int, proc=None):
        self.fds = (request_fd, reply_fd)
        self._requests = os.fdopen(request_fd, "w")
        self._replies = os.fdopen(reply_fd, "r")
        self.proc = proc

    @classmethod
    def start(cls, env: dict[str, str]) -> "Calibrator":
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        proc = subprocess.Popen([sys.executable, __file__], stdin=request_r,
                                stdout=reply_w, env=env)
        os.close(request_r)
        os.close(reply_w)
        return cls(request_w, reply_r, proc)

    def measure(self) -> float:
        """Faster of two passes of the loop, run in the calibration process."""
        self._requests.write("\n")
        self._requests.flush()
        reply = self._replies.readline()
        if not reply:
            raise RuntimeError("calibration process ended")
        return float(reply)

    def close(self) -> None:
        """Close the pipes; the client that started the process waits for it."""
        self._requests.close()
        self._replies.close()
        if self.proc is not None:
            try:
                self.proc.wait(timeout=10)  # end of input makes it exit
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def serve() -> None:
    for _ in sys.stdin:
        print(repr(min(calibrate(), calibrate())), flush=True)


if __name__ == "__main__":
    serve()
