"""CPU speed probe: a fixed pure-Python loop timed in worker processes.

Single-core speed on a shared machine drifts by ±20–25 % between
15-second windows, and CPU time drifts with wall time, so it cannot be
subtracted out. The probe measures that drift: the benchmark runs it
between timed calls (never during one) and divides each call's wall
time by the mean of the probe before and after it.

The probe imports nothing from the program under test, so a change to
the program cannot move it. It runs in one process per core that the
workload's program uses, all at once, and reports the mean of the
workers' own timings.

Run as a script, this file is one probe worker: it reads an iteration
count per line on stdin and answers with the seconds the loop took.
"""
from __future__ import annotations

import subprocess
import sys
import time

PROBE_ITERS = 2_000_000
# Probe time the scaled timings refer to: about one single-process probe on
# the 4-core machine the benchmark was written on.
P_REF_S = 0.25


def _spin(iters: int) -> int:
    x = 0
    for _ in range(iters):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


def _worker() -> None:
    for line in sys.stdin:
        iters = int(line)
        t0 = time.perf_counter()
        _spin(iters)
        sys.stdout.write(f"{time.perf_counter() - t0!r}\n")
        sys.stdout.flush()


class ProbePool:
    """``n`` probe worker processes, started once and stopped by :meth:`close`."""

    def __init__(self, n: int) -> None:
        self.procs = [
            subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(n)
        ]
        self.times: list[float] = []
        self.measure()  # the first probe of a fresh process runs slow
        self.times.clear()

    def measure(self) -> float:
        """Run the probe on every worker at once; mean seconds per worker."""
        for p in self.procs:
            p.stdin.write(f"{PROBE_ITERS}\n")
            p.stdin.flush()
        vals = []
        for p in self.procs:
            line = p.stdout.readline()
            if not line:
                raise RuntimeError(f"probe worker {p.pid} exited")
            vals.append(float(line))
        t = sum(vals) / len(vals)
        self.times.append(t)
        return t

    def close(self) -> None:
        for p in self.procs:
            if p.stdin and not p.stdin.closed:
                p.stdin.close()
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdout.close()


def scaled(wall: float, probe_before: float, probe_after: float) -> float:
    """Wall seconds expressed at the reference probe speed."""
    return wall * P_REF_S / (0.5 * (probe_before + probe_after))


if __name__ == "__main__":
    _worker()
