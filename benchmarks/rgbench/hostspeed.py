"""Host speed, from a fixed reference task timed between ops.

On a shared host the CPU's speed drifts by tens of percent over minutes, as
other tenants come and go, and the drift is as slow as a run, so medians
over a run's rounds do not remove it. The worker therefore times a reference
task before the first op and after every op, and every end-to-end time is
reported at the reference speed:

    reported = measured * REFERENCE_S[kind] / median(reference times of the round)

The reference is the same kind of work as the workload's ops: ``loop``
(interpreted Python plus a numpy pass) for in-process workloads, ``spawn``
(a bare ``python -c pass`` process) for the CLI workload, whose ops are
dominated by process start. Neither touches the package under test, so no
change to the package moves them. Raw times are recorded beside the
reported ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: Reference times on a quiet 2-vCPU Xeon KVM guest (Python 3.11.7, numpy 2.4.6).
REFERENCE_S = {"loop": 0.0135, "spawn": 0.045}


def slowdown(kind: str, samples: list[float]) -> float:
    """How much slower than the reference the host ran during a round."""
    return statistics.median(samples) / REFERENCE_S[kind]


def reference(kind: str) -> float:
    """Time one run of the reference task ``kind``."""
    t0 = time.perf_counter()
    if kind == "spawn":
        subprocess.run([sys.executable, "-c", "pass"], check=True)
    else:
        import numpy as np  # imported here so the parent process stays numpy-free

        total = 0
        for i in range(200_000):
            total += i * i
        a = np.arange(200_000, dtype=float)
        (a * 1.5 + 2.0).sum()
    return time.perf_counter() - t0
