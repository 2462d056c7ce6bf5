"""The benchmark's clocks: wall time, and CPU time at a nominal host speed.

On a shared 2-vCPU host the wall time of the same CPU-bound work moves
by a third from one minute to the next. Part of that is time the
hypervisor gives our vCPU to other guests (steal), which the process's
CPU time leaves out; the rest is other tenants contending for the cores'
caches and memory, which makes the CPU time itself longer. Medians over a
whole run remove neither, since both move every item of a run alike.

So a workload whose items compute rather than wait is timed on the
`cpu` clock: the process's CPU time (all threads, user and system),
rescaled to a nominal host speed measured just before the work ran. A
fixed calibration kernel, owned by the benchmark and sharing no code with
clipcritic, is timed before every cycle and every set-up:

    cpu clock = cpu_s * NOMINAL_S / median(last few kernel_cpu_s)

A change that makes clipcritic's CPU work cheaper shows in full; time
spent waiting does not show at all, so a workload that waits on its
model is timed on the `wall` clock instead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time
from collections import deque

# CPU time of one kernel() on the 2-vCPU Xeon host the benchmark was
# defined on, at a typical moment; a fixed reference, not a measurement
NOMINAL_S = 0.0020

_rng = random.Random(0)
_FRAMES = [
    {"t": f"{i // 60:02d}:{i % 60:02d}",
     "caption": f"w{_rng.randrange(99)} x{_rng.randrange(99)} y{i}"}
    for i in range(7200)
]


def kernel() -> str:
    """Python-level work shaped like clipcritic's: slicing a 2 h frame
    list into windows, picking captions, serialising and hashing."""
    picked = [[f["caption"] for f in _FRAMES[start:start + 64:8]]
              for start in range(0, len(_FRAMES), 97)]
    digest = hashlib.sha256(json.dumps(picked).encode()).hexdigest()
    json.loads(json.dumps(_FRAMES[:800]))
    return digest


class Clock:
    """`calibrate()`, then `start()` and `elapsed(mark, wall)` in seconds."""

    def __init__(self, window: int = 5):
        self.scale = 1.0
        self.samples: deque[float] = deque(maxlen=window)
        kernel()  # warm

    def calibrate(self) -> None:
        """Time the kernel once; the scale follows the median of the last
        few samples, so one disturbed sample does not skew a cycle."""
        gc.disable()  # a collection of clipcritic's garbage is not host speed
        try:
            c0 = time.process_time()
            kernel()
            self.samples.append(time.process_time() - c0)
        finally:
            gc.enable()
        self.scale = NOMINAL_S / max(statistics.median(self.samples), 1e-6)

    @staticmethod
    def start() -> tuple[float, float]:
        return time.perf_counter(), time.process_time()

    def elapsed(self, mark: tuple[float, float], wall: bool) -> float:
        """Seconds since `mark` on the wall clock, or on the cpu clock."""
        if wall:
            return time.perf_counter() - mark[0]
        return (time.process_time() - mark[1]) * self.scale
