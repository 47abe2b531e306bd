"""Host speed: a fixed reference kernel timed beside every measurement.

On a shared host the same work runs up to 1.8 times slower while other
tenants load the machine, and a slow spell lasts from seconds to minutes,
often longer than a run. Neither CPU time nor the minimum of repetitions
removes it: thread time slows down with wall time, because the core itself
runs slower. Python and numpy code slow down together, though. So the
benchmark follows each timed piece of work with one run of a fixed kernel
of small numpy operations, which is not semloc code, and reports the work
in reference seconds:

    reference time = measured time * REFERENCE_S / kernel time

On the 2-core Intel Xeon (2.0 GHz) host the benchmark was built on,
frame wall times moved by 30-40% from one 30 s run to the next, while
frame time over kernel time moved by 2-4%. Work spread over a process
pool is scaled by the kernel run on every core at once (probe_parallel),
which tracked it better than a single-core probe. A change to semloc does
not change the kernel, so it shows in full. Raw wall times are printed
beside the metrics.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

# The kernel's time on an idle core of the host the benchmark was built on,
# so that reference times read as that host's milliseconds; and its time
# there when it runs on both cores at once (probe_parallel).
REFERENCE_S = 3.3e-3
REFERENCE_PARALLEL_S = 3.8e-3


class HostSpeed:
    """Times the reference kernel and converts wall times to reference times."""

    def __init__(self):
        self._b = np.random.default_rng(0).standard_normal((50, 50))
        self.kernel_times: list[float] = []  # every probe, s

    def probe(self) -> float:
        """Run the kernel once; its wall time in seconds."""
        b = self._b
        start = time.perf_counter()
        for _ in range(6):
            np.linalg.svd(b)
            np.sort(b, axis=1)
            np.exp(b).sum(axis=0)
            b[b > 0].sum()
        elapsed = time.perf_counter() - start
        self.kernel_times.append(elapsed)
        return elapsed

    def probe_parallel(self, workers: int, runs: int = 16) -> float:
        """Median kernel time, s, over `runs` runs in this process and in each of
        `workers - 1` forked copies, all at once: the host's speed for work
        spread over `workers` cores, as a process pool spreads it."""
        children = []
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the copy: run the kernel, send its times, exit at once
                try:
                    os.close(read_end)
                    os.write(write_end, json.dumps([self.probe() for _ in range(runs)]).encode())
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((pid, read_end))
        times = [self.probe() for _ in range(runs)]
        del self.kernel_times[-runs:]
        for pid, read_end in children:
            with os.fdopen(read_end, "rb") as fh:
                times += json.loads(fh.read() or b"[]")
            os.waitpid(pid, 0)
        return statistics.median(times)

    def reference(self, wall_s: float, kernel_s: float, parallel: bool = False) -> float:
        """`wall_s` measured while the kernel took `kernel_s`, in reference seconds."""
        return wall_s * (REFERENCE_PARALLEL_S if parallel else REFERENCE_S) / kernel_s
