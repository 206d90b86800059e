"""Fixed computations that follow the machine's speed while a task runs.

On a shared machine the processor's speed drifts by itself: neighbours on
the same cores slow it by up to a half, for seconds to minutes, and within
one task as well as between tasks. A task's wall time then says as much
about the machine as about the program. The benchmark therefore times a
short reference computation (``run``) every ``SAMPLE_INTERVAL_S`` seconds
while a task runs (``Sampler``), and reports, beside the raw times, the
task's time scaled to the speed at which the reference takes ``NOMINAL_S``
seconds.

The reference mixes the two kinds of work the workloads do: numpy calls on
small arrays, which is interpreter-bound like the threshold scan's fits,
and whole-array work on 14k points, which is arithmetic-bound like
long_history. It never calls potrisk, so no change to the program changes
it. Each sample runs one untimed slice first, so that the timed slice does
not depend on what the task left in the caches.

Import time follows the machine differently: it is mostly unmarshalling
code and loading shared libraries, and numpy's import also starts an
OpenBLAS thread that spins for a while, on the importing thread's core when
the other core is busy. ``setup_s`` is therefore measured as the importing
thread's CPU time and scaled by a second reference timed in the same
process right after the import: the importing thread's CPU time to import
``IMPORT_MODULES``, standard-library packages that neither potrisk nor
numpy uses (run.py fails when one of them is already loaded).
"""

import math
import signal
import statistics
import time

import numpy as np

# Medians on the machine the benchmark was built on (a shared 2-core Intel
# Xeon virtual machine, Python 3.11.7, numpy 2.4.6): the time of run(), and
# the importing thread's CPU time to import IMPORT_MODULES.
NOMINAL_S = 0.002
IMPORT_NOMINAL_S = 0.065

SAMPLE_INTERVAL_S = 0.25
IMPORT_MODULES = (
    "email.mime.multipart", "xml.dom.minidom", "http.server", "unittest", "sqlite3",
    "asyncio", "tarfile", "pydoc", "ssl", "smtplib", "imaplib",
)

_SMALL = np.linspace(0.01, 1.0, 200)
_LARGE = np.linspace(0.01, 1.0, 14_000)


def _work(small: int, large: int) -> float:
    acc = 0.0
    for k in range(small):
        tau = 0.1 + 1e-6 * k
        acc += float(np.log1p(tau * _SMALL).mean()) + math.log1p(tau)
    for k in range(large):
        tau = 0.1 + 1e-6 * k
        acc += float(np.log1p(tau * _LARGE).sum())
        acc += float((_LARGE[_LARGE > 0.5 - tau] - 0.5).mean())
    return acc


def run() -> float:
    """Seconds the reference computation takes now, after an untimed warm-up slice."""
    _work(13, 2)
    start = time.perf_counter()
    _work(130, 15)
    return time.perf_counter() - start


class Sampler:
    """Times ``run()`` every ``SAMPLE_INTERVAL_S`` of wall time inside a ``with`` block.

    The samples run in the main thread from a SIGALRM handler, between the
    program's own bytecodes. ``wall_s`` and ``cpu_s`` add up the time the
    samples themselves took, for the caller to subtract.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _sample(self, _signum, _frame) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.samples.append(run())
        self.wall_s += time.perf_counter() - wall
        self.cpu_s += time.process_time() - cpu

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def ref_s(self) -> float:
        """Median sample; one sample taken now when the block was too short for any."""
        return statistics.median(self.samples) if self.samples else run()
