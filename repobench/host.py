"""Host record and host-speed calibration for every benchmark result.

A shared host changes speed: the same fixed work runs up to ~1.45x
slower in phases that last from a few seconds to tens of minutes, and
process CPU time moves with wall time, so the slowdown is not
scheduling.  A result therefore carries the rate of a fixed calibration
kernel taken at the start and at the end of the run, and the runner
times one kernel right before every timed interval (set-up or op) to
express its duration at a fixed reference speed (:func:`speed_factors`).

Thread pools of the BLAS/OpenMP libraries are pinned to one thread by
``run.py`` before numpy is imported; the pinned values are recorded here
so no workload silently uses more threads than cores.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Dict, List, Sequence

#: Environment variables pinned to 1 before numpy/scipy are imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

CALIBRATION_REPEATS = 9

#: Kernel time that defines the reference speed: an interval is reported
#: as the time it would take on a host where one kernel takes 5 ms.
REFERENCE_KERNEL_S = 0.005

#: Kernel samples (centred on an interval) whose median sets its speed.
SPEED_WINDOW = 5


def pin_threads() -> None:
    """Pin every known native thread pool to one thread (call pre-import)."""
    for name in THREAD_VARS:
        os.environ[name] = "1"


def _kernel() -> int:
    # Fixed integer work: no allocation growth, no library calls, so its
    # speed moves only with the host, never with the library under test.
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


def kernel_seconds() -> float:
    """Time one calibration kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def speed_factors(kernels: Sequence[float]) -> List[float]:
    """Reference-speed factor for each kernel sample, in time order.

    Sample ``i`` gets ``REFERENCE_KERNEL_S`` over the median of the
    ``SPEED_WINDOW`` samples centred on it; an interval timed right after
    sample ``i`` is reported as its duration times that factor.  On a
    2-core shared Xeon VM, 90 s of sweep-cold ops (same-size blocks)
    spread 0.29 (IQR / median) as measured and 0.10 after scaling.
    """
    half = SPEED_WINDOW // 2
    return [
        REFERENCE_KERNEL_S
        / statistics.median(kernels[max(0, i - half) : i + half + 1])
        for i in range(len(kernels))
    ]


def calibration_rate() -> Dict[str, float]:
    """Median kernel time (ms) over a few repeats, and kernels per second."""
    median_ms = statistics.median(
        kernel_seconds() for _ in range(CALIBRATION_REPEATS)
    ) * 1e3
    return {"kernel_ms": median_ms, "kernels_per_s": 1e3 / median_ms}


def load_average() -> list:
    try:
        return list(os.getloadavg())
    except OSError:  # pragma: no cover - platforms without getloadavg
        return []


def host_record() -> Dict[str, object]:
    """Static facts about the interpreter, libraries and cores."""
    import numpy
    import scipy

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count()
    return {
        "usable_cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "machine": platform.machine(),
    }
