"""Measurement helpers: percentiles, memory, host speed, run state.

Everything the benchmark writes goes under ``.bench_build/perfbench`` in
the checkout it runs from (git ignores it).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Checkout root (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs keep their exact-counter records and span files.
STATE_DIR = ROOT / ".bench_build" / "perfbench"

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile ``q`` (0..1) and the samples beyond it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1]), len(ordered) - rank


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``)."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb(children: int = 0) -> float:
    """Peak resident set of this process plus ``children`` waited-for
    child processes, each counted at the largest child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


#: Thread CPU milliseconds one calibration slice takes at the reference
#: speed every end-to-end time is stated in (about its median on the
#: 2-vCPU VM the benchmark was built on).
REFERENCE_SLICE_MS = 3.0

#: Seconds between calibration slices in a timed phase.
SLICE_INTERVAL_S = 0.1

_SLICE_POINTS = [tuple(map(float, row))
                 for row in np.random.default_rng(0).random((400, 4))]
_SLICE_MATRIX = np.random.default_rng(1).random((64, 4))


def _calibration_slice() -> None:
    """A fixed mix of the kinds of work the library does: a best-first
    skyline over 400 points (heap, tuples, dominance tests), dictionary
    and heap churn, and small numpy products."""
    heap = [(sum(point), point) for point in _SLICE_POINTS]
    heapq.heapify(heap)
    skyline: list = []
    while heap:
        _, p = heapq.heappop(heap)
        if not any(s[0] <= p[0] and s[1] <= p[1] and s[2] <= p[2]
                   and s[3] <= p[3] for s in skyline):
            skyline.append(p)
    counts: Dict[int, int] = {}
    queue: list = []
    for index in range(1500):
        key = index * 2654435761 % 1000003
        counts[key % 997] = counts.get(key % 997, 0) + 1
        heapq.heappush(queue, (key * 0.5, index))
        if len(queue) > 64:
            heapq.heappop(queue)
    total = 0.0
    for index in range(150):
        rows = _SLICE_MATRIX * (index + 1)
        total += float(rows[:, 0] @ rows[:, 1]) + float(rows.min())
    if total < 0 or not skyline or not counts:  # keep the work live
        raise RuntimeError("calibration slice misbehaved")


def slice_ms() -> float:
    """Thread CPU milliseconds of one calibration slice."""
    start = time.thread_time()
    _calibration_slice()
    return (time.thread_time() - start) * 1e3


class HostSpeed:
    """Calibration slices interleaved with a run's operations, which
    state the run's times at a reference host speed.

    The host this benchmark runs on shares its cores: the speed of fixed
    code moves by up to 1.9x between stretches of seconds to minutes, in
    step for the benchmark's operations and for a fixed calibration
    slice run beside them, in each process that does the operations'
    work. :meth:`tick` runs a slice at most every
    :data:`SLICE_INTERVAL_S` of a timed phase, timed in thread CPU time
    so that other threads and processes of the program cannot slow it;
    :attr:`scale` is :data:`REFERENCE_SLICE_MS` over the slices' mean,
    the factor that turns a time measured in this run into one at the
    reference speed. A change to the library changes operation times and
    leaves the slices alone; a slower or faster host changes both.
    """

    def __init__(self) -> None:
        self.slices_ms: List[float] = []
        #: Runs a slice in another process that does the workload's work
        #: (serve-net's server) and returns its milliseconds.
        self.remote: Optional[Callable[[], float]] = None
        self._due = 0.0

    def tick(self) -> float:
        """Run a slice (and a remote one) if due; returns the wall seconds
        they took."""
        now = time.perf_counter()
        if now < self._due:
            return 0.0
        self.slices_ms.append(slice_ms())
        if self.remote is not None:
            self.slices_ms.append(self.remote())
        end = time.perf_counter()
        self._due = end + SLICE_INTERVAL_S
        return end - now

    @property
    def scale(self) -> float:
        return REFERENCE_SLICE_MS / statistics.fmean(self.slices_ms)


def host_probe() -> float:
    """Median milliseconds of 20 calibration slices back to back.

    Printed before and after every run (never a metric), so that two
    sets of runs that disagree can be traced to a slow window of the host.
    """
    return median([slice_ms() for _ in range(20)])


def source_digest() -> str:
    """SHA-256 of the library sources and this benchmark's own files.

    Exact-counter records are keyed by it: counters must repeat for one
    seed on one version of the code, and may change with the code.
    """
    sha = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files += sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in files:
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def check_counters(workload: str, seed: int, size: str,
                   streams: Dict[str, list]) -> Optional[str]:
    """Compare this run's exact counters with earlier runs of the seed.

    The first run of a (workload, seed, size, code version) stores its
    counters; every later run must agree with them over the common
    prefix of each stream (run lengths differ with host speed), and
    extends what is stored. Returns the first disagreement, or ``None``.
    """
    directory = STATE_DIR / "counters"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}-{size}-seed{seed}-{source_digest()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for name, entries in streams.items():
        for index, (mine, theirs) in enumerate(zip(entries,
                                                   stored.get(name, []))):
            if mine != theirs:
                return (f"{name} {index}: counters {mine} differ from "
                        f"{theirs} recorded by an earlier run of this seed")
    merged = {name: max(entries, stored.get(name, []), key=len)
              for name, entries in streams.items()}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**stored, **merged}))
    os.replace(tmp, path)
    return None


def write_spans(name: str, spans: Dict[str, list]) -> Path:
    """Write a traced run's spans; returns the file written."""
    directory = STATE_DIR / "spans"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(spans))
    return path
