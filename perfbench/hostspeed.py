"""Host-speed calibration of measured wall times.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent over seconds to minutes as other tenants load it.
Averaging inside one run cannot remove a slowdown that lasts as long as
the run, so two runs of the same code would differ by that much.

:class:`HostSpeed` therefore interleaves a fixed *probe* with the
measured work: the same few milliseconds of small-vector numpy and
interpreter work every time, on data of its own and none of the
program's code.  Its mix was chosen by how well it tracked each
workload's time steps over several minutes of drift.  It probes at
time-step boundaries at most every ``PROBE_INTERVAL_S`` seconds, and
around every timed episode and set-up.  A measured interval is then
reported in *reference seconds*: its wall time minus the probes inside
it, times ``PROBE_REF_S`` over the mean time of the probes inside and
on either side of it.  On a host where the probe takes ``PROBE_REF_S``
the two are equal; a change to the program moves reference seconds as
it moves wall seconds, while the host's drift moves the probe and the
work together and cancels.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal probe time: about the probe's median, between time steps,
#: on the 2-vCPU Xeon the benchmark was calibrated on.  It fixes the
#: unit, not the comparison.
PROBE_REF_S = 1.5e-3

#: Shortest gap between two probes at time-step boundaries.
PROBE_INTERVAL_S = 0.05

_rng = np.random.default_rng(12345)
_VEC_A = _rng.random(3549)
_VEC_B = _rng.random(3549)
_PERM = _rng.permutation(3549)
_SMALL_A = _rng.random(225)
_SMALL_B = _rng.random(225)


class _Item:
    def __init__(self, x: int) -> None:
        self.x = x

    def plus(self, y: int) -> int:
        return self.x + y


def probe_work() -> float:
    """The fixed probe, in the measured workloads' proportions:
    numpy calls on mesh-sized and on tiny vectors, and interpreter
    work on objects, method calls, tuples and string-keyed dicts."""
    acc = 0.0
    for _ in range(45):
        y = _VEC_A * 1.0001 + _VEC_B
        acc += float(y @ _VEC_B) + float(y[_PERM][3])
        for j in range(40):
            acc += j
    for _ in range(100):
        y = _SMALL_A * 1.0001 + _SMALL_B
        acc += float(np.dot(y, _SMALL_B))
        y[3] = np.sqrt(abs(acc))
        acc += float(np.linalg.norm(y))
    d = {}
    for j in range(1000):
        item = _Item(j)
        d[str(j % 97)] = (item, item.plus(j))
    return acc + len(d)


class HostSpeed:
    """Probe log of one run, and the conversion of measured intervals
    to reference seconds."""

    def __init__(self) -> None:
        self.interval = PROBE_INTERVAL_S
        self.at: list[float] = []  # probe start times
        self.took: list[float] = []  # probe durations
        self._due = 0.0
        probe_work()  # warm caches and allocator before the first probe

    def tick(self, force: bool = False) -> None:
        """At an interval boundary: probe when one is due (or forced)."""
        t0 = time.perf_counter()
        if force or t0 >= self._due:
            probe_work()
            t1 = time.perf_counter()
            self.at.append(t0)
            self.took.append(t1 - t0)
            self._due = t1 + self.interval

    def convert(self, starts, ends) -> tuple[np.ndarray, np.ndarray]:
        """``(busy, reference)`` seconds of the intervals
        ``[starts[i], ends[i]]``: wall time minus the probes inside,
        and that scaled to the reference host speed by the probes
        inside and on either side."""
        a = np.asarray(starts, dtype=float)
        b = np.asarray(ends, dtype=float)
        at = np.asarray(self.at)
        cum = np.concatenate([[0.0], np.cumsum(self.took)])
        lo = np.searchsorted(at, a)
        hi = np.searchsorted(at, b)
        busy = (b - a) - (cum[hi] - cum[lo])
        first = np.maximum(lo - 1, 0)
        last = np.minimum(hi + 1, len(at))
        mean = (cum[last] - cum[first]) / (last - first)
        return busy, busy * (PROBE_REF_S / mean)

    def slowdown(self) -> float:
        """Median probe time over the reference: how much slower than
        the reference the host ran, 1 at the reference speed."""
        return float(np.median(self.took)) / PROBE_REF_S
