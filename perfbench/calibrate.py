"""Core-speed calibration of the benchmark's times.

On a shared host the speed of a core drifts: a fixed Python kernel's
time moves by a third and more, in spells of a fraction of a second to
many minutes, and the two cores drift independently. Raw wall times of
the same work then spread past any useful bound over ten runs. So the
benchmark times work in the process that does it and, every
``PROBE_EVERY_S`` seconds, times a fixed probe kernel there as well.
``calibrated_s`` scales each stretch of work by ``PROBE_REF_S`` over the
probe time sampled around it: the result is the time the work would take
on a core where the probe kernel takes ``PROBE_REF_S``. It moves with
the program's own speed, and far less with the host's.

The probe is pure interpreter work on a few cache lines, like the
program's own Python-level code, so it slows with the program when the
host takes the core's shared resources away.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from typing import Callable, Dict, List, Sequence

from tracer import Layer, install_wrappers

# probe_kernel's time at the reference speed (about a quiet core of the
# 2-vCPU Xeon VM the benchmark was written on)
PROBE_REF_S = 2.5e-4
# seconds of work between two speed samples; each sample costs a probe
# kernel, about 3 % of the work at this spacing
PROBE_EVERY_S = 0.01
# speed samples taken before and after a span too short to sample inside
BRACKET_SAMPLES = 10


def probe_kernel() -> float:
    s = 0.0
    d: Dict[int, float] = {}
    for j in range(2000):
        s += j * 0.5
        d[j & 63] = s
    return s


class SpeedProbe:
    """Samples the speed of the core, in the process being timed.

    ``sample`` times one ``probe_kernel``. Installed, the probe also
    samples on entry to a layer call when ``PROBE_EVERY_S`` seconds have
    passed since the last sample."""

    def __init__(self) -> None:
        self.samples = array("d")  # start and end of each probe_kernel run
        self._next = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        probe_kernel()
        end = time.perf_counter()
        self.samples.append(start)
        self.samples.append(end)
        self._next = end + PROBE_EVERY_S

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if clock() >= self._next:
                self.sample()
            return fn(*args, **kwargs)

        return probed

    def install(self, package) -> None:
        """Sample at every layer that resolves; a renamed one only makes
        the samples sparser (``selfcheck.py`` reports it)."""
        install_wrappers(package, self.wrap, strict=False)

    def durations(self) -> List[float]:
        s = self.samples
        return [s[i + 1] - s[i] for i in range(0, len(s), 2)]

    def dump(self, path: str, start: float, end: float) -> None:
        """Write the span's start, each sample's start and end, and the
        span's end, as raw doubles."""
        with open(path, "wb") as fh:
            array("d", [start]).tofile(fh)
            self.samples.tofile(fh)
            array("d", [end]).tofile(fh)


def load_samples(path: str) -> array:
    samples = array("d")
    with open(path, "rb") as fh:
        samples.frombytes(fh.read())
    return samples


def _running_median(values: List[float], half: int = 2) -> List[float]:
    """Median of each value and its ``half`` neighbours on either side;
    one sample caught by an interrupt does not move the speed."""
    n = len(values)
    return [statistics.median(values[max(0, i - half):i + half + 1]) for i in range(n)]


def calibrated_s(samples: Sequence[float]) -> float:
    """Calibrated time of a span dumped by ``SpeedProbe.dump``: the work
    between samples (probe time left out), each stretch scaled by the
    mean of the smoothed probe times at its two ends."""
    start, end = samples[0], samples[-1]
    inner = list(samples[1:-1])
    if not inner:
        raise ValueError("a calibrated span needs at least one speed sample")
    took = _running_median([b - a for a, b in zip(inner[0::2], inner[1::2])])
    edges = [start, *inner, end]
    total = 0.0
    for i in range(len(took) + 1):
        stretch = edges[2 * i + 1] - edges[2 * i]
        probe = (took[max(i - 1, 0)] + took[min(i, len(took) - 1)]) / 2
        total += stretch * PROBE_REF_S / probe
    return total


def bracketed_s(seconds: float, probe: SpeedProbe) -> float:
    """Calibrated time of a span too short to sample inside, from the
    median probe time of samples taken just before and just after it."""
    return seconds * PROBE_REF_S / statistics.median(probe.durations())
