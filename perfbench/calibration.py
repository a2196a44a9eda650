"""Machine-speed calibration, so timings from a shared machine compare.

The 2-vCPU machine this benchmark was built on, shared with other tenants,
changes speed by up to 2x within seconds, while CPU time tracks wall time:
the core gets slower, the process is not descheduled. Over 100 s the mean
latency of one gzasp call drifted from 67 to 113 ms (coefficient of
variation 0.16 over 10-call windows); divided by a calibration loop run
just before each call, the variation fell to 0.06. Memory-bound calls slow
much less than interpreted code and are over-corrected (see
workloads.VIA_STR_MAX_N).

``calibrate`` runs a fixed mix of the work gzasp does: dict updates and
calls (the parser and rule objects), frozenset algebra (reducts and
interpretations), big-integer shifts and masks (columns) and a regex
scan (the tokenizer). Every latency the benchmark reports is scaled by
REFERENCE_S over the calibration time measured around it, which expresses
it at a fixed machine speed. The code under test never runs inside it, so
a change to gzasp cannot move the scale.
"""

from __future__ import annotations

import re
import statistics
from time import perf_counter

# Calibration time of the machine the benchmark was built on, when fast.
REFERENCE_S = 0.005

_WORDS = tuple(f"atom{i}" for i in range(64))
_BASE = frozenset(range(300))
_BIG = (1 << 8192) - 1
_TEXT = " ".join(f"x{i} :- not x{i + 1}, count{{x{i}, x{i + 2}}} >= 1." for i in range(60))
_TOKEN = re.compile(r"\s+|[A-Za-z_][A-Za-z0-9_]*|-?[0-9]+|:-|<=|>=|[.{},|:]")


def _bump(value: int) -> int:
    return value + 1


def calibrate() -> float:
    """Seconds taken by the fixed calibration mix, about 5 ms."""
    started = perf_counter()
    table: dict = {}
    for i in range(4500):
        key = _WORDS[i % 64]
        table[key] = table.get(key, 0) + _bump(i)
    acc = 0
    for i in range(180):
        acc += len(_BASE & frozenset(range(i, i + 150)))
    for i in range(2200):
        acc ^= (_BIG >> (i % 128)) & 0xFFFF
    for _ in range(4):
        acc += len(_TOKEN.findall(_TEXT))
    return perf_counter() - started


def scales(samples: list, window: int = 5) -> list:
    """For each calibration sample, REFERENCE_S over the median of the
    ``window`` samples centred on it: the factor that takes a time measured
    next to it to the reference speed."""
    half = window // 2
    out = []
    for index in range(len(samples)):
        low = max(0, min(index - half, len(samples) - window))
        out.append(REFERENCE_S / statistics.median(samples[low : low + window]))
    return out
