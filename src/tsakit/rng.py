"""Seeded, counter-based random number generation.

Every draw is a pure function of (seed, counter): the generator hashes a
64-bit counter through the splitmix64 finalizer, so identical seeds give
identical uniforms on any platform, and any number of draws can be produced in
one vectorized call without carrying mutable state. Each seed has one stream
of uniforms and one of normals, one function each. Draw t of a seed depends
on t alone, so a stream can be made a slice at a time: ``normals(seed,
count, start)`` is draws start..start + count - 1, the same bits as that
slice of one call from 0. Normals are the same bits only on the same numpy
build and CPU path: ``special._acklam``'s tail calls ``np.log``, whose SIMD
loop numpy picks by CPU (ROADMAP item 3).
"""
from __future__ import annotations

import numpy as np

from .errors import _as_index
from .special import _acklam

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO_53 = float(1 << 53)


def _splitmix64(v: np.ndarray) -> np.ndarray:
    v = (v + _GOLDEN).astype(np.uint64)
    v ^= v >> np.uint64(30)
    v *= _MIX1
    v ^= v >> np.uint64(27)
    v *= _MIX2
    v ^= v >> np.uint64(31)
    return v


def uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Draws start, ..., start + count - 1 of the seed's stream: doubles in
    the open interval (0, 1)."""
    count = _as_index(count, "count", 0)
    # Draw t hashes the counter seed * _GOLDEN + t * _MIX1 mod 2**64.
    first = (_as_index(seed, "seed") * int(_GOLDEN)
             + _as_index(start, "start", 0) * int(_MIX1)) % (1 << 64)
    counters = np.uint64(first) + np.arange(count, dtype=np.uint64) * _MIX1
    bits = _splitmix64(counters)
    # Top 53 bits, offset by half a ulp so 0 and 1 are never returned.
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) / _TWO_53


def normals(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Draws start, ..., start + count - 1 of the seed's standard normal
    stream, by the inverse-CDF transform of ``uniforms``' draws."""
    return _acklam(uniforms(seed, count, start))
