"""Seeded, counter-based random number generation.

Every draw is a pure function of (seed, counter): the generator hashes a
64-bit counter through the splitmix64 finalizer, so identical seeds give
identical uniforms on any platform, and any number of draws can be produced in
one vectorized call without carrying mutable state. Draw t of a seed depends on
t alone, so a stream can be made a slice at a time (``_normals_at``) with the
same bits as one call. Normals are the same bits only on the same numpy build
and CPU path: ``special._acklam``'s tail calls ``np.log``, whose SIMD loop
numpy picks by CPU (ROADMAP item 3).
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


def _uniforms_at(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start, ..., start + count - 1 of ``uniforms(seed, ·)``."""
    mask = 0xFFFFFFFFFFFFFFFF
    base = ((_as_index(seed, "seed") & mask) * int(_GOLDEN)) & mask
    counters = np.uint64(base) + np.arange(start, start + count, dtype=np.uint64) * _MIX1
    bits = _splitmix64(counters)
    # Top 53 bits, offset by half a ulp so 0 and 1 are never returned.
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) / _TWO_53


def uniforms(seed: int, count: int) -> np.ndarray:
    """``count`` doubles in the open interval (0, 1)."""
    return _uniforms_at(seed, 0, _as_index(count, "count", 0))


def normals(seed: int, count: int) -> np.ndarray:
    """``count`` standard normal variates via the inverse-CDF transform."""
    return _acklam(uniforms(seed, count))


def _normals_at(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start, ..., start + count - 1 of ``normals(seed, ·)``."""
    return _acklam(_uniforms_at(seed, start, count))
