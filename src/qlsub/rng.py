"""Counter-based random primitives for reproducible record-level sampling.

Every stochastic decision is keyed on (seed, stream tag, global record
index), so the uniform attached to record i is the same no matter how the
data is blocked, sharded, or threaded.  The generator is a splitmix-style
64-bit mixer evaluated independently per counter value; there is no
sequential state to advance.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / (1 << 53)

# Stream tags keep the pilot pass, the main sampling pass, and replication
# seeding on disjoint substreams of one user-facing seed.
PILOT_STREAM = 1
MAIN_STREAM = 2
REPLICATION_STREAM = 3


def _mix_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *parts: int) -> int:
    """Fold integer tags into a seed, yielding an independent substream key."""
    key = _mix_int(int(seed) + _GAMMA)
    for part in parts:
        key = _mix_int(key ^ _mix_int((int(part) + 1) * _GAMMA))
    return key


def uniforms(seed: int, indices: np.ndarray, stream: int = MAIN_STREAM) -> np.ndarray:
    """Uniform(0, 1) variates keyed on (seed, stream, index), elementwise.

    ``indices`` are global record indices; the value for a given index never
    depends on the other indices in the call.  Each variate is a 53-bit
    hash times ``2**-53``, so it is a multiple of ``2**-53`` in [0, 1).

    The splitmix rounds run in place on one ``uint64`` copy of the indices
    plus one scratch buffer.  ``(i + 1) * gamma + key`` is folded into
    ``i * gamma + (key + gamma)``, whose constant is reduced as a Python
    int, so no ``uint64`` scalar can overflow.
    """
    z = np.array(indices, dtype=np.uint64)
    t = np.empty_like(z)
    z *= np.uint64(_GAMMA)
    z += np.uint64((derive_seed(seed, stream) + _GAMMA) & _MASK)
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=t)
        z *= np.uint64(mul)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    z >>= np.uint64(11)
    del t  # freed before the float copy, so a call holds two arrays at most
    u = z.astype(np.float64)
    u *= _INV53
    return u
