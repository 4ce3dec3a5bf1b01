"""Batch seeding kernel: uint64 seeds -> the PCG64 state that
``np.random.default_rng(seed)`` starts from, for a whole array at once.

``default_rng(seed)`` builds a ``SeedSequence``, whose ``generate_state``
runs its hash through Python-level loops over NumPy scalars (~17 us per
generator). The hash is a fixed sequence of uint32 operations whose
constants do not depend on the seed, so it vectorizes: every seed's
entropy pool is mixed and expanded as uint32 array ops, and only PCG64's
128-bit seeding step (``pcg64_set_seed``: two LCG steps around adding
the initial state) runs per seed, in Python ints.

A seed below 2**64 is one or two 32-bit entropy words; the pool has four,
and SeedSequence fills the missing ones with ``hashmix(0)``, which is
what a zero high word gives. So every seed is mixed as the four words
``(lo, hi, 0, 0)``. The result is pinned against ``default_rng`` by
tests/test_corpus_batch.py.
"""

from __future__ import annotations

import numpy as np

# numpy/random/bit_generator.pyx (SeedSequence)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL = 4
_M32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, n: int) -> list[tuple]:
    """The (xor, mul) constant pairs of n successive hash steps. The
    running hash constant is multiplied by ``mult`` at every step, the
    same for every seed, so the pairs are computed once here."""
    out, h = [], init
    for _ in range(n):
        nh = (h * mult) & _M32
        out.append((np.uint32(h), np.uint32(nh)))
        h = nh
    return out


# mix_entropy makes 4 + 4*3 hashmix calls; generate_state(4, uint64)
# draws 8 uint32 words
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_GEN_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    x, m = consts
    value = (value ^ x) * m
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _generate_state(seeds: np.ndarray) -> np.ndarray:
    """(n,) uint64 seeds -> (n, 4) uint64: ``SeedSequence(seed)
    .generate_state(4, np.uint64)`` for every seed."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    words = [(seeds & np.uint64(_M32)).astype(np.uint32),
             (seeds >> np.uint64(32)).astype(np.uint32), zero, zero]
    consts = iter(_MIX_CONSTS)
    pool = [_hashmix(w, next(consts)) for w in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    out = np.empty((len(seeds), 8), dtype=np.uint32)
    for i, c in enumerate(_GEN_CONSTS):
        out[:, i] = _hashmix(pool[i % _POOL], c)
    # word pairs are little-endian halves of each uint64
    return out.astype("<u4").view("<u8").astype(np.uint64)


def pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """(n,) uint64 seeds -> n ``(state, inc)`` pairs: the
    ``bit_generator.state["state"]`` of ``np.random.default_rng(seed)``."""
    out = []
    for s_hi, s_lo, i_hi, i_lo in _generate_state(seeds).tolist():
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _M128
        state = ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _M128
        out.append((state, inc))
    return out
