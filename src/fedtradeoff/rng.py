"""Splittable seeded random streams.

Every random draw in the package comes from a stream addressed by
``(master_seed, *key)`` where the key is a tuple of small integers naming the
consumer, e.g. ``(STREAM_PROTECT, round, client_id)``. Streams are derived via
``numpy.random.SeedSequence(entropy=master_seed, spawn_key=key)``, so

* the same (master_seed, key) always yields the same stream,
* distinct keys yield statistically independent streams,
* adding trials / sweep points / rounds never perturbs existing streams.

Stream namespace constants are defined here so keys never collide.
"""

from __future__ import annotations

import numpy as np

# Top-level stream namespaces. First key element.
STREAM_DATA = 1          # dataset generation: (STREAM_DATA, client_id)
STREAM_INIT = 2          # model parameter init: (STREAM_INIT,)
STREAM_PROTECT = 3       # protection noise: (STREAM_PROTECT, round, client_id)
STREAM_ATTACK = 4        # attack init and search: (STREAM_ATTACK, ...)
STREAM_EVAL = 5          # fresh evaluation draws: (STREAM_EVAL, ...)
STREAM_ESTIMATE = 6      # constant estimation sampling: (STREAM_ESTIMATE, ...)
STREAM_TRIAL = 7         # per-trial master seeds: (STREAM_TRIAL, sweep_index, trial_index)
STREAM_MECH = 8          # mechanism setup (HE permutation/offset): (STREAM_MECH,)


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the Generator for the stream addressed by (master_seed, *key)."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(seq))


# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe), one per hash
# call in order, and PCG64's 128-bit LCG multiplier
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_HASH_POOL = np.array([0x43B0D7E5 * pow(0x931E8875, i, 1 << 32) & _MASK32 for i in range(65)],
                      dtype=np.uint64)     # seeds < 2**128 with keys of up to 12 words
_HASH_STATE = np.array([0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) & _MASK32 for i in range(9)],
                       dtype=np.uint64)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Below this many keys ``normals`` calls ``stream`` per key: the batch costs ~130 us plus
# ~9 us a key, a stream ~30 us; they broke even at 5-6 keys (2-core Xeon, numpy 2.4.6).
_BATCH_MIN = 6


def normals(master_seed: int, keys: list[tuple[int, ...]], d: int) -> np.ndarray:
    """Row i of the (len(keys), d) result is the first d standard normals of
    ``stream(master_seed, *keys[i])``, bit for bit.

    Enough keys of one length with 32-bit entries have their SeedSequence
    pools hashed at once, in uint64 arithmetic masked to 32 bits; each row then
    sets one local PCG64 to its key's ``setseq_128`` state and draws. Rows of
    other keys come from ``stream`` itself."""
    seed, out = int(master_seed), np.empty((len(keys), d))
    words = np.asarray(keys, dtype=np.uint64) if len(keys) >= _BATCH_MIN else None
    n = 4 * max(4, (seed.bit_length() + 31) // 32)   # hash calls taken by the seed
    if words is None or words.max(initial=0) > _MASK32 or n + 4 * words.shape[1] >= 65:
        for row, key in zip(out, keys):
            row[:] = stream(seed, *key).standard_normal(d)
        return out
    pool = np.broadcast_to(np.random.SeedSequence(seed).pool.astype(np.uint64), (len(keys), 4))
    for col in words.T:                  # mix each key word into the seed's pool
        h = (col[:, None] ^ _HASH_POOL[n:n + 4]) * _HASH_POOL[n + 1:n + 5] & _MASK32
        pool = (0xCA01F9DD * pool - 0x4973F715 * (h ^ h >> 16)) & _MASK32
        pool ^= pool >> 16
        n += 4
    state = (pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_STATE[:8]) * _HASH_STATE[1:] & _MASK32
    state ^= state >> 16
    gen = np.random.Generator(np.random.PCG64(0))
    for row, (s0, s1, i0, i1) in zip(out, (state[:, 0::2] | state[:, 1::2] << 32).tolist()):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        lcg = ((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128
        gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": lcg, "inc": inc}}
        gen.standard_normal(out=row)
    return out


def trial_seed(master_seed: int, sweep_index: int, trial_index: int) -> int:
    """Derive a 63-bit per-trial master seed.

    Trials are addressed, not enumerated: appending trials or sweep points
    never changes earlier trials' seeds.
    """
    g = stream(master_seed, STREAM_TRIAL, sweep_index, trial_index)
    return int(g.integers(0, 2**63 - 1))
