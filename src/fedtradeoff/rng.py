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
                      dtype=np.uint64)     # a 2-word seed's 16 calls, then keys of up to 12 words
_HASH_STATE = np.array([0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) & _MASK32 for i in range(9)],
                       dtype=np.uint64)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Below this many streams ``streams`` calls ``stream`` per stream: the batch costs ~120 us
# plus ~4 us a stream, a stream 15-30 us; they broke even at 6-10 (2-core Xeon, numpy 2.4.6).
_BATCH_MIN = 6


def _mix(pool: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of hash values h into pool words, in uint64 masked to 32 bits."""
    h ^= h >> 16
    pool = (0xCA01F9DD * pool - 0x4973F715 * h) & _MASK32
    return pool ^ pool >> 16


def _pcg_states(seeds: np.ndarray, words: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's (state, inc) as ``SeedSequence(seeds[i], spawn_key=words[i])`` seeds
    it, for (N,) uint64 seeds and an (N, L) array of 32-bit key words, all rows
    hashed at once. A seed below 2**64 is two words, zero-padded to the pool's
    four as SeedSequence pads it."""
    pool = np.zeros((len(seeds), 4), dtype=np.uint64)
    pool[:, 0], pool[:, 1] = seeds & _MASK32, seeds >> 32
    h = (pool ^ _HASH_POOL[:4]) * _HASH_POOL[1:5] & _MASK32
    pool = h ^ h >> 16
    n = 4
    for src in range(4):                 # mix each pool word into the other three
        dst = [i for i in range(4) if i != src]
        h = (pool[:, src, None] ^ _HASH_POOL[n:n + 3]) * _HASH_POOL[n + 1:n + 4] & _MASK32
        pool[:, dst] = _mix(pool[:, dst], h)
        n += 3
    for col in words.T:                  # then each key word into every pool word
        pool = _mix(pool, (col[:, None] ^ _HASH_POOL[n:n + 4]) * _HASH_POOL[n + 1:n + 5]
                    & _MASK32)
        n += 4
    state = (pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_STATE[:8]) * _HASH_STATE[1:] & _MASK32
    state ^= state >> 16
    out = []
    for s0, s1, i0, i1 in (state[:, 0::2] | state[:, 1::2] << 32).tolist():
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        out.append((((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return out


def streams(seeds: list[int], keys: list[tuple[int, ...]]):
    """Yield the Generator of ``stream(seeds[i], *keys[i])`` for each i in turn,
    bit for bit.

    At ``_BATCH_MIN`` streams or more, with every seed below 2**64 and keys of
    one length (at most 12) of 32-bit words, the SeedSequence pools are hashed
    at once (``_pcg_states``) and one shared Generator is yielded each time,
    its PCG64 state set to the stream's: a stream's draws must be taken before
    the next stream is. Other streams come from ``stream`` itself."""
    states = None
    seeds = [int(s) for s in seeds]
    if (len(keys) >= _BATCH_MIN and min(seeds) >= 0 and max(seeds) >> 64 == 0
            and len({len(k) for k in keys}) == 1 and len(keys[0]) <= 12):
        try:
            words = np.array(keys, dtype=np.int64).reshape(len(keys), len(keys[0]))
        except OverflowError:            # a key word past 2**63
            pass
        else:
            if words.min(initial=0) >= 0 and words.max(initial=0) <= _MASK32:
                states = _pcg_states(np.array(seeds, dtype=np.uint64), words.astype(np.uint64))
    if states is None:
        for seed, key in zip(seeds, keys):
            yield stream(seed, *key)
        return
    gen = np.random.Generator(np.random.PCG64(0))
    for lcg, inc in states:
        gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": lcg, "inc": inc}}
        yield gen


def normals(seeds: list[int], keys: list[tuple[int, ...]], d: int) -> np.ndarray:
    """Row i of the (len(keys), d) result is the first d standard normals of
    ``stream(seeds[i], *keys[i])``, bit for bit (``streams``)."""
    out = np.empty((len(keys), d))
    for row, g in zip(out, streams(seeds, keys)):
        g.standard_normal(out=row)
    return out


def trial_seed(master_seed: int, sweep_index: int, trial_index: int) -> int:
    """Derive a 63-bit per-trial master seed.

    Trials are addressed, not enumerated: appending trials or sweep points
    never changes earlier trials' seeds.
    """
    g = stream(master_seed, STREAM_TRIAL, sweep_index, trial_index)
    return int(g.integers(0, 2**63 - 1))


def trial_seeds(master_seed: int, sweep_index: int, n: int) -> list[int]:
    """``[trial_seed(master_seed, sweep_index, i) for i in range(n)]``, seeded
    at once (``streams``)."""
    return [int(g.integers(0, 2**63 - 1)) for g in streams(
        [master_seed] * n, [(STREAM_TRIAL, sweep_index, i) for i in range(n)])]
