import numpy as np
import pytest

from fedtradeoff import rng as rngmod


def reference(seed, key, d):
    """The first d normals of (seed, *key), built from numpy's SeedSequence and
    PCG64 directly rather than through ``rng.stream``."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq)).standard_normal(d)


PROTECT_KEYS = [(rngmod.STREAM_PROTECT, t, c) for t in (0, 1, 9999, 10_000) for c in (0, 1, 5)]


class TestNormals:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 2])
    @pytest.mark.parametrize("count", [1, rngmod._BATCH_MIN - 1, rngmod._BATCH_MIN,
                                       len(PROTECT_KEYS)])
    def test_rows_are_their_streams_first_normals(self, seed, count):
        keys = PROTECT_KEYS[-count:]
        out = rngmod.normals([seed] * count, keys, 7)
        assert out.shape == (count, 7)
        for row, key in zip(out, keys):
            assert np.array_equal(row, reference(seed, key, 7))

    @pytest.mark.parametrize("keys", [
        [(0, 0, 0)] * 6,                    # every entry 0
        [()] * 6,                           # no key words at all
        [(2**32 - 1, 4), (1, 2**32 - 1)] * 3,   # the widest one-word entries
        [(2**32, 1)] * 6,                   # a two-word entry: filled by stream
    ], ids=["zero-entries", "empty-keys", "widest-words", "two-word-entry"])
    @pytest.mark.parametrize("seed", [0, 2**63 - 2, 2**130 + 9])
    def test_edge_keys_and_seeds(self, keys, seed):
        out = rngmod.normals([seed] * len(keys), keys, 3)
        for row, key in zip(out, keys):
            assert np.array_equal(row, reference(seed, key, 3))

    def test_no_keys(self):
        assert rngmod.normals([], [], 4).shape == (0, 4)

    def test_stream_is_the_same_reference(self):
        key = (rngmod.STREAM_PROTECT, 3, 2)
        assert np.array_equal(rngmod.stream(8, *key).standard_normal(5), reference(8, key, 5))

    def test_batched_rows_call_no_stream(self, monkeypatch):
        want = [reference(4, key, 2) for key in PROTECT_KEYS]
        monkeypatch.setattr(rngmod, "stream", None)
        out = rngmod.normals([4] * len(PROTECT_KEYS), PROTECT_KEYS, 2)
        assert all(np.array_equal(row, w) for row, w in zip(out, want))


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 2**32, 2**63 - 2, 2**64 - 1, 2**64, 2**70 + 5])
    def test_trial_seeds_equal_trial_seed(self, seed):
        assert rngmod.trial_seeds(seed, 3, 10) == [rngmod.trial_seed(seed, 3, i)
                                                   for i in range(10)]

    def test_seeds_from_2_64_fall_back_to_stream(self, monkeypatch):
        calls = []
        real = rngmod.stream
        monkeypatch.setattr(rngmod, "stream", lambda *args: calls.append(args) or real(*args))
        rngmod.trial_seeds(2**64 - 1, 0, 8)
        assert calls == []
        rngmod.trial_seeds(2**64, 0, 8)
        assert calls == [(2**64, rngmod.STREAM_TRIAL, 0, i) for i in range(8)]

    @pytest.mark.parametrize("keys", [
        [(rngmod.STREAM_DATA, 1, k) for k in range(9)],
        [(rngmod.STREAM_INIT,)] * 9,
        [()] * 9,
    ], ids=["three-words", "one-word", "empty"])
    def test_each_row_is_its_own_seeds_stream(self, keys):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**63 - 2, 2**64 - 1, 7, 7]
        got = [g.standard_normal(4) for g in rngmod.streams(seeds, keys)]
        for row, seed, key in zip(got, seeds, keys, strict=True):
            assert np.array_equal(row, reference(seed, key, 4))

    def test_one_generator_serves_every_batched_stream(self):
        # its state is set before each stream's draws, which must come first
        gens = list(rngmod.streams([5] * 6, [(rngmod.STREAM_INIT,)] * 6))
        assert all(g is gens[0] for g in gens)
