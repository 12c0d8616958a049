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
        out = rngmod.normals(seed, keys, 7)
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
        out = rngmod.normals(seed, keys, 3)
        for row, key in zip(out, keys):
            assert np.array_equal(row, reference(seed, key, 3))

    def test_no_keys(self):
        assert rngmod.normals(5, [], 4).shape == (0, 4)

    def test_stream_is_the_same_reference(self):
        key = (rngmod.STREAM_PROTECT, 3, 2)
        assert np.array_equal(rngmod.stream(8, *key).standard_normal(5), reference(8, key, 5))

    def test_batched_rows_call_no_stream(self, monkeypatch):
        want = [reference(4, key, 2) for key in PROTECT_KEYS]
        monkeypatch.setattr(rngmod, "stream", None)
        out = rngmod.normals(4, PROTECT_KEYS, 2)
        assert all(np.array_equal(row, w) for row, w in zip(out, want))
