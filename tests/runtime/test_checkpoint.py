"""Tests for the content-addressed atomic checkpoint store."""

import json

import numpy as np
import pytest

from repro.runtime.checkpoint import CheckpointError, CheckpointStore
from repro.runtime.state import TrainState

from .file_faults import corrupt_file


def _state(epoch=0, value=1.0):
    return TrainState(
        epoch=epoch,
        arrays={"param.0.weight": np.full((4, 4), value), "mask.0": np.eye(4, dtype=bool)},
        meta={
            "epoch": epoch,
            "rng_state": {"bit_generator": "PCG64", "state": {"state": 123, "inc": 5}},
            "loss_history": [0.5, 0.25],
            "sparsity_history": [0.75, 0.75],
            "optimizer": {"lr": 0.05},
        },
    )


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(_state(epoch=3))
        assert path.exists() and path.name.startswith("ckpt-00003-")
        loaded = store.load(path)
        assert loaded.epoch == 3
        np.testing.assert_array_equal(
            loaded.arrays["param.0.weight"], np.full((4, 4), 1.0)
        )
        assert loaded.arrays["mask.0"].dtype == bool
        assert loaded.meta["loss_history"] == [0.5, 0.25]
        assert loaded.meta["rng_state"]["state"]["state"] == 123

    def test_content_addressing_dedupes(self, tmp_path):
        store = CheckpointStore(tmp_path)
        p1 = store.save(_state(epoch=2))
        p2 = store.save(_state(epoch=2))
        assert p1 == p2
        assert len(store.list()) == 1

    def test_different_content_different_name(self, tmp_path):
        store = CheckpointStore(tmp_path)
        p1 = store.save(_state(epoch=2, value=1.0))
        p2 = store.save(_state(epoch=2, value=2.0))
        assert p1 != p2

    def test_no_tmp_litter(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(_state())
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_big_rng_ints_survive(self, tmp_path):
        state = _state()
        state.meta["rng_state"]["state"]["state"] = 2**127 + 17  # PCG64 is 128-bit
        store = CheckpointStore(tmp_path)
        loaded = store.load(store.save(state))
        assert loaded.meta["rng_state"]["state"]["state"] == 2**127 + 17


class TestLatest:
    def test_empty_store(self, tmp_path):
        assert CheckpointStore(tmp_path).latest() is None

    def test_picks_highest_epoch(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for epoch in (0, 4, 2):
            store.save(_state(epoch=epoch, value=float(epoch)))
        assert store.latest().epoch == 4

    def test_skips_corrupt_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(_state(epoch=1))
        newest = store.save(_state(epoch=2, value=9.0))
        newest.write_bytes(b"not a zip at all")
        latest = store.latest()
        assert latest is not None and latest.epoch == 1

    def test_bit_rot_in_newest_falls_back_to_previous(self, tmp_path):
        """Seeded byte flips mid-file (still a plausible zip!) must raise
        CheckpointError on load and make latest() serve the prior epoch."""
        store = CheckpointStore(tmp_path)
        store.save(_state(epoch=1))
        newest = store.save(_state(epoch=2, value=9.0))
        corrupt_file(newest, np.random.default_rng(0), mode="flip", nbytes=16)
        with pytest.raises(CheckpointError):
            store.load(newest)
        latest = store.latest()
        assert latest is not None and latest.epoch == 1

    def test_truncated_newest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(_state(epoch=3))
        newest = store.save(_state(epoch=5, value=2.0))
        corrupt_file(newest, np.random.default_rng(1), mode="truncate")
        latest = store.latest()
        assert latest is not None and latest.epoch == 3

    def test_ignores_foreign_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        store = CheckpointStore(tmp_path)
        store.save(_state(epoch=0))
        assert len(store.list()) == 1


class TestTruncationFallback:
    """A checkpoint byte-truncated mid-write (crash between write and
    rename on a non-atomic filesystem) must read as unusable at *any*
    truncation point, and ``latest()`` must deterministically serve the
    previous good snapshot, bit-exactly."""

    def test_every_truncation_point_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(_state(epoch=1, value=3.5))
        newest = store.save(_state(epoch=2, value=9.0))
        data = newest.read_bytes()
        # representative prefixes: empty file, torn zip magic, mid-member,
        # half file, missing central directory, one byte short
        cuts = sorted({0, 1, 3, 10, len(data) // 4, len(data) // 2,
                       len(data) - 30, len(data) - 1})
        for cut in cuts:
            newest.write_bytes(data[:cut])
            with pytest.raises(CheckpointError):
                store.load(newest)
            latest = store.latest()
            assert latest is not None and latest.epoch == 1, (
                f"truncation at {cut}/{len(data)} bytes did not fall back"
            )

    def test_fallback_is_bit_exact_and_repeatable(self, tmp_path):
        store = CheckpointStore(tmp_path)
        good = store.save(_state(epoch=1, value=3.5))
        baseline = store.load(good)
        newest = store.save(_state(epoch=2, value=9.0))
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])
        for _ in range(3):  # repeat reads must agree byte-for-byte
            latest = store.latest()
            assert latest.epoch == baseline.epoch
            assert set(latest.arrays) == set(baseline.arrays)
            for name, array in baseline.arrays.items():
                assert latest.arrays[name].dtype == array.dtype
                np.testing.assert_array_equal(latest.arrays[name], array)
            assert latest.meta == baseline.meta

    def test_truncated_middle_is_skipped_not_fatal(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(_state(epoch=1))
        middle = store.save(_state(epoch=2, value=9.0))
        store.save(_state(epoch=3, value=4.0))
        middle.write_bytes(middle.read_bytes()[:16])
        assert store.latest().epoch == 3

    def test_all_checkpoints_truncated_yields_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for epoch in (1, 2):
            path = store.save(_state(epoch=epoch, value=float(epoch)))
            path.write_bytes(path.read_bytes()[:8])
        assert store.latest() is None


class TestIntegrity:
    def test_digest_mismatch_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(_state(epoch=1))
        # Rename to claim a different digest: load must notice.
        impostor = path.with_name("ckpt-00001-" + "0" * 12 + ".npz")
        path.rename(impostor)
        with pytest.raises(CheckpointError):
            store.load(impostor)

    def test_unreadable_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        bad = tmp_path / ("ckpt-00001-" + "a" * 12 + ".npz")
        bad.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            store.load(bad)

    def test_meta_json_is_stable(self, tmp_path):
        """Digest must survive a save -> load -> save cycle."""
        store = CheckpointStore(tmp_path)
        path = store.save(_state(epoch=1))
        loaded = store.load(path)
        again = store.save(loaded)
        assert again == path


class TestMetaEncoding:
    def test_meta_is_plain_json(self, tmp_path):
        """The __meta__ entry must stay readable without pickle."""
        store = CheckpointStore(tmp_path)
        path = store.save(_state(epoch=1))
        with np.load(path, allow_pickle=False) as npz:
            meta = json.loads(str(npz["__meta__"]))
        assert meta["epoch"] == 1
