"""StreamBatch, partitioners."""

import numpy as np
import pytest

from repro.data.stream import StreamBatch, TimePartitioner, UserPartitioner
from repro.errors import DataError


def make_batch(n=20, extras=True):
    rng = np.random.default_rng(0)
    return StreamBatch(
        X=rng.normal(size=(n, 3)),
        y=rng.normal(size=n),
        timestamps=np.sort(rng.uniform(0, 5, size=n)),
        user_ids=rng.integers(0, 7, size=n),
        extras={"speed": rng.uniform(0, 60, size=n)} if extras else {},
    )


class TestStreamBatch:
    def test_len(self):
        assert len(make_batch(15)) == 15

    def test_row_count_validation(self):
        with pytest.raises(DataError):
            StreamBatch(
                X=np.ones((3, 2)), y=np.ones(2),
                timestamps=np.ones(3), user_ids=np.ones(3, dtype=int),
            )

    def test_extras_validation(self):
        with pytest.raises(DataError):
            StreamBatch(
                X=np.ones((3, 2)), y=np.ones(3),
                timestamps=np.ones(3), user_ids=np.ones(3, dtype=int),
                extras={"bad": np.ones(2)},
            )

    def test_select_preserves_columns(self):
        batch = make_batch()
        sub = batch.select(np.array([0, 2, 4]))
        assert len(sub) == 3
        assert np.array_equal(sub.X, batch.X[[0, 2, 4]])
        assert np.array_equal(sub.extras["speed"], batch.extras["speed"][[0, 2, 4]])

    def test_concatenate_roundtrip(self):
        batch = make_batch(10)
        a = batch.select(np.arange(4))
        b = batch.select(np.arange(4, 10))
        joined = StreamBatch.concatenate([a, b])
        assert np.array_equal(joined.X, batch.X)
        assert np.array_equal(joined.extras["speed"], batch.extras["speed"])

    def test_concatenate_empty_list_raises(self):
        with pytest.raises(DataError):
            StreamBatch.concatenate([])

    def test_concatenate_mismatched_extras_raises(self):
        with pytest.raises(DataError):
            StreamBatch.concatenate([make_batch(extras=True), make_batch(extras=False)])


class TestTimePartitioner:
    def test_keys_are_absolute_windows(self):
        batch = make_batch(50)
        blocks = TimePartitioner(1.0).partition(batch)
        for block in blocks:
            lo, hi = block.key * 1.0, (block.key + 1) * 1.0
            assert np.all((block.batch.timestamps >= lo) & (block.batch.timestamps < hi))

    def test_blocks_cover_all_rows(self):
        batch = make_batch(50)
        blocks = TimePartitioner(0.5).partition(batch)
        assert sum(len(b) for b in blocks) == 50

    def test_consistent_keys_across_batches(self):
        """Adjacent batches produce non-overlapping, consistent window keys."""
        rng = np.random.default_rng(1)
        early = StreamBatch(
            X=np.ones((10, 1)), y=np.ones(10),
            timestamps=rng.uniform(0, 1, 10), user_ids=np.zeros(10, dtype=int),
        )
        late = StreamBatch(
            X=np.ones((10, 1)), y=np.ones(10),
            timestamps=rng.uniform(1, 2, 10), user_ids=np.zeros(10, dtype=int),
        )
        part = TimePartitioner(1.0)
        keys_early = {b.key for b in part.partition(early)}
        keys_late = {b.key for b in part.partition(late)}
        assert keys_early == {0} and keys_late == {1}

    def test_invalid_window(self):
        with pytest.raises(DataError):
            TimePartitioner(0.0)


class TestUserPartitioner:
    def test_same_user_lands_in_one_block(self):
        batch = make_batch(100)
        blocks = UserPartitioner(num_buckets=4).partition(batch)
        for block in blocks:
            buckets = set((block.batch.user_ids % 4).tolist())
            assert len(buckets) == 1

    def test_covers_all_rows(self):
        batch = make_batch(100)
        blocks = UserPartitioner(num_buckets=4).partition(batch)
        assert sum(len(b) for b in blocks) == 100

    def test_keys_are_tagged(self):
        blocks = UserPartitioner(num_buckets=3).partition(make_batch(30))
        for block in blocks:
            assert block.key[0] == "user"

    def test_invalid_buckets(self):
        with pytest.raises(DataError):
            UserPartitioner(0)


class TestPackedColumns:
    from repro.data.stream import PackedColumns  # noqa: F401  (import check)

    def _packed_with(self, batches):
        from repro.data.stream import PackedColumns

        packed = PackedColumns(batches[0], capacity=2)
        extents = [packed.append(b) for b in batches]
        return packed, extents

    def test_slice_matches_concatenate(self):
        parts = [make_batch(5), make_batch(3), make_batch(7)]
        packed, extents = self._packed_with(parts)
        joined = StreamBatch.concatenate(parts)
        sliced = packed.slice_batch(0, len(joined))
        assert np.array_equal(sliced.X, joined.X)
        assert np.array_equal(sliced.y, joined.y)
        assert np.array_equal(sliced.timestamps, joined.timestamps)
        assert np.array_equal(sliced.user_ids, joined.user_ids)
        assert np.array_equal(sliced.extras["speed"], joined.extras["speed"])

    def test_gather_matches_concatenate_in_order(self):
        parts = [make_batch(4), make_batch(1), make_batch(6), make_batch(2)]
        packed, extents = self._packed_with(parts)
        pick = [2, 0, 3]
        expected = StreamBatch.concatenate([parts[i] for i in pick])
        starts = np.array([extents[i][0] for i in pick])
        lengths = np.array([extents[i][1] for i in pick])
        got = packed.gather(starts, lengths)
        for col in ("X", "y", "timestamps", "user_ids"):
            assert np.array_equal(getattr(got, col), getattr(expected, col))
        assert np.array_equal(got.extras["speed"], expected.extras["speed"])

    def test_gather_many_one_row_extents(self):
        parts = [make_batch(1) for _ in range(200)]
        packed, extents = self._packed_with(parts)
        idx = list(range(0, 200, 2))
        expected = StreamBatch.concatenate([parts[i] for i in idx])
        got = packed.gather(
            np.array([extents[i][0] for i in idx]),
            np.array([extents[i][1] for i in idx]),
        )
        assert np.array_equal(got.timestamps, expected.timestamps)
        assert np.array_equal(got.extras["speed"], expected.extras["speed"])

    def test_gather_rejects_empty_extents(self):
        parts = [make_batch(3), make_batch(0), make_batch(2)]
        packed, extents = self._packed_with(parts)
        with pytest.raises(DataError):
            packed.gather(
                np.array([e[0] for e in extents]),
                np.array([e[1] for e in extents]),
            )
        with pytest.raises(DataError):
            packed.gather(np.array([], dtype=np.intp), np.array([], dtype=np.intp))

    def test_results_are_fresh_copies(self):
        parts = [make_batch(3), make_batch(3)]
        packed, extents = self._packed_with(parts)
        out = packed.slice_batch(0, 6)
        out.y[:] = -1.0
        assert not np.array_equal(packed.slice_batch(0, 6).y, out.y)

    def test_matches_detects_schema_drift(self):
        base = make_batch(4)
        packed, _ = self._packed_with([base])
        assert packed.matches(make_batch(2))
        assert not packed.matches(make_batch(2, extras=False))
        wider = StreamBatch(
            X=np.zeros((2, 5)), y=np.zeros(2), timestamps=np.zeros(2),
            user_ids=np.zeros(2, dtype=np.int64),
            extras={"speed": np.zeros(2)},
        )
        assert not packed.matches(wider)
        int_labels = StreamBatch(
            X=np.zeros((2, 3)), y=np.zeros(2, dtype=np.int32),
            timestamps=np.zeros(2), user_ids=np.zeros(2, dtype=np.int64),
            extras={"speed": np.zeros(2)},
        )
        assert not packed.matches(int_labels)

    def test_concatenate_single_batch_copies(self):
        batch = make_batch(4)
        out = StreamBatch.concatenate([batch])
        assert np.array_equal(out.X, batch.X)
        out.y[:] = -5.0
        assert not np.array_equal(batch.y, out.y)

    def test_pickle_keeps_live_rows_and_capacity_only(self):
        import pickle

        parts = [make_batch(5), make_batch(3)]
        packed, _ = self._packed_with(parts)
        packed.append(make_batch(4))
        packed.truncate_to(8)  # the rolled-back rows stay in the buffer
        # Equal stores whose spare capacity differs pickle the same.
        clean, _ = self._packed_with(parts)
        clean._grow_to(packed._y.shape[0])
        blob = pickle.dumps(packed)
        assert blob == pickle.dumps(clean)
        restored = pickle.loads(blob)
        assert len(restored) == 8
        assert restored._y.shape == packed._y.shape
        assert not restored._y[8:].any() and not restored._X[8:].any()
        joined = StreamBatch.concatenate(parts)
        got = restored.slice_batch(0, 8)
        for col in ("X", "y", "timestamps", "user_ids"):
            assert np.array_equal(getattr(got, col), getattr(joined, col))
        assert np.array_equal(got.extras["speed"], joined.extras["speed"])
        # The restored store keeps appending where the live rows end.
        extent = restored.append(make_batch(2))
        assert extent == (8, 2)
        assert restored.matches(make_batch(2))
