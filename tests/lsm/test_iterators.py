"""Tests for merge/visibility iterator combinators."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.ikey import (
    KIND_DELETE,
    KIND_VALUE,
    decode_internal_key,
    encode_internal_key,
    internal_compare,
)
from repro.lsm.iterators import drop_tombstones, merge_iterators, visible_entries


def _e(user, seq, value=b"", kind=KIND_VALUE):
    return (encode_internal_key(user, seq, kind), value)


class TestMerge:
    def test_merge_two_sources(self):
        a = [_e(b"a", 1), _e(b"c", 1)]
        b = [_e(b"b", 1), _e(b"d", 1)]
        merged = list(merge_iterators([iter(a), iter(b)]))
        users = [decode_internal_key(k)[0] for k, _ in merged]
        assert users == [b"a", b"b", b"c", b"d"]

    def test_merge_preserves_sequence_order_within_key(self):
        newer = [_e(b"k", 10, b"new")]
        older = [_e(b"k", 2, b"old")]
        merged = list(merge_iterators([iter(older), iter(newer)]))
        assert [v for _, v in merged] == [b"new", b"old"]

    def test_equal_keys_earlier_source_first_and_value_before_delete(self):
        # Same internal key in two sources: source order decides.  Same
        # user key and sequence: the larger trailer (VALUE) sorts first,
        # as internal_compare has it.
        first = [_e(b"k", 5, b"from-0"), _e(b"m", 1, b"tail-0"), _e(b"z", 1, b"z-0")]
        second = [_e(b"k", 5, b"from-1"), _e(b"k", 4, b"", KIND_DELETE), _e(b"m", 9, b"m-1")]
        third = [_e(b"k", 4, b"value-at-4")]
        merged = list(merge_iterators([iter(first), iter(second), iter(third)]))
        assert [v for _, v in merged] == [
            b"from-0", b"from-1", b"value-at-4", b"", b"m-1", b"tail-0", b"z-0",
        ]
        for (ka, _), (kb, _) in zip(merged, merged[1:]):
            assert internal_compare(ka, kb) <= 0

    def test_empty_sources(self):
        assert list(merge_iterators([iter([]), iter([])])) == []
        assert list(merge_iterators([])) == []

    def test_single_source_passthrough(self):
        a = [_e(b"x", 3), _e(b"y", 1)]
        assert list(merge_iterators([iter(a)])) == a

    @settings(max_examples=50)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.binary(min_size=1, max_size=6),
                    st.integers(min_value=0, max_value=1000),
                ),
                max_size=20,
            ),
            max_size=5,
        )
    )
    def test_merge_property_sorted_output(self, raw_sources):
        # Deduplicate (user, seq) globally — the engine never emits the
        # same internal key from two sources.
        seen = set()
        sources = []
        for src in raw_sources:
            entries = []
            for user, seq in src:
                if (user, seq) in seen:
                    continue
                seen.add((user, seq))
                entries.append(_e(user, seq))
            entries.sort(key=lambda kv: _SortKey(kv[0]))
            sources.append(iter(entries))
        merged = list(merge_iterators(sources))
        assert len(merged) == len(seen)
        for (ka, _), (kb, _) in zip(merged, merged[1:]):
            assert internal_compare(ka, kb) < 0


class _SortKey:
    def __init__(self, ikey):
        self.ikey = ikey

    def __lt__(self, other):
        return internal_compare(self.ikey, other.ikey) < 0


class TestVisibility:
    def test_newest_version_wins(self):
        stream = iter([_e(b"k", 9, b"v9"), _e(b"k", 5, b"v5"), _e(b"k", 1, b"v1")])
        out = list(visible_entries(stream))
        assert len(out) == 1
        assert out[0][1] == b"v9"

    def test_snapshot_hides_new_entries(self):
        stream = iter([_e(b"k", 9, b"v9"), _e(b"k", 5, b"v5")])
        out = list(visible_entries(stream, snapshot=6))
        assert [v for _, v in out] == [b"v5"]

    def test_snapshot_before_everything(self):
        stream = iter([_e(b"k", 9, b"v9")])
        assert list(visible_entries(stream, snapshot=3)) == []

    def test_tombstone_emitted_by_visible(self):
        stream = iter(
            [_e(b"k", 9, b"", KIND_DELETE), _e(b"k", 5, b"v5")]
        )
        out = list(visible_entries(stream))
        assert len(out) == 1
        assert decode_internal_key(out[0][0])[2] == KIND_DELETE

    def test_drop_tombstones(self):
        stream = iter(
            [
                _e(b"a", 9, b"", KIND_DELETE),
                _e(b"b", 5, b"vb"),
                _e(b"c", 3, b"", KIND_DELETE),
            ]
        )
        out = list(drop_tombstones(iter(stream)))
        assert [decode_internal_key(k)[0] for k, _ in out] == [b"b"]

    def test_multiple_keys_interleaved_versions(self):
        stream = iter(
            [
                _e(b"a", 4, b"a4"),
                _e(b"a", 2, b"a2"),
                _e(b"b", 3, b"b3"),
                _e(b"c", 9, b"c9"),
                _e(b"c", 1, b"c1"),
            ]
        )
        out = list(visible_entries(stream))
        assert [v for _, v in out] == [b"a4", b"b3", b"c9"]
