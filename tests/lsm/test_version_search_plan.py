"""``Version.files_for_get`` (the cached search plan) against brute force.

The reference is the loop ``files_for_get`` ran before the plan: every
L0 file's bounds tested newest first, then per deeper level each sorted
run, newest first, searched for the one file whose range may hold the
key.  The two must agree on every key after every mutation — direct
``add_file`` / ``remove_file`` calls and ``VersionEdit.apply`` in any
interleaving — and on the version a MANIFEST replay rebuilds.
"""

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.manifest import ManifestWriter, VersionEdit, recover_version, set_current
from repro.devices import MemStorage
from repro.lsm.ikey import KIND_VALUE, encode_internal_key
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData, Version

# User keys that are prefixes of one another, in bytewise order.
KEYS = [b"a", b"a\x00", b"ab", b"abb", b"b", b"ba", b"c", b"cc", b"d"]
PROBES = [b"", b"\x00", b"a\x00\x00", b"aa", b"abc", b"bb", b"e"] + KEYS


def _ik(user: bytes, seq: int) -> bytes:
    return encode_internal_key(user, seq, KIND_VALUE)


def _reference_find_in_run(
    run_files: list[FileMetaData], user_key: bytes
) -> Optional[FileMetaData]:
    lo, hi = 0, len(run_files)
    while lo < hi:
        mid = (lo + hi) // 2
        if run_files[mid].largest[:-8] < user_key:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(run_files) and run_files[lo].overlaps(user_key, user_key):
        return run_files[lo]
    return None


def reference_files_for_get(version: Version, user_key: bytes):
    out = []
    for meta in reversed(version.files[0]):
        if meta.overlaps(user_key, user_key):
            out.append((0, meta))
    for level in range(1, version.options.num_levels):
        if not version.files[level]:
            continue
        for _run_id, run_files in reversed(version.runs(level)):
            meta = _reference_find_in_run(run_files, user_key)
            if meta is not None:
                out.append((level, meta))
    return out


def _numbers(found):
    return [(level, meta.number) for level, meta in found]


def _agree(version: Version) -> None:
    for key in PROBES:
        assert _numbers(version.files_for_get(key)) == _numbers(
            reference_files_for_get(version, key)
        ), key


# One step: (how, level, run, first key index, last key index, victim).
_steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "edit"]),
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, len(KEYS) - 1),
        st.integers(0, len(KEYS) - 1),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=40,
)


def _fits(version: Version, level: int, meta: FileMetaData) -> bool:
    """L0 files overlap freely; a deeper run holds disjoint ranges."""
    if level == 0:
        return True
    lo, hi = meta.smallest[:-8], meta.largest[:-8]
    return not any(
        f.run == meta.run and f.overlaps(lo, hi) for f in version.files[level]
    )


@settings(max_examples=150, deadline=None)
@given(steps=_steps, leveled=st.booleans())
def test_plan_matches_brute_force_across_mutations_and_recovery(steps, leveled):
    options = Options(num_levels=4)
    version = Version(options)
    storage = MemStorage()
    manifest = ManifestWriter(storage, "MANIFEST-000001")
    set_current(storage, manifest.name)
    number = 0
    for how, level, run, a, b, victim in steps:
        _agree(version)  # builds the plan the next step must drop
        live = version.all_files()
        if how == "remove" and live:
            lv, meta = live[victim % len(live)]
            version.remove_file(lv, meta.number)
            manifest.append(VersionEdit().delete_file(lv, meta.number), sync=True)
            continue
        number += 1
        lo, hi = sorted((KEYS[a], KEYS[b]))
        meta = FileMetaData(
            number,
            100,
            _ik(lo, 2 * number),
            _ik(hi, 2 * number - 1),
            run=0 if leveled or level == 0 else run,
        )
        if not _fits(version, level, meta):
            continue
        edit = VersionEdit().add_file(level, meta)
        if how == "edit" and live:
            # An edit that also retires a file, as a compaction does.
            lv, gone = live[victim % len(live)]
            edit.delete_file(lv, gone.number)
            edit.apply(version)
        elif how == "edit":
            edit.apply(version)
        else:
            version.add_file(level, meta)
        manifest.append(edit, sync=True)
    _agree(version)
    version.check_invariants()
    manifest.close()
    recovered, *_ = recover_version(storage, options)
    _agree(recovered)
    for key in PROBES:
        assert _numbers(recovered.files_for_get(key)) == _numbers(
            version.files_for_get(key)
        )


def test_tiered_level_searches_newest_run_first():
    version = Version(Options(num_levels=3))
    for number, run, lo, hi in [
        (1, 0, b"a", b"m"),
        (2, 0, b"n", b"z"),
        (3, 1, b"c", b"p"),
        (4, 2, b"a", b"b"),
    ]:
        version.add_file(1, FileMetaData(number, 10, _ik(lo, number), _ik(hi, number), run=run))
    version.add_file(0, FileMetaData(5, 10, _ik(b"a", 9), _ik(b"z", 9)))
    version.add_file(0, FileMetaData(6, 10, _ik(b"b", 10), _ik(b"d", 10)))
    assert _numbers(version.files_for_get(b"c")) == [(0, 6), (0, 5), (1, 3), (1, 1)]
    assert _numbers(version.files_for_get(b"a")) == [(0, 5), (1, 4), (1, 1)]
    version.remove_file(1, 3)
    assert _numbers(version.files_for_get(b"c")) == [(0, 6), (0, 5), (1, 1)]
    _agree(version)
