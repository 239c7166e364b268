"""RA2xx durability / commit-protocol rules: each fires on its seeded
defect, the repo's real tmp→sync→rename idiom stays clean, and noqa
works at the anchor line."""

import textwrap

from repro.analysis.engine import check_source


def _codes(src, path="mod.py"):
    return [f.code for f in check_source(textwrap.dedent(src), path)]


def _findings(src, code, path="mod.py"):
    return [
        f
        for f in check_source(textwrap.dedent(src), path)
        if f.code == code
    ]


CLEAN_PROTOCOL = """
    def set_current(storage, name):
        tmp = "CURRENT.tmp"
        with storage.create(tmp) as f:
            f.append(name.encode())
            f.sync()
        storage.rename(tmp, "CURRENT")
"""


class TestRA201RenameWithoutSync:
    def test_fires_on_unsynced_rename(self):
        findings = _findings(
            """
            def publish(storage):
                with storage.create("CURRENT.tmp") as f:
                    f.append(b"MANIFEST-1")
                storage.rename("CURRENT.tmp", "CURRENT")
            """,
            "RA201",
        )
        assert len(findings) == 1
        assert "'CURRENT.tmp'" in findings[0].message
        assert "unsynced bytes" in findings[0].message

    def test_clean_protocol_passes(self):
        assert "RA201" not in _codes(CLEAN_PROTOCOL)

    def test_variable_path_keys_match(self):
        findings = _findings(
            """
            def publish(storage, tmp):
                f = storage.create(tmp)
                f.append(b"payload")
                f.close()
                storage.rename(tmp, "final")
            """,
            "RA201",
        )
        assert len(findings) == 1

    def test_rename_of_untracked_path_is_ignored(self):
        assert "RA201" not in _codes(
            """
            def quarantine(storage, victim):
                storage.rename(victim, victim + ".bad")
            """
        )

    def test_noqa_suppresses(self):
        src = textwrap.dedent(
            """
            def publish(storage):
                with storage.create("a.tmp") as f:
                    f.append(b"x")
                storage.rename("a.tmp", "a")  # repro: noqa[RA201]
            """
        )
        assert check_source(src, "mod.py") == []


class TestRA202UnsyncedEditReference:
    def test_fires_when_manifest_cites_unsynced_file(self):
        findings = _findings(
            """
            def install_table(storage, edit):
                with storage.create("000007.sst") as f:
                    f.append(b"block")
                edit.add_file(0, FileMetaData(7, 100, b"a", b"z"))
            """,
            "RA202",
        )
        assert len(findings) == 1
        assert "'000007.sst'" in findings[0].message

    def test_synced_handle_passes(self):
        assert "RA202" not in _codes(
            """
            def install_table(storage, edit):
                with storage.create("000007.sst") as f:
                    f.append(b"block")
                    f.sync()
                edit.add_file(0, FileMetaData(7, 100, b"a", b"z"))
            """
        )

    def test_one_finding_per_function(self):
        findings = _findings(
            """
            def install_many(storage, edit):
                with storage.create("a.sst") as f:
                    f.append(b"x")
                edit.add_file(0, FileMetaData(1, 1, b"a", b"b"))
                edit.add_file(0, FileMetaData(2, 1, b"c", b"d"))
            """,
            "RA202",
        )
        assert len(findings) == 1


class TestRA203OrphanTmp:
    def test_fires_on_tmp_without_rename(self):
        findings = _findings(
            """
            def stage(storage):
                with storage.create("stage.tmp") as f:
                    f.append(b"half a commit")
                    f.sync()
            """,
            "RA203",
        )
        assert len(findings) == 1
        assert "'stage.tmp'" in findings[0].message
        assert "commit protocol" in findings[0].message

    def test_renamed_tmp_passes(self):
        assert "RA203" not in _codes(CLEAN_PROTOCOL)

    def test_tmp_suffixed_variable_name_counts(self):
        assert "RA203" in _codes(
            """
            def stage(storage, manifest_tmp):
                f = storage.create(manifest_tmp)
                f.append(b"x")
            """
        )

    def test_non_tmp_create_is_ignored(self):
        assert "RA203" not in _codes(
            """
            def write_log(storage):
                with storage.create("000004.log") as f:
                    f.append(b"record")
                    f.sync()
            """
        )


class TestRA204ManifestAppendSync:
    def test_fires_without_sync_kwarg(self):
        findings = _findings(
            """
            def commit(self, record):
                self._manifest.append(record)
            """,
            "RA204",
        )
        assert len(findings) == 1
        assert findings[0].severity == "warning"

    def test_sync_true_passes(self):
        assert "RA204" not in _codes(
            """
            def commit(self, record):
                self._manifest.append(record, sync=True)
            """
        )

    def test_manifest_writer_local_is_tracked(self):
        assert "RA204" in _codes(
            """
            def replay(storage):
                writer = ManifestWriter(storage, "MANIFEST-1")
                writer.append(b"edit")
            """
        )

    def test_unrelated_append_is_ignored(self):
        assert "RA204" not in _codes(
            """
            def collect(items, record):
                items.append(record)
            """
        )

    def test_kwargs_forwarding_is_not_flagged(self):
        assert "RA204" not in _codes(
            """
            def commit(self, record, **kwargs):
                self._manifest.append(record, **kwargs)
            """
        )


class TestRealTree:
    def test_src_repro_has_no_ra2xx_findings(self):
        from repro.analysis.cli import run_analysis

        findings = run_analysis(
            ["src/repro"],
            select={"RA201", "RA202", "RA203", "RA204"},
        )
        assert findings == []
