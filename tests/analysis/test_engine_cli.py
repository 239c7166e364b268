"""Engine plumbing: noqa suppression, reporters, CLI, and the
no-finding regression gate over the real tree."""

import json
import os
import textwrap

import pytest

import repro
from repro.analysis import check_paths, check_source
from repro.analysis.cli import main as analysis_main

BAD_THREAD = textwrap.dedent(
    """
    import threading

    t = threading.Thread(target=print)
    """
)


class TestNoqa:
    def test_bracketed_noqa_suppresses_listed_code(self):
        src = "import threading\nt = threading.Thread(target=print)  # repro: noqa[RA104]\n"
        assert check_source(src) == []

    def test_bracketed_noqa_keeps_other_codes(self):
        src = (
            "import threading\n"
            "t = threading.Thread(target=print)  # repro: noqa[RA101]\n"
        )
        assert {f.code for f in check_source(src)} == {"RA104"}

    def test_bare_noqa_suppresses_everything(self):
        src = "import threading\nt = threading.Thread(target=print)  # repro: noqa\n"
        assert check_source(src) == []

    def test_syntax_error_becomes_parse_finding(self):
        findings = check_source("def broken(:\n")
        assert [f.code for f in findings] == ["RA001"]


class TestCLI:
    def test_exit_one_and_text_report_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_THREAD)
        assert analysis_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RA104" in out and "bad.py" in out
        assert "1 finding(s)" in out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert analysis_main([str(good)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_THREAD)
        assert analysis_main(["--format", "json", str(bad)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 1
        assert doc["counts"] == {"RA104": 1}
        assert doc["findings"][0]["code"] == "RA104"
        assert doc["findings"][0]["line"] == 4

    def test_select_narrows_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_THREAD)
        assert analysis_main(["--select", "RA101", str(bad)]) == 0
        assert analysis_main(["--select", "ra104", str(bad)]) == 1

    def test_select_unknown_code_errors(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n")
        with pytest.raises(SystemExit):
            analysis_main(["--select", "RA999", str(bad)])

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ["RA101", "RA102", "RA103", "RA104", "RA105", "RA106"]:
            assert code in out

    def test_skips_pycache_and_dedups(self, tmp_path):
        pkg = tmp_path / "pkg"
        cache = pkg / "__pycache__"
        cache.mkdir(parents=True)
        (pkg / "mod.py").write_text(BAD_THREAD)
        (cache / "stale.py").write_text(BAD_THREAD)
        findings = check_paths([str(pkg), str(pkg / "mod.py")])
        assert len(findings) == 1


WARNING_ONLY = textwrap.dedent(
    """
    def commit(self, record):
        self._manifest.append(record)
    """
)


class TestExitCodes:
    def test_exit_two_on_parse_error(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert analysis_main([str(tmp_path)]) == 2
        assert "RA001" in capsys.readouterr().out

    def test_parse_error_outranks_ordinary_findings(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (tmp_path / "bad.py").write_text(BAD_THREAD)
        assert analysis_main([str(tmp_path)]) == 2

    def test_warning_tier_reports_but_exits_zero(self, tmp_path, capsys):
        warn = tmp_path / "warn.py"
        warn.write_text(WARNING_ONLY)
        assert analysis_main([str(warn)]) == 0
        out = capsys.readouterr().out
        assert "RA204" in out and "(warning)" in out


class TestSelfClean:
    def test_no_findings_over_repro_source(self):
        """Regression gate: the shipped tree stays analyzer-clean."""
        src_root = os.path.dirname(repro.__file__)
        findings = check_paths([src_root])
        assert findings == [], "\n".join(map(str, findings))
