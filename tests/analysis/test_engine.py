"""Engine mechanics: discovery, suppression, baseline, reporters."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (
    Baseline,
    LintError,
    lint_paths,
    lint_text,
    render_json,
    render_text,
)
from repro.analysis.baseline import BaselineEntry, line_hash
from repro.analysis.suppress import suppressed_rules
from repro.errors import ReproError

BAD_TRAINING = "def f(model):\n    model.training = False\n"


def _write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
class TestDiscovery:
    def test_walks_directories_and_skips_pycache(self, tmp_path, monkeypatch):
        _write_tree(
            tmp_path,
            {
                "src/repro/serve/a.py": BAD_TRAINING,
                "src/repro/serve/__pycache__/b.py": BAD_TRAINING,
                "src/repro/serve/notes.txt": "model.training = False",
            },
        )
        monkeypatch.chdir(tmp_path)
        result = lint_paths(["src"])
        assert result.files == 1
        assert [f.rule for f in result.findings] == ["RPL002"]
        assert result.findings[0].path == "src/repro/serve/a.py"

    def test_missing_path_is_an_error_not_a_crash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = lint_paths(["no-such-dir"])
        assert result.findings == []
        assert [e.message for e in result.errors] == ["no such file or directory"]
        assert result.exit_code() == 2

    def test_syntax_error_becomes_error_record(self, tmp_path, monkeypatch):
        _write_tree(
            tmp_path,
            {
                "src/repro/serve/broken.py": "def f(:\n",
                "src/repro/serve/ok_but_bad.py": BAD_TRAINING,
            },
        )
        monkeypatch.chdir(tmp_path)
        result = lint_paths(["src"])
        # The broken file is reported with its line, and the findings in
        # the *other* file still surface.
        assert len(result.errors) == 1
        error = result.errors[0]
        assert error.path == "src/repro/serve/broken.py"
        assert "syntax error" in error.message
        assert error.line >= 1
        assert [f.rule for f in result.findings] == ["RPL002"]
        assert result.exit_code() == 2


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppression:
    def test_trailing_comment_applies_to_its_line(self):
        source = "x = 1\ny = 2  # repro-lint: disable=RPL002\n"
        assert suppressed_rules(source) == {2: frozenset({"RPL002"})}

    def test_standalone_comment_applies_to_next_line(self):
        source = "# repro-lint: disable=RPL002\ny = 2\n"
        assert suppressed_rules(source)[2] == frozenset({"RPL002"})

    def test_multiple_rule_ids(self):
        source = "y = 2  # repro-lint: disable=RPL001, RPL004\n"
        assert suppressed_rules(source)[1] == frozenset({"RPL001", "RPL004"})

    def test_suppression_is_per_rule(self):
        # A disable for a different rule does not silence the finding.
        src = "def f(model):\n    model.training = False  # repro-lint: disable=RPL001\n"
        assert [f.rule for f in lint_text(src, "src/repro/serve/foo.py")] == [
            "RPL002"
        ]

    def test_suppressed_findings_are_counted(self, tmp_path, monkeypatch):
        _write_tree(
            tmp_path,
            {
                "src/repro/serve/a.py": (
                    "def f(model):\n"
                    "    model.training = False  # repro-lint: disable=RPL002\n"
                ),
            },
        )
        monkeypatch.chdir(tmp_path)
        result = lint_paths(["src"])
        assert result.findings == []
        assert result.suppressed == 1
        assert result.exit_code() == 0


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def test_baselined_finding_does_not_fail(self, tmp_path, monkeypatch):
        _write_tree(tmp_path, {"src/repro/serve/a.py": BAD_TRAINING})
        monkeypatch.chdir(tmp_path)
        first = lint_paths(["src"])
        Baseline.write(
            tmp_path / "baseline.json",
            first.unfiltered,
            notes={("RPL002", "src/repro/serve/a.py"): "audited"},
        )
        second = lint_paths(["src"], baseline=tmp_path / "baseline.json")
        assert second.findings == []
        assert second.baselined == 1
        assert second.exit_code() == 0

    def test_edited_line_goes_stale_and_fires_again(self, tmp_path, monkeypatch):
        target = tmp_path / "src/repro/serve/a.py"
        _write_tree(tmp_path, {"src/repro/serve/a.py": BAD_TRAINING})
        monkeypatch.chdir(tmp_path)
        Baseline.write(tmp_path / "baseline.json", lint_paths(["src"]).unfiltered)
        # Change the offending line: the hash no longer matches, so the
        # finding fires and the entry is reported stale.
        target.write_text("def f(model):\n    model.training = True\n")
        result = lint_paths(["src"], baseline=tmp_path / "baseline.json")
        assert [f.rule for f in result.findings] == ["RPL002"]
        assert result.baselined == 0
        assert len(result.baseline.unused()) == 1
        assert result.exit_code() == 1

    def test_line_number_drift_does_not_go_stale(self, tmp_path, monkeypatch):
        target = tmp_path / "src/repro/serve/a.py"
        _write_tree(tmp_path, {"src/repro/serve/a.py": BAD_TRAINING})
        monkeypatch.chdir(tmp_path)
        Baseline.write(tmp_path / "baseline.json", lint_paths(["src"]).unfiltered)
        # Prepend unrelated lines: same content, new line number.
        target.write_text("import os\n\n\n" + BAD_TRAINING)
        result = lint_paths(["src"], baseline=tmp_path / "baseline.json")
        assert result.findings == []
        assert result.baselined == 1

    def test_missing_baseline_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert baseline.entries == []

    def test_corrupt_baseline_raises_repro_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(ReproError):
            Baseline.load(path)

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ReproError):
            Baseline.load(path)

    def test_write_round_trips_notes(self, tmp_path):
        entry_line = "    model.training = False"
        finding_like = lint_text(
            "def f(model):\n" + entry_line + "\n", "src/repro/serve/a.py"
        )[0]
        Baseline.write(
            tmp_path / "b.json",
            [(finding_like, entry_line)],
            notes={("RPL002", "src/repro/serve/a.py"): "why not"},
        )
        loaded = Baseline.load(tmp_path / "b.json")
        assert loaded.entries == [
            BaselineEntry(
                rule="RPL002",
                path="src/repro/serve/a.py",
                line=2,
                hash=line_hash(entry_line),
                note="why not",
            )
        ]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
class TestReporters:
    def _result(self, tmp_path, monkeypatch):
        _write_tree(
            tmp_path,
            {
                "src/repro/serve/a.py": BAD_TRAINING,
                "src/repro/serve/broken.py": "def f(:\n",
            },
        )
        monkeypatch.chdir(tmp_path)
        return lint_paths(["src"])

    def test_text_report_is_clickable(self, tmp_path, monkeypatch):
        text = render_text(self._result(tmp_path, monkeypatch))
        assert "src/repro/serve/a.py:2:5: RPL002" in text
        assert "src/repro/serve/broken.py:1: error: syntax error" in text
        assert "1 finding in" in text
        assert "1 unparsable" in text

    def test_json_schema(self, tmp_path, monkeypatch):
        payload = json.loads(render_json(self._result(tmp_path, monkeypatch)))
        assert payload["version"] == 1
        assert payload["tool"] == "repro-lint"
        # RPL007 is retired; its ID is never reused.
        assert set(payload["rules"]) == {
            f"RPL{i:03d}" for i in range(1, 11) if i != 7
        }
        assert payload["files"] == 2  # read files, parsable or not
        (finding,) = payload["findings"]
        assert finding == {
            "rule": "RPL002",
            "path": "src/repro/serve/a.py",
            "line": 2,
            "col": 5,
            "message": finding["message"],
        }
        (error,) = payload["errors"]
        assert error["path"] == "src/repro/serve/broken.py"
        assert payload["exit_code"] == 2

    def test_clean_run_renders_zero_summary(self, tmp_path, monkeypatch):
        _write_tree(tmp_path, {"src/repro/serve/a.py": "x = 1\n"})
        monkeypatch.chdir(tmp_path)
        result = lint_paths(["src"])
        assert result.clean
        assert "0 findings in 1 files" in render_text(result)
        assert json.loads(render_json(result))["exit_code"] == 0
