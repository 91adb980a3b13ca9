"""The ``repro lint`` subcommand: exit codes, formats, baseline flags."""

from __future__ import annotations

import json
import textwrap

from repro.cli import main


def _write(root, rel, source):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _lint(*argv):
    return main(["lint", *argv])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        _write(tmp_path, "src/repro/serve/ok.py", "x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert _lint("src") == 0
        assert "0 findings" in capsys.readouterr().out

    def test_finding_exits_one_with_rule_id(self, tmp_path, monkeypatch, capsys):
        # Acceptance probe: reintroducing the PR 3 race (RPL002) fails.
        _write(
            tmp_path,
            "src/repro/serve/bad.py",
            """
            def serve(model):
                model.training = False
            """,
        )
        monkeypatch.chdir(tmp_path)
        assert _lint("src") == 1
        out = capsys.readouterr().out
        assert "src/repro/serve/bad.py:3:5: RPL002" in out

    def test_wall_clock_in_store_fails_rpl004(self, tmp_path, monkeypatch, capsys):
        # Acceptance probe: time.time() on a journaled path (RPL004).
        _write(
            tmp_path,
            "src/repro/store/bad.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        monkeypatch.chdir(tmp_path)
        assert _lint("src") == 1
        assert "RPL004" in capsys.readouterr().out

    def test_syntax_error_exits_two_without_traceback(
        self, tmp_path, monkeypatch, capsys
    ):
        _write(tmp_path, "src/repro/serve/broken.py", "def f(:\n")
        monkeypatch.chdir(tmp_path)
        assert _lint("src") == 2
        out = capsys.readouterr().out
        assert "src/repro/serve/broken.py:1: error: syntax error" in out
        assert "Traceback" not in out


class TestFlagsAndFormats:
    def test_list_rules(self, capsys):
        assert _lint("--list-rules") == 0
        out = capsys.readouterr().out
        live = [f"RPL{i:03d}" for i in range(1, 11) if i != 7]
        listed = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert listed == live

    def test_json_format(self, tmp_path, monkeypatch, capsys):
        _write(
            tmp_path,
            "src/repro/serve/bad.py",
            """
            def serve(model):
                model.training = False
            """,
        )
        monkeypatch.chdir(tmp_path)
        assert _lint("src", "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-lint"
        assert [f["rule"] for f in payload["findings"]] == ["RPL002"]

    def test_update_baseline_then_clean(self, tmp_path, monkeypatch, capsys):
        _write(
            tmp_path,
            "src/repro/serve/bad.py",
            """
            def serve(model):
                model.training = False
            """,
        )
        monkeypatch.chdir(tmp_path)
        assert _lint("src", "--baseline", "bl.json", "--update-baseline") == 0
        assert "wrote 1 baseline entries" in capsys.readouterr().out
        assert _lint("src", "--baseline", "bl.json") == 0
        assert "1 baselined" in capsys.readouterr().out
        # --no-baseline reveals the grandfathered finding again.
        assert _lint("src", "--baseline", "bl.json", "--no-baseline") == 1

    def test_update_baseline_refuses_unparsable_tree(
        self, tmp_path, monkeypatch, capsys
    ):
        _write(tmp_path, "src/repro/serve/broken.py", "def f(:\n")
        monkeypatch.chdir(tmp_path)
        assert _lint("src", "--baseline", "bl.json", "--update-baseline") == 2
        assert not (tmp_path / "bl.json").exists()
        assert "refusing" in capsys.readouterr().err
