"""The line-hit reporter refuses an option instead of taking it for the summary path."""

from __future__ import annotations

import pytest

from tests import line_hits


@pytest.mark.parametrize("argv", [["--help"], ["-h"], [], ["a.md", "b.md"]])
def test_usage_exits_two_without_running_the_suite(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pytest, "main", lambda *args, **kwargs: pytest.fail("the suite ran"))
    assert line_hits.main(argv) == 2
    assert capsys.readouterr() == ("", "usage: python -m tests.line_hits SUMMARY.md\n")
    assert list(tmp_path.iterdir()) == []
