"""Tests for ``tools/count_code_lines.py``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "count_code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment counts as its code line


def f(x):
    """Function docstring."""
    value = (x +
             1)
    return value
'''


def _run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True, text=True, check=False,
    )


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "b.py").write_text(SOURCE)
    (tmp_path / "pkg" / "sub" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    return tmp_path / "pkg"


def test_skips_docstrings_comments_and_blank_lines(tree):
    result = _run(tree / "b.py")
    assert result.returncode == 0
    # import, def, value = (x +, 1), return
    assert result.stdout.splitlines()[-1].split() == ["5", "total"]


def test_directory_recurses_over_python_files_in_sorted_order(tree):
    result = _run(tree)
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == [
        str(tree / "b.py"), str(tree / "sub" / "a.py"),
    ]
    assert lines[-1].split() == ["6", "total"]


@pytest.mark.parametrize("args", [["--help"], ["-h"], []])
def test_usage_exits_two(args):
    result = _run(*args)
    assert result.returncode == 2
    assert "usage:" in result.stderr
    assert "Traceback" not in result.stderr


def test_missing_path_is_named(tree):
    result = _run(tree / "b.py", tree / "absent.py")
    assert result.returncode == 2
    assert str(tree / "absent.py") in result.stderr
    assert "Traceback" not in result.stderr
