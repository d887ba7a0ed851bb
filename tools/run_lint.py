#!/usr/bin/env python3
"""Repo-root entry point for ``repro-lint`` (the CI lint job runs this).

Equivalent to ``PYTHONPATH=src python -m repro.lint ...`` but runnable
from a bare checkout anywhere: it puts ``src/`` on ``sys.path`` itself
and runs from the repository root, so the default scan set
(``src tools benchmarks perfbench``) and repo-relative finding paths work
regardless of the caller's cwd.  Path arguments are therefore
interpreted relative to the repository root, not the caller's cwd.

Usage::

    python tools/run_lint.py                       # scan src tools benchmarks perfbench
    python tools/run_lint.py --format=json         # machine-readable (CI)
    python tools/run_lint.py --list-rules          # rule catalog
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.lint.cli import main  # noqa: E402

if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    sys.exit(main(sys.argv[1:]))
