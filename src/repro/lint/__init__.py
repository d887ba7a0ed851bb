"""``repro.lint`` — AST-level invariant checks for the repro codebase.

Run ``python -m repro.lint src tools benchmarks perfbench`` (or
``tools/run_lint.py``); the rule catalog is documented in
``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.lint.core import (
    PARSE_RULE_ID,
    SUPPRESSION_RULE_ID,
    FileContext,
    Finding,
    LintReport,
    Rule,
    Suppression,
    lint_file,
    lint_paths,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "Suppression",
    "lint_file",
    "lint_paths",
    "PARSE_RULE_ID",
    "SUPPRESSION_RULE_ID",
]
