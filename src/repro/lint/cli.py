"""Command-line front end: ``python -m repro.lint`` / ``tools/run_lint.py``.

Exit status is the contract CI leans on: 0 when the tree is clean,
1 when any finding survives suppression, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.lint.catalog import ALL_RULES, RULE_IDS
from repro.lint.core import lint_paths

__all__ = ["main"]

_DEFAULT_PATHS = ("src", "tools", "benchmarks", "perfbench")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-level invariant checker for the repro codebase: "
            "determinism, lock discipline, pool-transport safety, and "
            "kernel dtype exactness (see docs/static-analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(_DEFAULT_PATHS),
        help="files or directories to scan (default: %(default)s)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: %(default)s)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="directory findings are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id in sorted(RULE_IDS):
            print(f"{rule_id}  {RULE_IDS[rule_id]}")
        return 0
    missing: List[str] = [
        path for path in args.paths if not os.path.exists(path)
    ]
    if missing:
        print(
            f"repro-lint: no such path: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    report = lint_paths(args.paths, rules=ALL_RULES, root=args.root)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        status = "clean" if report.clean else f"{len(report.findings)} finding(s)"
        print(
            f"repro-lint: {status} in {report.files_scanned} file(s), "
            f"{report.suppressions_used} suppression(s) used",
            file=sys.stderr,
        )
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
