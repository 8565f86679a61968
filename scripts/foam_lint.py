#!/usr/bin/env python3
"""foam_lint: CI-blocking memory-order and hot-path hygiene wall.

Rules
-----
1. mo-justification: every use of ``memory_order_relaxed`` in src/ must
   carry a ``// mo:`` justification comment on the same line or within the
   two lines above it. Relaxed is the ordering that silently "works" until
   it doesn't; the comment forces the author to state the invariant that
   makes it legal (single writer, standalone flag, statistical sample, ...)
   where the model checker and reviewers can see it.

   Exemptions: ``src/mc/`` (the model checker manipulates memory orders as
   *data* — defaults, demotion tables, trace formatting) and ``tests/`` /
   ``bench/`` (litmus tests use deliberately wrong orderings; the checker,
   not a comment, is their justification).

2. hot-path-purity: ``src/par/spsc.hpp`` is the lock-free hot path of the
   messaging runtime. No ``std::mutex``, ``condition_variable``, or any
   sleep primitive may appear in its code (comments excluded) — a blocking
   construct there would void the wait-free push/pop contract the model
   checker verifies and the watchdog's stall attribution assumes.

3. day-length: no bare ``86400`` in src/ code outside
   ``src/base/constants.hpp``. The day length is
   ``constants::seconds_per_day`` (double) or ``constants::seconds_per_day_i``
   (int64 calendar arithmetic); a second spelling of it is how a calendar
   and a time step drift apart. Comments are not scanned.

Exit status: 0 clean, 1 findings (one ``file:line: message`` per line).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

RELAXED = re.compile(r"\bmemory_order_relaxed\b")
MO_COMMENT = re.compile(r"//\s*mo:")
# Blocking constructs forbidden in the spsc hot path. \b doesn't follow
# "sleep_for(" fully but the names are distinctive enough.
BLOCKING = re.compile(
    r"\bstd::mutex\b|\bstd::condition_variable\b|\bstd::shared_mutex\b"
    r"|\bsleep_for\b|\bsleep_until\b|\busleep\b|\bnanosleep\b|\bsleep\s*\("
)

DAY_LITERAL = re.compile(r"\b86400\b")

MO_SCAN_ROOTS = ["src"]
MO_EXEMPT_PREFIXES = ["src/mc/"]
HOT_PATHS = ["src/par/spsc.hpp"]
DAY_LENGTH_HOME = "src/base/constants.hpp"


def strip_line_comment(line: str) -> str:
    """Drop a // comment (good enough: the scanned files use no /* */)."""
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def lint_mo_justification(path: Path, rel: str, findings: list[str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if not RELAXED.search(strip_line_comment(line)):
            continue
        window = lines[max(0, i - 3) : i + 1]
        if any(MO_COMMENT.search(w) for w in window):
            continue
        findings.append(
            f"{rel}:{i + 1}: memory_order_relaxed without a '// mo:' "
            "justification on the line or within 3 lines above"
        )


def lint_hot_path(path: Path, rel: str, findings: list[str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        code = strip_line_comment(line)
        m = BLOCKING.search(code)
        if m:
            findings.append(
                f"{rel}:{i + 1}: blocking construct '{m.group(0)}' in the "
                "lock-free hot path (spsc.hpp must stay mutex- and "
                "sleep-free)"
            )


def lint_day_literal(path: Path, rel: str, findings: list[str]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if DAY_LITERAL.search(strip_line_comment(line)):
            findings.append(
                f"{rel}:{i + 1}: bare 86400; use constants::seconds_per_day "
                f"or seconds_per_day_i ({DAY_LENGTH_HOME})"
            )


def main() -> int:
    findings: list[str] = []

    for root in MO_SCAN_ROOTS:
        for path in sorted((REPO / root).rglob("*")):
            if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
                continue
            rel = path.relative_to(REPO).as_posix()
            if rel != DAY_LENGTH_HOME:
                lint_day_literal(path, rel, findings)
            if any(rel.startswith(p) for p in MO_EXEMPT_PREFIXES):
                continue
            lint_mo_justification(path, rel, findings)

    for hot in HOT_PATHS:
        path = REPO / hot
        if path.exists():
            lint_hot_path(path, hot, findings)
        else:
            findings.append(f"{hot}: hot-path file missing (lint config stale?)")

    for f in findings:
        print(f)
    if findings:
        print(f"foam_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("foam_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
