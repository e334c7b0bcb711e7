"""rmclint CLI.

Run from the repo root (or pass --root):

    python3 tools/rmclint                 # lint src/, bench/, examples/
    python3 tools/rmclint --list-rules
    python3 tools/rmclint path/to/file.cpp ...

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.

When a compile_commands.json is present (CMAKE_EXPORT_COMPILE_COMMANDS=ON
is set top-level, so any configured build tree has one) the linter also
verifies every .cpp it scanned is actually part of the build — a source
that drops out of the build silently escapes both the compiler's warnings
and this linter's guarantees.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    # Invoked as `python3 tools/rmclint` (directory on sys.path): make the
    # sibling modules importable as a flat namespace.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from rmclint.engine import Finding, Project, apply_suppressions
    from rmclint.flow import check_coro_lifetime, check_seqlock_discipline
    from rmclint.metrics_xref import check_metrics
    from rmclint.rules import (
        ALL_RULES,
        CXX_SUFFIXES,
        check_dead_knobs,
        check_determinism,
        check_io_hygiene,
        check_zero_fill,
        check_zeroalloc,
    )
else:
    from .engine import Finding, Project, apply_suppressions
    from .flow import check_coro_lifetime, check_seqlock_discipline
    from .metrics_xref import check_metrics
    from .rules import (
        ALL_RULES,
        CXX_SUFFIXES,
        check_dead_knobs,
        check_determinism,
        check_io_hygiene,
        check_zero_fill,
        check_zeroalloc,
    )

SCAN_DIRS = ("src", "bench", "examples", "tests")


def gather_files(root: Path, explicit: list[str]) -> list[Path]:
    if explicit:
        out = []
        for arg in explicit:
            p = Path(arg)
            if not p.is_absolute():
                p = root / p
            if p.is_dir():
                out.extend(sorted(q for q in p.rglob("*") if q.suffix in CXX_SUFFIXES))
            elif p.exists():
                out.append(p)
            else:
                print(f"rmclint: no such file: {arg}", file=sys.stderr)
                raise SystemExit(2)
        return out
    files: list[Path] = []
    fixtures = root / "tests" / "rmclint"
    for d in SCAN_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(
                sorted(
                    p
                    for p in base.rglob("*")
                    # The lint fixtures are mini-repos full of deliberate
                    # violations; they get their own --root in ctest.
                    if p.suffix in CXX_SUFFIXES and not p.is_relative_to(fixtures)
                )
            )
    return files


def check_compile_db(root: Path, db_path: Path, scanned: list[Path]) -> list[Finding]:
    try:
        entries = json.loads(db_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"rmclint: cannot read {db_path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    built = {str(Path(e["directory"], e["file"]).resolve()) for e in entries}
    findings = []
    for p in scanned:
        if p.suffix != ".cpp" or not p.is_relative_to(root / "src"):
            continue
        if str(p.resolve()) not in built:
            findings.append(
                Finding(
                    "untracked-source",
                    str(p.relative_to(root)),
                    1,
                    "translation unit under src/ is not in compile_commands.json "
                    "— dead code escapes every compiler warning and lint gate; "
                    "add it to the build or delete it",
                )
            )
    return findings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="rmclint",
        description="repo-specific static analysis: determinism, zero-alloc, "
        "metrics registry, IO hygiene",
    )
    ap.add_argument("paths", nargs="*", help="files or directories (default: src bench examples tests)")
    ap.add_argument("--root", default=".", help="repository root (default: cwd)")
    ap.add_argument(
        "--compile-commands",
        default=None,
        help="path to compile_commands.json (default: <root>/build/compile_commands.json if present)",
    )
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument(
        "--no-metrics",
        action="store_true",
        help="skip the metrics cross-check (for linting files outside the repo)",
    )
    args = ap.parse_args(argv)

    if args.list_rules:
        width = max(len(r) for r in ALL_RULES)
        for rule, desc in ALL_RULES.items():
            print(f"{rule:<{width}}  {desc}")
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"rmclint: --root {args.root}: not a directory", file=sys.stderr)
        return 2

    project = Project(root)
    scanned = gather_files(root, args.paths)
    for path in scanned:
        project.add(path)

    findings: list[Finding] = []
    findings += check_determinism(project)
    findings += check_zeroalloc(project)
    findings += check_zero_fill(project)
    findings += check_io_hygiene(project)
    findings += check_coro_lifetime(project)
    findings += check_seqlock_discipline(project)
    if not args.paths:  # needs the whole tree: a knob may be set in any file
        findings += check_dead_knobs(project)
    findings = apply_suppressions(project, findings)
    if not args.no_metrics:
        findings += check_metrics(project, root)

    db = Path(args.compile_commands) if args.compile_commands else root / "build/compile_commands.json"
    if db.exists() and not args.paths:
        findings += check_compile_db(root, db, scanned)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.render())
    if findings:
        by_rule: dict[str, int] = {}
        for f in findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        summary = ", ".join(f"{r}: {c}" for r, c in sorted(by_rule.items()))
        print(f"\nrmclint: {len(findings)} finding(s) ({summary})", file=sys.stderr)
        return 1
    print(f"rmclint: clean ({len(scanned)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
