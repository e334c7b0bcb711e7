"""rmclint rule implementations (everything except the metrics cross-check).

Every rule is lexical and repo-specific. The point is not to be a general
C++ analyzer — clang-tidy covers that — but to mechanically pin the three
invariants this reproduction's results rest on:

  determinism-*   the simulator must be bit-identical across runs
  zeroalloc       the request hot path must not allocate (PR 2 budget)
  zero-fill       run-time-sized byte buffers are page-backed, not CPU-filled
  io-hygiene      library code logs through common/log.hpp, never stdout
  dead-knob       every configuration field is set by someone

Scopes: determinism, zero-fill and io-hygiene apply to src/ (library code);
zeroalloc applies to hot-path-tagged files (src/simnet/, src/ucr/ by
directory, plus any file carrying a `// rmclint:hotpath` tag).
"""

from __future__ import annotations

import re

from .engine import Finding, Project, SourceFile

HOT_DIRS = ("src/simnet/", "src/ucr/")

CXX_SUFFIXES = (".cpp", ".hpp", ".h", ".cc", ".hh")


def _in_src(sf: SourceFile) -> bool:
    return sf.rel.startswith("src/")


def _is_hotpath(sf: SourceFile) -> bool:
    return sf.rel.startswith(HOT_DIRS) or sf.hotpath_tag


# --------------------------------------------------------------- determinism

RAND_RE = re.compile(r"\brandom_device\b|\bs?rand\s*\(|\bdrand48\b|\blrand48\b")
CLOCK_RE = re.compile(
    r"\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
)
GETENV_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*&?\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:[;={(,)]|$)"
)
POINTER_KEY_RE = re.compile(
    r"\bstd::(?:map|set|multimap|multiset)\s*<\s*[^,<>]*\*\s*[,>]"
)
PRIORITY_QUEUE_RE = re.compile(r"\bpriority_queue\s*<")


def _unordered_names(project: Project) -> set[str]:
    """Names of every variable/member declared as an unordered container
    anywhere in src/ (cross-file: members declared in headers are iterated
    from .cpp files)."""
    names: set[str] = set()
    for sf in project.files:
        if not _in_src(sf):
            continue
        # Join continuation lines so multi-line template declarations parse.
        joined = " ".join(line.strip() for line in sf.code_lines)
        for m in UNORDERED_DECL_RE.finditer(joined):
            names.add(m.group("name"))
    # Drop names too generic to mean anything ("map", single letters).
    return {n for n in names if len(n) > 1 and n not in {"it", "kv"}}


def check_determinism(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    unordered = _unordered_names(project)
    iter_res = [
        # range-for over an unordered container (by name)
        re.compile(r"for\s*\([^;()]*:\s*&?\s*(?:\w+(?:\.|->))*(" + "|".join(map(re.escape, sorted(unordered))) + r")\s*\)")
        if unordered
        else None,
        # explicit iterator walk / algorithm over .begin()
        re.compile(r"\b(" + "|".join(map(re.escape, sorted(unordered))) + r")\s*(?:\.|->)\s*c?begin\s*\(")
        if unordered
        else None,
        # iterating an unnamed/temporary unordered container
        re.compile(r"for\s*\([^;()]*:\s*[^)]*\bunordered_(?:map|set)\b"),
    ]
    for sf in project.files:
        if not _in_src(sf) or not sf.rel.endswith(CXX_SUFFIXES):
            continue
        for idx, line in enumerate(sf.code_lines, start=1):
            if RAND_RE.search(line):
                findings.append(
                    Finding(
                        "determinism-rand",
                        sf.rel,
                        idx,
                        "nondeterministic randomness source in src/ — use the "
                        "seeded rmc::Rng (common/rng.hpp) so runs stay bit-identical",
                    )
                )
            if CLOCK_RE.search(line):
                findings.append(
                    Finding(
                        "determinism-clock",
                        sf.rel,
                        idx,
                        "wall-clock read in src/ — simulated components must take "
                        "time from sim::Scheduler::now() (virtual time) only",
                    )
                )
            if GETENV_RE.search(line):
                findings.append(
                    Finding(
                        "determinism-getenv",
                        sf.rel,
                        idx,
                        "environment-dependent control flow in src/ — thread "
                        "configuration through explicit config structs instead",
                    )
                )
            for rx in iter_res:
                if rx is not None and rx.search(line):
                    findings.append(
                        Finding(
                            "determinism-unordered-iter",
                            sf.rel,
                            idx,
                            "iteration over an unordered container in src/ — "
                            "iteration order is implementation-defined and "
                            "sim-visible; use std::map (monotonic keys preserve "
                            "insertion order), a sorted snapshot, or a vector",
                        )
                    )
                    break
            if POINTER_KEY_RE.search(line):
                findings.append(
                    Finding(
                        "determinism-pointer-key",
                        sf.rel,
                        idx,
                        "pointer-keyed ordered container in src/ — iteration "
                        "order follows allocation addresses, which differ run to "
                        "run; key by a stable id instead",
                    )
                )
            if PRIORITY_QUEUE_RE.search(line):
                findings.append(
                    Finding(
                        "determinism-priority-queue",
                        sf.rel,
                        idx,
                        "std::priority_queue in src/ — its pop order for "
                        "equal keys is unspecified, and same-timestamp event "
                        "order is a pinned guarantee (src/simnet/"
                        "scheduler.hpp); schedule through sim::Scheduler or "
                        "a flat heap keyed by an explicit total order",
                    )
                )
    return findings


# ----------------------------------------------------------------- zeroalloc

ALLOC_RES: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"(?<!::)\bnew\s+(?!\()"), "new-expression"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup)\s*\("), "libc allocation"),
    (re.compile(r"\bmake_(?:unique|shared)\s*<"), "make_unique/make_shared"),
    (
        re.compile(r"\.\s*(?:push_back|emplace_back|resize|reserve|insert|emplace)\s*\("),
        "container growth",
    ),
    (re.compile(r"\bstd::to_string\s*\("), "std::to_string (allocates)"),
]


def check_zeroalloc(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for sf in project.files:
        if not _is_hotpath(sf) or not sf.rel.endswith(CXX_SUFFIXES):
            continue
        for idx, line in enumerate(sf.code_lines, start=1):
            for rx, what in ALLOC_RES:
                if rx.search(line):
                    findings.append(
                        Finding(
                            "zeroalloc",
                            sf.rel,
                            idx,
                            f"{what} in a hot-path file — the steady-state "
                            "request path must not allocate (PR 2 budget); move "
                            "the allocation to setup, use the simnet pools, or "
                            "annotate why this site is off the hot path",
                        )
                    )
                    break
    return findings


# ----------------------------------------------------------------- zero-fill

# Byte buffers the CPU fills (or takes from the heap) at a size chosen at
# run time. Such buffers are arenas, rings and pages sized for the worst
# case; the program writes a small part of them.
ZERO_FILL_RE = re.compile(
    r"\.\s*assign\s*\([^;]*,\s*(?:std::)?byte\s*[{(]\s*0?\s*[})]\s*\)"
    r"|\bmake_unique(?:_for_overwrite)?\s*<\s*(?:std::)?byte\s*\[\s*\]\s*>"
)


def check_zero_fill(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for sf in project.files:
        if not _in_src(sf) or not sf.rel.endswith(CXX_SUFFIXES):
            continue
        for idx, line in enumerate(sf.code_lines, start=1):
            if ZERO_FILL_RE.search(line):
                findings.append(
                    Finding(
                        "zero-fill",
                        sf.rel,
                        idx,
                        "byte buffer filled by the CPU at a run-time size — zeroing "
                        "touches every page, and heap memory may sit on pages an "
                        "earlier testbed touched; use rmc::PageBuffer "
                        "(common/page_buffer.hpp), whose pages read as zero and "
                        "cost nothing until written",
                    )
                )
    return findings


# ---------------------------------------------------------------- io-hygiene

IO_RE = re.compile(
    r"\bstd::cout\b|\bstd::cerr\b|\bstd::clog\b"
    r"|(?<![\w:])(?:std::)?(?:printf|puts|putchar|v?fprintf)\s*\("
)


def check_io_hygiene(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for sf in project.files:
        if not _in_src(sf) or not sf.rel.endswith(CXX_SUFFIXES):
            continue
        for idx, line in enumerate(sf.code_lines, start=1):
            if IO_RE.search(line):
                findings.append(
                    Finding(
                        "io-hygiene",
                        sf.rel,
                        idx,
                        "direct stdout/stderr I/O in library code — route "
                        "diagnostics through common/log.hpp (RMC_LOG_*); only "
                        "designated dump sinks may print, with an annotation",
                    )
                )
    return findings


# ----------------------------------------------------------------- dead-knob

KNOB_STRUCT_RE = re.compile(r"\bstruct\s+(?P<name>\w+(?:Config|Behavior|Costs))\s*\{")
# A write to a member: `x.a = v`, `p->a = v`, `x.a.b.c += v`, or a
# designated initializer `.a = v` / `.a{v}`. Every name on the path counts.
KNOB_WRITE_RE = re.compile(
    r"(?:\.|->)\s*(?P<path>\w+(?:\s*\.\s*\w+)*)\s*(?:(?:[-+*/%|&^]|<<|>>)?=(?!=)|\{)"
)
KNOB_NOT_FIELD_RE = re.compile(
    r"^\s*(?:enum|struct|class|union|using|typedef|static|friend|template)\b"
)
KNOB_FIELD_NAME_RE = re.compile(r"(\w+)\s*$")
KNOB_TEMPLATE_ARGS_RE = re.compile(r"<[^<>]*>")


def _knob_fields(sf: SourceFile) -> list[tuple[str, str, int]]:
    """(struct, field, line) for every data member of a *Config, *Behavior
    or *Costs struct defined in `sf`. Nested types, static members and member
    functions are not fields; a member's brace initializer is skipped."""
    fields: list[tuple[str, str, int]] = []
    lines = sf.code_lines
    for start, line in enumerate(lines):
        m = KNOB_STRUCT_RE.search(line)
        if not m:
            continue
        depth = 0
        stmt, stmt_line = "", 0
        for idx in range(start, len(lines)):
            text = lines[idx][m.end() - 1 :] if idx == start else lines[idx]
            for ch in text:
                if ch == "{":
                    depth += 1
                    if depth == 2:
                        stmt += "{"
                    continue
                if ch == "}":
                    depth -= 1
                    if depth == 0:
                        break
                    if depth == 1 and stmt.lstrip().startswith(("enum", "struct", "class", "union")):
                        stmt = ""  # a nested type's body ended; it declares no field
                    continue
                if depth != 1:
                    continue
                if ch == ";":
                    # The declarator, template arguments dropped: a `(` left
                    # in it makes a member function, not a field.
                    head = stmt.split("=")[0].split("{")[0]
                    while KNOB_TEMPLATE_ARGS_RE.search(head):
                        head = KNOB_TEMPLATE_ARGS_RE.sub("", head)
                    name = KNOB_FIELD_NAME_RE.search(head.strip() + " ")
                    if name and "(" not in head and not KNOB_NOT_FIELD_RE.match(stmt):
                        fields.append((m.group("name"), name.group(1), stmt_line + 1))
                    stmt = ""
                    continue
                if not stmt.strip():
                    stmt_line = idx
                stmt += ch
            if depth == 0 and idx > start:
                break
            stmt += " "
    return fields


def check_dead_knobs(project: Project) -> list[Finding]:
    """A field of a *Config, *Behavior or *Costs struct under src/ that nothing in
    the scanned tree assigns is a constant dressed as a knob. Lexical and
    name-based: a write to any member of the same name counts."""
    written: set[str] = set()
    for sf in project.files:
        if not sf.rel.endswith(CXX_SUFFIXES):
            continue
        for line in sf.code_lines:
            for m in KNOB_WRITE_RE.finditer(line):
                written.update(re.split(r"\s*\.\s*", m.group("path")))
    findings: list[Finding] = []
    for sf in project.files:
        if not _in_src(sf) or not sf.rel.endswith(CXX_SUFFIXES):
            continue
        for struct, field, line in _knob_fields(sf):
            if field not in written:
                findings.append(
                    Finding(
                        "dead-knob",
                        sf.rel,
                        line,
                        f"{struct}::{field} is never assigned in src/, bench/, "
                        "examples/ or tests/ — a value nobody sets is a constant; "
                        "make it one, or set it where it matters",
                    )
                )
    return findings


ALL_RULES = {
    "determinism-rand": "ban rand()/random_device/drand48 in src/",
    "determinism-clock": "ban wall-clock reads in src/",
    "determinism-getenv": "ban getenv-dependent control flow in src/",
    "determinism-unordered-iter": "ban iteration over unordered containers in src/",
    "determinism-pointer-key": "ban pointer-keyed ordered containers in src/",
    "determinism-priority-queue": "ban std::priority_queue in src/ (unspecified tie order)",
    "coro-lifetime": "ban reads of ref/pointer/view params after co_await; "
    "ban by-ref captures escaping into registered callbacks",
    "seqlock-discipline": "ban writes to seqlock-guarded fields outside the "
    "blessed protocol helpers",
    "zeroalloc": "ban allocation in hot-path-tagged files",
    "zero-fill": "ban CPU-filled run-time-sized byte buffers in src/ (use PageBuffer)",
    "io-hygiene": "ban direct stdout/stderr I/O in src/",
    "dead-knob": "every field of a *Config, *Behavior or *Costs struct in src/ is assigned "
    "somewhere",
    "metrics-registry": "cross-check metric names between code and docs/tests/tools",
    "bad-suppression": "allow() annotations must name a rule and justify",
    "unused-suppression": "allow() annotations must suppress a real finding",
}
