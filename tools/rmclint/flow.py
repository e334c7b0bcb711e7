"""Flow-aware rmclint passes: coro-lifetime and seqlock-discipline.

Unlike the per-line rules in rules.py, these two passes need a (still
lexical) notion of *function extent*: which lines belong to which function
body, where the first `co_await` suspension point sits, and which
function a given write statement lives in. The segmentation below is a
brace-matching scan over the code channel — no parsing, no type info —
tuned to this repo's style. It is deliberately conservative: a head it
cannot classify is treated as a plain block, never as a function.

coro-lifetime
  A coroutine's reference/pointer/`span`/`string_view` parameters alias
  caller-owned storage. After the first `co_await` the caller may have
  moved on and destroyed that storage, so any later read is a potential
  use-after-free (invisible to clang-tidy, which does not model
  coroutine suspension). A directly-awaited lazy Task is safe by
  construction: in `co_await f(args...)` every argument lives to the
  end of the full-expression, which completes only after the await
  resumes ([expr.await]) — so the pass scopes the parameter check to
  coroutines whose frames OUTLIVE the call expression: anything handed
  to `spawn()` (by name, project-wide, or a lambda spawned in place).
  Known gap: a Task stored in a variable and awaited after its
  arguments died is invisible here (documented in DESIGN.md §17).
  The same pass flags by-reference lambda captures escaping into
  registration sinks (AM handlers, scheduler callbacks): those fire
  after the enclosing frame is gone.

seqlock-discipline
  The ucr frame codec (ucr/frame.hpp), the one-sided index
  (onesided/layout.hpp) and the RFP rings (rfp/layout.hpp) are seqlock
  protocols: field write ORDER is the correctness argument. Every
  mutation of a guarded field (seq, seq_back, checksum, versions,
  index-entry fields, the server's expected_seq epochs) must go through
  the blessed helpers that encode the protocol; a direct write anywhere
  else is a finding. The pass is scoped to files that can see the
  guarded types (src/ucr/frame.hpp, src/rfp/, src/onesided/, or anything
  including one of those headers).
"""

from __future__ import annotations

import dataclasses
import re

from .engine import Finding, Project, SourceFile
from .rules import CXX_SUFFIXES

# ------------------------------------------------------------ segmentation


@dataclasses.dataclass
class Function:
    name: str        # unqualified name; "<lambda>" when anonymous
    params: str      # raw parameter-list text (may be empty)
    is_lambda: bool
    spawned_inline: bool  # lambda passed to spawn() in its own head
    body_start: int  # 1-based line of the opening brace
    body_end: int    # 1-based line of the closing brace


_REJECT_LEADING = {
    "if", "for", "while", "switch", "catch", "do", "else", "case", "default",
    "return", "co_return", "co_yield", "co_await", "goto", "using", "typedef",
    "struct", "class", "enum", "union", "namespace", "try", "public",
    "private", "protected", "new", "delete", "throw", "break", "continue",
    "static_assert", "requires", "extern", "asm",
}

_NAME_BEFORE_PAREN_RE = re.compile(r"([A-Za-z_~][A-Za-z0-9_]*)\s*\(")
_LAMBDA_PARAMS_RE = re.compile(r"\]\s*\(")
_LAMBDA_BARE_RE = re.compile(r"\[[^\[\]]*\]\s*(?:mutable\s*)?(?:->[^{]*)?$")
_LAMBDA_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*\[")
_TEMPLATE_PREFIX_RE = re.compile(r"^\s*template\s*<[^<>]*>\s*")


def _trim_unbalanced(text: str) -> str:
    """Drop everything up to the last unmatched '(' or ')' so a head nested
    inside an unfinished call (`spawn([](...) -> Task<>`) parses as the
    inner construct; a fully-balanced head is returned unchanged."""
    stack: list[int] = []
    cut = -1
    for i, c in enumerate(text):
        if c == "(":
            stack.append(i)
        elif c == ")":
            if stack:
                stack.pop()
            else:
                cut = i
    if stack:
        cut = max(cut, stack[0])
    return text[cut + 1 :] if cut >= 0 else text


def _valid_function_tail(tail: str) -> bool:
    """Text after a function head's parameter group must look like qualifiers
    or a ctor init list — `f(g(x), Bar {` style brace-inits leave a stray
    `,`/`=` here and must not classify as functions."""
    tail = tail.strip()
    if not tail or tail.startswith(":"):
        return True
    prev = None
    while prev != tail:  # erase nested paren groups to a fixpoint
        prev = tail
        tail = re.sub(r"\([^()]*\)", "", tail)
    return re.search(r"[=,]", tail) is None


def _extract_group(text: str, open_idx: int) -> str | None:
    """Contents of the paren group opening at text[open_idx] ('('), or None."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1 : i]
    return None


def _parse_head(head: str) -> tuple[str, str, bool] | None:
    """Classify the text before a '{'. Returns (name, params, is_lambda)."""
    head = _TEMPLATE_PREFIX_RE.sub("", head.strip())
    head = _trim_unbalanced(head).strip()
    if not head or head[-1] in "=,&|+-<([":
        return None
    first = re.match(r"[A-Za-z_~][A-Za-z0-9_]*", head)
    if first and first.group(0) in _REJECT_LEADING:
        return None

    m = _LAMBDA_PARAMS_RE.search(head)
    if m is not None:
        params = _extract_group(head, head.index("(", m.start()))
        if params is None:
            return None
        nm = _LAMBDA_NAME_RE.search(head)
        return (nm.group(1) if nm else "<lambda>", params, True)
    if _LAMBDA_BARE_RE.search(head) and "[" in head:
        nm = _LAMBDA_NAME_RE.search(head)
        return (nm.group(1) if nm else "<lambda>", "", True)

    nm = _NAME_BEFORE_PAREN_RE.search(head)
    if nm is None:
        return None
    open_idx = head.index("(", nm.start())
    params = _extract_group(head, open_idx)
    if params is None:
        return None
    if not _valid_function_tail(head[open_idx + len(params) + 2 :]):
        return None
    name = nm.group(1).rsplit("::", 1)[-1]
    return (name, params, False)


def segment_functions(sf: SourceFile) -> list[Function]:
    """Brace-matched function bodies (including lambdas) in one file."""
    funcs: list[Function] = []
    stack: list[Function | None] = []
    head: list[str] = []
    line = 1
    for ch in "\n".join(sf.code_lines):
        if ch == "\n":
            line += 1
            head.append(" ")
        elif ch == "{":
            head_text = "".join(head)
            parsed = _parse_head(head_text)
            if parsed is not None:
                name, params, is_lambda = parsed
                spawned_inline = is_lambda and bool(
                    re.search(r"\bspawn\s*\(", head_text)
                )
                stack.append(
                    Function(name, params, is_lambda, spawned_inline, line, line)
                )
            else:
                stack.append(None)
            head = []
        elif ch == "}":
            if stack:
                top = stack.pop()
                if top is not None:
                    top.body_end = line
                    funcs.append(top)
            head = []
        elif ch == ";":
            head = []
        else:
            head.append(ch)
    return funcs


# ------------------------------------------------------------ coro-lifetime

_CO_AWAIT_RE = re.compile(r"\bco_await\b")
_RISKY_PARAM_RE = re.compile(r"[&*]|\bspan\b|\bstring_view\b")
_PARAM_KEYWORDS = {
    "const", "volatile", "unsigned", "signed", "struct", "class", "typename",
    "auto", "long", "short", "int", "char", "bool", "float", "double",
}
# Registration sinks: the callback outlives the registering frame, so a
# by-reference capture of locals is a use-after-free when it fires.
_SINK_RE = re.compile(
    r"\b(?:register_handler|on_endpoint_down|set_listener|call_at|call_in"
    r"|resume_at|on_complete|on_header)\b"
)
_REF_CAPTURE_RE = re.compile(r"\[\s*&|\[[^\]\n]*[(,\s]&")


def _split_params(params: str) -> list[str]:
    out: list[str] = []
    depth = 0
    buf: list[str] = []
    for c in params:
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(buf))
            buf = []
        else:
            buf.append(c)
    out.append("".join(buf))
    return [p.strip() for p in out if p.strip()]


def _param_name(decl: str) -> str | None:
    decl = decl.split("=", 1)[0]
    prev = None
    while prev != decl:  # strip nested template argument lists to a fixpoint
        prev = decl
        decl = re.sub(r"<[^<>]*>", "", decl)
    idents = [i for i in re.findall(r"[A-Za-z_]\w*", decl) if i not in _PARAM_KEYWORDS]
    if len(idents) < 2:
        return None  # unnamed parameter (single token is the type)
    return idents[-1]


_SPAWN_BY_NAME_RE = re.compile(r"\bspawn\s*\(\s*(?:\w+(?:\.|->|::))*(\w+)\s*\(")


def _spawned_names(project: Project) -> set[str]:
    """Names of every coroutine handed to spawn() anywhere in src/ — the
    frames that outlive their call expression."""
    names: set[str] = set()
    for sf in project.files:
        if not sf.rel.startswith("src/") or not sf.rel.endswith(CXX_SUFFIXES):
            continue
        joined = " ".join(line.strip() for line in sf.code_lines)
        for m in _SPAWN_BY_NAME_RE.finditer(joined):
            names.add(m.group(1))
    return names


def check_coro_lifetime(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    spawned = _spawned_names(project)
    for sf in project.files:
        if not sf.rel.startswith("src/") or not sf.rel.endswith(CXX_SUFFIXES):
            continue
        funcs = segment_functions(sf)
        for fn in funcs:
            if fn.name not in spawned and not fn.spawned_inline:
                continue
            inner = [
                g
                for g in funcs
                if g is not fn
                and g.body_start >= fn.body_start
                and g.body_end <= fn.body_end
            ]

            def owned(lineno: int) -> bool:
                return not any(
                    g.body_start <= lineno <= g.body_end for g in inner
                )

            body = [
                ln
                for ln in range(fn.body_start, fn.body_end + 1)
                if owned(ln)
            ]
            suspends = any(
                _CO_AWAIT_RE.search(sf.code_lines[ln - 1]) for ln in body
            )
            if not suspends:
                continue
            # A spawned coroutine runs detached: every statement — including
            # ones lexically before the first co_await, and loop-carried
            # re-reads on the await line itself — executes after the
            # spawning call returned. Record the first read of each aliasing
            # parameter, then emit ONE finding per function (anchored at the
            # earliest use) so a single justified allow() covers the frame's
            # whole lifetime argument.
            hits: list[tuple[int, str]] = []
            for decl in _split_params(fn.params):
                if not _RISKY_PARAM_RE.search(decl):
                    continue
                name = _param_name(decl)
                if name is None:
                    continue
                use_re = re.compile(rf"\b{re.escape(name)}\b")
                for ln in body:
                    segment = sf.code_lines[ln - 1]
                    if ln == fn.body_start:
                        # Skip the signature text on the opening-brace line.
                        segment = segment.split("{", 1)[-1]
                    if use_re.search(segment):
                        hits.append((ln, name))
                        break  # first use per (function, parameter)
            if hits:
                hits.sort()
                names = ", ".join(f"`{n}`" for _, n in hits)
                findings.append(
                    Finding(
                        "coro-lifetime",
                        sf.rel,
                        hits[0][0],
                        f"spawned coroutine `{fn.name}` reads aliasing "
                        f"parameter(s) {names} — the frame is detached, so "
                        "every read races the arguments' destruction; copy "
                        "them into the frame up front or justify what owner "
                        "provably outlives this task",
                    )
                )
        # Stack addresses escaping into registered callbacks.
        for idx, line in enumerate(sf.code_lines, start=1):
            if not _REF_CAPTURE_RE.search(line):
                continue
            context = " ".join(sf.code_lines[max(0, idx - 3) : idx])
            if _SINK_RE.search(context):
                findings.append(
                    Finding(
                        "coro-lifetime",
                        sf.rel,
                        idx,
                        "by-reference lambda capture escapes into a "
                        "registered callback — the handler fires after the "
                        "registering frame is gone, so captured locals "
                        "dangle; capture by value or [this]",
                    )
                )
    return findings


# ------------------------------------------------------- seqlock-discipline

# Functions allowed to mutate seqlock-guarded state: they ARE the protocol.
BLESSED_WRITERS = {
    "seal_frame",     # ucr/frame.hpp: header + checksum + tail stamp
    "seal",           # onesided BucketEntry::seal
    "release",        # Channel slot epoch close
    "release_slot",   # RingServer request epoch advance
    "reclaim_lost",   # Channel lost-slot epoch close
    "publish",        # Publisher record + entry write protocol
    "retract",        # Publisher odd-epoch tombstone
}

_GUARDED_FIELDS = (
    "seq", "seq_back", "version", "version_front", "version_back",
    "checksum", "check", "tag", "arena_offset", "record_len",
)
_FIELD_WRITE_RE = re.compile(
    r"(?:\.|->)\s*(?:" + "|".join(_GUARDED_FIELDS) + r")\b\s*"
    r"(?:\+\+|--|(?:[+\-|&^*/%]|<<|>>)=|=(?!=))"
)
_EXPECTED_SEQ_RE = re.compile(
    r"(?:\.|->)\s*expected_seq\s*"
    r"(?:\[[^\]]*\]\s*(?:\+\+|--|(?:[+\-|&^*/%]|<<|>>)=|=(?!=))"
    r"|\.\s*(?:assign|clear|resize|push_back|emplace_back)\s*\()"
)
_MEMCPY_GUARDED_RE = re.compile(
    r"\bmemcpy\s*\(\s*(?:\w+(?:\.|->))*(?:entry_at|record_at)\s*\("
)
_GUARDED_INCLUDE_RE = re.compile(
    r'#\s*include\s*"(?:(?:rfp|onesided)/layout|ucr/frame)\.hpp"'
)


def _sees_guarded_types(sf: SourceFile) -> bool:
    if sf.rel == "src/ucr/frame.hpp" or sf.rel.startswith(("src/rfp/", "src/onesided/")):
        return True
    return bool(_GUARDED_INCLUDE_RE.search(sf.text))


def check_seqlock_discipline(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for sf in project.files:
        if not sf.rel.startswith("src/") or not sf.rel.endswith(CXX_SUFFIXES):
            continue
        if not _sees_guarded_types(sf):
            continue
        funcs = segment_functions(sf)

        def blessed(lineno: int) -> bool:
            return any(
                f.body_start <= lineno <= f.body_end and f.name in BLESSED_WRITERS
                for f in funcs
            )

        for idx, line in enumerate(sf.code_lines, start=1):
            hit = (
                _FIELD_WRITE_RE.search(line)
                or _EXPECTED_SEQ_RE.search(line)
                or _MEMCPY_GUARDED_RE.search(line)
            )
            if hit is None or blessed(idx):
                continue
            findings.append(
                Finding(
                    "seqlock-discipline",
                    sf.rel,
                    idx,
                    "write to seqlock-guarded state outside the blessed "
                    "helpers (" + ", ".join(sorted(BLESSED_WRITERS)) + ") — "
                    "the field-write ORDER is the correctness argument for "
                    "the one-sided index and RFP frames; route the mutation "
                    "through the protocol helper or justify why no "
                    "concurrent reader can observe it",
                )
            )
    return findings
