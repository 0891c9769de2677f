#!/usr/bin/env python3
"""Project-invariant linter: concurrency house rules the Clang thread-safety
annotations (src/runtime/sync.hpp) cannot express.

Rules
-----
raw-sync             std::mutex / std::condition_variable / std lock types
                     anywhere in src/ outside runtime/sync.hpp.  All locking
                     goes through the annotated wrappers so -Wthread-safety
                     sees every acquire/release.
atomic-shared-ptr    std::atomic<std::shared_ptr<...>>.  libstdc++
                     synchronizes it through a spin-lock bit ThreadSanitizer
                     cannot see through (the documented ViewChannel hazard);
                     use a sync::Mutex-guarded handoff instead.
blocking-under-lock  A blocking queue/transport call (BoundedQueue
                     push/pop/pop_for, Transport send/recv/barrier/
                     allreduce/allgather/broadcast, thread join, sleep_for)
                     in a scope that holds a sync::MutexLock.  Capabilities
                     bound short critical sections; blocking calls park the
                     holder and invite lock-order deadlocks.
steady-state-alloc   An explicitly allocating expression (new, make_unique/
                     make_shared, malloc family, std::to_string,
                     std::string(...), and the algorithms that take a
                     temporary buffer from the heap: std::inplace_merge,
                     std::stable_sort, std::stable_partition) inside a
                     function marked with the `// pigp:steady-state`
                     contract comment.  Amortized container growth
                     (push_back into pooled buffers) is allowed; naked
                     allocations are not.

Engines
-------
The AST engine (libclang via python3-clang) resolves declarations and scopes
precisely and is what CI runs.  When clang.cindex is unavailable or fails —
this repo also builds on plain-GCC boxes — the linter falls back to a
lexical engine: comment/string-stripped source with brace tracking.  Both
engines implement every rule; the negative-compile harness in tests/static/
seeds one violation per rule and asserts whichever engine is active reports
it, so neither can silently rot.  (Rules atomic-shared-ptr and
steady-state-alloc are token-level in both engines on purpose: the marker
comment and the banned type spelling live in the source text, and token
scans see code as written, before macro expansion.)

Suppressions
------------
One finding per line in the suppression file:

    <rule-id> <path-suffix>[:<line>]  # justification (required)

A suppressed finding is reported as suppressed in --verbose mode only; an
unused suppression is a warning, so retired entries get cleaned up.

Exit codes: 0 clean (or every --must-find rule fired), 1 findings (or a
--must-find rule did not fire), 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

RULE_IDS = (
    "raw-sync",
    "atomic-shared-ptr",
    "blocking-under-lock",
    "steady-state-alloc",
)

RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
ATOMIC_SHARED_PTR_RE = re.compile(
    r"\b(?:std\s*::\s*)?atomic\s*<\s*(?:std\s*::\s*)?shared_ptr\b"
)
# Method/function names that block the calling thread.  Matched as calls
# (name immediately followed by an open paren, reached via . or ->, plus the
# free/std forms for join/sleep_for).  Heuristic by name, which is exactly
# the house rule: these names MEAN "may block" in this codebase.
BLOCKING_CALL_RE = re.compile(
    r"(?:\.|->)\s*(push|pop|pop_for|recv|send|barrier|allreduce|allgather|"
    r"broadcast|join)\s*\(|\bsleep_for\s*\("
)
# CondVar waiting under its own mutex is the one legitimate block.
BLOCKING_EXEMPT_RE = re.compile(r"(?:\.|->)\s*(wait|wait_until|notify_\w+)\s*\(")
MUTEX_LOCK_DECL_RE = re.compile(r"\bsync\s*::\s*MutexLock\s+\w+\s*[({]")
STEADY_STATE_MARKER = "pigp:steady-state"
ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*\()|\bnew\s*\(|"  # new expressions (incl. placement)
    r"\bmake_unique\s*<|\bmake_shared\s*<|"
    r"\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|\bstrdup\s*\(|"
    r"\bto_string\s*\(|\bstd\s*::\s*string\s*\(|"
    # buffered algorithms: each takes a temporary buffer from the heap
    r"\b(?:inplace_merge|stable_sort|stable_partition)\s*\("
)
SYNC_HPP_SUFFIX = os.path.join("runtime", "sync.hpp")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.suppressed_by = None

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text):
    """Blank out comments, string and char literals, preserving offsets and
    newlines; returns (stripped_code, comments) where comments is a list of
    (line, comment_text)."""
    out = list(text)
    comments = []
    i, n = 0, len(text)
    line = 1

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            comments.append((line, text[i:j]))
            blank(i, j)
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            comments.append((line, text[i:j]))
            line += text.count("\n", i, j)
            blank(i, j)
            i = j
        elif c == '"':
            # Raw strings: R"delim( ... )delim"
            if i >= 1 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                m = re.match(r'R"([^ ()\\\t\n]*)\(', text[i - 1 :])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i)
                    j = n if j < 0 else j + len(close)
                    line += text.count("\n", i, j)
                    blank(i, j)
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            blank(i, j)
            i = j
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            blank(i, j)
            i = j
        else:
            i += 1
    return "".join(out), comments


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def enclosing_scope_end(code, pos):
    """End offset of the innermost {...} scope containing pos (or EOF)."""
    depth = 0
    for i in range(pos, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            if depth == 0:
                return i
            depth -= 1
    return len(code)


def matching_brace(code, open_pos):
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


# --------------------------------------------------------------- lexical


def lex_raw_sync(path, code, findings):
    if path.replace("\\", "/").endswith("runtime/sync.hpp"):
        return
    for m in RAW_SYNC_RE.finditer(code):
        findings.append(
            Finding(
                "raw-sync",
                path,
                line_of(code, m.start()),
                f"raw std::{m.group(1)} — use the annotated wrappers in "
                "runtime/sync.hpp so -Wthread-safety sees the lock",
            )
        )


def lex_atomic_shared_ptr(path, code, findings):
    for m in ATOMIC_SHARED_PTR_RE.finditer(code):
        findings.append(
            Finding(
                "atomic-shared-ptr",
                path,
                line_of(code, m.start()),
                "std::atomic<std::shared_ptr> synchronizes through a "
                "spin-lock bit TSan cannot see through — use a "
                "sync::Mutex-guarded handoff (see api/view.hpp)",
            )
        )


def lex_blocking_under_lock(path, code, findings):
    for decl in MUTEX_LOCK_DECL_RE.finditer(code):
        scope_end = enclosing_scope_end(code, decl.end())
        held = code[decl.end() : scope_end]
        for m in BLOCKING_CALL_RE.finditer(held):
            name = m.group(1) or "sleep_for"
            findings.append(
                Finding(
                    "blocking-under-lock",
                    path,
                    line_of(code, decl.end() + m.start()),
                    f"blocking call '{name}()' while holding the "
                    f"sync::MutexLock taken at line "
                    f"{line_of(code, decl.start())}",
                )
            )


def lex_steady_state(path, code, comments, findings):
    for cline, ctext in comments:
        if STEADY_STATE_MARKER not in ctext:
            continue
        # The marked function is the next definition: first '{' after the
        # marker opens its body.
        pos = 0
        line = 1
        for i, ch in enumerate(code):
            if line > cline and ch == "{":
                pos = i
                break
            if ch == "\n":
                line += 1
        else:
            continue
        body = code[pos : matching_brace(code, pos) + 1]
        for m in ALLOC_RE.finditer(body):
            findings.append(
                Finding(
                    "steady-state-alloc",
                    path,
                    line_of(code, pos + m.start()),
                    f"allocating expression '{m.group(0).strip()}' in a "
                    f"function marked // pigp:steady-state (line {cline})",
                )
            )


def lex_scan(path, text, findings):
    code, comments = strip_code(text)
    lex_raw_sync(path, code, findings)
    lex_atomic_shared_ptr(path, code, findings)
    lex_blocking_under_lock(path, code, findings)
    lex_steady_state(path, code, comments, findings)


# --------------------------------------------------------------- libclang

BLOCKING_NAMES = {
    "push",
    "pop",
    "pop_for",
    "recv",
    "send",
    "barrier",
    "allreduce",
    "allgather",
    "broadcast",
    "join",
    "sleep_for",
}


def ast_scan(path, text, findings, include_dir):
    """AST engine: rules raw-sync and blocking-under-lock from the libclang
    AST; token-level rules (atomic-shared-ptr, steady-state-alloc) reuse the
    lexical implementation — they are source-text properties by design."""
    import clang.cindex as ci

    index = ci.Index.create()
    tu = index.parse(
        path,
        args=["-x", "c++", "-std=c++20", f"-I{include_dir}"],
        options=ci.TranslationUnit.PARSE_INCOMPLETE,
    )

    is_sync_hpp = path.replace("\\", "/").endswith("runtime/sync.hpp")

    def in_this_file(cursor):
        f = cursor.location.file
        return f is not None and os.path.samefile(f.name, path)

    def walk(cursor, held_since=None):
        """held_since: line at which a sync::MutexLock in the current scope
        chain was declared, or None."""
        for child in cursor.get_children():
            if not in_this_file(child):
                continue
            k = child.kind
            if k in (
                ci.CursorKind.VAR_DECL,
                ci.CursorKind.FIELD_DECL,
                ci.CursorKind.PARM_DECL,
            ):
                spelling = child.type.spelling
                if not is_sync_hpp and RAW_SYNC_RE.search(spelling):
                    findings.append(
                        Finding(
                            "raw-sync",
                            path,
                            child.location.line,
                            f"declaration of type '{spelling}' — use the "
                            "annotated wrappers in runtime/sync.hpp",
                        )
                    )
                if "MutexLock" in spelling and k == ci.CursorKind.VAR_DECL:
                    held_since = child.location.line
            if k == ci.CursorKind.CALL_EXPR and held_since is not None:
                if child.spelling in BLOCKING_NAMES and child.spelling not in (
                    "wait",
                    "wait_until",
                ):
                    findings.append(
                        Finding(
                            "blocking-under-lock",
                            path,
                            child.location.line,
                            f"blocking call '{child.spelling}()' while "
                            f"holding the sync::MutexLock taken at line "
                            f"{held_since}",
                        )
                    )
            # Recursing passes the current holding state down; a MutexLock
            # declared inside a nested scope updates only the recursion's
            # copy of held_since, so it cannot leak past its scope's end.
            walk(child, held_since)

    walk(tu.cursor)

    code, comments = strip_code(text)
    lex_atomic_shared_ptr(path, code, findings)
    lex_steady_state(path, code, comments, findings)


# ------------------------------------------------------------ suppressions


class Suppression:
    def __init__(self, rule, suffix, line, justification, source_line):
        self.rule = rule
        self.suffix = suffix
        self.line = line
        self.justification = justification
        self.source_line = source_line
        self.used = False

    def matches(self, finding):
        if self.rule != finding.rule:
            return False
        if not finding.path.replace("\\", "/").endswith(self.suffix):
            return False
        return self.line is None or self.line == finding.line


def load_suppressions(path):
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "#" not in stripped:
                raise SystemExit(
                    f"{path}:{lineno}: suppression without a justification "
                    "comment ('# why')"
                )
            entry, justification = stripped.split("#", 1)
            parts = entry.split()
            if len(parts) != 2 or parts[0] not in RULE_IDS:
                raise SystemExit(
                    f"{path}:{lineno}: expected '<rule-id> "
                    f"<path-suffix>[:<line>] # why', got: {stripped}"
                )
            rule, target = parts
            line = None
            m = re.match(r"^(.*):(\d+)$", target)
            if m:
                target, line = m.group(1), int(m.group(2))
            out.append(
                Suppression(
                    rule,
                    target.replace("\\", "/"),
                    line,
                    justification.strip(),
                    lineno,
                )
            )
    return out


# -------------------------------------------------------------------- main


def gather_files(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                        files.append(os.path.join(root, name))
        else:
            files.append(p)
    return files


def main(argv):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: <repo>/src)",
    )
    parser.add_argument(
        "--engine",
        choices=["auto", "libclang", "lex"],
        default="auto",
        help="auto = libclang when importable, lexical fallback otherwise",
    )
    parser.add_argument(
        "--suppressions",
        default=None,
        help="suppression file (default: ci/lint_suppressions.txt if present)",
    )
    parser.add_argument(
        "--must-find",
        default=None,
        help="comma-separated rule ids; exit 0 iff each fired at least once "
        "(self-test mode for the tests/static harness)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    paths = args.paths or [os.path.join(repo_root, "src")]
    include_dir = os.path.join(repo_root, "src")

    suppressions = []
    supp_path = args.suppressions
    if supp_path is None:
        default = os.path.join(repo_root, "ci", "lint_suppressions.txt")
        if os.path.exists(default) and args.must_find is None:
            supp_path = default
    if supp_path:
        suppressions = load_suppressions(supp_path)

    engine = args.engine
    if engine in ("auto", "libclang"):
        try:
            import clang.cindex as ci

            ci.Index.create()
            engine = "libclang"
        except Exception as exc:  # ImportError, LibclangError, ...
            if args.engine == "libclang":
                print(f"lint_invariants: libclang unavailable: {exc}",
                      file=sys.stderr)
                return 2
            engine = "lex"
            if args.verbose:
                print(f"lint_invariants: libclang unavailable ({exc}); "
                      "using the lexical engine", file=sys.stderr)

    findings = []
    for path in gather_files(paths):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"lint_invariants: cannot read {path}: {exc}",
                  file=sys.stderr)
            return 2
        if engine == "libclang":
            try:
                ast_scan(path, text, findings, include_dir)
                continue
            except Exception as exc:
                # A gate that dies is a gate that gets disabled: degrade to
                # the lexical engine for this file and say so.
                print(
                    f"lint_invariants: libclang failed on {path} ({exc}); "
                    "lexical fallback",
                    file=sys.stderr,
                )
        lex_scan(path, text, findings)

    active = []
    for finding in findings:
        for supp in suppressions:
            if supp.matches(finding):
                finding.suppressed_by = supp
                supp.used = True
                break
        if finding.suppressed_by is None:
            active.append(finding)
        elif args.verbose:
            print(f"suppressed: {finding}  "
                  f"({finding.suppressed_by.justification})")

    for supp in suppressions:
        if not supp.used:
            print(
                f"warning: unused suppression "
                f"'{supp.rule} {supp.suffix}' "
                f"(line {supp.source_line}) — retire it?",
                file=sys.stderr,
            )

    if args.must_find is not None:
        wanted = set(args.must_find.split(","))
        unknown = wanted - set(RULE_IDS)
        if unknown:
            print(f"lint_invariants: unknown rule(s): {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        fired = {f.rule for f in findings}
        missing = wanted - fired
        for finding in active:
            print(f"found: {finding}")
        if missing:
            print(
                f"lint_invariants: expected rule(s) did not fire: "
                f"{sorted(missing)} (engine: {engine})",
                file=sys.stderr,
            )
            return 1
        return 0

    for finding in active:
        print(finding)
    if active:
        print(
            f"lint_invariants: {len(active)} finding(s) (engine: {engine}). "
            "Fix them or add a justified entry to ci/lint_suppressions.txt.",
            file=sys.stderr,
        )
        return 1
    if args.verbose:
        print(f"lint_invariants: clean (engine: {engine})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
