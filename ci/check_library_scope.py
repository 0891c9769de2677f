#!/usr/bin/env python3
"""Library-scope gate: libpigp ships no test-only header.

A header under src/ must be included by some file under src/, examples/,
bench/ or perfbench/ other than its own .cpp.  The check fails for every
header that only tests/ includes: such a header is code the pipeline does
not run, kept alive by its own test.  Headers nobody includes at all are
not this check's business.

An include "x.hpp" resolves against the including file's directory first,
then against src/ (the library's public include root).

Usage: python3 ci/check_library_scope.py [repo_root]
"""

import pathlib
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
USER_DIRS = ("src", "examples", "bench", "perfbench")


def sources(root, top):
    base = root / top
    if not base.is_dir():
        return []
    return [p for p in base.rglob("*")
            if p.is_file() and p.suffix in SOURCE_SUFFIXES]


def included_headers(path, src):
    """Resolved paths of the quoted includes of \\p path."""
    out = set()
    for name in INCLUDE_RE.findall(path.read_text(encoding="utf-8")):
        for candidate in (path.parent / name, src / name):
            if candidate.is_file():
                out.add(candidate.resolve())
                break
    return out


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    src = root / "src"
    used = set()
    for top in USER_DIRS:
        for path in sources(root, top):
            own = path.with_suffix(".hpp").resolve()
            used |= {h for h in included_headers(path, src) if h != own}
    from_tests = set()
    for path in sources(root, "tests"):
        from_tests |= included_headers(path, src)

    failures = sorted(
        h.relative_to(src) for h in from_tests
        if h.is_relative_to(src) and h not in used)
    for header in failures:
        print(f"src/{header}: included only from tests/ — delete it or "
              "use it in the library", file=sys.stderr)
    if failures:
        return 1
    print("library scope OK: every src/ header tests include is used "
          "outside tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
