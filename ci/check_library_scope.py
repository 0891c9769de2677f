#!/usr/bin/env python3
"""Library-scope gate: libpigp ships no test-only header and no OpenMP.

A header under src/ must be included by some file under src/, examples/,
bench/ or perfbench/ other than its own .cpp.  The check fails for every
header that only tests/ includes: such a header is code the pipeline does
not run, kept alive by its own test.  Headers nobody includes at all are
not this check's business.

An include "x.hpp" resolves against the including file's directory first,
then against src/ (the library's public include root).

The library's one parallel model is the SPMD ranks; each rank rebalances
serially.  The check also fails on any OpenMP directive, include or macro
(#pragma omp, _Pragma("omp ..."), <omp.h>, _OPENMP, PIGP_OMP) in a source
under src/, and on the word OpenMP in the top-level or src/ CMakeLists.txt.

Usage: python3 ci/check_library_scope.py [repo_root]
"""

import pathlib
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
USER_DIRS = ("src", "examples", "bench", "perfbench")
OPENMP_SOURCE_RE = re.compile(
    r'#\s*pragma\s+omp\b|_Pragma\s*\(\s*"\s*omp\b|<omp\.h>|\b_OPENMP\b'
    r"|\bPIGP_OMP")
OPENMP_CMAKE_RE = re.compile(r"OpenMP", re.IGNORECASE)


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


def openmp_uses(root):
    """"path:line: text" for every OpenMP use the library must not have."""
    checks = [(p, OPENMP_SOURCE_RE) for p in sorted(sources(root, "src"))]
    checks += [(root / name, OPENMP_CMAKE_RE)
               for name in ("CMakeLists.txt", "src/CMakeLists.txt")
               if (root / name).is_file()]
    hits = []
    for path, pattern in checks:
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            if pattern.search(line):
                hits.append(f"{path.relative_to(root)}:{number}: "
                            f"{line.strip()}")
    return hits


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
    openmp = openmp_uses(root)
    for hit in openmp:
        print(f"{hit}: libpigp has no OpenMP — parallelism comes from the "
              "SPMD ranks", file=sys.stderr)
    if failures or openmp:
        return 1
    print("library scope OK: every src/ header tests include is used "
          "outside tests/, and the library has no OpenMP")
    return 0


if __name__ == "__main__":
    sys.exit(main())
