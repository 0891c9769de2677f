#!/usr/bin/env python3
"""Docs gate: markdown link/anchor checker + SessionConfig knob coverage.

Scans README.md and every docs/*.md for markdown links and fails when

  * a relative link points at a file that does not exist in the repo, or
  * a ``#fragment`` (same-file or ``other.md#fragment``) names an anchor
    that no heading in the target file produces under GitHub's
    slugification rules (lowercase, drop punctuation, spaces to hyphens,
    ``-1``/``-2`` suffixes for duplicates).

External links (http/https/mailto) are not fetched, and relative targets
that resolve outside the repository (GitHub-web paths like the CI badge's
``../../actions/...``) are skipped, since they have no on-disk referent.
Fenced code blocks and inline code spans are stripped before scanning so
wire-format diagrams cannot masquerade as links.

It also parses the SessionConfig field list out of src/api/config.hpp and
fails when any knob is not documented (as a backticked name) in
docs/CONFIG.md — the documented-contract half of the compile-time
field-count guard in config.cpp: adding a knob without documenting it
breaks CI.  The reverse holds too: a row of a CONFIG.md knob table (a
table headed ``| knob |``) whose backticked first-column name is not a
SessionConfig field fails, so a removed knob cannot leave a stale row.

Usage: python3 ci/check_docs.py [repo_root]
"""

import pathlib
import re
import sys

HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^()\s]+(?:\([^()]*\)[^()\s]*)*)\)")
FENCE_RE = re.compile(r"^(```|~~~)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
FIELD_RE = re.compile(r"^\s*[A-Za-z_][\w:<>,\s]*?\s([a-z_][a-z0-9_]*)\s*(?:=[^;]*)?;")
KNOB_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def github_slug(heading, seen):
    """GitHub's anchor slug for a heading text, tracking duplicates."""
    text = CODE_SPAN_RE.sub(lambda m: m.group(0)[1:-1], heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links keep text
    slug = "".join(
        ch for ch in text.lower() if ch.isalnum() or ch in " -_"
    ).replace(" ", "-")
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def strip_code(lines):
    """Blank out fenced code blocks and inline code spans."""
    out, in_fence = [], False
    for line in lines:
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            out.append("")
            continue
        out.append("" if in_fence else CODE_SPAN_RE.sub("", line))
    return out


def anchors_of(path, cache):
    if path not in cache:
        seen = {}
        slugs = set()
        in_fence = False
        for line in path.read_text(encoding="utf-8").splitlines():
            if FENCE_RE.match(line.strip()):
                in_fence = not in_fence
                continue
            match = None if in_fence else HEADING_RE.match(line)
            if match:
                slugs.add(github_slug(match.group(2), seen))
        cache[path] = slugs
    return cache[path]


def check_links(repo, doc, anchor_cache, failures):
    lines = doc.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(strip_code(lines), start=1):
        for match in LINK_RE.finditer(line):
            target = match.group(1).split('"')[0].strip()
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.is_relative_to(repo):
                    continue  # GitHub-web relative path (e.g. badge link)
                if not resolved.exists():
                    failures.append(
                        f"{doc.relative_to(repo)}:{lineno}: broken link "
                        f"target {target!r} (no such file)")
                    continue
            else:
                resolved = doc
            if fragment and resolved.suffix == ".md":
                if fragment not in anchors_of(resolved, anchor_cache):
                    failures.append(
                        f"{doc.relative_to(repo)}:{lineno}: broken anchor "
                        f"{target!r} (no heading slugs to "
                        f"#{fragment} in {resolved.name})")


def session_config_fields(config_hpp):
    fields, in_struct, depth = [], False, 0
    for line in config_hpp.read_text(encoding="utf-8").splitlines():
        stripped = line.split("//")[0]
        if not in_struct:
            if re.match(r"^struct SessionConfig\b", stripped):
                in_struct = True
                depth = stripped.count("{") - stripped.count("}")
            continue
        depth += stripped.count("{") - stripped.count("}")
        if depth <= 0:
            break
        if "(" in stripped:  # member functions (resolve) are not knobs
            continue
        match = FIELD_RE.match(stripped)
        if match:
            fields.append(match.group(1))
    return fields


def knob_rows(config_md):
    """(line number, name) of every knob-table row's backticked first cell."""
    rows, in_table = [], False
    for lineno, line in enumerate(config_md.splitlines(), start=1):
        if not line.startswith("|"):
            in_table = False
        elif re.match(r"^\|\s*knob\s*\|", line):
            in_table = True
        elif in_table:
            match = KNOB_ROW_RE.match(line)
            if match:
                rows.append((lineno, match.group(1)))
    return rows


def main():
    repo = pathlib.Path(
        sys.argv[1] if len(sys.argv) > 1
        else pathlib.Path(__file__).resolve().parent.parent).resolve()
    docs = [repo / "README.md"] + sorted((repo / "docs").glob("*.md"))
    missing = [d for d in docs if not d.exists()]
    if missing:
        sys.exit(f"check_docs: missing {', '.join(map(str, missing))}")

    failures = []
    anchor_cache = {}
    for doc in docs:
        check_links(repo, doc, anchor_cache, failures)

    fields = session_config_fields(repo / "src" / "api" / "config.hpp")
    if len(fields) < 20:  # the struct has 28 fields; a low count = bad parse
        failures.append(
            f"src/api/config.hpp: parsed only {len(fields)} SessionConfig "
            "fields — check_docs' parser needs updating")
    config_md = (repo / "docs" / "CONFIG.md").read_text(encoding="utf-8")
    for field in fields:
        if f"`{field}`" not in config_md:
            failures.append(
                f"docs/CONFIG.md: SessionConfig knob `{field}` is "
                "undocumented")
    for lineno, name in knob_rows(config_md):
        if name not in fields:
            failures.append(
                f"docs/CONFIG.md:{lineno}: knob row `{name}` is not a "
                "SessionConfig field (stale or misspelled)")

    checked = sum(1 for _ in docs)
    if failures:
        print(f"docs gate FAILED ({len(failures)} problem(s) across "
              f"{checked} files):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"docs gate passed: {checked} markdown files, "
          f"{len(fields)} SessionConfig knobs all documented, no stale rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
