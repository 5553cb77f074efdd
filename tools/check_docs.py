#!/usr/bin/env python3
"""Docs-vs-source linter (CI: the docs-check job).

Documentation rots by referencing things that were renamed or removed, so
this script fails CI on dangling references. Six checks, all grep-level —
no build needed:

  1. Every `talus.<name>` property named in the markdown is declared in
     the metric catalog (src/obs/metric_catalog.cc).
  2. Every `talus_<name>` Prometheus family named in the markdown (modulo
     the _bucket/_sum/_count suffixes histograms synthesize) is declared
     in the metric catalog, and every family the catalog declares appears
     in docs/OPERATIONS.md.
  3. Every `DESIGN.md §X[.Y]` reference — in markdown OR in source
     comments — resolves to a real `## §X` / `### §X.Y` heading in
     DESIGN.md.
  4. Every repo-relative file path mentioned in the markdown exists
     (generated artifacts like BENCH_*.json are allowlisted).
  5. Every `DbOptions::<field>` reference — in markdown OR in source
     comments — names a field actually declared in src/lsm/options.h.
  6. The event list in DESIGN.md §6.2 (one "- `<wire name>` — ..." bullet
     per event) names exactly the events obs::EventTypeName returns in
     src/obs/event_ring.cc, in both directions.

Run locally from the repo root: python3 tools/check_docs.py
"""

import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = sorted(
    glob.glob(os.path.join(REPO, "*.md"))
    + glob.glob(os.path.join(REPO, "docs", "*.md"))
)
# ISSUE.md/PAPERS.md/SNIPPETS.md describe other repos' code; CHANGES.md is
# an append-only history whose old lines may name refactored-away files.
DOC_SKIP = {"ISSUE.md", "PAPERS.md", "SNIPPETS.md", "CHANGES.md", "PAPER.md"}

SRC_GLOBS = ["src/**/*.cc", "src/**/*.h", "bench/*.cc", "bench/*.h",
             "examples/*.cpp", "tests/*.cc", "tools/*.py"]

# Paths that docs legitimately mention but that only exist at runtime or in
# CI (bench output, build trees, sanitizer dirs, artifact names).
PATH_ALLOW = re.compile(
    r"^(build|build-san)(/|$)"
    r"|^BENCH_[A-Za-z0-9_.]*\.json$"
    r"|^bench/baseline/"
    r"|^stats_timeseries"
    r"|^/"  # Absolute paths (DB dirs like /tmp/talus_server).
)

PROPERTY_RE = re.compile(r"talus\.[a-z][a-z0-9-]*")
METRIC_RE = re.compile(r"(?<![A-Za-z0-9_/])talus_[a-z][a-z0-9_]*")
SECTION_RE = re.compile(r"DESIGN\.md §(\d+(?:\.\d+)?)")
# Repo-relative paths with a known top-level dir and a file extension
# (plain `src/server/` directory mentions are cheap to verify too).
PATH_RE = re.compile(
    r"\b((?:src|docs|bench|tests|tools|examples|\.github)"
    r"(?:/[A-Za-z0-9_.\-]+)+/?)")


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def source_corpus():
    blobs = []
    for pattern in SRC_GLOBS:
        for path in glob.glob(os.path.join(REPO, pattern), recursive=True):
            blobs.append(read(path))
    return "\n".join(blobs)


DBOPTIONS_RE = re.compile(r"DbOptions::([A-Za-z_][A-Za-z0-9_]*)")


def dboptions_fields():
    """Field (and method) names declared in struct DbOptions."""
    text = read(os.path.join(REPO, "src", "lsm", "options.h"))
    m = re.search(r"struct DbOptions \{(.*?)\n\};", text, re.DOTALL)
    if not m:
        return set()
    names = set()
    for line in m.group(1).splitlines():
        line = line.split("//")[0]
        # `type name = default;` / `type name;` declarations.
        decl = re.match(r"\s*[A-Za-z_][A-Za-z0-9_:<>*&\s]*?"
                        r"\b([A-Za-z_][A-Za-z0-9_]*)\s*(=|;)", line)
        if decl:
            names.add(decl.group(1))
    return names


CATALOG = os.path.join(REPO, "src", "obs", "metric_catalog.cc")


def catalog():
    """(families, properties) declared in the metric catalog: the leading
    string of each declaration, a Prometheus series or a property name."""
    text = read(CATALOG)
    families = set(re.findall(r'\{"(talus_[a-z0-9_]+)[{"]', text))
    properties = set(re.findall(r'\{"(talus\.[a-z-]+)"', text))
    return families, properties


def wire_event_names():
    """Names returned by obs::EventTypeName."""
    text = read(os.path.join(REPO, "src", "obs", "event_ring.cc"))
    m = re.search(r"const char\* EventTypeName\(.*?\n\}", text, re.DOTALL)
    if not m:
        return set()
    return set(re.findall(r'case EventType::k\w+: return "([a-z_]+)";',
                          m.group(0)))


def documented_event_names():
    """Wire names bulleted in DESIGN.md §6.2."""
    text = read(os.path.join(REPO, "DESIGN.md"))
    m = re.search(r"^### §6\.2 .*?(?=^#)", text, re.DOTALL | re.MULTILINE)
    if not m:
        return set()
    return set(re.findall(r"^- `([a-z_]+)` —", m.group(0), re.MULTILINE))


def design_sections():
    sections = set()
    for line in read(os.path.join(REPO, "DESIGN.md")).splitlines():
        m = re.match(r"#+ §(\d+(?:\.\d+)?)\b", line)
        if m:
            sections.add(m.group(1))
    return sections


def main():
    src = source_corpus()
    sections = design_sections()
    fields = dboptions_fields()
    families, properties = catalog()
    errors = []
    if not fields:
        errors.append("src/lsm/options.h: could not parse struct DbOptions")
    if not families or not properties:
        errors.append("src/obs/metric_catalog.cc: no declarations found")

    docs = [p for p in DOC_FILES if os.path.basename(p) not in DOC_SKIP]
    for path in docs:
        rel = os.path.relpath(path, REPO)
        text = read(path)

        for prop in sorted(set(PROPERTY_RE.findall(text))):
            if prop not in properties:
                errors.append(f"{rel}: property {prop} not in the catalog")

        metric_mentions = set()
        for m in METRIC_RE.finditer(text):
            if re.match(r"\.[a-z]", text[m.end():m.end() + 2]):
                continue  # Filename like talus_server.cpp, not a metric.
            # `talus_server_*` names a family prefix, not one metric.
            is_prefix = text[m.end():m.end() + 1] == "*"
            metric_mentions.add((m.group(0), is_prefix))
        for metric, is_prefix in sorted(metric_mentions):
            if is_prefix:
                if not any(f.startswith(metric) for f in families):
                    errors.append(
                        f"{rel}: no catalog family with prefix {metric}*")
                continue
            base = re.sub(r"_(bucket|sum|count)$", "", metric)
            if base not in families and metric not in families:
                errors.append(f"{rel}: metric {metric} not in the catalog")
        if rel == os.path.join("docs", "OPERATIONS.md"):
            documented = {m for m, _ in metric_mentions}
            for family in sorted(families - documented):
                errors.append(f"{rel}: catalog family {family} undocumented")

        for sec in sorted(set(SECTION_RE.findall(text))):
            if sec not in sections:
                errors.append(f"{rel}: DESIGN.md §{sec} has no such heading")

        for field in sorted(set(DBOPTIONS_RE.findall(text))):
            if field not in fields:
                errors.append(
                    f"{rel}: DbOptions::{field} is not a DbOptions field")

        for p in sorted(set(PATH_RE.findall(text))):
            clean = p.rstrip("/")
            if PATH_ALLOW.match(p) or PATH_ALLOW.match(clean):
                continue
            if not os.path.exists(os.path.join(REPO, clean)):
                errors.append(f"{rel}: path {p} does not exist")

    # Source comments reference DESIGN.md sections too; keep those honest.
    for sec in sorted(set(SECTION_RE.findall(src))):
        if sec not in sections:
            errors.append(f"src: DESIGN.md §{sec} has no such heading")
    for field in sorted(set(DBOPTIONS_RE.findall(src))):
        if field not in fields:
            errors.append(f"src: DbOptions::{field} is not a DbOptions field")

    wire = wire_event_names()
    documented = documented_event_names()
    if not wire:
        errors.append("src/obs/event_ring.cc: no EventTypeName cases found")
    for name in sorted(wire - documented):
        errors.append(f"DESIGN.md §6.2: event {name} is not listed")
    for name in sorted(documented - wire):
        errors.append(
            f"DESIGN.md §6.2: event {name} is not in obs::EventTypeName")

    if errors:
        for e in errors:
            print(f"docs-check: {e}", file=sys.stderr)
        print(f"docs-check: {len(errors)} dangling reference(s)",
              file=sys.stderr)
        return 1
    print(f"docs-check: {len(docs)} doc file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
