"""Per-file fact extraction. Everything a pass needs from a single file is
computed here once, so the whole-program passes read facts rather than
re-parsing sources."""

import re
from typing import Dict, List, Tuple

from . import cpputil, determinism, locks, patterns

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

# Inline suppression: `// lint-allow: <rule-id> <reason>` (raw text — the
# stripper removes comments). The reason is mandatory and must carry actual
# words: a bare rule id is an unreviewable mute.
LINT_ALLOW_RE = re.compile(r"//\s*lint-allow:\s*([\w-]+)[ \t]*([^\n]*)")

MIN_REASON_WORDS = 2


def extract(rel: str, raw_text: str) -> Dict:
    stripped = cpputil.strip_comments_and_strings(raw_text)
    lines = stripped.split("\n")

    # Includes come from the RAW text: the stripper blanks string-literal
    # contents, which would erase the include target. The ^\s*# anchor keeps
    # `// #include "..."` from matching.
    includes: List[Tuple[int, str]] = []
    for m in INCLUDE_RE.finditer(raw_text):
        line = raw_text.count("\n", 0, m.start()) + 1
        includes.append((line, m.group(1)))

    suppressions = []  # (line, rule, reason_ok)
    for idx, raw_line in enumerate(raw_text.split("\n")):
        m = LINT_ALLOW_RE.search(raw_line)
        if m:
            reason = m.group(2).strip()
            reason_ok = len(reason.split()) >= MIN_REASON_WORDS
            suppressions.append((idx + 1, m.group(1), reason_ok))

    per_file_findings = []  # (line, rule, message) from per-file passes
    per_file_findings.extend(patterns.run_on_file(rel, raw_text, lines))
    per_file_findings.extend(determinism.run_on_file(rel, stripped))

    return {
        "includes": includes,
        "suppressions": suppressions,
        "per_file_findings": per_file_findings,
        "locks": locks.extract_file_facts(stripped),
    }
