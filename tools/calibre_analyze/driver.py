"""Driver: file collection, fact extraction, pass orchestration, suppression
handling, fixture self-test, and the CLI (text/JSON output, per-pass
timing). tools/calibre_lint.py is the thin entry-point shim."""

import argparse
import json
import os
import sys
import time
from typing import Dict, List, NamedTuple, Set

from . import facts as facts_mod
from . import determinism, layering, locks, patterns

SCANNED_DIRS = ("src", "apps", "bench")
SOURCE_EXTS = (".h", ".cc", ".cpp")

PASS_NAMES = ("patterns", "layering", "locks", "determinism")

PASS_RULES: Dict[str, List[str]] = {
    "patterns": list(patterns.PASS_RULE_IDS),
    "layering": list(layering.RULES),
    "locks": list(locks.RULES),
    "determinism": [determinism.RULE],
}
# bad-suppression is pass-independent: it fires whenever any pass runs.
META_RULES = ["bad-suppression"]

ALL_RULE_IDS = [r for p in PASS_NAMES for r in PASS_RULES[p]] + META_RULES

RULE_TO_PASS = {r: p for p, rules in PASS_RULES.items() for r in rules}
RULE_TO_PASS["bad-suppression"] = "suppressions"


class Finding(NamedTuple):
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str

    @property
    def pass_name(self) -> str:
        return RULE_TO_PASS.get(self.rule, "?")


def collect_files(root: str) -> List[str]:
    rels = []
    for top in SCANNED_DIRS:
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, dirnames, filenames in os.walk(top_path):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, name)
                    rels.append(os.path.relpath(full, root).replace(
                        os.sep, "/"))
    return rels


class AnalysisResult(NamedTuple):
    findings: List[Finding]
    suppressed: int
    files: int
    timings: List  # [(phase, seconds)]


def _apply_suppressions(findings: List[Finding],
                        per_file_facts: Dict[str, Dict],
                        active_rules: Set[str]):
    """Returns (kept findings + bad-suppression findings, suppressed count).
    A `// lint-allow: <rule> <reason>` on the finding's line or the line
    directly above suppresses that rule there — but only with a real reason
    (>= 2 words) and a known rule id; otherwise the lint-allow itself is a
    bad-suppression finding and mutes nothing."""
    allow: Dict[tuple, bool] = {}
    out: List[Finding] = []
    for rel, facts in per_file_facts.items():
        for line, rule, reason_ok in facts["suppressions"]:
            known = rule in ALL_RULE_IDS
            if not known or not reason_ok:
                why = ("unknown rule id" if not known
                       else "missing or too-short reason")
                out.append(Finding(
                    rel, line, "bad-suppression",
                    f"lint-allow for '{rule}' rejected ({why}): write "
                    "`// lint-allow: <rule-id> <reason>` with a reason a "
                    "reviewer can audit"))
                continue
            allow[(rel, line, rule)] = True
            allow[(rel, line + 1, rule)] = True
    suppressed = 0
    for f in findings:
        if allow.get((f.path, f.line, f.rule)):
            suppressed += 1
        else:
            out.append(f)
    out = [f for f in out if f.rule in active_rules]
    return out, suppressed


def analyze_tree(root: str, active_passes: List[str],
                 module_deps=None) -> AnalysisResult:
    timings = []
    t0 = time.monotonic()
    rels = collect_files(root)
    per_file_facts: Dict[str, Dict] = {}
    for rel in rels:
        with open(os.path.join(root, rel), "r", encoding="utf-8",
                  errors="replace") as fh:
            per_file_facts[rel] = facts_mod.extract(rel, fh.read())
    timings.append(("parse", time.monotonic() - t0))

    findings: List[Finding] = []
    active_rules: Set[str] = set(META_RULES)
    for p in active_passes:
        active_rules.update(PASS_RULES[p])

    per_file_pass_names = [p for p in ("patterns", "determinism")
                           if p in active_passes]
    if per_file_pass_names:
        t0 = time.monotonic()
        wanted = set()
        for p in per_file_pass_names:
            wanted.update(PASS_RULES[p])
        for rel, facts in per_file_facts.items():
            for line, rule, message in facts["per_file_findings"]:
                if rule in wanted:
                    findings.append(Finding(rel, line, rule, message))
        timings.append(("+".join(per_file_pass_names),
                        time.monotonic() - t0))

    if "layering" in active_passes:
        t0 = time.monotonic()
        file_includes = {
            rel: [tuple(e) for e in facts["includes"]]
            for rel, facts in per_file_facts.items()
            if rel.startswith("src/")}
        for path, line, rule, message in layering.check(
                file_includes, module_deps):
            findings.append(Finding(path, line, rule, message))
        timings.append(("layering", time.monotonic() - t0))

    if "locks" in active_passes:
        t0 = time.monotonic()
        lock_facts = {rel: facts["locks"]
                      for rel, facts in per_file_facts.items()
                      if rel.startswith("src/")}
        for path, line, rule, message in locks.check(lock_facts):
            findings.append(Finding(path, line, rule, message))
        timings.append(("locks", time.monotonic() - t0))

    findings, suppressed = _apply_suppressions(
        findings, per_file_facts, active_rules)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return AnalysisResult(findings, suppressed, len(rels), timings)


# ---------------------------------------------------------------------------
# Self-test against the seeded fixtures.

import re

EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([\w-]+)")

# The fixture tree re-uses the real module names plus a scratch module `foo`
# that hosts the per-file-rule fixtures; it must be declared or every foo/
# fixture would drown in layering-dag noise.
FIXTURE_MODULE_DEPS = dict(layering.MODULE_DEPS)
FIXTURE_MODULE_DEPS["foo"] = {"common"}


def run_self_test(fixture_root: str, active_passes: List[str]) -> bool:
    if not os.path.isdir(fixture_root):
        print(f"calibre_lint self-test: fixture dir {fixture_root} missing",
              file=sys.stderr)
        return False

    active_rules: Set[str] = set(META_RULES)
    for p in active_passes:
        active_rules.update(PASS_RULES[p])

    expected: Dict[str, set] = {}
    for rel in collect_files(fixture_root):
        with open(os.path.join(fixture_root, rel), encoding="utf-8") as fh:
            annotated = set(EXPECT_RE.findall(fh.read()))
        expected[rel] = annotated & active_rules

    result = analyze_tree(fixture_root, active_passes,
                          module_deps=FIXTURE_MODULE_DEPS)
    fired: Dict[str, set] = {rel: set() for rel in expected}
    for f in result.findings:
        fired.setdefault(f.path, set()).add(f.rule)

    ok = True
    for rel in sorted(expected):
        want, got = expected[rel], fired.get(rel, set())
        if want != got:
            ok = False
            print(f"calibre_lint self-test FAILED for {rel}: expected rules "
                  f"{sorted(want) or '(none)'}, fired "
                  f"{sorted(got) or '(none)'}", file=sys.stderr)

    exercised = set().union(*expected.values()) if expected else set()
    for rule_id in sorted(active_rules):
        if rule_id not in exercised:
            ok = False
            print(f"calibre_lint self-test FAILED: rule '{rule_id}' has no "
                  "fixture proving it fires (add one under "
                  "tests/lint_fixtures/)", file=sys.stderr)

    if ok:
        print(f"calibre_lint self-test: {len(active_rules)} rules verified "
              f"against {len(expected)} fixtures")
    return ok


# ---------------------------------------------------------------------------


def _emit_text(result: AnalysisResult, show_timings: bool) -> None:
    for f in result.findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if show_timings:
        for phase, seconds in result.timings:
            print(f"calibre_lint timing: {phase:<22s} {seconds * 1e3:8.1f} ms")


def _emit_json(result: AnalysisResult, root: str,
               active_passes: List[str]) -> None:
    doc = {
        "version": 1,
        "root": root,
        "passes": [{"name": phase, "seconds": round(seconds, 6)}
                   for phase, seconds in result.timings],
        "findings": [{"path": f.path, "line": f.line, "rule": f.rule,
                      "pass": f.pass_name, "message": f.message}
                     for f in result.findings],
        "counts": {"files": result.files,
                   "findings": len(result.findings),
                   "suppressed": result.suppressed},
        "active_passes": list(active_passes),
    }
    json.dump(doc, sys.stdout, indent=2)
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Calibre whole-program contract analyzer")
    default_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    parser.add_argument("--repo-root", default=default_root)
    parser.add_argument("--no-self-test", action="store_true",
                        help="skip the fixture self-test")
    parser.add_argument("--fixtures-only", action="store_true",
                        help="run only the fixture self-test")
    parser.add_argument("--passes", default=",".join(PASS_NAMES),
                        help="comma-separated subset of: "
                             + ",".join(PASS_NAMES))
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--timings", action="store_true",
                        help="print per-pass wall-clock timing")
    args = parser.parse_args(argv)

    active_passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    for p in active_passes:
        if p not in PASS_NAMES:
            parser.error(f"unknown pass '{p}' (choose from "
                         f"{', '.join(PASS_NAMES)})")

    root = os.path.abspath(args.repo_root)
    fixture_root = os.path.join(root, "tests", "lint_fixtures")

    if not args.no_self_test:
        if not run_self_test(fixture_root, active_passes):
            return 1
    if args.fixtures_only:
        return 0

    result = analyze_tree(root, active_passes)
    if args.format == "json":
        _emit_json(result, root, active_passes)
    else:
        _emit_text(result, args.timings)
    if result.findings:
        if args.format == "text":
            print(f"calibre_lint: {len(result.findings)} finding(s)",
                  file=sys.stderr)
        return 1
    if args.format == "text":
        rules = sorted(r for p in active_passes for r in PASS_RULES[p])
        print(f"calibre_lint: clean ({result.files} files, "
              f"{len(rules)} rules, passes: {','.join(active_passes)}"
              f"{', ' + str(result.suppressed) + ' suppressed' if result.suppressed else ''})")
    return 0
