#!/usr/bin/env python3
"""Unit tests for the tools/calibre_analyze package itself (the lint.cli
ctest entry): CLI exit codes, the --format json schema, suppression
rejection, and raw-string-literal stripping.

These test the analyzer as a program; the rule *semantics* are covered by
the fixture self-test under tests/lint_fixtures/ (lint.calibre etc.)."""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibre_analyze import cpputil, driver  # noqa: E402

CLEAN_CC = "int answer() { return 42; }\n"
# A thread-funnel violation (std::thread outside common/thread_pool.*).
VIOLATION_CC = "#include <thread>\nvoid f() { std::thread t([] {}); }\n"


def run_cli(*argv):
    """Runs the CLI in-process; returns (exit_code, stdout_text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = driver.main(list(argv))
        except SystemExit as e:  # argparse errors
            code = e.code
    return code, out.getvalue()


class TempTree(unittest.TestCase):
    """A scratch repo root; files go under src/common/ (a declared module,
    so the layering pass has nothing to say about the tree's shape)."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="calibre_analyze_test_")
        self.addCleanup(shutil.rmtree, self.root, ignore_errors=True)

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        return path

    def analyze(self, *extra):
        return run_cli("--repo-root", self.root, "--no-self-test", *extra)


class ExitCodeTest(TempTree):
    def test_clean_tree_exits_zero(self):
        self.write("src/common/ok.cc", CLEAN_CC)
        code, out = self.analyze()
        self.assertEqual(code, 0)
        self.assertIn("clean", out)

    def test_findings_exit_one(self):
        self.write("src/common/bad.cc", VIOLATION_CC)
        code, out = self.analyze()
        self.assertEqual(code, 1)
        self.assertIn("thread-funnel", out)

    def test_unknown_pass_exits_two(self):
        with contextlib.redirect_stderr(io.StringIO()):
            code, _ = self.analyze("--passes", "nonsense")
        self.assertEqual(code, 2)

    def test_findings_outside_active_passes_do_not_fail(self):
        self.write("src/common/bad.cc", VIOLATION_CC)
        code, _ = self.analyze("--passes", "layering")
        self.assertEqual(code, 0)


class JsonFormatTest(TempTree):
    def test_schema(self):
        self.write("src/common/bad.cc", VIOLATION_CC)
        code, out = self.analyze("--format", "json")
        self.assertEqual(code, 1)
        doc = json.loads(out)
        self.assertEqual(doc["version"], 1)
        self.assertEqual(doc["root"], self.root)
        self.assertEqual(doc["active_passes"],
                         ["patterns", "layering", "locks", "determinism"])
        for entry in doc["passes"]:
            self.assertIsInstance(entry["name"], str)
            self.assertIsInstance(entry["seconds"], float)
        self.assertEqual(doc["counts"]["files"], 1)
        self.assertEqual(doc["counts"]["findings"], len(doc["findings"]))
        self.assertEqual(doc["counts"]["suppressed"], 0)
        finding = doc["findings"][0]
        self.assertEqual(set(finding),
                         {"path", "line", "rule", "pass", "message"})
        self.assertEqual(finding["path"], "src/common/bad.cc")
        self.assertEqual(finding["line"], 2)
        self.assertEqual(finding["rule"], "thread-funnel")
        self.assertEqual(finding["pass"], "patterns")

    def test_clean_json_exits_zero(self):
        self.write("src/common/ok.cc", CLEAN_CC)
        code, out = self.analyze("--format", "json")
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(out)["findings"], [])


class SuppressionTest(TempTree):
    def test_valid_suppression_mutes(self):
        self.write("src/common/bad.cc",
                   "#include <thread>\n"
                   "// lint-allow: thread-funnel watchdog predates the pool\n"
                   "void f() { std::thread t([] {}); }\n")
        code, out = self.analyze("--format", "json")
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(out)["counts"]["suppressed"], 1)

    def test_missing_reason_rejected(self):
        self.write("src/common/bad.cc",
                   "#include <thread>\n"
                   "// lint-allow: thread-funnel\n"
                   "void f() { std::thread t([] {}); }\n")
        code, out = self.analyze("--format", "json")
        self.assertEqual(code, 1)
        rules = {f["rule"] for f in json.loads(out)["findings"]}
        # The mute does nothing AND is itself a finding.
        self.assertEqual(rules, {"bad-suppression", "thread-funnel"})

    def test_one_word_reason_rejected(self):
        self.write("src/common/bad.cc",
                   "#include <thread>\n"
                   "// lint-allow: thread-funnel legacy\n"
                   "void f() { std::thread t([] {}); }\n")
        code, out = self.analyze("--format", "json")
        self.assertEqual(code, 1)
        rules = {f["rule"] for f in json.loads(out)["findings"]}
        self.assertEqual(rules, {"bad-suppression", "thread-funnel"})

    def test_unknown_rule_rejected(self):
        self.write("src/common/ok.cc",
                   "// lint-allow: no-such-rule speculative future mute\n"
                   + CLEAN_CC)
        code, out = self.analyze("--format", "json")
        self.assertEqual(code, 1)
        doc = json.loads(out)
        self.assertEqual([f["rule"] for f in doc["findings"]],
                         ["bad-suppression"])


class RawStringStripTest(unittest.TestCase):
    def strip(self, text):
        return cpputil.strip_comments_and_strings(text)

    def test_plain_raw_string_blanked_as_a_unit(self):
        s = self.strip('auto s = R"(quote " std::thread t; )";\nint x;\n')
        self.assertNotIn("std::thread", s)
        self.assertIn("int x;", s)

    def test_custom_delimiter(self):
        s = self.strip('auto s = R"xy(malloc(4) )" still text)xy"; int y;')
        self.assertNotIn("malloc", s)
        self.assertIn("int y;", s)

    def test_prefixed_raw_strings(self):
        for prefix in ("u8", "u", "U", "L"):
            s = self.strip(f'auto s = {prefix}R"(assert(false))"; int z;')
            self.assertNotIn("assert", s, msg=prefix)
            self.assertIn("int z;", s, msg=prefix)

    def test_identifier_ending_in_r_is_not_a_raw_prefix(self):
        # FOLDER"(text)" — the quote follows the identifier FOLDER, not a
        # raw-string prefix; it opens a plain string that ends at the next
        # quote, and code after it stays code.
        s = self.strip('auto s = FOLDER"(rand())"; std::thread t;')
        self.assertIn("std::thread", s)
        self.assertNotIn("rand()", s)

    def test_newlines_preserved_for_line_numbers(self):
        text = 'auto s = R"(\nline2\nline3\n)";\nint tail;\n'
        s = self.strip(text)
        self.assertEqual(s.count("\n"), text.count("\n"))
        self.assertNotIn("line2", s)

    def test_unterminated_raw_string_keeps_line_count(self):
        text = 'auto s = R"(never closed\nmore\n'
        s = self.strip(text)
        self.assertEqual(s.count("\n"), 2)

    def test_line_comment_inside_raw_string_is_text(self):
        s = self.strip('auto s = R"(// not a comment)"; int kept;')
        self.assertIn("int kept;", s)


if __name__ == "__main__":
    unittest.main()
