"""The original per-file contract rules (pass name: "patterns"). Each rule
protects a contract established by an earlier PR — the table in DESIGN.md §9.1
maps rule -> pass -> contract -> PR."""

import re
from typing import List, Tuple

Finding = Tuple[int, str, str]  # (line, rule, message)


def _in_src(rel: str) -> bool:
    return rel.startswith("src/")


def _src_except(*allowed: str):
    def pred(rel: str) -> bool:
        return _in_src(rel) and rel not in allowed

    return pred


def _only(*files: str):
    def pred(rel: str) -> bool:
        return rel in files

    return pred


DETERMINISM_PATTERNS = [
    (re.compile(r"(?<![\w:.>])s?rand\s*\("),
     "libc rand()/srand() breaks run-to-run determinism; use the seeded "
     "RNG in tensor/rng.cc"),
    (re.compile(r"std::random_device"),
     "std::random_device is nondeterministic entropy; derive streams from "
     "the experiment seed via tensor/rng.cc"),
    (re.compile(r"(?<![\w:.>])time\s*\("),
     "wall-clock time() in library code breaks bitwise reproducibility; "
     "seed-derived randomness only"),
    (re.compile(r"(?<![\w:.>])clock\s*\("),
     "clock() in library code breaks bitwise reproducibility"),
    (re.compile(r"gettimeofday"),
     "gettimeofday in library code breaks bitwise reproducibility"),
    (re.compile(r"system_clock"),
     "std::chrono::system_clock is wall-clock time; use steady_clock for "
     "durations, never for values that feed computation"),
]

POOL_PATTERNS = [
    (re.compile(r"new\s+(?:float|double)\s*\["),
     "raw float-array new[] bypasses the tensor pool; allocate a Tensor "
     "(or extend tensor/pool.*)"),
    (re.compile(r"(?<![\w:.>])(?:malloc|calloc|realloc|free)\s*\("),
     "malloc/free bypasses the pooled, aligned, leak-accounted tensor "
     "storage"),
    (re.compile(r"::operator\s+(?:new|delete)"),
     "::operator new/delete is reserved to the pool's raw_alloc/raw_free"),
    (re.compile(r"std::vector<\s*float\s*,"),
     "std::vector<float, Alloc> is hand-rolled tensor storage; only "
     "tensor/tensor.* may bind storage to PoolAllocator"),
    (re.compile(r"PoolAllocator"),
     "PoolAllocator must not leak outside tensor/{pool,tensor}.*"),
    (re.compile(r"(?<![\w:.>])aligned_alloc\s*\("),
     "aligned_alloc bypasses the pool; use Tensor storage"),
]

SLEEP_PATTERNS = [
    (re.compile(r"sleep_for\s*\("),
     "sleep_for on a pool worker serializes every queued dispatch behind "
     "the nap; model a delay on the virtual clock instead (the router "
     "returns it, fl/runner.cc places the reply)"),
    (re.compile(r"sleep_until\s*\("),
     "sleep_until blocks a pool worker; delays are virtual time, not "
     "real waits"),
    (re.compile(r"(?<![\w:.>])(?:usleep|nanosleep)\s*\("),
     "libc sleeps block a pool worker; delays are virtual time, not real "
     "waits"),
]

THREAD_PATTERNS = [
    (re.compile(r"std::thread\b"),
     "raw std::thread escapes the ThreadPool; TSan-lane coverage and "
     "deterministic partitioning only hold for pool workers"),
    (re.compile(r"std::jthread\b"),
     "raw std::jthread escapes the ThreadPool"),
    (re.compile(r"std::async\b"),
     "std::async spawns unpooled threads; submit to ThreadPool instead"),
    (re.compile(r"pthread_create"),
     "pthread_create escapes the ThreadPool"),
]

ASSERT_PATTERNS = [
    (re.compile(r"\bassert\s*\("),
     "assert() compiles out in release builds; library invariants must use "
     "CALIBRE_CHECK* so corrupted state can never produce results"),
    (re.compile(r"#\s*include\s*<(?:cassert|assert\.h)>"),
     "<cassert> has no place in library code; use common/check.h"),
]

STREAMING_PATTERNS = [
    (re.compile(r"std::vector<\s*(?:fl::)?ClientUpdate\b"),
     "the runner must fold arriving updates through "
     "Algorithm::make_aggregator; buffering decoded ClientUpdates "
     "reintroduces O(cohort * model) server memory at scale"),
    (re.compile(r"(?:\.|->)aggregate\s*\("),
     "the runner may not call batch aggregate(); fold each update through "
     "make_aggregator()->fold()/finish() so memory stays O(model) — every "
     "algorithm must supply a native streaming fold"),
    (re.compile(r"\b[Ss]hard\w*(?:\[[^\]]*\])?\s*"
                r"(?:(?:\.|->)\s*\w+\s*(?:\[[^\]]*\])?\s*)*"
                r"(?:\.|->)\s*finish\s*\("),
     "a shard-local aggregator must merge() into the round root before any "
     "finish(); finishing a shard partial commits a partial average and "
     "silently breaks the sharded-fold bit-identity contract"),
]

RESIDUAL_PATTERNS = [
    (re.compile(r"\b\w*residual\w*", re.IGNORECASE),
     "error-feedback residual state is per-client and must survive client "
     "re-selection gaps; it lives in the algos::ClientStore inside "
     "fl/update_codec.*, never in the runner's per-round containers"),
    (re.compile(
        r"std::(?:unordered_)?map<\s*int\s*,\s*std::vector<\s*float\b"),
     "hand-rolled per-client float state; per-client state goes through "
     "algos::ClientStore so sharded locking and re-selection survival stay "
     "uniform"),
]


def _fl_except_update_codec(rel: str) -> bool:
    return rel.startswith("src/fl/") and rel not in (
        "src/fl/update_codec.h", "src/fl/update_codec.cc")


PATTERN_RULES = [
    ("streaming-fold", _only("src/fl/runner.cc", "src/fl/shard_fold.cc"),
     STREAMING_PATTERNS),
    ("residual-in-store", _fl_except_update_codec, RESIDUAL_PATTERNS),
    ("determinism-rng",
     _src_except("src/tensor/rng.cc", "src/tensor/rng.h"),
     DETERMINISM_PATTERNS),
    ("pool-bypass",
     _src_except("src/tensor/pool.h", "src/tensor/pool.cc",
                 "src/tensor/tensor.h", "src/tensor/tensor.cc"),
     POOL_PATTERNS),
    ("thread-funnel",
     _src_except("src/common/thread_pool.h", "src/common/thread_pool.cc"),
     THREAD_PATTERNS),
    ("blocking-sleep", _in_src, SLEEP_PATTERNS),
    ("check-not-assert", _in_src, ASSERT_PATTERNS),
]

# serde-count-guard ---------------------------------------------------------

READ_COUNT_RE = re.compile(
    r"\b(\w+)\s*=\s*(?:\w+(?:\.|->))?read_u(?:8|16|32|64)\s*\(\s*\)")


def _alloc_use_re(var: str) -> re.Pattern:
    v = re.escape(var)
    return re.compile(
        r"(?:"
        rf"\.\s*(?:resize|reserve)\s*\(\s*{v}\b"       # x.resize(count ...
        rf"|(?:std::)?(?:vector|string)\s*<[^;()]*>\s*\w*\s*[({{]\s*{v}\b"
        rf"|(?:std::)?string\s+\w+\s*[({{]\s*{v}\b"    # std::string s(count
        rf"|new\b[^;]*\[\s*{v}\s*\]"                   # new T[count]
        r")")


def check_serde_count_guard(rel: str, lines: List[str]) -> List[Finding]:
    if not rel.startswith("src/comm/"):
        return []
    findings = []
    for idx, line in enumerate(lines):
        m = READ_COUNT_RE.search(line)
        if not m:
            continue
        var = m.group(1)
        use_re = _alloc_use_re(var)
        guarded = False
        # Scan forward to the end of the enclosing scope (approximated by a
        # fixed window; count-decode-allocate sequences are local by style).
        for j in range(idx + 1, min(idx + 40, len(lines))):
            if "CALIBRE_CHECK" in lines[j] and re.search(
                    rf"\b{re.escape(var)}\b", lines[j]):
                guarded = True
            if use_re.search(lines[j]):
                if not guarded:
                    findings.append(
                        (j + 1, "serde-count-guard",
                         f"allocation sized by untrusted wire count '{var}' "
                         f"(read at line {idx + 1}) without a CALIBRE_CHECK* "
                         "validating it against the remaining bytes first"))
                break
    return findings


def check_pragma_once(rel: str, raw_text: str) -> List[Finding]:
    if not rel.endswith(".h"):
        return []
    if "#pragma once" in raw_text:
        return []
    return [(1, "pragma-once", "header is missing #pragma once")]


PASS_RULE_IDS = [rid for rid, _, _ in PATTERN_RULES] + [
    "serde-count-guard", "pragma-once"]


def run_on_file(rel: str, raw_text: str, lines: List[str]) -> List[Finding]:
    """All per-file pattern findings for one file. `lines` is the stripped
    text split on newlines."""
    findings: List[Finding] = []
    for rule_id, scope, pats in PATTERN_RULES:
        if not scope(rel):
            continue
        for regex, message in pats:
            for idx, line in enumerate(lines):
                if regex.search(line):
                    findings.append((idx + 1, rule_id, message))
    findings.extend(check_serde_count_guard(rel, lines))
    findings.extend(check_pragma_once(rel, raw_text))
    return findings
