"""calibre_analyze: whole-program static-analysis framework for the Calibre
tree (stdlib-only by design — no pip deps).

Grown out of tools/calibre_lint.py (nine per-file pattern rules) into four
passes that together machine-check the invariants every results-bearing PR
rests on:

  patterns      the original per-file contract rules (determinism-rng,
                pool-bypass, thread-funnel, check-not-assert, blocking-sleep,
                streaming-fold, residual-in-store, serde-count-guard,
                pragma-once)
  layering      parses every #include edge under src/ and checks it against
                the declared module DAG; fails on upward edges, on modules
                missing from the declaration, and on file-level include
                cycles
  locks         indexes mutex/condvar members per class across headers and
                sources, then flags raw .lock()/.unlock() outside RAII
                guards, notify_one/notify_all on a condvar whose guarding
                mutex is never held in the enclosing function, and
                inconsistent pairwise mutex acquisition order across
                functions
  determinism   flags traversal of unordered_map/unordered_set in src/fl/,
                src/algos/ and src/comm/ whenever the loop body feeds an
                accumulator, a serializer, or RoundStats — hash-table
                iteration order is nondeterministic and would silently break
                the frozen f32 final-state hash

Inline suppressions: `// lint-allow: <rule-id> <reason>` on the finding's
line (or the line directly above) suppresses that rule there. The reason
string is mandatory; a lint-allow without one is itself a finding
(bad-suppression) and suppresses nothing.

Entry point: tools/calibre_lint.py (kept as the ctest-facing CLI shim).
"""
