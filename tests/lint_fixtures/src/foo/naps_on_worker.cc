// Seeded violation: a sleep_for anywhere in src/. On a ThreadPool worker
// this parks the thread and serializes every dispatch queued behind it —
// the injected fault-latency bug; latency is virtual time instead.
// expect-lint: blocking-sleep
#include <chrono>
#include <thread>

void simulate_latency() {
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
}
