// Seeded violation: raw .lock()/.unlock() on a mutex member instead of an
// RAII guard — an early return or a throw between the pair leaves the mutex
// held forever. Calling .lock()/.unlock() on a std::unique_lock *guard* is
// fine (see hand_off below) and must not fire.
// expect-lint: lock-raw
#include <mutex>

class Counter {
 public:
  void bump() {
    mu_.lock();
    ++value_;
    mu_.unlock();
  }

  // False-positive regression: unlock-then-relock on the guard object is
  // still RAII-owned and legal (core/pfl_ssl.cc does exactly this).
  void hand_off() {
    std::unique_lock<std::mutex> lk(mu_);
    ++value_;
    lk.unlock();
    lk.lock();
  }

 private:
  std::mutex mu_;
  int value_ = 0;
};
