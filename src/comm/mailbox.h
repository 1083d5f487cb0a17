// Thread-safe bounded mailbox (MPMC queue of Messages). The server's inbox
// in the federated runtime; also usable per-endpoint.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "comm/message.h"

namespace calibre::comm {

class Mailbox {
 public:
  explicit Mailbox(std::size_t capacity = 1024) : capacity_(capacity) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // Blocks while the mailbox is full (back-pressure); fails on closed box.
  void push(Message message);

  // Blocks until a message is available or the box is closed+empty.
  // Returns nullopt only in the latter case.
  std::optional<Message> pop();

  // Non-blocking pop. Returns nullopt when momentarily empty *or* when the
  // box is closed and drained; closed() disambiguates.
  std::optional<Message> try_pop();

  // Closes the mailbox: pushes throw, pops drain then return nullopt.
  void close();

  // True once close() has been called. A nullopt pop on a closed mailbox
  // means shutdown (drained), not starvation.
  bool closed() const;

  std::size_t size() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Message> queue_;
  bool closed_ = false;
};

}  // namespace calibre::comm
