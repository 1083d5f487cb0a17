#include "comm/mailbox.h"

#include <stdexcept>

namespace calibre::comm {

void Mailbox::push(Message message) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_full_.wait(lock,
                 [this] { return closed_ || queue_.size() < capacity_; });
  if (closed_) {
    throw std::runtime_error("Mailbox::push on closed mailbox");
  }
  queue_.push_back(std::move(message));
  lock.unlock();
  not_empty_.notify_one();
}

std::optional<Message> Mailbox::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;  // closed and drained
  Message message = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return message;
}

std::optional<Message> Mailbox::try_pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (queue_.empty()) return std::nullopt;
  Message message = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return message;
}

void Mailbox::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool Mailbox::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t Mailbox::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace calibre::comm
