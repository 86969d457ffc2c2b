// Submit-and-wait: the one synchronous wait behind WireClient::Call,
// WireClient::CallScript, cluster::Client::Call and
// cluster::Client::CallScript. Each of those is its pipelined sender plus
// this wait, so a synchronous call and a pipelined one share every step
// of the send, fail and repair path.
#pragma once

#include <condition_variable>
#include <mutex>

#include "wire/protocol.h"

namespace mobivine::wire {

/// Call `submit` with a completion callback and block until that callback
/// has fired once, copying its response into `*response`. True unless the
/// response is kTransportError.
template <typename Submit>
bool AwaitResponse(Submit&& submit, WireResponse* response) {
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  submit([&](const WireResponse& completed) {
    *response = completed;
    // Notify under the lock: these are stack objects, and the waiter
    // destroys them the moment it observes done — an unlocked notify
    // could still be touching the cv then.
    std::lock_guard<std::mutex> lock(done_mutex);
    done = true;
    done_cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return done; });
  return response->status != WireStatus::kTransportError;
}

}  // namespace mobivine::wire
