// Shared helpers for the gateway suites.
#pragma once

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "gateway/gateway.h"

namespace mobivine::testing {

/// Parks a shard's worker inside a completion callback (callbacks run on
/// the worker) until released, so every later admission to that shard
/// lands in a queue nobody is popping. Declare it after the Gateway: the
/// worker waits on this object, and the gateway's destructor joins the
/// worker, so the blocker's own destructor must release it first.
class WorkerBlocker {
 public:
  ~WorkerBlocker() { Release(); }

  /// Submits a blocking android httpGet for client 1, billed to `tenant`,
  /// and waits until the worker holds it.
  void Block(gateway::Gateway& gw, std::uint32_t tenant) {
    gateway::Request request;
    request.client_id = 1;
    request.tenant = tenant;
    request.platform = gateway::Platform::kAndroid;
    request.op = gateway::Op::kHttpGet;
    request.target =
        std::string("http://") + gateway::kGatewayHttpHost + "/ping";
    request.on_complete = [this](const gateway::Response&) {
      std::unique_lock<std::mutex> lock(mutex_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    };
    ASSERT_TRUE(gw.Submit(std::move(request)));
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

}  // namespace mobivine::testing
