// The checker: every response and every push delivery is judged against
// the generated input that caused it. A wrong answer counts as a failed
// operation, and any wrong answer makes the run incorrect.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "inputs.h"

namespace perfbench {

enum class Verdict : std::uint8_t {
  kOk,
  kFailed,  ///< a typed non-ok outcome: shed, deadline, transport, error
  kWrong,   ///< status ok, but the payload is not the expected answer
};

/// "lat,lon" with both parts finite numbers in range.
[[nodiscard]] bool ParseLatLon(std::string_view text, double* lat, double* lon);

/// Judge one outcome: `ok` is the status (wire kOk or gateway ok) and
/// `payload` the returned body.
[[nodiscard]] Verdict CheckMixed(const MixedInput& input, bool ok,
                                 std::string_view payload);
[[nodiscard]] Verdict CheckScript(const ScriptInput& input, bool ok,
                                  std::string_view result);

/// Push body for a stamp: "<stamp>|<filler of pool[stamp % size]>".
[[nodiscard]] std::string PushBody(std::uint64_t stamp,
                                   const std::vector<PushInput>& pool);

/// Streaming exactly-once check for one subscription. Events reach a
/// subscription in publish order, so every stamp published to its client
/// must arrive once, in order, unless a gap marker arrived in between.
/// Single writer: the connection's reader thread.
class DeliveryChecker {
 public:
  /// `stamp_client[s]` names the client stamp s was published to; entries
  /// are written by the publisher before the publish call, which orders
  /// them before any delivery of s or later stamps.
  /// Stamps at or above `stamp_limit` (the array's size) are foreign;
  /// stamps below `first_stamp` were published before the subscription.
  DeliveryChecker(const std::uint8_t* stamp_client, std::uint64_t stamp_limit,
                  std::uint8_t client, const std::vector<PushInput>* pool,
                  std::uint64_t first_stamp = 0)
      : stamp_client_(stamp_client),
        stamp_limit_(stamp_limit),
        client_(client),
        pool_(pool),
        next_(first_stamp) {}

  /// A data event. Returns its stamp and whether the delivery is correct
  /// (in order, for this client, body intact).
  bool OnData(std::string_view body, std::uint64_t* stamp);
  /// A kEventsDropped marker: the stamps missing before the next data
  /// event are covered, not lost.
  void OnGap() { gap_pending_ = true; }
  /// Account every stamp below `end` not yet seen: covered when a gap
  /// marker is pending, otherwise lost.
  void Finish(std::uint64_t end);

  [[nodiscard]] std::uint64_t covered() const { return covered_; }
  [[nodiscard]] std::uint64_t lost() const { return lost_; }
  [[nodiscard]] std::uint64_t wrong() const { return wrong_; }

 private:
  void SkipTo(std::uint64_t stamp);

  const std::uint8_t* stamp_client_;
  std::uint64_t stamp_limit_;
  std::uint8_t client_;
  const std::vector<PushInput>* pool_;
  std::uint64_t next_;  ///< lowest stamp not yet accounted for
  bool gap_pending_ = false;
  std::uint64_t covered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t wrong_ = 0;  ///< duplicates, foreign stamps, bad bodies
};

}  // namespace perfbench
