#include "check.h"

#include <charconv>
#include <cmath>
#include <string>

namespace perfbench {

namespace {

bool ParseDouble(std::string_view text, double* out) {
  if (text.empty()) return false;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && end == text.data() + text.size() &&
         std::isfinite(*out);
}

}  // namespace

bool ParseLatLon(std::string_view text, double* lat, double* lon) {
  const std::size_t comma = text.find(',');
  if (comma == std::string_view::npos) return false;
  return ParseDouble(text.substr(0, comma), lat) &&
         ParseDouble(text.substr(comma + 1), lon) && std::fabs(*lat) <= 90 &&
         std::fabs(*lon) <= 180;
}

Verdict CheckMixed(const MixedInput& input, bool ok, std::string_view payload) {
  if (!ok) return Verdict::kFailed;
  switch (input.check) {
    case Expect::kExact:
      return payload == input.expect ? Verdict::kOk : Verdict::kWrong;
    case Expect::kLatLon: {
      double lat = 0, lon = 0;
      return ParseLatLon(payload, &lat, &lon) ? Verdict::kOk : Verdict::kWrong;
    }
    case Expect::kMessageId: {
      std::uint64_t id = 0;
      const char* end = payload.data() + payload.size();
      const auto [last, ec] = std::from_chars(payload.data(), end, id);
      return ec == std::errc() && last == end && !payload.empty()
                 ? Verdict::kOk
                 : Verdict::kWrong;
    }
  }
  return Verdict::kWrong;
}

Verdict CheckScript(const ScriptInput& input, bool ok, std::string_view result) {
  if (!ok) return Verdict::kFailed;
  return result == input.expect ? Verdict::kOk : Verdict::kWrong;
}

std::string PushBody(std::uint64_t stamp, const std::vector<PushInput>& pool) {
  std::string body = std::to_string(stamp);
  body += '|';
  body += pool[stamp % pool.size()].filler;
  return body;
}

void DeliveryChecker::SkipTo(std::uint64_t stamp) {
  for (; next_ < stamp; ++next_) {
    if (stamp_client_[next_] != client_) continue;
    ++(gap_pending_ ? covered_ : lost_);
  }
}

bool DeliveryChecker::OnData(std::string_view body, std::uint64_t* stamp) {
  const std::size_t bar = body.find('|');
  if (bar == std::string_view::npos) {
    ++wrong_;
    return false;
  }
  std::uint64_t s = 0;
  const auto [end, ec] = std::from_chars(body.data(), body.data() + bar, s);
  if (ec != std::errc() || end != body.data() + bar || s < next_ ||
      s >= stamp_limit_ || stamp_client_[s] != client_) {
    ++wrong_;
    return false;
  }
  *stamp = s;
  SkipTo(s);
  gap_pending_ = false;
  next_ = s + 1;
  if (body.substr(bar + 1) != (*pool_)[s % pool_->size()].filler) {
    ++wrong_;
    return false;
  }
  return true;
}

void DeliveryChecker::Finish(std::uint64_t end) { SkipTo(end); }

}  // namespace perfbench
