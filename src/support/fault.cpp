#include "support/fault.h"

#include <charconv>
#include <cstddef>

namespace mobivine::support {
namespace {

bool WildcardMatch(const std::string& pattern, std::string_view value) {
  return pattern.empty() || pattern == "*" || pattern == value;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool ParseU64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseProbability(std::string_view text, double* out) {
  // std::from_chars<double> is not universally available; probabilities
  // only need "0", "1", or "0.xxx" precision, so parse by hand.
  if (text.empty()) return false;
  std::size_t dot = text.find('.');
  std::uint64_t whole = 0;
  if (!ParseU64(text.substr(0, dot == std::string_view::npos ? text.size()
                                                             : dot),
                &whole)) {
    return false;
  }
  double value = static_cast<double>(whole);
  if (dot != std::string_view::npos) {
    std::string_view frac = text.substr(dot + 1);
    if (frac.empty()) return false;
    std::uint64_t digits = 0;
    if (!ParseU64(frac, &digits)) return false;
    double scale = 1.0;
    for (std::size_t i = 0; i < frac.size(); ++i) scale *= 10.0;
    value += static_cast<double>(digits) / scale;
  }
  if (value < 0.0 || value > 1.0) return false;
  *out = value;
  return true;
}

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  while (true) {
    std::size_t pos = text.find(sep);
    if (pos == std::string_view::npos) {
      parts.push_back(text);
      return parts;
    }
    parts.push_back(text.substr(0, pos));
    text.remove_prefix(pos + 1);
  }
}

}  // namespace

const char* ToString(FaultAction action) {
  switch (action) {
    case FaultAction::kNone:
      return "none";
    case FaultAction::kError:
      return "error";
    case FaultAction::kLatency:
      return "latency";
    case FaultAction::kHang:
      return "hang";
  }
  return "none";
}

bool FaultRule::Matches(std::string_view platform_tag,
                        std::string_view op_name) const {
  return WildcardMatch(platform, platform_tag) && WildcardMatch(op, op_name);
}

std::optional<FaultPlan> FaultPlan::Parse(std::string_view text,
                                          std::string* error) {
  FaultPlan plan;
  for (std::string_view segment : Split(text, ';')) {
    segment = Trim(segment);
    if (segment.empty()) continue;
    if (segment.substr(0, 5) == "seed=") {
      if (!ParseU64(segment.substr(5), &plan.seed)) {
        SetError(error, "bad seed: " + std::string(segment));
        return std::nullopt;
      }
      continue;
    }
    std::vector<std::string_view> fields = Split(segment, ':');
    if (fields.size() < 3) {
      SetError(error,
               "rule needs platform:op:effect — got: " + std::string(segment));
      return std::nullopt;
    }
    FaultRule rule;
    rule.platform = std::string(Trim(fields[0]));
    rule.op = std::string(Trim(fields[1]));
    std::string_view effect = Trim(fields[2]);
    if (effect.substr(0, 6) == "error=") {
      rule.action = FaultAction::kError;
      rule.error = std::string(effect.substr(6));
      if (rule.error.empty()) {
        SetError(error, "error= needs a code name: " + std::string(segment));
        return std::nullopt;
      }
    } else if (effect.substr(0, 8) == "latency=") {
      rule.action = FaultAction::kLatency;
      if (!ParseU64(effect.substr(8), &rule.latency_us) ||
          rule.latency_us == 0) {
        SetError(error,
                 "latency= needs positive micros: " + std::string(segment));
        return std::nullopt;
      }
    } else if (effect == "hang") {
      rule.action = FaultAction::kHang;
    } else {
      SetError(error, "unknown effect (want error=/latency=/hang): " +
                          std::string(segment));
      return std::nullopt;
    }
    for (std::size_t i = 3; i < fields.size(); ++i) {
      std::string_view option = Trim(fields[i]);
      if (option.substr(0, 2) == "p=") {
        if (!ParseProbability(option.substr(2), &rule.probability)) {
          SetError(error, "bad p= (want [0,1]): " + std::string(segment));
          return std::nullopt;
        }
      } else if (option.substr(0, 4) == "max=") {
        if (!ParseU64(option.substr(4), &rule.max_fires)) {
          SetError(error, "bad max=: " + std::string(segment));
          return std::nullopt;
        }
      } else if (option == "wall") {
        if (rule.action != FaultAction::kLatency) {
          SetError(error, "wall only applies to latency=: " +
                              std::string(segment));
          return std::nullopt;
        }
        rule.wall = true;
      } else {
        SetError(error, "unknown option (want p=/max=/wall): " +
                            std::string(segment));
        return std::nullopt;
      }
    }
    plan.rules.push_back(std::move(rule));
  }
  if (plan.rules.empty()) {
    SetError(error, "plan has no rules");
    return std::nullopt;
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::string out = "seed=" + std::to_string(seed);
  for (const FaultRule& rule : rules) {
    out += ';';
    out += rule.platform.empty() ? "*" : rule.platform;
    out += ':';
    out += rule.op.empty() ? "*" : rule.op;
    out += ':';
    switch (rule.action) {
      case FaultAction::kError:
        out += "error=" + rule.error;
        break;
      case FaultAction::kLatency:
        out += "latency=" + std::to_string(rule.latency_us);
        break;
      case FaultAction::kHang:
      case FaultAction::kNone:
        out += "hang";
        break;
    }
    if (rule.wall) out += ":wall";
    if (rule.probability < 1.0) {
      // Emit with fixed 1e-6 precision so the form round-trips through
      // ParseProbability without locale surprises.
      auto micros = static_cast<std::uint64_t>(rule.probability * 1e6 + 0.5);
      std::string frac = std::to_string(micros);
      frac.insert(frac.begin(), 6 - frac.size() < 0 ? 0 : 6 - frac.size(),
                  '0');
      while (frac.size() > 1 && frac.back() == '0') frac.pop_back();
      out += ":p=0." + frac;
    }
    if (rule.max_fires > 0) out += ":max=" + std::to_string(rule.max_fires);
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t salt)
    : plan_(std::move(plan)),
      rule_fires_(plan_.rules.size(), 0),
      // Mix the plan seed with the salt so shards sharing a plan draw
      // decorrelated fault streams, still deterministically.
      rng_(plan_.seed ^ (salt * 0x9e3779b97f4a7c15ull + 1)) {
  (void)rng_.Next();  // discard the first, weakly mixed draw
}

FaultDecision FaultInjector::Decide(std::string_view platform_tag,
                                    std::string_view op_name) {
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (!rule.Matches(platform_tag, op_name)) continue;
    if (rule.max_fires > 0 && rule_fires_[i] >= rule.max_fires) continue;
    // Sample even at p=1.0 so adding/removing `p=` never shifts the
    // stream consumed by later rules.
    const double draw = rng_.NextUnit();
    if (draw >= rule.probability) continue;
    ++rule_fires_[i];
    ++total_fired_;
    ++fired_by_action_[static_cast<std::size_t>(rule.action)];
    FaultDecision decision;
    decision.action = rule.action;
    decision.error = rule.error;
    decision.latency_us = rule.latency_us;
    decision.wall = rule.wall;
    return decision;
  }
  return FaultDecision{};
}

}  // namespace mobivine::support
