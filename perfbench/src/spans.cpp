#include "spans.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kGenLate: return "gen.late";
    case Layer::kWireSend: return "wire.client_send";
    case Layer::kServer: return "server";
    case Layer::kGatewaySubmit: return "gateway.submit";
    case Layer::kPublish: return "push.publish";
    case Layer::kCoreCall: return "core.call";
    case Layer::kScriptEngine: return "script.engine";
    case Layer::kEncode: return "wire.encode";
    case Layer::kDecode: return "wire.decode";
    case Layer::kParse: return "minijs.parse";
    case Layer::kCount: break;
  }
  return "?";
}

std::vector<LayerSelf> SelfTimes(const std::vector<const SpanLog*>& logs) {
  std::vector<Span> all;
  for (const SpanLog* log : logs) {
    all.insert(all.end(), log->spans().begin(), log->spans().end());
  }
  // Group by operation, outermost first within an operation.
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    if (a.op != b.op) return a.op < b.op;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<LayerSelf> layers(static_cast<std::size_t>(Layer::kCount));
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (std::size_t begin = 0; begin < all.size();) {
    std::size_t end = begin;
    while (end < all.size() && all[end].op == all[begin].op) ++end;
    for (std::size_t i = begin; i < end; ++i) {
      const Span& span = all[i];
      // Children: other spans of this operation inside [start, end].
      covered.clear();
      for (std::size_t j = begin; j < end; ++j) {
        const Span& c = all[j];
        if (j == i || c.start_ns < span.start_ns || c.end_ns > span.end_ns) {
          continue;
        }
        if (c.start_ns == span.start_ns && c.end_ns == span.end_ns && j < i) {
          continue;  // identical interval: the earlier one is the parent
        }
        covered.emplace_back(c.start_ns, c.end_ns);
      }
      std::sort(covered.begin(), covered.end());
      std::int64_t child_ns = 0;
      std::int64_t reach = span.start_ns;
      for (const auto& [s, e] : covered) {
        const std::int64_t from = std::max(s, reach);
        if (e > from) {
          child_ns += e - from;
          reach = e;
        }
      }
      LayerSelf& layer = layers[static_cast<std::size_t>(span.layer)];
      ++layer.spans;
      layer.items += span.items;
      layer.self_us +=
          static_cast<double>(span.end_ns - span.start_ns - child_ns) / 1000.0;
    }
    begin = end;
  }
  return layers;
}

bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs,
                std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    *error = path + ": " + std::strerror(errno);
    return false;
  }
  bool ok = std::fputs("# op layer start_ns end_ns items\n", file) >= 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (!ok) break;
      ok = std::fprintf(file, "%llu %s %lld %lld %u\n",
                        static_cast<unsigned long long>(s.op),
                        LayerName(s.layer), static_cast<long long>(s.start_ns),
                        static_cast<long long>(s.end_ns), s.items) > 0;
    }
  }
  if (std::fclose(file) != 0) ok = false;
  if (!ok) *error = path + ": write failed: " + std::strerror(errno);
  return ok;
}

}  // namespace perfbench
