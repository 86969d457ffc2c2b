// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each layer's public functions, kept in memory and written
// out when the run ends. Spans of one operation share its id, so a
// layer's self time is its span minus the parts its children cover.
//
// A SpanLog has one writer thread; the traced run keeps one per thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kOp,              ///< one operation, from its due time to its completion
  kGenLate,         ///< due time -> handed to the wire client
  kWireSend,        ///< inside WireClient::SubmitBatch / SubmitScript
  kServer,          ///< server-side latency reported by the response
  kGatewaySubmit,   ///< inside Gateway::Submit / SubmitScript
  kPublish,         ///< inside Gateway::PublishEvent
  kCoreCall,        ///< one direct proxy call on a standalone world
  kScriptEngine,    ///< ScriptEngine::Execute on a standalone world
  kEncode,          ///< EncodeRequest / EncodeScript
  kDecode,          ///< DecodeFrame + DecodeRequestView / DecodeScript
  kParse,           ///< minijs::ParseProgram
  kCount,
};

[[nodiscard]] const char* LayerName(Layer layer);

struct Span {
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t items = 1;  ///< operations the span covers (a batch send)
  Layer layer = Layer::kOp;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 0) { spans_.reserve(capacity); }

  void Record(Layer layer, std::uint64_t op, std::int64_t start_ns,
              std::int64_t end_ns, std::uint32_t items = 1) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({op, start_ns, end_ns, items, layer});
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Per-layer totals: spans, operations covered, and self time.
struct LayerSelf {
  std::uint64_t spans = 0;
  std::uint64_t items = 0;
  double self_us = 0;  ///< summed over spans
};

/// Self time of every layer across `logs`: each span's duration minus
/// the union of the other spans of the same operation that lie inside it.
[[nodiscard]] std::vector<LayerSelf> SelfTimes(
    const std::vector<const SpanLog*>& logs);

/// Write every span as one "op layer start_ns end_ns items" line. False
/// (with `error` set) when the file cannot be written completely.
[[nodiscard]] bool WriteSpans(const std::string& path,
                              const std::vector<const SpanLog*>& logs,
                              std::string* error);

}  // namespace perfbench
