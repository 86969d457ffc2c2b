#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "support/trace.h"

#include "../bench_io.h"

namespace mobivine::bench {

gateway::GatewayConfig ShardedConfig(int shards) {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  gateway::GatewayConfig config;
  config.shards = shards;
  config.store = &store;
  return config;
}

void Fail(const char* format, ...) {
  std::fputs("error: ", stderr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::fflush(nullptr);
  std::_Exit(1);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

std::string Row::Format(const char* format, int precision, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, format, precision, value);
  return buffer;
}

Row& Row::Add(const std::string& key, const Row& value) {
  fields_.push_back({key, value.Json(), "", {}});
  // The nested columns follow as table-only fields (empty key).
  for (const Field& field : value.fields_) {
    if (field.column.header != nullptr) {
      fields_.push_back({"", "", field.cell, field.column});
    }
  }
  return *this;
}

Row& Row::Add(const std::string& key, const std::vector<Row>& rows) {
  std::string json = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += (i == 0 ? "\n    " : ",\n    ") + rows[i].Json();
  }
  json += "\n  ]";
  fields_.push_back({key, std::move(json), "", {}});
  return *this;
}

Row& Row::Add(const std::string& key, const std::vector<double>& values) {
  std::string json = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    json += (i == 0 ? "" : ", ") + Format("%.*g", 6, values[i]);
  }
  fields_.push_back({key, json + "]", "", {}});
  return *this;
}

std::string Row::Cells(bool header) const {
  std::string line;
  for (const Field& field : fields_) {
    if (field.column.header == nullptr) continue;
    char cell[80];
    std::snprintf(cell, sizeof cell, line.empty() ? "%*s" : " %*s",
                  field.column.width,
                  header ? field.column.header : field.cell.c_str());
    line += cell;
  }
  return line;
}

std::string Row::Json(bool document) const {
  std::string json = document ? "{\n  " : "{";
  bool first = true;
  for (const Field& field : fields_) {
    if (field.key.empty()) continue;
    if (!first) json += document ? ",\n  " : ", ";
    first = false;
    json += "\"" + field.key + "\": " + field.json;
  }
  return json + (document ? "\n}\n" : "}");
}

void Table::Print(const Row& row) {
  if (!header_printed_) {
    const std::string header = row.Cells(/*header=*/true);
    std::printf("%s\n%s\n", header.c_str(),
                std::string(header.size(), '-').c_str());
    header_printed_ = true;
  }
  std::printf("%s\n", row.Cells(/*header=*/false).c_str());
}

Row ResultDocument(const char* bench) {
  Row doc;
  doc.Add("bench", bench);
  doc.Add("hardware_concurrency", std::thread::hardware_concurrency());
  return doc;
}

void WriteResult(const Row& doc, const std::string& path) {
  std::ofstream out(path);
  out << doc.Json(/*document=*/true);
  CloseOrDie(out, path);
  std::printf("wrote %s\n", path.c_str());
}

TracedRun::TracedRun() {
  support::trace::SetPerThreadCapacity(256 * 1024);
  support::trace::Reset();
  support::trace::SetEnabled(true);
}

void TracedRun::Write(const Options& options) {
  if (!options.metrics_path.empty()) {
    std::ofstream out(options.metrics_path);
    metrics_.Snapshot().WriteJson(out);
    CloseOrDie(out, options.metrics_path);
    std::printf("wrote %s\n", options.metrics_path.c_str());
  }
  std::ofstream out(options.trace_path);
  const support::trace::ExportStats stats =
      support::trace::ExportChromeTrace(out);
  support::trace::SetEnabled(false);
  CloseOrDie(out, options.trace_path);
  std::printf("wrote %s (%zu events across %zu threads, %zu dropped)\n",
              options.trace_path.c_str(), stats.events, stats.threads,
              stats.dropped);
}

void CallTracedMix(wire::WireClient& client, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    wire::WireResponse response;
    (void)client.Call(TracedRequest<wire::WireRequest>(i), &response);
  }
}

WireStack::WireStack(const gateway::GatewayConfig& config,
                     const wire::WireServerConfig& server_config)
    : gateway(config), server(gateway, server_config) {
  std::string error;
  if (!server.Start(&error)) {
    Fail("wire server start failed: %s", error.c_str());
  }
}

void WireStack::Stop() {
  server.Stop();
  gateway.Stop();
}

void Connect(wire::WireClient& client, std::uint16_t port) {
  if (!client.Connect(port)) Fail("wire client connect to %u failed", port);
}

wire::WireRequest MixedRequest(support::SplitMix64& rng,
                               std::uint64_t clients) {
  constexpr gateway::Platform kPlatforms[] = {
      gateway::Platform::kAndroid, gateway::Platform::kAndroid,
      gateway::Platform::kS60, gateway::Platform::kIphone};
  wire::WireRequest request;
  request.client_id = rng.Next() % clients;
  request.platform = kPlatforms[rng.Next() % 4];
  switch (rng.Next() % 6) {
    case 0:
      request.op = gateway::Op::kGetLocation;
      break;
    case 1:
      request.op = gateway::Op::kSendSms;
      request.target = gateway::kGatewaySmsPeer;
      request.payload = "wire bench message";
      break;
    case 2:
      request.op = gateway::Op::kHttpPost;
      request.target =
          std::string("http://") + gateway::kGatewayHttpHost + "/echo";
      request.payload = "post body";
      request.content_type = "text/plain";
      break;
    case 3:
      request.op = gateway::Op::kSegmentCount;
      request.payload = std::string(200, 'x');
      break;
    default:
      request.op = gateway::Op::kHttpGet;
      request.target =
          std::string("http://") + gateway::kGatewayHttpHost + "/ping";
      break;
  }
  return request;
}

namespace {

/// One pass of `threads` load threads; tallies merged into `result`.
void RunLoadThreads(int threads, std::uint64_t requests_per_thread,
                    bool warmup, const LoadThread& load,
                    ClosedLoopResult* result) {
  std::vector<Tally> tallies(static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  const Clock::time_point start = Clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(load, t, requests_per_thread, warmup,
                         std::ref(tallies[static_cast<std::size_t>(t)]));
  }
  for (std::thread& worker : workers) worker.join();
  result->wall_seconds = SecondsSince(start);

  support::HistogramSnapshot merged;
  for (const Tally& tally : tallies) {
    if (tally.completed < tally.issued) {
      Fail("closed loop: a load thread completed %llu of %llu requests",
           static_cast<unsigned long long>(tally.completed),
           static_cast<unsigned long long>(tally.issued));
    }
    result->completed += tally.completed;
    result->ok += tally.ok;
    merged.Merge(tally.latency.Snapshot());
  }
  result->p50 = merged.PercentileRank(50.0);
  result->p95 = merged.PercentileRank(95.0);
  result->p99 = merged.PercentileRank(99.0);
}

}  // namespace

ClosedLoopResult RunClosedLoop(int threads, std::uint64_t requests_per_thread,
                               const LoadThread& load,
                               const std::function<void()>& warmed) {
  ClosedLoopResult warmup;
  RunLoadThreads(threads, std::max<std::uint64_t>(requests_per_thread / 10, 1),
                 /*warmup=*/true, load, &warmup);
  if (warmed) warmed();

  ClosedLoopResult result;
  RunLoadThreads(threads, requests_per_thread, /*warmup=*/false, load,
                 &result);
  result.requests_per_sec =
      result.wall_seconds > 0
          ? static_cast<double>(result.completed) / result.wall_seconds
          : 0;
  return result;
}

}  // namespace mobivine::bench
