#include "report.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

HostInfo ReadHost(std::string git_sha) {
  HostInfo host;
  host.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
      break;
    }
  }
#ifdef PERFBENCH_BUILD_TYPE
  host.build_type = PERFBENCH_BUILD_TYPE;
#endif
  host.compiler = std::string("gcc ") + __VERSION__;
  host.git_sha = git_sha.empty() ? "unknown" : std::move(git_sha);
  return host;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.gated) continue;
    if (!first) line += ", ";
    first = false;
    line += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return line + "}}";
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.4f %-6s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str(), m.gated ? "" : " [not gated]");
  }
}

bool WriteResultFile(const std::string& path, const HostInfo& host,
                     const RunInfo& run, bool correct, std::uint64_t attempted,
                     std::uint64_t failed, const std::vector<Metric>& metrics,
                     std::string* error) {
  std::string json = "{\n  \"host\": {\"nproc\": " + std::to_string(host.nproc) +
                     ", \"cpu_model\": " + JsonString(host.cpu_model) +
                     ", \"build_type\": " + JsonString(host.build_type) +
                     ", \"compiler\": " + JsonString(host.compiler) +
                     ", \"git_sha\": " + JsonString(host.git_sha) + "},\n";
  json += "  \"run\": {\"workload\": " + JsonString(run.workload) +
          ", \"seed\": " + std::to_string(run.seed) +
          ", \"seconds\": " + JsonNumber(run.seconds) +
          ", \"trace\": " + (run.trace ? "true" : "false") +
          ", \"input_digest\": \"" + std::to_string(run.input_digest) + "\"},\n";
  json += std::string("  \"correct\": ") + (correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ",\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += "    {\"name\": " + JsonString(m.name) +
            ", \"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"note\": " + JsonString(m.note) +
            ", \"gated\": " + (m.gated ? "true" : "false") + "}" +
            (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  json += "  ]\n}\n";

  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    *error = path + ": " + std::strerror(errno);
    return false;
  }
  const bool wrote = std::fwrite(json.data(), 1, json.size(), file) == json.size();
  const int saved = errno;
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !closed) {
    *error = path + ": write failed: " + std::strerror(wrote ? errno : saved);
    return false;
  }
  return true;
}

}  // namespace perfbench
