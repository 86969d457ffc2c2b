// A2 — ablation: cost of the descriptor pipeline (real time, not virtual).
// XML parsing, schema validation, plane assembly and full store loading —
// the design-time machinery of the M-Proxy model — plus the run-time
// lookups every invocation makes against the loaded store.
//
// BM_LoadFullDescriptorStore also reports `allocs`, the heap allocations
// one load makes, counted by the operator new replacement below.
//
//   ./build/bench/bench_a2_descriptor
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "core/descriptor/schemas.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

using namespace mobivine;

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

// Counting replacements for the global allocation functions; every other
// form of operator new and delete forwards to these. Kept out of line so
// the compiler never pairs an inlined free() with a new-expression.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + align - 1) /
                              align * align;  // aligned_alloc's contract
  if (void* block = std::aligned_alloc(align, rounded)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block, std::align_val_t) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(block);
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

const std::string& SemanticSource() {
  static const std::string source =
      ReadFile(std::string(MOBIVINE_DESCRIPTOR_DIR) +
               "/location/semantic.xml");
  return source;
}

const std::string& BindingSource() {
  static const std::string source =
      ReadFile(std::string(MOBIVINE_DESCRIPTOR_DIR) +
               "/location/binding-s60.xml");
  return source;
}

void BM_XmlParseSemantic(benchmark::State& state) {
  for (auto _ : state) {
    xml::Document doc = xml::Parse(SemanticSource());
    benchmark::DoNotOptimize(doc.root);
  }
  state.SetBytesProcessed(state.iterations() * SemanticSource().size());
}
BENCHMARK(BM_XmlParseSemantic);

void BM_SchemaValidateSemantic(benchmark::State& state) {
  xml::Document doc = xml::Parse(SemanticSource());
  for (auto _ : state) {
    auto violations = core::SemanticSchema().Validate(*doc.root);
    benchmark::DoNotOptimize(violations);
  }
}
BENCHMARK(BM_SchemaValidateSemantic);

void BM_ParseSemanticPlane(benchmark::State& state) {
  xml::Document doc = xml::Parse(SemanticSource());
  for (auto _ : state) {
    core::SemanticPlane plane = core::ParseSemantic(*doc.root);
    benchmark::DoNotOptimize(plane);
  }
}
BENCHMARK(BM_ParseSemanticPlane);

void BM_ParseBindingPlane(benchmark::State& state) {
  xml::Document doc = xml::Parse(BindingSource());
  for (auto _ : state) {
    core::BindingPlane plane = core::ParseBinding(*doc.root);
    benchmark::DoNotOptimize(plane);
  }
}
BENCHMARK(BM_ParseBindingPlane);

void BM_SerializeSemanticPlane(benchmark::State& state) {
  xml::Document doc = xml::Parse(SemanticSource());
  core::SemanticPlane plane = core::ParseSemantic(*doc.root);
  for (auto _ : state) {
    std::string out = xml::WriteNode(*core::ToXml(plane).root);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SerializeSemanticPlane);

void BM_LoadFullDescriptorStore(benchmark::State& state) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    core::DescriptorStore store =
        core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
    benchmark::DoNotOptimize(store.size());
  }
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LoadFullDescriptorStore)->Unit(benchmark::kMicrosecond);

const core::DescriptorStore& ShippedStore() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

// DescriptorStore::Find by proxy name: hits over every shipped proxy plus
// two misses (an unknown name, a near-collision spelling) — the "which
// descriptor backs this call?" step of every invocation.
void BM_DescriptorLookup(benchmark::State& state) {
  const core::DescriptorStore& store = ShippedStore();
  std::vector<std::string> names = store.ProxyNames();
  names.emplace_back("NoSuchProxy");
  names.emplace_back("Telephony2");
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Find(names[next]));
    if (++next == names.size()) next = 0;
  }
}
BENCHMARK(BM_DescriptorLookup);

// The five dependent lookups an invocation plus its setProperty
// validation perform back to back: store -> descriptor -> binding plane
// -> property spec, semantic method and syntactic plane. Wraparound
// counters, not `i % size`, so no division competes with the lookups.
void BM_ResolutionChain(benchmark::State& state) {
  const core::DescriptorStore& store = ShippedStore();
  const std::vector<std::string> names = store.ProxyNames();
  const std::vector<std::string> platforms = {"android", "s60", "webview",
                                              "iphone"};
  std::size_t ni = 0, pi = 0, qi = 0, mi = 0;
  bool java = false;
  for (auto _ : state) {
    const core::ProxyDescriptor* descriptor = store.Find(names[ni]);
    if (++ni == names.size()) ni = 0;
    const core::BindingPlane* binding = descriptor->FindBinding(platforms[pi]);
    if (++pi == platforms.size()) pi = 0;
    if (binding != nullptr && !binding->properties.empty()) {
      if (qi >= binding->properties.size()) qi = 0;
      benchmark::DoNotOptimize(
          binding->FindProperty(binding->properties[qi++].name));
    }
    const auto& methods = descriptor->semantic().methods;
    if (mi >= methods.size()) mi = 0;
    benchmark::DoNotOptimize(
        descriptor->semantic().FindMethod(methods[mi++].name));
    java = !java;
    benchmark::DoNotOptimize(
        descriptor->FindSyntactic(java ? "java" : "javascript"));
  }
}
BENCHMARK(BM_ResolutionChain);

void BM_CrossPlaneValidation(benchmark::State& state) {
  core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  const core::ProxyDescriptor* descriptor = store.Find("Location");
  for (auto _ : state) {
    auto problems = descriptor->Validate();
    benchmark::DoNotOptimize(problems);
  }
}
BENCHMARK(BM_CrossPlaneValidation);

}  // namespace

BENCHMARK_MAIN();
