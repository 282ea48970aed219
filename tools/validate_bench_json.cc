// Validates the machine-readable bench outputs (BENCH_<name>.json) against
// the documented shape (EXPERIMENTS.md, "Machine-readable bench output"):
//
//   { "bench": string, "schema_version": 1,
//     "config": object, "metrics": non-empty object of numbers,
//     "tables": object of arrays of objects }
//
// Every bench additionally reports at least one latency percentile triple
// (<prefix>_p50 / _p95 / _p99, emitted by BenchReport::SetLatencyMetrics);
// each triple must be complete and ordered p50 <= p95 <= p99.
//
// CI's bench-smoke job runs every bench in smoke mode and then this tool over
// the emitted files; a schema drift fails the build instead of silently
// breaking the perf-tracking pipeline.
//
// Usage: validate_bench_json FILE.json...   (exit 0 iff every file validates)
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace {

using sfsql::obs::JsonValue;

bool Fail(const std::string& file, const std::string& why) {
  std::cerr << file << ": INVALID — " << why << "\n";
  return false;
}

bool ValidateFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Fail(path, "cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = sfsql::obs::ParseJson(buf.str());
  if (!parsed.ok()) return Fail(path, parsed.status().message());
  const JsonValue& doc = *parsed;
  if (!doc.is_object()) return Fail(path, "top level is not an object");

  const JsonValue* bench = doc.Find("bench");
  if (bench == nullptr || !bench->is_string() || bench->string.empty()) {
    return Fail(path, "\"bench\" missing or not a non-empty string");
  }
  const JsonValue* version = doc.Find("schema_version");
  if (version == nullptr || !version->is_number() || version->number != 1) {
    return Fail(path, "\"schema_version\" missing or != 1");
  }
  const JsonValue* config = doc.Find("config");
  if (config == nullptr || !config->is_object()) {
    return Fail(path, "\"config\" missing or not an object");
  }
  for (const auto& [key, value] : config->members) {
    if (!value.is_string() && !value.is_number()) {
      return Fail(path, "config." + key + " is neither string nor number");
    }
  }
  const JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return Fail(path, "\"metrics\" missing or not an object");
  }
  if (metrics->members.empty()) return Fail(path, "\"metrics\" is empty");
  for (const auto& [key, value] : metrics->members) {
    if (!value.is_number()) {
      return Fail(path, "metrics." + key + " is not a number");
    }
  }
  // Latency percentile triples: every *_p50 needs its *_p95 and *_p99
  // siblings in order, and at least one triple must be present.
  int triples = 0;
  auto metric = [&](const std::string& key) {
    return metrics->Find(key);
  };
  for (const auto& [key, value] : metrics->members) {
    const std::string suffix = "_p50";
    if (key.size() <= suffix.size() ||
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string prefix = key.substr(0, key.size() - suffix.size());
    const JsonValue* p95 = metric(prefix + "_p95");
    const JsonValue* p99 = metric(prefix + "_p99");
    if (p95 == nullptr || !p95->is_number() || p99 == nullptr ||
        !p99->is_number()) {
      return Fail(path, "metrics." + key + " lacks its _p95/_p99 siblings");
    }
    if (value.number > p95->number || p95->number > p99->number) {
      return Fail(path, "metrics." + prefix +
                            "_p50/_p95/_p99 are not in ascending order");
    }
    ++triples;
  }
  if (triples == 0) {
    return Fail(path, "no latency percentile triple (*_p50/_p95/_p99)");
  }
  // The execute bench must report its chunk-pruning counters (the cumulative
  // executor counter from the run metadata and the wide-table pruning
  // section's isolated count) and the cost-based planning section's
  // speedup + estimation-quality metrics. Their absence means the columnar
  // pruning path or the cost-vs-greedy comparison silently fell out of the
  // bench.
  if (bench->string == "execute") {
    for (const char* key :
         {"exec_chunks_pruned", "wide_chunks_pruned", "speedup_cost_vs_greedy",
          "join_qerror_median", "join_qerror_max",
          // Morsel-driven parallel section: serial-vs-parallel throughput,
          // the speedup, and the shared pool's counters. Their absence means
          // the parallel executor silently fell out of the bench.
          "serial_exec_queries_per_second", "parallel_exec_queries_per_second",
          "speedup_parallel_vs_serial", "pool_tasks", "pool_steals"}) {
      const JsonValue* v = metrics->Find(key);
      if (v == nullptr || !v->is_number()) {
        return Fail(path, std::string("metrics.") + key +
                              " missing or not a number (required for the "
                              "execute bench)");
      }
    }
  }
  // The serving bench must report cache effectiveness and the cost of
  // always-on profiling: tier hit rates, the profiling on/off throughput
  // pair with its ratio, and the profile ring's evicted and skipped counts
  // (ring wrap-around vs slot contention). Their absence
  // means the observability section silently fell out of the bench.
  if (bench->string == "serving") {
    for (const char* key :
         {"tier2_hit_rate", "tier1_hit_rate", "profile_ring_evicted",
          "profile_ring_skipped",
          "profiling_on_queries_per_second",
          "profiling_off_queries_per_second", "profiling_overhead_ratio"}) {
      const JsonValue* v = metrics->Find(key);
      if (v == nullptr || !v->is_number()) {
        return Fail(path, std::string("metrics.") + key +
                              " missing or not a number (required for the "
                              "serving bench)");
      }
    }
  }
  const JsonValue* tables = doc.Find("tables");
  if (tables == nullptr || !tables->is_object()) {
    return Fail(path, "\"tables\" missing or not an object");
  }
  for (const auto& [name, table] : tables->members) {
    if (!table.is_array()) {
      return Fail(path, "tables." + name + " is not an array");
    }
    for (const JsonValue& row : table.items) {
      if (!row.is_object()) {
        return Fail(path, "tables." + name + " contains a non-object row");
      }
    }
  }
  std::cout << path << ": ok (bench=" << bench->string << ", "
            << metrics->members.size() << " metric(s))\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: validate_bench_json FILE.json...\n";
    return 2;
  }
  bool all_ok = true;
  for (int i = 1; i < argc; ++i) all_ok = ValidateFile(argv[i]) && all_ok;
  return all_ok ? 0 : 1;
}
