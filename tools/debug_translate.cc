// Reads one schema-free query from stdin and prints its top-k translations
// with the per-phase timing / cache / generator statistics of the call.
// Usage: debug_translate [k] < query.txt
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/engine.h"
#include "workloads/movie43.h"
using namespace sfsql;  // NOLINT(build/namespaces)
int main(int argc, char** argv) {
  auto db = workloads::BuildMovie43(42, 60);
  core::SchemaFreeEngine engine(db.get());
  std::string q;
  std::getline(std::cin, q);
  core::TranslateStats stats;
  auto trans = engine.Translate(q, argc > 1 ? atoi(argv[1]) : 3, &stats);
  if (!trans.ok()) { std::cout << trans.status().ToString() << "\n"; return 1; }
  for (auto& t : *trans) {
    std::cout << "w=" << t.weight << "  " << t.network_text << "\n  " << t.sql << "\n";
  }
  std::printf(
      "\nphases: parse %.4fs  map %.4fs  graph %.4fs  generate %.4fs "
      "(rank %.4fs search %.4fs)  compose %.4fs\n",
      stats.parse_seconds, stats.map_seconds, stats.graph_seconds,
      stats.generate_seconds, stats.generator.rank_seconds,
      stats.generator.search_seconds, stats.compose_seconds);
  std::printf(
      "generator: %d roots, %lld pushed, %lld popped, %lld expansions, "
      "%lld pruned, %lld emitted%s\n",
      stats.generator.roots, stats.generator.pushed, stats.generator.popped,
      stats.generator.expansions, stats.generator.pruned,
      stats.generator.emitted, stats.generator.truncated ? " (truncated)" : "");
  std::printf("similarity cache: %lld hits, %lld misses\n", stats.cache_hits,
              stats.cache_misses);
  return 0;
}
