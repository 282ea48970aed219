// Translation EXPLAIN: runs one schema-free query against the movie43
// database and prints the full translation provenance — per-candidate
// similarity scores, per-root search bounds and pruned counts, per-phase
// wall times, and the ranked translations.
//
// The human-readable tree always goes to stderr; with --json the same
// provenance is written to stdout as a JSON document (the shape golden-tested
// in tests/explain_test.cc).
//
// Usage: explain_translate [--json] [--compact] [-k N] [query]
//        (no query argument: the query is read from stdin, one line)
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/engine.h"
#include "workloads/movie43.h"

using namespace sfsql;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  bool json = false;
  bool pretty = true;
  int k = 3;
  std::string query;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--compact") == 0) {
      pretty = false;
    } else if (std::strcmp(argv[i], "-k") == 0 && i + 1 < argc) {
      k = std::atoi(argv[++i]);
    } else {
      if (!query.empty()) query += " ";
      query += argv[i];
    }
  }
  if (query.empty()) std::getline(std::cin, query);
  if (query.empty()) {
    std::cerr << "usage: explain_translate [--json] [--compact] [-k N] "
                 "[query]\n";
    return 2;
  }

  auto db = workloads::BuildMovie43(42, 60);
  core::SchemaFreeEngine engine(db.get());

  core::TranslationExplain explain;
  auto result = engine.TranslateExplained(query, k, &explain);
  std::cerr << explain.RenderTree();
  if (json) std::cout << explain.ToJson(pretty) << "\n";
  return result.ok() ? 0 : 1;
}
