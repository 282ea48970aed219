#ifndef SFSQL_CORE_EXPLAIN_H_
#define SFSQL_CORE_EXPLAIN_H_

#include <string>
#include <vector>

#include "core/mtjn_generator.h"

namespace sfsql::core {

/// Provenance of one attribute tree inside one candidate relation: which
/// catalog attribute the argmax of §4.3 bound it to, and at what similarity.
struct ExplainAttribute {
  std::string query_name;  ///< what the user wrote (printed AttributeTree name)
  std::string bound_name;  ///< catalog attribute chosen ("" if none bound)
  double similarity = 0.0;
};

/// One entry of MAP(rt): a candidate relation with its §4.1 similarity and
/// whether the winning (top-1) join network actually used it.
struct ExplainCandidate {
  int relation_id = -1;
  std::string relation_name;
  double similarity = 0.0;  ///< Sim(rt, R)
  bool chosen = false;      ///< used by the best translation's network
  std::vector<ExplainAttribute> attributes;
};

/// One relation tree of the query with its full mapping set, best first.
struct ExplainTree {
  int rt_id = -1;
  std::string tree;  ///< canonical printed form (RelationTree::ToString)
  std::vector<ExplainCandidate> candidates;
};

/// One per-root best-first search of the generator (rank order): the rank
/// score it started from, the pruning bounds bracketing the search, and what
/// it expanded vs pruned.
struct ExplainRootSearch {
  std::string root;            ///< XNode::ToString of the root
  double potential = 0.0;      ///< Algorithm 1 rank score
  double initial_bound = 0.0;  ///< kth weight when the search started
  double final_bound = 0.0;    ///< bound when the search finished
  double seconds = 0.0;
  long long pushed = 0;
  long long popped = 0;
  long long expansions = 0;
  long long pruned = 0;
  long long emitted = 0;
  bool truncated = false;
};

/// One produced translation, rank order.
struct ExplainResult {
  double weight = 0.0;
  std::string network;  ///< human-readable join network
  std::string sql;
};

/// Access path of one FROM entry of the top-1 translation, as the executor's
/// pre-execution planner (exec/access_path) would run it: IndexScan vs Scan,
/// how many conjuncts the column index answers vs are pushed per base row,
/// and the exact-count selectivity estimate behind the choice.
struct ExplainTableAccess {
  std::string binding;   ///< FROM binding (alias or relation), lower-cased
  std::string relation;  ///< catalog relation name
  std::string access;    ///< "index_scan" | "table_scan"
  long long index_predicates = 0;
  long long pushed_predicates = 0;
  long long table_rows = 0;
  long long estimated_rows = 0;
  double selectivity = 1.0;
  long long chunks_total = 0;   ///< columnar chunks in the table at plan time
  long long chunks_pruned = 0;  ///< chunks ruled out by min/max stats pre-index
  /// Cost-based join provenance (empty/-1 when the cost model did not plan
  /// this step — first table in the fold, or use_cost_model = false).
  std::string join_algo;  ///< "hash" | "index_nl" | "sort_merge" | "nested_loop"
  double est_rows_cumulative = -1.0;  ///< estimated rows after this fold step
  double est_cost_cumulative = -1.0;  ///< cost-model units through this step
};

/// Full provenance of one Translate call — the translation EXPLAIN mode.
/// Collected by SchemaFreeEngine::TranslateExplained, rendered either as an
/// indented tree for humans (RenderTree) or as JSON for machines (ToJson,
/// golden-tested with an injected FakeClock so timings are reproducible).
struct TranslationExplain {
  std::string query;
  int k = 0;
  bool ok = false;
  std::string error;  ///< status message when !ok

  // Phase wall times (seconds, same clocks as TranslateStats).
  double parse_seconds = 0.0;
  double map_seconds = 0.0;
  double graph_seconds = 0.0;
  double generate_seconds = 0.0;
  double compose_seconds = 0.0;
  double total_seconds = 0.0;

  long long cache_hits = 0;
  long long cache_misses = 0;

  // Plan-cache provenance (the `cache` block). EXPLAIN calls always bypass
  // the cache, so these describe what a plain Translate of the same statement
  // would have seen, probed read-only (no counters, no LRU promotion).
  bool plan_cache_enabled = false;
  std::string plan_cache_outcome;    ///< "disabled" | "bypass"
  std::string canonical_text;        ///< literal-stripped canonical form
  std::string canonical_fingerprint; ///< 64-bit FNV-1a of the text, hex
  bool plan_cache_tier2_present = false;  ///< exact text + epoch cached
  bool plan_cache_probe_plan_present = false;  ///< structure known to tier 1

  // Condition-satisfiability probe counters of the call (§4.3 layer).
  // Integer counts only — the build wall time lives in TranslateStats, so the
  // EXPLAIN document stays deterministic under a fake clock.
  long long sat_index_probes = 0;  ///< answered by a column index
  long long sat_scan_probes = 0;   ///< answered by a fallback full scan
  long long index_builds = 0;      ///< column indexes (re)built during the call

  std::vector<ExplainTree> trees;

  // Generator provenance: summed counters plus the per-root searches.
  GeneratorStats generator;
  std::vector<ExplainRootSearch> roots;

  std::vector<ExplainResult> results;

  /// Execution access paths of the top-1 translation, in join (fold) order.
  /// Empty when there are no results or the executor would take its naive
  /// fallback fold (unplannable block).
  std::vector<ExplainTableAccess> execution;

  /// Indented tree rendering (what tools/explain_translate prints to stderr
  /// and what the slow-translation log emits).
  std::string RenderTree() const;

  /// JSON document; `double_precision` is the %g significant-digit count
  /// (golden tests use 6 so deterministic values render identically
  /// everywhere).
  std::string ToJson(bool pretty = true, int double_precision = 12) const;
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_EXPLAIN_H_
