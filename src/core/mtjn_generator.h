#ifndef SFSQL_CORE_MTJN_GENERATOR_H_
#define SFSQL_CORE_MTJN_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/join_network.h"
#include "core/view_graph.h"

namespace sfsql::core {

/// A generated minimal total join network with its Definition 7 weight (the
/// best construction weight seen for its canonical form).
struct ScoredNetwork {
  JoinNetwork network;
  double weight = 0.0;
};

/// Counters for the efficiency experiments (Fig. 17), summed over the
/// per-root searches; the wall-clock phase timings are what the throughput
/// benchmarks report.
///
/// This struct is a thin per-call adapter over the generator's
/// instrumentation: when the engine runs with an obs::MetricsRegistry the
/// same counters also accumulate into the registry's sfsql_generator_*
/// families.
struct GeneratorStats {
  long long pushed = 0;    ///< partial networks enqueued
  long long popped = 0;    ///< partial networks expanded
  long long expansions = 0;  ///< expansion attempts (edge or view)
  long long pruned = 0;    ///< partial networks dropped by potential pruning
  long long emitted = 0;   ///< MTJNs reaching the result set (pre-dedup)
  bool truncated = false;  ///< some root hit the max_expansions safety cap
  int roots = 0;           ///< per-root best-first searches performed
  double rank_seconds = 0.0;    ///< wall clock: root ranking (Algorithm 1 prep)
  double search_seconds = 0.0;  ///< wall clock: all per-root searches
  /// Sum of the per-root search brackets; search_seconds minus this is the
  /// bookkeeping between roots.
  double root_seconds_sum = 0.0;
};

/// Optional provenance of one Run (the EXPLAIN substrate): how the roots
/// ranked, what bound each search started and ended with, and what each
/// contributed. Entries are in rank order, the order the searches ran in, so
/// each root's initial_bound is the previous root's final_bound.
struct RootSearchTrace {
  int root_xnode = -1;        ///< extended-graph node the search grew from
  double potential = 0.0;     ///< Algorithm 1 rank score (upper bound)
  double initial_bound = 0.0; ///< pruning bound the search started with
  double final_bound = 0.0;   ///< bound when the search ended
  uint64_t start_nanos = 0;   ///< clock readings (GeneratorConfig::clock)
  uint64_t end_nanos = 0;
  GeneratorStats stats;       ///< this root's counters (timing fields unused)
};

struct GeneratorTrace {
  std::vector<RootSearchTrace> roots;
};

/// Top-k minimal-total-join-network generation over an extended view graph.
///
/// Three strategies, matching §7.3's efficiency comparison:
///  * TopK            — the paper's Algorithms 1-3: per-root best-first search
///                      ordered by potential, with the rightmost legality test
///                      and potential-estimation pruning.
///  * TopKRightmost   — the [12]-style baseline: rightmost legality test but
///                      no potential estimation (queue ordered and bounded by
///                      the current construction weight, which is a valid but
///                      much looser bound).
///  * TopKRegular     — the DISCOVER-style baseline: arbitrary expansion order
///                      with neither legality test nor pruning; isomorphic
///                      partial networks are re-expanded many times.
///
/// All strategies deduplicate *results* by canonical signature, keeping the
/// best construction weight per network (Definition 7), and order results by
/// weight with ties broken on canonical signature — so the returned list is
/// identical across runs and platforms.
///
/// As in Algorithm 1, the roots are searched one after another in rank order
/// (each search bans the roots before it) and all feed one shared top-k list,
/// so a root's pruning bound is the kth weight found by every root before it.
/// The search is serial; the engine's thread pool serves execution only.
class MtjnGenerator {
 public:
  MtjnGenerator(const ExtendedViewGraph* graph, GeneratorConfig config)
      : graph_(graph), config_(config) {}

  /// `trace`, when given, receives per-root provenance (rank scores, pruning
  /// bounds, per-root counters) — the substrate of the translation EXPLAIN
  /// mode. Collecting it costs nothing beyond what `stats` already does.
  std::vector<ScoredNetwork> TopK(int k, GeneratorStats* stats = nullptr,
                                  GeneratorTrace* trace = nullptr) const;
  std::vector<ScoredNetwork> TopKRightmost(
      int k, GeneratorStats* stats = nullptr,
      GeneratorTrace* trace = nullptr) const;
  std::vector<ScoredNetwork> TopKRegular(int k, GeneratorStats* stats = nullptr,
                                         GeneratorTrace* trace = nullptr) const;

  /// Exhaustive enumeration of every MTJN with at most `max_nodes` relations
  /// (exponential; test oracle for the strategies above).
  std::vector<ScoredNetwork> EnumerateAll(int max_nodes) const;

  /// Algorithm 3: optimistic upper bound on the weight of any MTJN expandable
  /// from `jn`, using the all-pairs best-path table (view edges square-rooted)
  /// and, when mapping scores are enabled, candidate mapping factors.
  double PotentialEstimate(const JoinNetwork& jn) const;

 private:
  enum class Strategy { kOurs, kRightmost, kRegular };
  std::vector<ScoredNetwork> Run(int k, Strategy strategy,
                                 GeneratorStats* stats,
                                 GeneratorTrace* trace) const;

  const ExtendedViewGraph* graph_;
  GeneratorConfig config_;
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_MTJN_GENERATOR_H_
