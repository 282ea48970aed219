#ifndef SFSQL_CORE_ENGINE_H_
#define SFSQL_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/composer.h"
#include "core/config.h"
#include "core/explain.h"
#include "core/mapper.h"
#include "core/mtjn_generator.h"
#include "core/relation_tree.h"
#include "core/view_graph.h"
#include "exec/executor.h"
#include "storage/database.h"

namespace sfsql::obs {
struct QueryProfile;
}  // namespace sfsql::obs

namespace sfsql::core {

/// Pre-resolved metric handles for the translate pipeline (engine.cc); exists
/// only when EngineConfig::metrics is set, so a metrics-off engine carries a
/// null pointer and runs zero instrumentation code.
struct PipelineMetrics;

class PlanCache;        // core/plan_cache.h
struct PlanCacheStats;  // core/plan_cache.h
struct PlanCacheEntry;  // core/plan_cache.h

/// Structural summary of the join network behind a translation; the
/// effectiveness harness compares this against the gold query's join tree.
struct NetworkSummary {
  std::vector<int> relations;  ///< relation ids, sorted (with multiplicity)
  std::vector<int> fk_edges;   ///< FK ids crossed, sorted (with multiplicity)

  bool operator==(const NetworkSummary& other) const = default;
};

/// One candidate interpretation of a schema-free query.
struct Translation {
  sql::SelectPtr statement;  ///< fully specified SQL
  std::string sql;           ///< printed form of `statement`
  double weight = 0.0;       ///< join-network weight (Definition 7, plus
                             ///< mapping factors when enabled)
  NetworkSummary network;
  std::string network_text;  ///< human-readable join network
};

/// Wall-clock phase breakdown and cache counters for one Translate call.
/// Phases cover the outermost block; subquery translation (always k = 1) is
/// folded into compose_seconds. Cache counters are deltas over the engine's
/// shared similarity cache, so they attribute cross-query reuse to the call
/// that benefited.
struct TranslateStats {
  double parse_seconds = 0.0;
  double map_seconds = 0.0;       ///< tree extraction + mapping + consolidation
  double graph_seconds = 0.0;     ///< query views + extended view graph build
  double generate_seconds = 0.0;  ///< top-k MTJN generation
  double compose_seconds = 0.0;   ///< SQL composition, subqueries, printing
  long long cache_hits = 0;       ///< similarity-cache hits during the call
  long long cache_misses = 0;     ///< similarity-cache misses during the call
  GeneratorStats generator;       ///< counters/timings from the MTJN generator

  // Condition-satisfiability deltas of the call (the §4.3 probe layer; see
  // README "Storage indexes"): how probes were answered and what index build
  // work the call triggered. Note the database's index counters are shared by
  // every engine probing it, so concurrent engines on one database attribute
  // each other's probes loosely (the usual single-engine setup is exact).
  long long sat_index_probes = 0;   ///< answered by a column index (value + LIKE)
  long long sat_scan_probes = 0;    ///< answered by a fallback full scan
  long long sat_memo_hits = 0;      ///< answered from the mapper's memo
  long long sat_memo_misses = 0;    ///< memo misses (computed then cached)
  long long index_builds = 0;       ///< column indexes (re)built during the call
  double index_build_seconds = 0.0; ///< wall time of those builds
  long long like_candidates_verified = 0;  ///< LikeMatch calls surviving the
                                           ///< trigram pre-filter

  // Plan-cache outcome of this call (see README "Serving & plan cache"). At
  // most one of the three is 1; all stay 0 when the cache is disabled or
  // bypassed (EXPLAIN calls).
  long long plan_tier2_hits = 0;  ///< served verbatim: exact text + data epoch
  long long plan_tier1_hits = 0;  ///< served by literal substitution into a
                                  ///< cached structure (probe signature match)
  long long plan_misses = 0;      ///< cache enabled but the pipeline ran
};

/// The end-to-end Schema-free SQL system (Fig. 3): parser → relation tree
/// mapper → network builder → standard SQL composer, with optional evaluation
/// of the best translation on the in-memory database.
///
/// Typical use:
///   SchemaFreeEngine engine(&db);
///   engine.AddViewFromSql("SELECT ... full SQL from the query log ...");
///   auto translations = engine.Translate(
///       "SELECT count(actor?.name?) WHERE director_name? = 'James Cameron'",
///       /*k=*/10);
///   auto result = engine.Execute("SELECT title? WHERE genre? = 'Drama'");
class SchemaFreeEngine {
 public:
  explicit SchemaFreeEngine(const storage::Database* db,
                            EngineConfig config = {});
  ~SchemaFreeEngine();

  /// Registers a query-log entry: its join tree becomes a view (§5.1, Fig. 5).
  /// Queries over fewer than two relations are ignored (OK is returned).
  Status AddViewFromSql(std::string_view full_sql);

  /// Registers a hand-built view.
  Status AddView(View view);

  void ClearViews();
  const ViewGraph& view_graph() const { return views_; }
  const RelationTreeMapper& mapper() const { return mapper_; }
  /// The engine's name-similarity memo (for its hit/miss/eviction counters; a
  /// capacity of 0 in EngineConfig makes it a counting pass-through).
  const text::SimilarityCache& similarity_cache() const { return sim_cache_; }
  /// Lookup/eviction/occupancy counters of the translation plan cache
  /// (all-zero when EngineConfig::plan_cache_enabled is false).
  PlanCacheStats plan_cache_stats() const;
  /// Decoded live plan-cache entries (empty when the cache is disabled);
  /// feeds the sys_plan_cache virtual relation.
  std::vector<PlanCacheEntry> plan_cache_snapshot() const;
  /// The engine's resolved configuration (introspection reads the profile
  /// store and thresholds from here).
  const EngineConfig& config() const { return config_; }
  /// Precomputed profiles of every relation and attribute name in the catalog.
  const text::SchemaNameIndex& name_index() const { return name_index_; }
  /// The engine-owned work-stealing pool execution morsels run on; null when
  /// the engine is single-threaded (max(num_threads, exec_threads) <= 1).
  /// Feeds sys_pool and serve_driver stats.
  const exec::TaskPool* task_pool() const { return pool_.get(); }

  /// Translates a schema-free SELECT into up to `k` full-SQL candidates,
  /// best first. Nested blocks are translated outermost-first (§2.2.5); inner
  /// blocks always take their best interpretation.
  Result<std::vector<Translation>> Translate(std::string_view sfsql,
                                             int k) const;

  /// As above, but additionally fills `*stats` with the phase timings, the
  /// generator's counters, and the similarity-cache hit/miss deltas of this
  /// call.
  Result<std::vector<Translation>> Translate(std::string_view sfsql, int k,
                                             TranslateStats* stats) const;

  /// Translation EXPLAIN mode: as Translate, but additionally collects full
  /// provenance into `*explain` — every relation tree's candidate relations
  /// with similarity scores and attribute bindings (the chosen top-1
  /// candidates marked), the generator's per-root searches with their pruning
  /// bounds and expanded/pruned counts, per-phase wall times, and the ranked
  /// results. On failure the translation error lands in explain->error and
  /// the provenance collected up to the failing phase is kept.
  Result<std::vector<Translation>> TranslateExplained(
      std::string_view sfsql, int k, TranslationExplain* explain) const;

  /// Translates with k = 1 and returns the single best interpretation.
  Result<Translation> TranslateBest(std::string_view sfsql) const;

  /// Translates (top 1) and evaluates on the database.
  Result<exec::QueryResult> Execute(std::string_view sfsql) const;

 private:
  /// Copies the engine-level clock into the generator config so the whole
  /// engine is tuned from one place, and resolves exec_threads (0 = inherit
  /// num_threads).
  static EngineConfig ResolveConfig(EngineConfig config) {
    config.gen.clock = config.clock;
    if (config.exec_threads <= 0) {
      config.exec_threads = config.num_threads > 1 ? config.num_threads : 1;
    }
    return config;
  }

  /// Every relation and attribute name of the catalog (the strings the mapper
  /// compares every query token against).
  static std::vector<std::string> SchemaNames(const catalog::Catalog& catalog);

  /// Memoized MAP(rt): delegates to mapper_.Map and caches the result keyed by
  /// the tree's canonical printed form (NameRef kinds, conditions and LIKE
  /// escapes all round-trip through ToString, so equal keys imply equal
  /// mappings). Disabled when config_.mapping_cache_capacity == 0.
  MappingSet CachedMap(const RelationTree& rt) const;

  /// Shared body of Translate / TranslateExplained: parse + outer-block
  /// translation + cache-delta accounting + metrics publishing + profile
  /// capture + slow log. When EngineConfig::profiles is set (and the call is
  /// not an EXPLAIN), the call's QueryProfile is recorded as kind
  /// "translate" — unless `profile_out` is non-null, in which case the
  /// profile is handed to the caller instead (Execute extends it with the
  /// run phase and records it once, as kind "execute").
  Result<std::vector<Translation>> TranslateImpl(
      std::string_view sfsql, int k, TranslateStats* stats,
      TranslationExplain* explain,
      obs::QueryProfile* profile_out = nullptr) const;

  Result<std::vector<Translation>> TranslateStatement(
      sql::SelectStatement& stmt, const std::vector<std::string>& outer_bindings,
      int k, TranslateStats* stats = nullptr,
      TranslationExplain* explain = nullptr) const;

  /// Merges relation trees that clearly denote the same relation instance:
  /// an unspecified-relation tree is absorbed into a FROM-clause tree whose
  /// top-mapped relation matches (standard SQL scoping of unqualified
  /// columns), and two unspecified trees with the same top-mapped relation
  /// collapse into one (e.g. bare "title?" and "year?" both meaning the one
  /// Movie of the query). Trees whose relation the user *named* are never
  /// touched — Fig. 2's director_name? must stay a second Person. Rewrites the
  /// statement's annotations and recomputes the affected mappings.
  void ConsolidateTrees(sql::SelectStatement& stmt, Extraction& extraction,
                        std::vector<MappingSet>& mappings) const;

  /// Translates every subquery of `stmt` in place (best interpretation),
  /// with `bindings` naming the enclosing blocks' FROM bindings.
  Status TranslateSubqueries(sql::SelectStatement& stmt,
                             const std::vector<std::string>& bindings) const;

  /// Turns the user's partial join path fragments into per-query views over
  /// the top-mapped relations, returning a ViewGraph that also contains all
  /// persistent views.
  ViewGraph ViewsForQuery(const Extraction& extraction,
                          const std::vector<MappingSet>& mappings) const;

  const storage::Database* db_;
  EngineConfig config_;
  /// One work-stealing pool per engine (exec/task_pool), shared by every
  /// Execute's morsel loops; sized max(num_threads, exec_threads) - 1
  /// workers, null when that is 0.
  /// Declared before everything that may reference it so it is destroyed
  /// last (after all users are gone).
  std::unique_ptr<exec::TaskPool> pool_;
  /// Null when config_.metrics is null (metrics off). Resolved once at
  /// construction so Translate never touches the registry's lock.
  std::unique_ptr<PipelineMetrics> metrics_;
  /// Declared before mapper_, which holds pointers into both. The cache is
  /// mutable because memoization is not observable through the similarity
  /// scores (and SimilarityCache is internally synchronized).
  text::SchemaNameIndex name_index_;
  mutable text::SimilarityCache sim_cache_;
  RelationTreeMapper mapper_;
  ViewGraph views_;
  /// Memoized MAP(rt) results (see CachedMap). Guarded by map_cache_mu_ so a
  /// const engine stays safe to Translate from several threads. Entries carry
  /// the database epoch at compute time: mapping scores read the stored data
  /// through the satisfiability probes, so a data change invalidates them.
  mutable std::mutex map_cache_mu_;
  mutable std::unordered_map<std::string, std::pair<uint64_t, MappingSet>>
      map_cache_;
  /// Two-tier translation plan cache (null when disabled by config). Cleared
  /// whenever the view set changes — view weights shape every ranked list.
  std::unique_ptr<PlanCache> plan_cache_;
};

}  // namespace sfsql::core

#endif  // SFSQL_CORE_ENGINE_H_
