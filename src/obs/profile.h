#ifndef SFSQL_OBS_PROFILE_H_
#define SFSQL_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

namespace sfsql::obs {

/// Access path one table of a profiled execution took (a compressed
/// exec::TableAccessExplain — enough to answer "why was this query slow"
/// without holding the full plan alive).
struct ProfileAccessPath {
  std::string binding;
  std::string relation;
  std::string access;  ///< "index_scan" | "index_join" | "table_scan"
  uint64_t table_rows = 0;
  uint64_t estimated_rows = 0;
  uint64_t chunks_total = 0;
  uint64_t chunks_pruned = 0;
};

/// One query's end-to-end profile record: what the engine did for one
/// Translate or Execute call. Captured always-on into a QueryProfileStore
/// (EngineConfig::profiles); exported as JSON and queryable through the
/// sys_queries virtual relation (core/introspection).
struct QueryProfile {
  uint64_t id = 0;           ///< global claim order, 1-based (store-assigned)
  uint64_t start_nanos = 0;  ///< clock reading when the call began
  std::string kind;          ///< "translate" | "execute"
  std::string statement;     ///< the schema-free text as submitted
  std::string fingerprint;   ///< canonical-structure hex fingerprint ("" when
                             ///< the call never canonicalized, e.g. tier-2 hits)
  bool ok = true;
  std::string error;       ///< status message when !ok
  std::string cache_tier;  ///< "tier2" | "tier1" | "miss" | "off"
  double latency_seconds = 0.0;  ///< end-to-end (translate + execute)

  // Translate phase breakdown (TranslateStats; all zero on cache hits, which
  // skip the pipeline).
  double parse_seconds = 0.0;
  double map_seconds = 0.0;
  double graph_seconds = 0.0;
  double generate_seconds = 0.0;
  double compose_seconds = 0.0;
  double execute_seconds = 0.0;  ///< kind == "execute" only

  // Condition-satisfiability probes of the call, by answer path.
  long long sat_index_probes = 0;
  long long sat_scan_probes = 0;

  long long translations = 0;   ///< ranked candidates returned
  uint64_t rows_scanned = 0;    ///< base rows read from storage (execute)
  uint64_t rows_returned = 0;   ///< result rows materialized (execute)
  uint64_t chunks_total = 0;    ///< chunks of the planned tables (execute)
  uint64_t chunks_pruned = 0;   ///< chunks zone-map pruning skipped (execute)

  /// Per-table access paths of the top-level executed block (empty for pure
  /// translations and legacy-fold executions).
  std::vector<ProfileAccessPath> access_paths;

  /// Embedded trace (span forest, Tracer::WriteForestJson shape). Filled only
  /// for pipeline runs — cache hits carry no phase provenance.
  std::vector<SpanRecord> spans;

  void WriteJson(JsonWriter& w) const;
};

/// Bounded, sharded ring buffer of QueryProfile records — the always-on
/// profile sink behind EngineConfig::profiles.
///
/// Writers never block and never wait on each other: a writer claims a slot
/// with one relaxed fetch_add on its shard's cursor (shards are picked by the
/// caller's thread, the obs metric-shard assignment, so serving threads
/// rarely share a cursor cache line), takes the slot's try-lock, and moves
/// the record in. The only lock hold is the move itself; if the try-lock is
/// already taken (a reader copying the slot, or a wrapped-around writer), the
/// record is skipped and counted in skipped() rather than waited for —
/// capture must never add latency to the serving path. Old records are
/// overwritten ring-style; every overwrite counts in evicted().
///
/// Readers (Snapshot / WriteJson) spin-acquire each slot briefly to copy it;
/// they are expected to be rare (periodic stats snapshots, sys_queries).
class QueryProfileStore {
 public:
  /// `capacity` is the total record bound across all shards (rounded up to a
  /// multiple of `num_shards`).
  explicit QueryProfileStore(size_t capacity = 4096, size_t num_shards = 8);

  QueryProfileStore(const QueryProfileStore&) = delete;
  QueryProfileStore& operator=(const QueryProfileStore&) = delete;

  /// Stores `profile`, assigning its global id. Wait-free for writers up to
  /// the slot try-lock; never blocks.
  void Record(QueryProfile&& profile);

  /// All currently live records, ascending id order.
  std::vector<QueryProfile> Snapshot() const;

  uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  /// Older records overwritten by ring wrap-around.
  uint64_t evicted() const { return evicted_.load(std::memory_order_relaxed); }
  /// Records never stored because their slot was busy (slot contention).
  uint64_t skipped() const { return skipped_.load(std::memory_order_relaxed); }
  size_t capacity() const { return capacity_; }

  /// {"capacity": .., "recorded": .., "evicted": .., "skipped": ..,
  ///  "profiles": [..]}.
  void WriteJson(JsonWriter& w) const;
  std::string ToJson(bool pretty = false) const;

 private:
  struct Slot {
    mutable std::atomic_flag lock = ATOMIC_FLAG_INIT;
    bool filled = false;
    QueryProfile value;
  };
  struct alignas(64) Shard {
    std::atomic<uint64_t> cursor{0};
    std::vector<Slot> slots;
  };

  size_t capacity_;
  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> evicted_{0};
  std::atomic<uint64_t> skipped_{0};
};

}  // namespace sfsql::obs

#endif  // SFSQL_OBS_PROFILE_H_
