#include "obs/profile.h"

#include <algorithm>
#include <thread>

#include "obs/metrics.h"

namespace sfsql::obs {

void QueryProfile::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.KV("id", static_cast<unsigned long long>(id));
  w.KV("start_nanos", static_cast<unsigned long long>(start_nanos));
  w.KV("kind", kind);
  w.KV("statement", statement);
  if (!fingerprint.empty()) w.KV("fingerprint", fingerprint);
  w.KV("ok", ok);
  if (!ok) w.KV("error", error);
  w.KV("cache_tier", cache_tier);
  w.KV("latency_ms", latency_seconds * 1e3);
  w.KV("parse_ms", parse_seconds * 1e3);
  w.KV("map_ms", map_seconds * 1e3);
  w.KV("graph_ms", graph_seconds * 1e3);
  w.KV("generate_ms", generate_seconds * 1e3);
  w.KV("compose_ms", compose_seconds * 1e3);
  w.KV("execute_ms", execute_seconds * 1e3);
  w.KV("sat_index_probes", sat_index_probes);
  w.KV("sat_scan_probes", sat_scan_probes);
  w.KV("translations", translations);
  w.KV("rows_scanned", static_cast<unsigned long long>(rows_scanned));
  w.KV("rows_returned", static_cast<unsigned long long>(rows_returned));
  w.KV("chunks_total", static_cast<unsigned long long>(chunks_total));
  w.KV("chunks_pruned", static_cast<unsigned long long>(chunks_pruned));
  if (!access_paths.empty()) {
    w.Key("access_paths");
    w.BeginArray();
    for (const ProfileAccessPath& p : access_paths) {
      w.BeginObject();
      w.KV("binding", p.binding);
      w.KV("relation", p.relation);
      w.KV("access", p.access);
      w.KV("table_rows", static_cast<unsigned long long>(p.table_rows));
      w.KV("estimated_rows", static_cast<unsigned long long>(p.estimated_rows));
      w.KV("chunks_total", static_cast<unsigned long long>(p.chunks_total));
      w.KV("chunks_pruned", static_cast<unsigned long long>(p.chunks_pruned));
      w.EndObject();
    }
    w.EndArray();
  }
  if (!spans.empty()) {
    w.Key("trace");
    Tracer::WriteForestJson(spans, w);
  }
  w.EndObject();
}

QueryProfileStore::QueryProfileStore(size_t capacity, size_t num_shards)
    : capacity_(0), num_shards_(num_shards == 0 ? 1 : num_shards) {
  if (capacity == 0) capacity = 1;
  const size_t per_shard = (capacity + num_shards_ - 1) / num_shards_;
  capacity_ = per_shard * num_shards_;
  shards_ = std::make_unique<Shard[]>(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    shards_[s].slots = std::vector<Slot>(per_shard);
  }
}

void QueryProfileStore::Record(QueryProfile&& profile) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  profile.id = next_id_.fetch_add(1, kRelaxed) + 1;
  Shard& shard = shards_[ThisThreadShard() % num_shards_];
  const uint64_t idx =
      shard.cursor.fetch_add(1, kRelaxed) % shard.slots.size();
  Slot& slot = shard.slots[idx];
  if (slot.lock.test_and_set(std::memory_order_acquire)) {
    // Someone is copying (or wrapped onto) this slot right now. Skipping is
    // cheaper than waiting — capture must never stall the serving path.
    skipped_.fetch_add(1, kRelaxed);
    return;
  }
  if (slot.filled) evicted_.fetch_add(1, kRelaxed);  // ring overwrite
  slot.filled = true;
  slot.value = std::move(profile);
  slot.lock.clear(std::memory_order_release);
  recorded_.fetch_add(1, kRelaxed);
}

std::vector<QueryProfile> QueryProfileStore::Snapshot() const {
  std::vector<QueryProfile> out;
  for (size_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    for (const Slot& slot : shard.slots) {
      // Spin-acquire: writers hold the flag only for one move, so this is
      // bounded; a blocked writer meanwhile drops instead of waiting on us.
      while (slot.lock.test_and_set(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (slot.filled) out.push_back(slot.value);
      slot.lock.clear(std::memory_order_release);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const QueryProfile& a, const QueryProfile& b) {
              return a.id < b.id;
            });
  return out;
}

void QueryProfileStore::WriteJson(JsonWriter& w) const {
  const std::vector<QueryProfile> profiles = Snapshot();
  w.BeginObject();
  w.KV("capacity", static_cast<unsigned long long>(capacity_));
  w.KV("recorded", static_cast<unsigned long long>(recorded()));
  w.KV("evicted", static_cast<unsigned long long>(evicted()));
  w.KV("skipped", static_cast<unsigned long long>(skipped()));
  w.Key("profiles");
  w.BeginArray();
  for (const QueryProfile& p : profiles) p.WriteJson(w);
  w.EndArray();
  w.EndObject();
}

std::string QueryProfileStore::ToJson(bool pretty) const {
  JsonWriter w(pretty);
  WriteJson(w);
  return w.TakeString();
}

}  // namespace sfsql::obs
