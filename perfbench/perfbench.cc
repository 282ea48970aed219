// End-to-end benchmark of schema-free query serving.
//
//   sfsql_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <dir>]
//
// Drives the public engine API (SchemaFreeEngine::Execute / Translate,
// Database::InsertRows) with one of four workloads, checks every distinct
// request against a reference engine (plan cache off, serial execution), and
// prints one JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
// traced rounds and reports the per-layer metrics derived from spans recorded
// around the calls into each layer, plus the tracing overhead. README.md in
// this directory documents the workloads and the layer -> metric map.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/plan_cache.h"
#include "exec/executor.h"
#include "exec/task_pool.h"
#include "obs/json.h"
#include "storage/database.h"
#include "workloads/course.h"
#include "workloads/datagen.h"
#include "workloads/deriver.h"
#include "workloads/metrics.h"
#include "workloads/movie43.h"
#include "workloads/schema_builder.h"
#include "workloads/serving.h"

namespace sfsql::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ------------------------------------------------------------------ inputs

/// One distinct request of a workload: schema-free (or full) SQL sent to
/// engine `engine` of the fixture, with the gold full SQL its top-1
/// translation should match ("" = no gold query).
struct Request {
  std::string label;
  std::string text;
  int engine = 0;
  std::string gold;
};

/// Databases plus the engines serving them (engines[i] serves dbs[i]).
struct Fixture {
  std::vector<std::unique_ptr<storage::Database>> dbs;
  std::vector<std::unique_ptr<core::SchemaFreeEngine>> engines;
};

/// A relation ingest_mix writes into, with the initial rows new rows are
/// drawn from column by column (so values stay in-domain and foreign keys
/// reference existing rows).
struct InsertTarget {
  int relation = -1;
  int fresh_key_attr = -1;  ///< single integer primary key, else -1
  std::vector<storage::Row> pool;
};

constexpr int kRowsPerWrite = 16;

struct Workload {
  std::string name;
  int clients = 1;
  /// 0: each read is SchemaFreeEngine::Execute; > 0: Translate at this k.
  int k = 0;
  /// Share of each client's requests that are InsertRows batches (of
  /// kRowsPerWrite rows) instead of reads.
  double write_share = 0.0;
  /// Zipf(1.0) popularity over `requests` (in list order), rounds cut at the
  /// run's deadline; otherwise every round is one pass over the list in a
  /// seeded order.
  bool zipf = false;
  /// Rebuild the fixture before every round, so the data grown by writes
  /// does not accumulate across the run (ingest_mix).
  bool fresh_fixture_per_round = false;
  long long requests_per_round = 0;  ///< per client, Zipf workloads
  core::EngineConfig config;
  std::vector<Request> requests;
  std::vector<std::string> insert_relations;
  std::function<std::vector<std::unique_ptr<storage::Database>>()> build_dbs;
};

core::EngineConfig ReferenceConfig() {
  core::EngineConfig config;
  config.plan_cache_enabled = false;
  config.num_threads = 1;
  config.exec_threads = 1;
  return config;
}

std::vector<Request> Movie43Requests(int variants_per_query) {
  // ServingRequests(v) lists each of the 53 movie43 queries followed by its
  // v - 1 literal variants; only the originals have a gold query.
  std::vector<std::string> golds;
  std::vector<std::string> ids;
  for (const workloads::BenchQuery& q : workloads::TextbookQueries()) {
    golds.push_back(q.gold_sql);
    ids.push_back(q.id);
  }
  for (const workloads::BenchQuery& q : workloads::SophisticatedQueries()) {
    golds.push_back(q.gold_sql);
    ids.push_back(q.id);
  }
  for (int i = 0; i < 6; ++i) {
    const workloads::BenchQuery& q = workloads::SophisticatedQueries()[i];
    for (size_t u = 0; u < workloads::UserVariants(i).size(); ++u) {
      golds.push_back(q.gold_sql);
      ids.push_back(q.id + "u" + std::to_string(u + 1));
    }
  }
  // Walk the expanded list against the originals: an entry equal to the
  // next original starts that query, anything else is a variant.
  const std::vector<std::string> base = workloads::ServingRequests(1);
  std::vector<Request> out;
  size_t q = 0;
  int variant = 0;
  for (const std::string& text : workloads::ServingRequests(variants_per_query)) {
    if (out.empty()) {
      variant = 0;
    } else if (q + 1 < base.size() && text == base[q + 1]) {
      ++q;
      variant = 0;
    } else {
      ++variant;
    }
    Request r;
    r.text = text;
    r.label = ids[q] + (variant == 0 ? "" : "v" + std::to_string(variant));
    if (variant == 0) r.gold = golds[q];
    out.push_back(std::move(r));
  }
  return out;
}

std::unique_ptr<storage::Database> BuildStarDb() {
  workloads::SchemaBuilder b;
  b.Rel("Customer", "customer_id:int*, name:str, city:str, signup_year:int");
  b.Rel("Product", "product_id:int*, title:str, category:str, shelf_level:int");
  b.Rel("Store", "store_id:int*, city:str, opened_year:int");
  b.Rel("Orders",
        "order_id:int*, customer_id:int, product_id:int, store_id:int, "
        "order_year:int, quantity:int");
  b.Fk("Orders.customer_id", "Customer.customer_id");
  b.Fk("Orders.product_id", "Product.product_id");
  b.Fk("Orders.store_id", "Store.store_id");
  auto db = std::make_unique<storage::Database>(b.Build());
  workloads::DataGenerator gen(2014);
  if (!gen.Populate(db.get(), 100,
                    {{"Orders", 250000}, {"Customer", 12500}, {"Product", 5000}})
           .ok()) {
    return nullptr;
  }
  return db;
}

/// Scan, join and group-by queries over the star schema; the schema-free
/// ones carry the full SQL they should translate to. Thirteen queries, so
/// that with whole passes p50, p90 and p99 each fall inside one query's
/// share of the samples rather than on a boundary between two.
std::vector<Request> StarRequests() {
  const std::pair<const char*, const char*> queries[] = {
      {"SELECT COUNT(*) FROM Orders WHERE quantity > 300", ""},
      {"SELECT Store.city, COUNT(*), SUM(Orders.quantity) FROM Orders, Store "
       "WHERE Orders.store_id = Store.store_id GROUP BY Store.city",
       ""},
      {"SELECT order_year, COUNT(*) FROM Orders WHERE quantity < 100 "
       "GROUP BY order_year",
       ""},
      {"SELECT MAX(Orders.order_year) FROM Orders, Customer "
       "WHERE Orders.customer_id = Customer.customer_id "
       "AND Customer.city = 'Kyoto'",
       ""},
      {"SELECT COUNT(*), MAX(quantity) FROM Orders "
       "WHERE order_id BETWEEN 100000 AND 104000",
       ""},
      {"SELECT category?, count(order_id?) WHERE store?.city? = 'Oslo' "
       "GROUP BY category?",
       "SELECT Product.category, COUNT(Orders.order_id) "
       "FROM Product, Orders, Store "
       "WHERE Orders.product_id = Product.product_id "
       "AND Orders.store_id = Store.store_id AND Store.city = 'Oslo' "
       "GROUP BY Product.category"},
      {"SELECT sum(quantity?) WHERE customer?.city? = 'Lisbon'",
       "SELECT SUM(Orders.quantity) FROM Orders, Customer "
       "WHERE Orders.customer_id = Customer.customer_id "
       "AND Customer.city = 'Lisbon'"},
      {"SELECT title?, count(order_id?) WHERE category? = 'Drama' "
       "AND order_year? = 2001 GROUP BY title?",
       "SELECT Product.title, COUNT(Orders.order_id) FROM Product, Orders "
       "WHERE Orders.product_id = Product.product_id "
       "AND Product.category = 'Drama' AND Orders.order_year = 2001 "
       "GROUP BY Product.title"},
      {"SELECT avg(quantity?) WHERE opened_year? < 1960",
       "SELECT AVG(Orders.quantity) FROM Orders, Store "
       "WHERE Orders.store_id = Store.store_id AND Store.opened_year < 1960"},
      {"SELECT name?, signup_year? WHERE customer?.customer_id? = 4242",
       "SELECT Customer.name, Customer.signup_year FROM Customer "
       "WHERE Customer.customer_id = 4242"},
      {"SELECT order_year?, max(quantity?) WHERE customer?.name? = "
       "'Priya Patel' GROUP BY order_year?",
       "SELECT Orders.order_year, MAX(Orders.quantity) FROM Orders, Customer "
       "WHERE Orders.customer_id = Customer.customer_id "
       "AND Customer.name = 'Priya Patel' GROUP BY Orders.order_year"},
      {"SELECT COUNT(*) FROM Orders, Product "
       "WHERE Orders.product_id = Product.product_id "
       "AND Product.shelf_level = 3",
       ""},
      {"SELECT category?, avg(quantity?) WHERE order_year? >= 2020 "
       "GROUP BY category?",
       "SELECT Product.category, AVG(Orders.quantity) FROM Product, Orders "
       "WHERE Orders.product_id = Product.product_id "
       "AND Orders.order_year >= 2020 GROUP BY Product.category"},
  };
  std::vector<Request> out;
  int i = 0;
  for (const auto& [text, gold] : queries) {
    Request r;
    r.label = "A" + std::to_string(++i);
    r.text = text;
    r.gold = gold;
    out.push_back(std::move(r));
  }
  return out;
}

/// The 53 movie43 queries (engine 0) followed by the 48 course53 queries
/// derived schema-free from their gold SQL (engine 1).
std::vector<Request> AdhocRequests(const catalog::Catalog& course53) {
  std::vector<Request> out = Movie43Requests(1);
  for (const workloads::CourseQuery& q : workloads::CourseQueries()) {
    auto sf = workloads::DeriveSchemaFree(course53, q.gold_sql53);
    if (!sf.ok()) continue;
    Request r;
    r.label = "C" + q.id;
    r.text = *sf;
    r.engine = 1;
    r.gold = q.gold_sql53;
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<std::unique_ptr<storage::Database>> Movie43Db() {
  std::vector<std::unique_ptr<storage::Database>> dbs;
  dbs.push_back(workloads::BuildMovie43(42, 60));
  return dbs;
}

bool MakeWorkload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "serve_zipf" || name == "ingest_mix") {
    w->clients = 4;
    w->zipf = true;
    w->requests = Movie43Requests(6);
    w->requests_per_round = 2000;
    w->build_dbs = Movie43Db;
    if (name == "ingest_mix") {
      w->write_share = 0.1;
      w->fresh_fixture_per_round = true;
      w->requests_per_round = 400;
      // Every one of these is joined by some served read's top-1 network.
      w->insert_relations = {"Review",      "Actor",         "Movie_Genre",
                             "Director",    "Movie_Financer", "Movie_Producer",
                             "Movie_Award", "Person_Award"};
    }
    return true;
  }
  if (name == "adhoc_translate") {
    w->k = 10;
    w->config.num_threads = 4;
    w->config.plan_cache_enabled = false;
    w->build_dbs = [] {
      std::vector<std::unique_ptr<storage::Database>> dbs = Movie43Db();
      dbs.push_back(workloads::BuildCourse53());
      return dbs;
    };
    w->requests = AdhocRequests(workloads::BuildCourse53()->catalog());
    return true;
  }
  if (name == "analytic_star") {
    w->config.num_threads = 4;
    w->requests = StarRequests();
    w->build_dbs = [] {
      std::vector<std::unique_ptr<storage::Database>> dbs;
      dbs.push_back(BuildStarDb());
      return dbs;
    };
    return true;
  }
  return false;
}

std::vector<std::unique_ptr<core::SchemaFreeEngine>> MakeEngines(
    const std::vector<std::unique_ptr<storage::Database>>& dbs,
    const core::EngineConfig& config) {
  std::vector<std::unique_ptr<core::SchemaFreeEngine>> engines;
  for (const auto& db : dbs) {
    engines.push_back(std::make_unique<core::SchemaFreeEngine>(db.get(), config));
  }
  return engines;
}

std::vector<InsertTarget> MakeInsertTargets(const Workload& w,
                                            const storage::Database& db) {
  std::vector<InsertTarget> targets;
  for (const std::string& name : w.insert_relations) {
    auto id = db.catalog().FindRelation(name);
    if (!id.ok()) continue;
    InsertTarget t;
    t.relation = *id;
    const catalog::Relation& rel = db.catalog().relation(*id);
    if (rel.primary_key.size() == 1 &&
        rel.attributes[rel.primary_key[0]].type == catalog::ValueType::kInt64) {
      t.fresh_key_attr = rel.primary_key[0];
    }
    const storage::Table& table = db.table(*id);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      storage::Row row;
      for (size_t a = 0; a < table.num_attrs(); ++a) row.push_back(table.at(r, a));
      t.pool.push_back(std::move(row));
    }
    if (!t.pool.empty()) targets.push_back(std::move(t));
  }
  return targets;
}

// ------------------------------------------------------------ measurement

/// What one call returned, kept per distinct request for the reference check.
struct Answer {
  bool present = false;
  bool ok = false;
  exec::QueryResult rows;         ///< Execute requests
  std::vector<std::string> sqls;  ///< Translate requests: ranked SQL list
};

enum SpanName : uint8_t { kRequest, kTranslate, kExecute, kInsert, kNumSpanNames };
const char* const kSpanNames[kNumSpanNames] = {"request", "translate",
                                               "execute", "insert"};

struct Span {
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index in the same client's span list, -1 = root
  SpanName name = kRequest;
};

/// Sums of the stats structs the layers return, over traced calls.
struct LayerSums {
  long long translates = 0;
  double parse_s = 0, map_s = 0, graph_s = 0, generate_s = 0, compose_s = 0;
  long long sim_hits = 0, sim_misses = 0;
  long long tier2_hits = 0, tier1_hits = 0, plan_misses = 0;
  long long sat_index = 0, sat_scan = 0, memo_hits = 0, memo_misses = 0;
  long long gen_pushed = 0, gen_pruned = 0, gen_expansions = 0;
  double gen_search_s = 0, gen_root_sum_s = 0;
  long long executes = 0;
  uint64_t rows_scanned = 0, rows_returned = 0;
  uint64_t index_scans = 0, table_scans = 0;
  uint64_t chunks_total = 0, chunks_pruned = 0;

  void Add(const core::TranslateStats& s) {
    ++translates;
    parse_s += s.parse_seconds;
    map_s += s.map_seconds;
    graph_s += s.graph_seconds;
    generate_s += s.generate_seconds;
    compose_s += s.compose_seconds;
    sim_hits += s.cache_hits;
    sim_misses += s.cache_misses;
    tier2_hits += s.plan_tier2_hits;
    tier1_hits += s.plan_tier1_hits;
    plan_misses += s.plan_misses;
    sat_index += s.sat_index_probes;
    sat_scan += s.sat_scan_probes;
    memo_hits += s.sat_memo_hits;
    memo_misses += s.sat_memo_misses;
    gen_pushed += s.generator.pushed;
    gen_pruned += s.generator.pruned;
    gen_expansions += s.generator.expansions;
    gen_search_s += s.generator.search_seconds;
    gen_root_sum_s += s.generator.root_seconds_sum;
  }
  void Add(const exec::ExecInfo& info) {
    ++executes;
    rows_scanned += info.stats.rows_scanned;
    rows_returned += info.rows_returned;
    index_scans += info.stats.index_scans;
    table_scans += info.stats.table_scans;
    for (const exec::TableAccessExplain& t : info.access_paths) {
      chunks_total += t.chunks_total;
      chunks_pruned += t.chunks_pruned;
    }
  }
  void Merge(const LayerSums& o) {
    translates += o.translates;
    parse_s += o.parse_s;
    map_s += o.map_s;
    graph_s += o.graph_s;
    generate_s += o.generate_s;
    compose_s += o.compose_s;
    sim_hits += o.sim_hits;
    sim_misses += o.sim_misses;
    tier2_hits += o.tier2_hits;
    tier1_hits += o.tier1_hits;
    plan_misses += o.plan_misses;
    sat_index += o.sat_index;
    sat_scan += o.sat_scan;
    memo_hits += o.memo_hits;
    memo_misses += o.memo_misses;
    gen_pushed += o.gen_pushed;
    gen_pruned += o.gen_pruned;
    gen_expansions += o.gen_expansions;
    gen_search_s += o.gen_search_s;
    gen_root_sum_s += o.gen_root_sum_s;
    executes += o.executes;
    rows_scanned += o.rows_scanned;
    rows_returned += o.rows_returned;
    index_scans += o.index_scans;
    table_scans += o.table_scans;
    chunks_total += o.chunks_total;
    chunks_pruned += o.chunks_pruned;
  }
};

/// Cumulative counters of the layers' shared state, summed over a fixture's
/// engines and databases; rounds report their difference.
struct Counters {
  uint64_t stale_evictions = 0;  ///< PlanCacheStats
  uint64_t index_builds = 0;     ///< ColumnIndexStats
  double index_build_s = 0;
  uint64_t pool_tasks = 0;  ///< TaskPoolStats
  uint64_t pool_steals = 0;
  uint64_t pool_idle_ms = 0;
  double pool_workers = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.stale_evictions = stale_evictions - o.stale_evictions;
    d.index_builds = index_builds - o.index_builds;
    d.index_build_s = index_build_s - o.index_build_s;
    d.pool_tasks = pool_tasks - o.pool_tasks;
    d.pool_steals = pool_steals - o.pool_steals;
    d.pool_idle_ms = pool_idle_ms - o.pool_idle_ms;
    d.pool_workers = pool_workers;
    return d;
  }
};

/// Everything measured over a set of rounds (untraced or traced ones).
struct Tally {
  double wall_ms = 0;
  /// Sum over clients of completed requests / the client's own busy time:
  /// the round's throughput without the wait for its last client.
  double client_qps = 0;
  bool complete = true;  ///< no client was cut short by the deadline
  long long attempted = 0;
  long long failed = 0;
  long long writes = 0;
  long long rows_written = 0;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<long long> served;     ///< per distinct request
  std::vector<double> request_ms;    ///< per distinct request, summed
  // Traced rounds only.
  std::vector<double> translate_ms;
  std::vector<double> execute_ms;
  double self_ms[kNumSpanNames] = {};
  LayerSums layers;
  Counters counters;             ///< deltas over the rounds
  double pool_capacity_ms = 0;  ///< pool workers x wall time

  void Merge(const Tally& o) {
    wall_ms += o.wall_ms;
    client_qps += o.client_qps;
    complete = complete && o.complete;
    attempted += o.attempted;
    failed += o.failed;
    writes += o.writes;
    rows_written += o.rows_written;
    read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    translate_ms.insert(translate_ms.end(), o.translate_ms.begin(),
                        o.translate_ms.end());
    execute_ms.insert(execute_ms.end(), o.execute_ms.begin(),
                      o.execute_ms.end());
    if (served.size() < o.served.size()) served.resize(o.served.size(), 0);
    if (request_ms.size() < o.request_ms.size()) {
      request_ms.resize(o.request_ms.size(), 0.0);
    }
    for (size_t i = 0; i < o.served.size(); ++i) served[i] += o.served[i];
    for (size_t i = 0; i < o.request_ms.size(); ++i) {
      request_ms[i] += o.request_ms[i];
    }
    for (int n = 0; n < kNumSpanNames; ++n) self_ms[n] += o.self_ms[n];
    layers.Merge(o.layers);
    counters.stale_evictions += o.counters.stale_evictions;
    counters.index_builds += o.counters.index_builds;
    counters.index_build_s += o.counters.index_build_s;
    counters.pool_tasks += o.counters.pool_tasks;
    counters.pool_steals += o.counters.pool_steals;
    counters.pool_idle_ms += o.counters.pool_idle_ms;
    pool_capacity_ms += o.pool_capacity_ms;
  }
};

/// One closed-loop client: it sends its next request only after the previous
/// one returned.
struct Client {
  Tally tally;
  std::vector<Span> spans;
  std::vector<Answer> first;  ///< first answer per distinct request
  uint64_t next_request_id = 0;
  int64_t next_key = 0;  ///< next fresh primary key for inserted rows
  bool cut = false;  ///< stopped at the deadline before its schedule ended
};

exec::ExecConfig ExecConfigOf(const core::SchemaFreeEngine& engine) {
  // Mirrors SchemaFreeEngine::Execute: same thread count, and the engine's
  // own pool (the engine keeps it non-const internally; the accessor only
  // exposes it read-only).
  exec::ExecConfig config;
  config.exec_threads = engine.config().exec_threads;
  config.pool = const_cast<exec::TaskPool*>(engine.task_pool());
  return config;
}

class Runner {
 public:
  Runner(const Workload& w, uint64_t seed) : w_(w), seed_(seed) {}

  /// Data generation + engine construction + one warm-up pass over every
  /// distinct request; returns its wall time in seconds.
  double Setup() {
    fixture_.reset();  // tearing the previous fixture down is not set-up
    const auto t0 = Clock::now();
    fixture_ = std::make_unique<Fixture>();
    fixture_->dbs = w_.build_dbs();
    for (const auto& db : fixture_->dbs) {
      if (db == nullptr) return -1.0;
    }
    fixture_->engines = MakeEngines(fixture_->dbs, w_.config);
    // The warm-up pass is spread over the workload's clients, so every core
    // the round will use has just been busy.
    warmup_.assign(w_.requests.size(), Answer{});
    auto warm = [&](size_t first) {
      for (size_t i = first; i < w_.requests.size(); i += w_.clients) {
        Read(i, &warmup_[i]);
      }
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < w_.clients; ++c) threads.emplace_back(warm, c);
    warm(0);
    for (std::thread& t : threads) t.join();
    const double seconds = Ms(t0, Clock::now()) / 1e3;
    targets_.clear();
    if (!w_.insert_relations.empty()) {
      targets_ = MakeInsertTargets(w_, *fixture_->dbs[0]);
    }
    return seconds;
  }

  Fixture& fixture() { return *fixture_; }
  const std::vector<Answer>& warmup() const { return warmup_; }

  /// Runs one round: every client works through its Schedule(), a Zipf
  /// client stopping early at `deadline`. Returns the merged tally.
  Tally Round(uint64_t round, bool traced, Clock::time_point deadline,
              std::vector<Client>* clients) {
    clients->assign(w_.clients, Client{});
    for (Client& c : *clients) {
      c.tally.served.assign(w_.requests.size(), 0);
      c.tally.request_ms.assign(w_.requests.size(), 0.0);
      c.first.assign(w_.requests.size(), Answer{});
    }
    Tally merged;
    const Counters before = Snapshot();
    const auto t0 = Clock::now();
    if (w_.clients == 1) {
      // The lone client runs on one CPU per round, taking each allowed CPU
      // in turn: on a shared host single CPUs slow down for seconds at a
      // time, and a client the scheduler leaves on one would carry that
      // into every round of the run.
      cpu_set_t allowed;
      CPU_ZERO(&allowed);
      std::vector<int> cpus;
      if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
          if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
        }
      }
      const bool pin = cpus.size() > 1;
      if (pin) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[round % cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
      }
      ClientLoop(0, round, traced, deadline, &(*clients)[0]);
      if (pin) sched_setaffinity(0, sizeof(allowed), &allowed);
    } else {
      std::vector<std::thread> threads;
      for (int c = 0; c < w_.clients; ++c) {
        threads.emplace_back([&, c] {
          ClientLoop(c, round, traced, deadline, &(*clients)[c]);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    const double wall_ms = Ms(t0, Clock::now());
    for (Client& c : *clients) {
      merged.Merge(c.tally);
      merged.complete = merged.complete && !c.cut;
      if (traced) AddSelfTimes(c.spans, merged.self_ms);
    }
    merged.wall_ms = wall_ms;
    merged.counters = Snapshot() - before;
    merged.pool_capacity_ms = merged.counters.pool_workers * wall_ms;
    return merged;
  }

  /// Sends distinct request `i` once through the measured path.
  bool Read(size_t i, Answer* answer) {
    const Request& r = w_.requests[i];
    const core::SchemaFreeEngine& engine = *fixture_->engines[r.engine];
    if (w_.k > 0) {
      auto result = engine.Translate(r.text, w_.k);
      if (answer != nullptr) RecordTranslations(result, answer);
      return result.ok();
    }
    auto result = engine.Execute(r.text);
    if (answer != nullptr) RecordRows(result, answer);
    return result.ok();
  }

 private:
  static void RecordTranslations(
      const Result<std::vector<core::Translation>>& result, Answer* answer) {
    answer->present = true;
    answer->ok = result.ok();
    if (!result.ok()) return;
    for (const core::Translation& t : *result) answer->sqls.push_back(t.sql);
  }
  static void RecordRows(Result<exec::QueryResult>& result, Answer* answer) {
    answer->present = true;
    answer->ok = result.ok();
    if (result.ok()) answer->rows = std::move(*result);
  }

  Counters Snapshot() const {
    Counters sum;
    for (const auto& db : fixture_->dbs) {
      const storage::ColumnIndexStats s = db->column_index_stats();
      sum.index_builds += s.builds;
      sum.index_build_s += s.build_seconds;
    }
    for (const auto& e : fixture_->engines) {
      sum.stale_evictions += e->plan_cache_stats().stale_evictions;
      if (e->task_pool() == nullptr) continue;
      const exec::TaskPoolStats s = e->task_pool()->stats();
      sum.pool_tasks += s.tasks;
      sum.pool_steals += s.steals;
      sum.pool_idle_ms += s.idle_ms;
      sum.pool_workers += static_cast<double>(s.workers);
    }
    return sum;
  }

  int64_t Nanos(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  int32_t OpenSpan(Client* c, SpanName name, int32_t parent,
                   Clock::time_point start) {
    Span s;
    s.request = c->next_request_id;
    s.name = name;
    s.parent = parent;
    s.start_ns = Nanos(start);
    c->spans.push_back(s);
    return static_cast<int32_t>(c->spans.size() - 1);
  }
  void CloseSpan(Client* c, int32_t span, Clock::time_point end) {
    c->spans[span].end_ns = Nanos(end);
  }

  /// A layer's self time: its span's duration minus its children's.
  static void AddSelfTimes(const std::vector<Span>& spans,
                           double self_ms[kNumSpanNames]) {
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ms[s.parent] += (s.end_ns - s.start_ns) / 1e6;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      self_ms[spans[i].name] +=
          (spans[i].end_ns - spans[i].start_ns) / 1e6 - child_ms[i];
    }
  }

  /// The traced form of a read: the two calls SchemaFreeEngine::Execute
  /// makes (Translate at k = 1, then Executor::Execute of the top-1
  /// statement), each timed as a child span and with its stats collected.
  bool TracedRead(size_t i, Client* c, int32_t parent, Answer* answer) {
    const Request& r = w_.requests[i];
    const core::SchemaFreeEngine& engine = *fixture_->engines[r.engine];
    core::TranslateStats stats;
    auto t0 = Clock::now();
    const int32_t ts = OpenSpan(c, kTranslate, parent, t0);
    auto translations = engine.Translate(r.text, w_.k > 0 ? w_.k : 1, &stats);
    auto t1 = Clock::now();
    CloseSpan(c, ts, t1);
    c->tally.translate_ms.push_back(Ms(t0, t1));
    c->tally.layers.Add(stats);
    if (w_.k > 0) {
      if (answer != nullptr) RecordTranslations(translations, answer);
      return translations.ok();
    }
    if (!translations.ok()) {
      if (answer != nullptr) answer->present = true;
      return false;
    }
    exec::ExecInfo info;
    t0 = Clock::now();
    const int32_t es = OpenSpan(c, kExecute, parent, t0);
    exec::Executor executor(fixture_->dbs[r.engine].get(), ExecConfigOf(engine));
    auto result = executor.Execute(*translations->front().statement, &info);
    t1 = Clock::now();
    CloseSpan(c, es, t1);
    c->tally.execute_ms.push_back(Ms(t0, t1));
    c->tally.layers.Add(info);
    if (answer != nullptr) RecordRows(result, answer);
    return result.ok();
  }

  /// Rows drawn column by column from the target's initial rows; a single
  /// integer key gets a fresh value unique to the client.
  std::vector<storage::Row> MakeBatch(const InsertTarget& t,
                                      std::mt19937_64& rng, Client* c) {
    std::vector<storage::Row> rows;
    std::uniform_int_distribution<size_t> pick(0, t.pool.size() - 1);
    for (int n = 0; n < kRowsPerWrite; ++n) {
      storage::Row row = t.pool[pick(rng)];
      for (size_t a = 0; a < row.size(); ++a) row[a] = t.pool[pick(rng)][a];
      if (t.fresh_key_attr >= 0) {
        row[t.fresh_key_attr] = storage::Value::Int(c->next_key++);
      }
      rows.push_back(std::move(row));
    }
    return rows;
  }

  /// One client's requests for a round, in seeded order: a pass over every
  /// distinct request, or, for Zipf workloads, each request as often as its
  /// Zipf(1.0) weight says (largest-remainder rounding), with exactly
  /// round(write_share * n) writes among them, spread evenly over the
  /// insert targets. Entry i < requests.size() reads request i; entry
  /// requests.size() + t writes to target t. Exact proportions keep every
  /// run's request mix, and so the request class each percentile reads, the
  /// same; the seed decides only the order.
  std::vector<size_t> Schedule(std::mt19937_64& rng) const {
    std::vector<size_t> out;
    const size_t n = w_.requests.size();
    if (!w_.zipf) {
      out.resize(n);
      std::iota(out.begin(), out.end(), 0);
    } else {
      const auto total = static_cast<size_t>(w_.requests_per_round);
      const auto writes = targets_.empty()
                              ? 0
                              : static_cast<size_t>(std::llround(
                                    w_.write_share * total));
      const size_t reads = total - writes;
      std::vector<double> weight(n);
      double sum = 0;
      for (size_t i = 0; i < n; ++i) sum += weight[i] = 1.0 / (i + 1.0);
      std::vector<std::pair<double, size_t>> remainders;
      for (size_t i = 0; i < n; ++i) {
        const double exact = weight[i] / sum * static_cast<double>(reads);
        const auto whole = static_cast<size_t>(exact);
        out.insert(out.end(), whole, i);
        remainders.emplace_back(exact - static_cast<double>(whole), i);
      }
      std::sort(remainders.begin(), remainders.end(),
                [](const auto& a, const auto& b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
                });
      for (size_t r = 0; out.size() < reads; ++r) {
        out.push_back(remainders[r].second);
      }
      for (size_t k = 0; k < writes; ++k) out.push_back(n + k % targets_.size());
    }
    std::shuffle(out.begin(), out.end(), rng);
    return out;
  }

  void ClientLoop(int id, uint64_t round, bool traced,
                  Clock::time_point deadline, Client* c) {
    std::mt19937_64 rng(seed_ * 0x9E3779B97F4A7C15ULL + round * 1000003ULL +
                        static_cast<uint64_t>(id) * 7919ULL + 1);
    c->next_request_id = (round << 48) | (static_cast<uint64_t>(id) << 40);
    c->next_key = 10'000'000 + static_cast<int64_t>(id) * 100'000'000;
    const bool record_answers = !w_.fresh_fixture_per_round;
    const auto start = Clock::now();
    for (const size_t i : Schedule(rng)) {
      // Pass rounds always complete, so every distinct request is sampled
      // equally often and each percentile reads the same request class.
      if (w_.zipf && Clock::now() >= deadline) {
        c->cut = true;
        break;
      }
      ++c->next_request_id;
      ++c->tally.attempted;
      if (i >= w_.requests.size()) {
        const InsertTarget& t = targets_[i - w_.requests.size()];
        std::vector<storage::Row> rows = MakeBatch(t, rng, c);
        const size_t count = rows.size();
        const auto t0 = Clock::now();
        int32_t root = -1, span = -1;
        if (traced) {
          root = OpenSpan(c, kRequest, -1, t0);
          span = OpenSpan(c, kInsert, root, t0);
        }
        const Status s = fixture_->dbs[0]->InsertRows(t.relation, std::move(rows));
        const auto t1 = Clock::now();
        if (traced) {
          CloseSpan(c, span, t1);
          CloseSpan(c, root, t1);
        }
        c->tally.write_ms.push_back(Ms(t0, t1));
        if (s.ok()) {
          ++c->tally.writes;
          c->tally.rows_written += static_cast<long long>(count);
        } else {
          ++c->tally.failed;
        }
        continue;
      }
      Answer* answer =
          record_answers && !c->first[i].present ? &c->first[i] : nullptr;
      const auto t0 = Clock::now();
      bool ok;
      if (traced) {
        const int32_t root = OpenSpan(c, kRequest, -1, t0);
        ok = TracedRead(i, c, root, answer);
        CloseSpan(c, root, Clock::now());
      } else {
        ok = Read(i, answer);
      }
      const double ms = Ms(t0, Clock::now());
      c->tally.read_ms.push_back(ms);
      c->tally.served[i] += 1;
      c->tally.request_ms[i] += ms;
      if (!ok) ++c->tally.failed;
    }
    c->tally.client_qps =
        Ratio(static_cast<double>(c->tally.attempted - c->tally.failed),
              Ms(start, Clock::now()) / 1e3);
  }

  const Workload& w_;
  uint64_t seed_;
  std::unique_ptr<Fixture> fixture_;
  std::vector<Answer> warmup_;
  std::vector<InsertTarget> targets_;
  Clock::time_point epoch_ = Clock::now();  ///< time zero of every span
};

// ------------------------------------------------------------ correctness

struct Reference {
  std::vector<Answer> answers;
  std::vector<std::string> top1;
  std::vector<int> gold;  ///< 1 match, 0 no match, -1 no gold query
};

/// Answers of a reference engine (plan cache off, serial translation and
/// execution) over `dbs`, plus whether each top-1 translation matches gold.
Reference ComputeReference(const Workload& w,
                           const std::vector<std::unique_ptr<storage::Database>>& dbs,
                           bool check_gold) {
  Reference ref;
  const auto engines = MakeEngines(dbs, ReferenceConfig());
  for (const Request& r : w.requests) {
    Answer a;
    a.present = true;
    auto translations =
        engines[r.engine]->Translate(r.text, w.k > 0 ? w.k : 1);
    a.ok = translations.ok();
    int gold = -1;
    std::string top1;
    if (translations.ok()) {
      top1 = translations->front().sql;
      if (w.k > 0) {
        for (const core::Translation& t : *translations) a.sqls.push_back(t.sql);
      } else {
        exec::Executor executor(dbs[r.engine].get());
        auto rows = executor.Execute(*translations->front().statement);
        a.ok = rows.ok();
        if (rows.ok()) a.rows = std::move(*rows);
      }
      if (check_gold && !r.gold.empty()) {
        auto match = workloads::TranslationMatchesGold(
            *dbs[r.engine], translations->front(), r.gold);
        gold = match.ok() && *match ? 1 : 0;
      }
    }
    ref.answers.push_back(std::move(a));
    ref.top1.push_back(std::move(top1));
    ref.gold.push_back(gold);
  }
  return ref;
}

bool SameAnswer(const Answer& got, const Answer& want) {
  if (got.ok != want.ok) return false;
  if (!got.ok) return true;
  return got.sqls == want.sqls && got.rows.columns == want.rows.columns &&
         got.rows.SameRows(want.rows);
}

/// Compares recorded answers and the measured engines' top-1 SQL against the
/// reference; prints every mismatch to stderr and returns their number.
int CheckAgainstReference(const Workload& w, Runner& runner,
                          const std::vector<const std::vector<Answer>*>& answers,
                          const Reference& ref) {
  int mismatches = 0;
  for (size_t i = 0; i < w.requests.size(); ++i) {
    const Request& r = w.requests[i];
    for (const std::vector<Answer>* list : answers) {
      const Answer& got = (*list)[i];
      if (!got.present || SameAnswer(got, ref.answers[i])) continue;
      ++mismatches;
      std::fprintf(stderr, "MISMATCH answer %s: %s\n", r.label.c_str(),
                   r.text.c_str());
    }
    auto top = runner.fixture().engines[r.engine]->Translate(
        r.text, w.k > 0 ? w.k : 1);
    const std::string top1 = top.ok() ? top->front().sql : "";
    if (top1 != ref.top1[i]) {
      ++mismatches;
      std::fprintf(stderr, "MISMATCH top-1 %s: %s\n  got:  %s\n  want: %s\n",
                   r.label.c_str(), r.text.c_str(), top1.c_str(),
                   ref.top1[i].c_str());
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------- reports

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// One round's end-to-end figures (or their combination across rounds).
struct EndToEnd {
  double served_qps = 0, p50 = 0, p90 = 0, p99 = 0;
  double write_rows_per_s = 0, write_p99 = 0;
};

/// Mean of the middle 60% of `v`: a few rounds slowed by load from outside
/// the process drop out, and when rounds fall into two speed modes the
/// figure moves smoothly with their mix (a median jumps between modes).
double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 5;
  return std::accumulate(v.begin() + cut, v.end() - cut, 0.0) /
         static_cast<double>(v.size() - 2 * cut);
}

/// Trimmed mean of each per-round figure over the rounds that ran to
/// completion (all rounds when none did).
EndToEnd AcrossRounds(const std::vector<std::pair<bool, EndToEnd>>& rounds) {
  std::vector<const EndToEnd*> use;
  for (const auto& [complete, e] : rounds) {
    if (complete) use.push_back(&e);
  }
  if (use.empty()) {
    for (const auto& r : rounds) use.push_back(&r.second);
  }
  auto across = [&](double EndToEnd::*field) {
    std::vector<double> v;
    for (const EndToEnd* e : use) v.push_back(e->*field);
    return TrimmedMean(std::move(v));
  };
  EndToEnd m;
  m.served_qps = across(&EndToEnd::served_qps);
  m.p50 = across(&EndToEnd::p50);
  m.p90 = across(&EndToEnd::p90);
  m.p99 = across(&EndToEnd::p99);
  m.write_rows_per_s = across(&EndToEnd::write_rows_per_s);
  m.write_p99 = across(&EndToEnd::write_p99);
  return m;
}

EndToEnd Summarize(const Tally& t) {
  EndToEnd e;
  e.served_qps = t.client_qps;
  e.p50 = Percentile(t.read_ms, 50);
  e.p90 = Percentile(t.read_ms, 90);
  e.p99 = Percentile(t.read_ms, 99);
  e.write_rows_per_s = Ratio(static_cast<double>(t.rows_written), t.wall_ms / 1e3);
  e.write_p99 = Percentile(t.write_ms, 99);
  return e;
}

/// Share of the served requests that have a gold query whose top-1
/// translation matched it (gold[i]: 1 match, 0 no match, -1 no gold).
double Top1GoldRatio(const Tally& t, const std::vector<int>& gold) {
  double with_gold = 0, matched = 0;
  for (size_t i = 0; i < gold.size() && i < t.served.size(); ++i) {
    if (gold[i] < 0) continue;
    with_gold += static_cast<double>(t.served[i]);
    if (gold[i] == 1) matched += static_cast<double>(t.served[i]);
  }
  return Ratio(matched, with_gold);
}

void PrintJson(bool correct, long long attempted, long long failed,
               const std::vector<Metric>& metrics) {
  obs::JsonWriter json(/*pretty=*/false, /*double_precision=*/17);
  json.BeginObject();
  json.KV("correct", correct);
  json.KV("attempted", attempted);
  json.KV("failed", failed);
  json.Key("metrics");
  json.BeginObject();
  for (const Metric& m : metrics) {
    json.Key(m.name);
    json.BeginObject();
    json.KV("value", m.value);
    json.KV("unit", m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.TakeString().c_str());
}

/// One JSON object per line; `parent` is the 0-based line of the parent
/// span (-1 = a request's root span).
void WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    obs::JsonWriter json;
    json.BeginObject();
    json.KV("request", static_cast<unsigned long long>(s.request));
    json.KV("name", kSpanNames[s.name]);
    json.KV("start_ns", static_cast<long long>(s.start_ns));
    json.KV("end_ns", static_cast<long long>(s.end_ns));
    json.KV("parent", static_cast<long long>(s.parent));
    json.EndObject();
    out << json.TakeString() << '\n';
  }
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

int Run(const Args& args) {
  Workload w;
  if (!MakeWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload '%s' (serve_zipf, adhoc_translate, "
                 "ingest_mix, analytic_star)\n", args.workload.c_str());
    return 2;
  }
  Runner runner(w, args.seed);
  std::vector<double> setup_s;
  int mismatches = 0;
  Reference ref;
  std::vector<int> gold;

  // Set up at least three times and for at least two seconds, and report
  // the median; the last fixture is measured. A fixture-per-round workload
  // also sets up again before every later round, and each of those set-ups
  // is a sample too.
  while (setup_s.size() < 3 ||
         (std::accumulate(setup_s.begin(), setup_s.end(), 0.0) < 2.0 &&
          setup_s.size() < 15)) {
    const double secs = runner.Setup();
    if (secs < 0) {
      std::fprintf(stderr, "database build failed\n");
      return 1;
    }
    setup_s.push_back(secs);
  }
  if (w.fresh_fixture_per_round) {
    // Gold matches are judged on the initial data; answers on the final data.
    gold = ComputeReference(w, runner.fixture().dbs, true).gold;
  } else {
    ref = ComputeReference(w, runner.fixture().dbs, true);
    gold = ref.gold;
    mismatches += CheckAgainstReference(w, runner, {&runner.warmup()}, ref);
  }

  // Rounds run until --seconds of serving time is measured; with --trace 1
  // odd rounds are traced, so both halves see the same state drift.
  Tally untraced, traced;
  std::vector<std::pair<bool, EndToEnd>> untraced_rounds, traced_rounds;
  std::vector<Span> spans;
  std::vector<Client> clients;
  double served_ms = 0;
  auto check_round_answers = [&] {
    if (w.fresh_fixture_per_round) return;  // checked on the final data
    for (size_t i = 0; i < w.requests.size(); ++i) {
      for (const Client& c : clients) {
        const Answer& got = c.first[i];
        if (got.present && !SameAnswer(got, ref.answers[i])) {
          ++mismatches;
          std::fprintf(stderr, "MISMATCH answer %s: %s\n",
                       w.requests[i].label.c_str(), w.requests[i].text.c_str());
        }
      }
    }
  };
  if (w.clients > 1 && !w.fresh_fixture_per_round) {
    // One unmeasured round first: the set-up ran on one thread, and the
    // host's other cores take a moment to come up to speed.
    runner.Round(0xFFFF, false, Clock::time_point::max(), &clients);
    check_round_answers();
  }
  for (uint64_t round = 0; served_ms < args.seconds * 1e3; ++round) {
    if (w.fresh_fixture_per_round && round > 0) {
      const double secs = runner.Setup();
      if (secs < 0) return 1;
      setup_s.push_back(secs);
    }
    const bool trace_round = args.trace && round % 2 == 1;
    const auto deadline =
        Clock::now() + std::chrono::microseconds(static_cast<int64_t>(
                           (args.seconds * 1e3 - served_ms) * 1e3));
    Tally t = runner.Round(round, trace_round, deadline, &clients);
    served_ms += t.wall_ms;
    (trace_round ? traced_rounds : untraced_rounds)
        .emplace_back(t.complete, Summarize(t));
    (trace_round ? traced : untraced).Merge(t);
    if (trace_round) {
      for (const Client& c : clients) {
        const auto base = static_cast<int32_t>(spans.size());
        for (Span s : c.spans) {
          if (s.parent >= 0) s.parent += base;
          spans.push_back(s);
        }
      }
    }
    check_round_answers();
  }
  if (args.trace && !args.trace_out.empty()) {
    std::filesystem::create_directories(args.trace_out);
    WriteTrace(args.trace_out + "/" + w.name + "-seed" +
                   std::to_string(args.seed) + ".jsonl",
               spans);
  }

  // Final check: the measured engines against a reference on the final data.
  if (w.fresh_fixture_per_round) {
    ref = ComputeReference(w, runner.fixture().dbs, false);
    std::vector<Answer> final_answers(w.requests.size());
    for (size_t i = 0; i < w.requests.size(); ++i) {
      runner.Read(i, &final_answers[i]);
    }
    mismatches += CheckAgainstReference(w, runner, {&final_answers}, ref);
  } else {
    mismatches += CheckAgainstReference(w, runner, {}, ref);
    // More set-up samples at the end of the run (at least two and a
    // second), so setup_s does not rest on the host's state during the
    // run's first seconds alone.
    const size_t before = setup_s.size();
    double total = 0;
    while (setup_s.size() < before + 2 || total < 1.0) {
      const double secs = runner.Setup();
      if (secs < 0) return 1;
      setup_s.push_back(secs);
      total += secs;
    }
  }

  const Tally& measured = args.trace ? traced : untraced;
  const long long attempted = untraced.attempted + traced.attempted;
  const long long failed = untraced.failed + traced.failed;
  const bool correct = mismatches == 0 && failed == 0;
  const EndToEnd e = AcrossRounds(untraced_rounds);

  std::printf("workload %s seed %llu: %lld requests (%lld reads, %lld writes) "
              "in %.2f s measured, %zu setups\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              attempted,
              static_cast<long long>(untraced.read_ms.size() +
                                     traced.read_ms.size()),
              untraced.writes + traced.writes,
              (untraced.wall_ms + traced.wall_ms) / 1e3, setup_s.size());
  std::printf("  correctness: %d mismatches vs reference, %lld failed of %lld "
              "(failed_ratio %.6f)\n",
              mismatches, failed, attempted,
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::string gold_misses;
  for (size_t i = 0; i < gold.size(); ++i) {
    if (gold[i] == 0) gold_misses += " " + w.requests[i].label;
  }
  std::printf("  top-1 differs from gold:%s\n",
              gold_misses.empty() ? " none" : gold_misses.c_str());
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"served_qps", e.served_qps, "1/s"},
      {"latency_p50_ms", e.p50, "ms"},
      {"latency_p90_ms", e.p90, "ms"},
      {"latency_p99_ms", e.p99, "ms"},
      {"top1_gold_ratio", Top1GoldRatio(untraced, gold), "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  std::printf("  set-up: %zu samples, %.4f to %.4f s\n", setup_s.size(),
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));
  std::printf("  end-to-end (untraced; trimmed means over %zu rounds, %zu "
              "latency samples in all):\n",
              untraced_rounds.size(), untraced.read_ms.size());
  for (const Metric& m : e2e) {
    std::printf("    %-22s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (untraced.writes > 0) {
    std::printf("    %-22s %14.4f %s\n", "write_rows_per_s", e.write_rows_per_s,
                "1/s");
    std::printf("    %-22s %14.4f %s   (%zu writes)\n", "write_p99_ms",
                e.write_p99, "ms", untraced.write_ms.size());
  }
  if (!args.trace) {
    PrintJson(correct, attempted, failed, e2e);
    return correct ? 0 : 1;
  }

  // ---- traced run: per-layer metrics and tracing overhead
  const LayerSums& L = measured.layers;
  const double requests = static_cast<double>(measured.attempted);
  double request_total_ms = 0;
  for (double ms : measured.request_ms) request_total_ms += ms;
  request_total_ms += std::accumulate(measured.write_ms.begin(),
                                      measured.write_ms.end(), 0.0);
  const double all_ms = measured.self_ms[kRequest] + measured.self_ms[kTranslate] +
                        measured.self_ms[kExecute] + measured.self_ms[kInsert];
  const EndToEnd te = AcrossRounds(traced_rounds);
  std::vector<size_t> slow(w.requests.size());
  std::iota(slow.begin(), slow.end(), 0);
  std::sort(slow.begin(), slow.end(), [&](size_t a, size_t b) {
    return measured.request_ms[a] > measured.request_ms[b];
  });
  double top5_share = 0;
  std::printf("  slowest distinct requests (share of traced request time):\n");
  for (size_t n = 0; n < std::min<size_t>(5, slow.size()); ++n) {
    const size_t i = slow[n];
    const double share = Ratio(measured.request_ms[i], request_total_ms);
    top5_share += share;
    std::printf("    %5.1f%%  %6lld calls  %9.3f ms/call  %s: %s\n",
                share * 100, measured.served[i],
                Ratio(measured.request_ms[i],
                      static_cast<double>(measured.served[i])),
                w.requests[i].label.c_str(), w.requests[i].text.c_str());
  }
  const double translates = static_cast<double>(L.translates);
  std::vector<Metric> layers = {
      {"plan_cache.tier2_hit_ratio",
       Ratio(static_cast<double>(L.tier2_hits), translates), "ratio"},
      {"plan_cache.tier1_hit_ratio",
       Ratio(static_cast<double>(L.tier1_hits), translates), "ratio"},
      {"plan_cache.stale_evictions_per_1k",
       Ratio(1e3 * static_cast<double>(measured.counters.stale_evictions),
             requests),
       "count"},
      {"translate.ms_p50", Percentile(measured.translate_ms, 50), "ms"},
      {"translate.share", Ratio(measured.self_ms[kTranslate], all_ms), "ratio"},
      {"translate.parse_ms", Ratio(1e3 * L.parse_s, translates), "ms"},
      {"translate.map_ms", Ratio(1e3 * L.map_s, translates), "ms"},
      {"translate.graph_ms", Ratio(1e3 * L.graph_s, translates), "ms"},
      {"translate.generate_ms", Ratio(1e3 * L.generate_s, translates), "ms"},
      {"translate.compose_ms", Ratio(1e3 * L.compose_s, translates), "ms"},
      {"generator.expansions_per_request",
       Ratio(static_cast<double>(L.gen_expansions), translates), "count"},
      {"generator.pruned_ratio",
       Ratio(static_cast<double>(L.gen_pruned),
             static_cast<double>(L.gen_pushed)),
       "ratio"},
      {"generator.root_parallelism", Ratio(L.gen_root_sum_s, L.gen_search_s),
       "ratio"},
      {"mapper.sat_probes_per_request",
       Ratio(static_cast<double>(L.sat_index + L.sat_scan), translates),
       "count"},
      {"mapper.sat_memo_hit_ratio",
       Ratio(static_cast<double>(L.memo_hits),
             static_cast<double>(L.memo_hits + L.memo_misses)),
       "ratio"},
      {"text.sim_cache_hit_ratio",
       Ratio(static_cast<double>(L.sim_hits),
             static_cast<double>(L.sim_hits + L.sim_misses)),
       "ratio"},
      {"storage.index_builds_per_1k",
       Ratio(1e3 * static_cast<double>(measured.counters.index_builds), requests),
       "count"},
      {"storage.index_build_ms_per_1k",
       Ratio(1e6 * measured.counters.index_build_s, requests), "ms"},
      {"execute.ms_p50", Percentile(measured.execute_ms, 50), "ms"},
      {"execute.ms_p99", Percentile(measured.execute_ms, 99), "ms"},
      {"execute.share", Ratio(measured.self_ms[kExecute], all_ms), "ratio"},
      {"execute.rows_scanned_per_row_returned",
       Ratio(static_cast<double>(L.rows_scanned),
             static_cast<double>(L.rows_returned)),
       "ratio"},
      {"execute.chunks_pruned_ratio",
       Ratio(static_cast<double>(L.chunks_pruned),
             static_cast<double>(L.chunks_total)),
       "ratio"},
      {"execute.index_scan_ratio",
       Ratio(static_cast<double>(L.index_scans),
             static_cast<double>(L.index_scans + L.table_scans)),
       "ratio"},
      {"task_pool.tasks_per_request",
       Ratio(static_cast<double>(measured.counters.pool_tasks), requests), "count"},
      {"task_pool.steal_ratio",
       Ratio(static_cast<double>(measured.counters.pool_steals),
             static_cast<double>(measured.counters.pool_tasks)),
       "ratio"},
      {"task_pool.idle_ratio",
       Ratio(static_cast<double>(measured.counters.pool_idle_ms),
             measured.pool_capacity_ms),
       "ratio"},
      {"insert.ms_p50", Percentile(measured.write_ms, 50), "ms"},
      {"insert.ms_p99", Percentile(measured.write_ms, 99), "ms"},
      {"insert.rows_per_s",
       Ratio(static_cast<double>(measured.rows_written), measured.wall_ms / 1e3),
       "1/s"},
      {"insert.share", Ratio(measured.self_ms[kInsert], all_ms), "ratio"},
      {"client.share", Ratio(measured.self_ms[kRequest], all_ms), "ratio"},
      {"slowest.share",
       Ratio(slow.empty() ? 0.0 : measured.request_ms[slow[0]],
             request_total_ms),
       "ratio"},
      {"slowest.top5_share", top5_share, "ratio"},
      {"trace.overhead_served_qps", te.served_qps - e.served_qps, "1/s"},
      {"trace.overhead_p50_ms", te.p50 - e.p50, "ms"},
      {"trace.overhead_p99_ms", te.p99 - e.p99, "ms"},
  };
  std::printf("  per-layer (traced rounds, %lld requests):\n",
              measured.attempted);
  for (const Metric& m : layers) {
    std::printf("    %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  PrintJson(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sfsql::perfbench

int main(int argc, char** argv) {
  sfsql::perfbench::Args args;
  if (!sfsql::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <dir>]\n",
                 argv[0]);
    return 2;
  }
  return sfsql::perfbench::Run(args);
}
