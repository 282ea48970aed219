#include "core/mtjn_generator.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <utility>

#include "obs/clock.h"

namespace sfsql::core {

namespace {

/// Priority-queue entry. For the baselines `priority` is the construction
/// weight, which only shrinks along expansions, so it upper-bounds every MTJN
/// expandable from `jn`. For Algorithm 2 it is the Algorithm 3 potential, a
/// greedy estimate that is *not* a safe bound beyond path-shaped graphs: on
/// course53 (CB6, CB10, CC9, CC10) pruning on it makes k = 1 return a worse
/// top-1 than k = 10 does (EXPERIMENTS.md). Pruning is therefore exact for
/// the baselines and a heuristic for Algorithm 2.
struct QueueEntry {
  double priority;
  long long seq;  // FIFO tie-break for determinism
  JoinNetwork jn;
};

struct QueueCompare {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq > b.seq;
  }
};

/// Result accumulator: top-k by weight, deduplicated by canonical signature
/// keeping the best construction weight (Definition 7).
class TopKResults {
 public:
  explicit TopKResults(int k) : k_(k) {}

  void Add(const JoinNetwork& jn) {
    std::string sig = jn.CanonicalSignature();
    auto it = by_signature_.find(sig);
    if (it == by_signature_.end()) {
      by_signature_.emplace(std::move(sig), jn);
    } else if (jn.weight() > it->second.weight()) {
      it->second = jn;
    } else {
      return;
    }
    kth_weight_ = ComputeKthWeight();
  }

  /// Weight of the kth best result, 0 if fewer than k exist yet (k <= 0 means
  /// "no bound": never prune). Read on every pop and expansion, so it is
  /// recomputed only when Add changes the results.
  double KthWeight() const { return kth_weight_; }

  const std::map<std::string, JoinNetwork>& by_signature() const {
    return by_signature_;
  }

 private:
  double ComputeKthWeight() const {
    if (k_ <= 0 || static_cast<int>(by_signature_.size()) < k_) return 0.0;
    std::vector<double> weights;
    weights.reserve(by_signature_.size());
    for (const auto& [sig, jn] : by_signature_) weights.push_back(jn.weight());
    std::nth_element(weights.begin(), weights.begin() + (k_ - 1), weights.end(),
                     std::greater<double>());
    return weights[k_ - 1];
  }

  int k_;
  std::map<std::string, JoinNetwork> by_signature_;
  double kth_weight_ = 0.0;
};

double Seconds(const obs::Clock& clock, uint64_t since_nanos) {
  return obs::NanosToSeconds(clock.NowNanos() - since_nanos);
}

/// Deterministic result order: weight descending, canonical signature
/// ascending. The signature tie-break keeps equal-weight networks (common —
/// weights are products of a few config constants) in one stable order across
/// runs, platforms, and thread counts.
std::vector<ScoredNetwork> TakeTopK(
    const std::map<std::string, JoinNetwork>& by_signature, int k) {
  std::vector<std::pair<const std::string*, const JoinNetwork*>> items;
  items.reserve(by_signature.size());
  for (const auto& [sig, jn] : by_signature) items.push_back({&sig, &jn});
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.second->weight() != b.second->weight()) {
      return a.second->weight() > b.second->weight();
    }
    return *a.first < *b.first;
  });
  if (k >= 0 && static_cast<int>(items.size()) > k) items.resize(k);
  std::vector<ScoredNetwork> out;
  out.reserve(items.size());
  for (const auto& [sig, jn] : items) {
    out.push_back(ScoredNetwork{*jn, jn->weight()});
  }
  return out;
}

}  // namespace

double MtjnGenerator::PotentialEstimate(const JoinNetwork& jn) const {
  double w = jn.weight();
  uint64_t covered = jn.rt_mask();
  const int total = graph_->num_rts();

  // Candidate nodes of the still-uncovered relation trees, each carrying its
  // best path weight to any anchor seen so far. Anchors only accumulate (the
  // network's own nodes, then each greedily chosen node), so the max is
  // maintained incrementally instead of rescanning every anchor per round —
  // same values, same greedy choices, linear instead of quadratic in anchors.
  struct Candidate {
    int rt;
    int node;
    double best_path;  // max over anchors so far (no mapping factor)
  };
  std::vector<Candidate> candidates;
  for (int rt = 0; rt < total; ++rt) {
    if (covered & (1ull << rt)) continue;
    for (int u : graph_->NodesOfRt(rt)) {
      double d = 0.0;
      for (const JnNode& n : jn.nodes()) {
        d = std::max(d, graph_->PathWeight(u, n.xnode));
      }
      candidates.push_back(Candidate{rt, u, d});
    }
  }

  while (true) {
    double best = 0.0;
    int best_rt = -1;
    int best_node = -1;
    for (const Candidate& c : candidates) {
      if (covered & (1ull << c.rt)) continue;
      double d = c.best_path;
      if (config_.use_mapping_scores) d *= graph_->node(c.node).mapping_factor;
      if (d > best) {
        best = d;
        best_rt = c.rt;
        best_node = c.node;
      }
    }
    if (best_rt < 0) break;  // all covered
    if (best == 0.0) return 0.0;  // some relation tree is unreachable
    w *= best;
    covered |= 1ull << best_rt;
    for (Candidate& c : candidates) {
      if (covered & (1ull << c.rt)) continue;
      c.best_path = std::max(c.best_path, graph_->PathWeight(c.node, best_node));
    }
  }
  return w;
}

std::vector<ScoredNetwork> MtjnGenerator::Run(int k, Strategy strategy,
                                              GeneratorStats* stats,
                                              GeneratorTrace* trace) const {
  GeneratorStats local;
  GeneratorStats& st = stats != nullptr ? *stats : local;
  st = GeneratorStats{};
  if (trace != nullptr) *trace = GeneratorTrace{};
  const obs::Clock& clock = *obs::ClockOrSteady(config_.clock);

  if (k == 0 || graph_->num_rts() == 0) return {};

  const bool legality = strategy != Strategy::kRegular;
  const bool pruning = strategy == Strategy::kOurs;

  // Roots: the nodes mapped by the first relation tree (Algorithm 1), ordered
  // by decreasing potential. Every MTJN contains exactly one of them.
  uint64_t rank_start = clock.NowNanos();
  std::vector<std::pair<double, int>> ranked;
  for (int r : graph_->NodesOfRt(0)) {
    JoinNetwork seed(graph_, r, config_.use_mapping_scores);
    ranked.push_back({PotentialEstimate(seed), r});
  }
  std::sort(ranked.begin(), ranked.end(), std::greater<>());
  st.rank_seconds = Seconds(clock, rank_start);

  // Algorithm 1: one best-first search per root, in rank order, all feeding
  // a single top-k list, so every search prunes against the kth weight found
  // so far by the roots before it. `banned` holds those better-ranked roots
  // (Algorithm 1 line 5 removes a finished root from the graph).
  uint64_t search_start = clock.NowNanos();
  TopKResults results(k);
  std::set<int> banned;

  // One root's search; `rst` gets its counters, and its expansion budget
  // (GeneratorConfig::max_expansions) is per root.
  auto search_root = [&](double potential, int root, GeneratorStats& rst) {
    JoinNetwork seed(graph_, root, config_.use_mapping_scores);
    if (graph_->num_rts() == 1) {
      // A single relation tree: the seed itself is the MTJN.
      ++rst.emitted;
      results.Add(seed);
      return;
    }

    auto contains_banned_new = [&](const JoinNetwork& before,
                                   const JoinNetwork& after) {
      for (int t = before.size(); t < after.size(); ++t) {
        if (banned.count(after.node(t).xnode) > 0) return true;
      }
      return false;
    };

    long long seq = 0;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, QueueCompare> queue;
    queue.push(QueueEntry{pruning ? potential : seed.weight(), seq++,
                          std::move(seed)});
    ++rst.pushed;

    while (!queue.empty()) {
      if (rst.expansions > config_.max_expansions) {
        rst.truncated = true;
        break;
      }
      QueueEntry entry = queue.top();
      queue.pop();
      ++rst.popped;
      // Stop once the best queued priority falls *strictly* below the kth
      // weight. (Strictly: an equal-weight network may still belong to the
      // top k under the signature tie-break.) Exact for the baselines, whose
      // priority is the construction weight; a heuristic for Algorithm 2 (see
      // QueueEntry).
      double bound = results.KthWeight();
      if (bound > 0.0 && entry.priority < bound) break;
      const JoinNetwork& jn = entry.jn;

      for (int t = 0; t < jn.size(); ++t) {
        if (legality && !jn.IsRightmost(t)) continue;
        int xnode = jn.node(t).xnode;

        auto consider = [&](std::optional<JoinNetwork> expanded) {
          ++rst.expansions;
          if (!expanded.has_value()) return;
          if (contains_banned_new(jn, *expanded)) return;
          if (expanded->IsTotal()) {
            if (expanded->IsMinimal()) {
              ++rst.emitted;
              results.Add(*expanded);
            }
            return;  // total networks cannot grow into new MTJNs
          }
          if (legality && expanded->HasDeadBareLeaf()) return;  // Example 9
          double priority =
              pruning ? PotentialEstimate(*expanded) : expanded->weight();
          double kth = results.KthWeight();
          if (pruning && kth > 0.0 && priority < kth) {
            ++rst.pruned;
            return;
          }
          queue.push(QueueEntry{priority, seq++, std::move(*expanded)});
          ++rst.pushed;
        };

        for (int edge_id : graph_->EdgesOf(xnode)) {
          consider(jn.ExpandByEdge(edge_id, t, config_.max_jn_nodes, legality));
        }
        for (int xview_id : graph_->ViewsOf(xnode)) {
          const XView& xv = graph_->xviews()[xview_id];
          for (int pos = 0; pos < static_cast<int>(xv.nodes.size()); ++pos) {
            if (xv.nodes[pos] != xnode) continue;
            consider(jn.ExpandByView(xview_id, t, pos, config_.max_jn_nodes,
                                     legality));
          }
        }
      }
    }
  };

  for (const auto& [potential, root] : ranked) {
    RootSearchTrace rt;
    rt.root_xnode = root;
    rt.potential = potential;
    rt.initial_bound = results.KthWeight();
    rt.start_nanos = clock.NowNanos();
    search_root(potential, root, rt.stats);
    rt.end_nanos = clock.NowNanos();
    rt.final_bound = results.KthWeight();
    banned.insert(root);

    const GeneratorStats& rst = rt.stats;
    st.pushed += rst.pushed;
    st.popped += rst.popped;
    st.expansions += rst.expansions;
    st.pruned += rst.pruned;
    st.emitted += rst.emitted;
    st.truncated = st.truncated || rst.truncated;
    st.root_seconds_sum += obs::NanosToSeconds(rt.end_nanos - rt.start_nanos);
    if (trace != nullptr) trace->roots.push_back(std::move(rt));
  }
  st.roots = static_cast<int>(ranked.size());
  st.search_seconds = Seconds(clock, search_start);
  return TakeTopK(results.by_signature(), k);
}

std::vector<ScoredNetwork> MtjnGenerator::TopK(int k, GeneratorStats* stats,
                                               GeneratorTrace* trace) const {
  return Run(k, Strategy::kOurs, stats, trace);
}

std::vector<ScoredNetwork> MtjnGenerator::TopKRightmost(
    int k, GeneratorStats* stats, GeneratorTrace* trace) const {
  return Run(k, Strategy::kRightmost, stats, trace);
}

std::vector<ScoredNetwork> MtjnGenerator::TopKRegular(
    int k, GeneratorStats* stats, GeneratorTrace* trace) const {
  return Run(k, Strategy::kRegular, stats, trace);
}

std::vector<ScoredNetwork> MtjnGenerator::EnumerateAll(int max_nodes) const {
  // Exhaustive oracle: breadth-first over partial networks, deduplicating
  // *partials* by signature so the walk terminates.
  std::map<std::string, JoinNetwork> mtjns;
  std::set<std::string> seen_partials;
  std::vector<JoinNetwork> frontier;
  if (graph_->num_rts() == 0) return {};
  for (int rt0 : graph_->NodesOfRt(0)) {
    JoinNetwork seed(graph_, rt0, config_.use_mapping_scores);
    if (seed.IsTotal() && seed.IsMinimal()) {
      mtjns.emplace(seed.CanonicalSignature(), seed);
    }
    seen_partials.insert(seed.CanonicalSignature());
    frontier.push_back(std::move(seed));
  }
  while (!frontier.empty()) {
    std::vector<JoinNetwork> next;
    for (const JoinNetwork& jn : frontier) {
      for (int t = 0; t < jn.size(); ++t) {
        int xnode = jn.node(t).xnode;
        auto consider = [&](std::optional<JoinNetwork> expanded) {
          if (!expanded.has_value()) return;
          std::string sig = expanded->CanonicalSignature();
          if (expanded->IsTotal()) {
            if (expanded->IsMinimal()) {
              auto it = mtjns.find(sig);
              if (it == mtjns.end()) {
                mtjns.emplace(sig, *expanded);
              } else if (expanded->weight() > it->second.weight()) {
                it->second = *expanded;
              }
            }
            return;
          }
          if (seen_partials.insert(sig).second) next.push_back(std::move(*expanded));
        };
        for (int edge_id : graph_->EdgesOf(xnode)) {
          consider(jn.ExpandByEdge(edge_id, t, max_nodes, false));
        }
        for (int xview_id : graph_->ViewsOf(xnode)) {
          const XView& xv = graph_->xviews()[xview_id];
          for (int pos = 0; pos < static_cast<int>(xv.nodes.size()); ++pos) {
            if (xv.nodes[pos] != xnode) continue;
            consider(jn.ExpandByView(xview_id, t, pos, max_nodes, false));
          }
        }
      }
    }
    frontier = std::move(next);
  }
  return TakeTopK(mtjns, -1);
}

}  // namespace sfsql::core
