#include "core/explain.h"

#include <cstdio>

#include "obs/json.h"

namespace sfsql::core {

namespace {

std::string Ms(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  return buf;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

std::string TranslationExplain::RenderTree() const {
  std::string out;
  out += "translate \"" + query + "\" (k=" + std::to_string(k) + ") — ";
  if (ok) {
    out += std::to_string(results.size()) + " translation(s) in " +
           Ms(total_seconds) + "\n";
  } else {
    out += "FAILED after " + Ms(total_seconds) + ": " + error + "\n";
  }
  out += "├─ phases: parse " + Ms(parse_seconds) + ", map " + Ms(map_seconds) +
         ", graph " + Ms(graph_seconds) + ", generate " +
         Ms(generate_seconds) + ", compose " + Ms(compose_seconds) + "\n";
  out += "├─ similarity cache: " + std::to_string(cache_hits) + " hit(s), " +
         std::to_string(cache_misses) + " miss(es)\n";
  out += "├─ plan cache: " +
         (plan_cache_outcome.empty() ? std::string("disabled")
                                     : plan_cache_outcome);
  if (plan_cache_enabled) {
    out += ", fingerprint " + canonical_fingerprint + ", tier2 " +
           (plan_cache_tier2_present ? "present" : "absent") +
           ", structure " +
           (plan_cache_probe_plan_present ? "known" : "unknown");
  }
  out += "\n";
  out += "├─ satisfiability: " + std::to_string(sat_index_probes) +
         " index probe(s), " + std::to_string(sat_scan_probes) +
         " scan probe(s), " + std::to_string(sat_memo_hits) +
         " memo hit(s), " + std::to_string(index_builds) +
         " index build(s)\n";
  for (const ExplainTree& t : trees) {
    out += "├─ relation tree rt" + std::to_string(t.rt_id) + ": " + t.tree +
           "\n";
    for (size_t c = 0; c < t.candidates.size(); ++c) {
      const ExplainCandidate& cand = t.candidates[c];
      out += "│  ";
      out += (c + 1 == t.candidates.size()) ? "└─ " : "├─ ";
      out += cand.chosen ? "* " : "  ";
      out += cand.relation_name + " sim=" + Num(cand.similarity);
      for (const ExplainAttribute& a : cand.attributes) {
        out += "  [" + a.query_name + " -> " +
               (a.bound_name.empty() ? std::string("∅") : a.bound_name) +
               " " + Num(a.similarity) + "]";
      }
      out += "\n";
    }
  }
  out += "├─ generator: " + std::to_string(generator.roots) +
         " root(s), pushed " +
         std::to_string(generator.pushed) + ", popped " +
         std::to_string(generator.popped) + ", expansions " +
         std::to_string(generator.expansions) + ", pruned " +
         std::to_string(generator.pruned) + ", emitted " +
         std::to_string(generator.emitted) +
         (generator.truncated ? " (TRUNCATED)" : "") + "\n";
  for (size_t i = 0; i < roots.size(); ++i) {
    const ExplainRootSearch& r = roots[i];
    out += "│  ";
    out += (i + 1 == roots.size()) ? "└─ " : "├─ ";
    out += "root " + r.root + ": potential " + Num(r.potential) + ", bound " +
           Num(r.initial_bound) + " -> " + Num(r.final_bound) + ", " +
           Ms(r.seconds) + ", expanded " + std::to_string(r.expansions) +
           ", pruned " + std::to_string(r.pruned) + ", emitted " +
           std::to_string(r.emitted) + (r.truncated ? " (TRUNCATED)" : "") +
           "\n";
  }
  if (!execution.empty()) {
    out += "├─ execution access paths (fold order)\n";
    for (size_t i = 0; i < execution.size(); ++i) {
      const ExplainTableAccess& t = execution[i];
      out += "│  ";
      out += (i + 1 == execution.size()) ? "└─ " : "├─ ";
      out += t.binding + " (" + t.relation + "): " + t.access + ", " +
             std::to_string(t.index_predicates) + " index pred(s), " +
             std::to_string(t.pushed_predicates) + " pushed, est " +
             std::to_string(t.estimated_rows) + "/" +
             std::to_string(t.table_rows) + " rows, sel " +
             Num(t.selectivity) + ", chunks pruned " +
             std::to_string(t.chunks_pruned) + "/" +
             std::to_string(t.chunks_total);
      if (!t.join_algo.empty()) {
        out += ", join " + t.join_algo + " (cum est " +
               Num(t.est_rows_cumulative) + " rows, cost " +
               Num(t.est_cost_cumulative) + ")";
      }
      out += "\n";
    }
  }
  out += "└─ results\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ExplainResult& r = results[i];
    out += "   ";
    out += (i + 1 == results.size()) ? "└─ " : "├─ ";
    out += std::to_string(i + 1) + ". w=" + Num(r.weight) + " " + r.network +
           "\n";
    out += "   ";
    out += (i + 1 == results.size()) ? "   " : "│  ";
    out += "   " + r.sql + "\n";
  }
  return out;
}

std::string TranslationExplain::ToJson(bool pretty,
                                       int double_precision) const {
  obs::JsonWriter w(pretty, double_precision);
  w.BeginObject();
  w.KV("query", query);
  w.KV("k", k);
  w.KV("ok", ok);
  if (!ok) w.KV("error", error);

  w.Key("phases");
  w.BeginObject();
  w.KV("parse_seconds", parse_seconds);
  w.KV("map_seconds", map_seconds);
  w.KV("graph_seconds", graph_seconds);
  w.KV("generate_seconds", generate_seconds);
  w.KV("compose_seconds", compose_seconds);
  w.KV("total_seconds", total_seconds);
  w.EndObject();

  w.Key("similarity_cache");
  w.BeginObject();
  w.KV("hits", cache_hits);
  w.KV("misses", cache_misses);
  w.EndObject();

  w.Key("cache");
  w.BeginObject();
  w.KV("enabled", plan_cache_enabled);
  w.KV("outcome",
       plan_cache_outcome.empty() ? std::string("disabled")
                                  : plan_cache_outcome);
  w.KV("canonical", canonical_text);
  w.KV("fingerprint", canonical_fingerprint);
  w.KV("tier2_present", plan_cache_tier2_present);
  w.KV("probe_plan_present", plan_cache_probe_plan_present);
  w.EndObject();

  w.Key("satisfiability");
  w.BeginObject();
  w.KV("index_probes", sat_index_probes);
  w.KV("scan_probes", sat_scan_probes);
  w.KV("memo_hits", sat_memo_hits);
  w.KV("index_builds", index_builds);
  w.EndObject();

  w.Key("trees");
  w.BeginArray();
  for (const ExplainTree& t : trees) {
    w.BeginObject();
    w.KV("rt_id", t.rt_id);
    w.KV("tree", t.tree);
    w.Key("candidates");
    w.BeginArray();
    for (const ExplainCandidate& c : t.candidates) {
      w.BeginObject();
      w.KV("relation_id", c.relation_id);
      w.KV("relation", c.relation_name);
      w.KV("similarity", c.similarity);
      w.KV("chosen", c.chosen);
      w.Key("attributes");
      w.BeginArray();
      for (const ExplainAttribute& a : c.attributes) {
        w.BeginObject();
        w.KV("query_name", a.query_name);
        w.KV("bound_name", a.bound_name);
        w.KV("similarity", a.similarity);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.Key("generator");
  w.BeginObject();
  w.KV("roots", generator.roots);
  w.KV("pushed", generator.pushed);
  w.KV("popped", generator.popped);
  w.KV("expansions", generator.expansions);
  w.KV("pruned", generator.pruned);
  w.KV("emitted", generator.emitted);
  w.KV("truncated", generator.truncated);
  w.KV("rank_seconds", generator.rank_seconds);
  w.KV("search_seconds", generator.search_seconds);
  w.KV("root_seconds_sum", generator.root_seconds_sum);
  w.Key("root_searches");
  w.BeginArray();
  for (const ExplainRootSearch& r : roots) {
    w.BeginObject();
    w.KV("root", r.root);
    w.KV("potential", r.potential);
    w.KV("initial_bound", r.initial_bound);
    w.KV("final_bound", r.final_bound);
    w.KV("seconds", r.seconds);
    w.KV("pushed", r.pushed);
    w.KV("popped", r.popped);
    w.KV("expansions", r.expansions);
    w.KV("pruned", r.pruned);
    w.KV("emitted", r.emitted);
    w.KV("truncated", r.truncated);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  w.Key("execution");
  w.BeginArray();
  for (const ExplainTableAccess& t : execution) {
    w.BeginObject();
    w.KV("binding", t.binding);
    w.KV("relation", t.relation);
    w.KV("access", t.access);
    w.KV("index_predicates", t.index_predicates);
    w.KV("pushed_predicates", t.pushed_predicates);
    w.KV("table_rows", t.table_rows);
    w.KV("estimated_rows", t.estimated_rows);
    w.KV("selectivity", t.selectivity);
    w.KV("chunks_total", t.chunks_total);
    w.KV("chunks_pruned", t.chunks_pruned);
    if (!t.join_algo.empty()) {
      w.KV("join_algo", t.join_algo);
      w.KV("est_rows_cumulative", t.est_rows_cumulative);
      w.KV("est_cost_cumulative", t.est_cost_cumulative);
    }
    w.EndObject();
  }
  w.EndArray();

  w.Key("results");
  w.BeginArray();
  for (size_t i = 0; i < results.size(); ++i) {
    const ExplainResult& r = results[i];
    w.BeginObject();
    w.KV("rank", static_cast<long long>(i + 1));
    w.KV("weight", r.weight);
    w.KV("network", r.network);
    w.KV("sql", r.sql);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return w.TakeString();
}

}  // namespace sfsql::core
