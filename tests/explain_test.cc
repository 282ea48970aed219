// Tests for translation EXPLAIN provenance (core/explain.h, engine
// TranslateExplained), the slow-translation log, and the generator's per-root
// timing aggregation — all on injected fake clocks so every timing in the
// assertions and the golden file is deterministic — plus the golden of the
// top-10 translations of the movie43 and course53 query sets.
//
// Golden files live in tests/goldens/; regenerate after an intentional format
// change with:  SFSQL_REGEN_GOLDENS=1 ./test_explain

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "workloads/course.h"
#include "workloads/deriver.h"
#include "workloads/movie43.h"

namespace sfsql {
namespace {

using core::SchemaFreeEngine;
using core::TranslationExplain;
using workloads::BuildMovie43;

constexpr const char* kQuery =
    "SELECT title? WHERE actor_name? = 'Kate Winslet' "
    "AND director_name? = 'James Cameron'";

std::string GoldenPath(const std::string& name) {
  return std::string(SFSQL_SOURCE_DIR) + "/tests/goldens/" + name;
}

void ExpectMatchesGolden(const std::string& actual, const std::string& name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("SFSQL_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with SFSQL_REGEN_GOLDENS=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(actual, buf.str()) << "golden mismatch: " << path;
}

TEST(ExplainTest, ProvenanceMatchesTopOneTranslation) {
  auto db = BuildMovie43();
  SchemaFreeEngine engine(db.get());
  TranslationExplain explain;
  auto translations = engine.TranslateExplained(kQuery, 3, &explain);
  ASSERT_TRUE(translations.ok()) << translations.status().ToString();
  ASSERT_TRUE(explain.ok);
  ASSERT_FALSE(explain.results.empty());

  // The ranked results mirror the Translate output exactly.
  ASSERT_EQ(explain.results.size(), translations->size());
  for (size_t i = 0; i < translations->size(); ++i) {
    EXPECT_EQ(explain.results[i].sql, (*translations)[i].sql);
    EXPECT_DOUBLE_EQ(explain.results[i].weight, (*translations)[i].weight);
  }

  // Every relation tree reports a non-empty mapping set, best first, with
  // exactly one candidate marked as chosen by the top-1 network — and that
  // candidate's relation actually appears in the winning network.
  ASSERT_FALSE(explain.trees.empty());
  for (const core::ExplainTree& tree : explain.trees) {
    ASSERT_FALSE(tree.candidates.empty()) << tree.tree;
    int chosen = 0;
    for (size_t i = 0; i < tree.candidates.size(); ++i) {
      const core::ExplainCandidate& c = tree.candidates[i];
      EXPECT_GT(c.similarity, 0.0);
      if (i > 0) {
        EXPECT_LE(c.similarity, tree.candidates[i - 1].similarity);
      }
      if (c.chosen) {
        ++chosen;
        EXPECT_NE(explain.results[0].network.find(c.relation_name),
                  std::string::npos)
            << c.relation_name << " chosen but absent from top-1 network "
            << explain.results[0].network;
      }
      // Bound attributes carry their argmax similarity.
      for (const core::ExplainAttribute& a : c.attributes) {
        if (!a.bound_name.empty()) EXPECT_GT(a.similarity, 0.0);
      }
    }
    EXPECT_EQ(chosen, 1) << tree.tree;
  }

  // Per-root searches cover the generator's roots and share one top-k list:
  // each root starts from the bound the previous one ended with.
  ASSERT_EQ(static_cast<long long>(explain.roots.size()),
            explain.generator.roots);
  for (size_t i = 1; i < explain.roots.size(); ++i) {
    EXPECT_EQ(explain.roots[i].initial_bound, explain.roots[i - 1].final_bound);
  }
  for (const core::ExplainRootSearch& root : explain.roots) {
    EXPECT_GE(root.final_bound, root.initial_bound);
    EXPECT_FALSE(root.root.empty());
  }
}

TEST(ExplainTest, JsonMatchesGoldenOnFakeClock) {
  auto db = BuildMovie43();
  core::EngineConfig config;
  obs::FakeClock clock(0, 1'000'000);  // every reading advances 1 ms
  config.clock = &clock;
  SchemaFreeEngine engine(db.get(), config);

  TranslationExplain explain;
  auto translations = engine.TranslateExplained(kQuery, 3, &explain);
  ASSERT_TRUE(translations.ok()) << translations.status().ToString();

  // Precision 6 keeps deterministic doubles rendering identically everywhere.
  std::string json = explain.ToJson(/*pretty=*/true, /*double_precision=*/6);
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectMatchesGolden(json, "explain_movie43.json");

  // The human rendering carries the same provenance headline.
  std::string tree = explain.RenderTree();
  EXPECT_NE(tree.find("Movie"), std::string::npos);
  EXPECT_NE(tree.find("translation"), std::string::npos);
}

// Appends one line per top-10 translation of `sfsql`: query id, rank, weight
// to 12 significant digits, and the printed SQL (which pins the join network
// and its composition).
void AppendTopTen(const SchemaFreeEngine& engine, const std::string& id,
                  const std::string& sfsql, std::string* out) {
  auto translations = engine.Translate(sfsql, 10);
  if (!translations.ok()) {
    *out += id + "\terror\t" + translations.status().ToString() + "\n";
    return;
  }
  for (size_t rank = 0; rank < translations->size(); ++rank) {
    char weight[32];
    std::snprintf(weight, sizeof(weight), "%.12g", (*translations)[rank].weight);
    *out += id + "\t" + std::to_string(rank + 1) + "\t" + weight + "\t" +
            (*translations)[rank].sql + "\n";
  }
}

// Pins the generator's output: the top-10 translations of every movie43
// query (17 textbook, 6 sophisticated, 30 user variants) and every course53
// query derived by DeriveSchemaFree.
TEST(TopKGoldenTest, Movie43AndCourse53TopTenUnchanged) {
  std::string out;
  auto movie = BuildMovie43();
  SchemaFreeEngine movie_engine(movie.get());
  for (const auto* set : {&workloads::TextbookQueries(),
                          &workloads::SophisticatedQueries()}) {
    for (const workloads::BenchQuery& q : *set) {
      AppendTopTen(movie_engine, q.id, q.sfsql, &out);
    }
  }
  for (int s = 0; s < 6; ++s) {
    std::vector<std::string> variants = workloads::UserVariants(s);
    for (size_t v = 0; v < variants.size(); ++v) {
      AppendTopTen(movie_engine,
                   "S" + std::to_string(s + 1) + "u" + std::to_string(v + 1),
                   variants[v], &out);
    }
  }
  auto course = workloads::BuildCourse53();
  SchemaFreeEngine course_engine(course.get());
  for (const workloads::CourseQuery& q : workloads::CourseQueries()) {
    auto sfsql = workloads::DeriveSchemaFree(course->catalog(), q.gold_sql53);
    ASSERT_TRUE(sfsql.ok()) << q.id << ": " << sfsql.status().ToString();
    AppendTopTen(course_engine, "C" + q.id, *sfsql, &out);
  }
  ExpectMatchesGolden(out, "topk_movie43_course53.tsv");
}

TEST(ExplainTest, FailedParseKeepsErrorProvenance) {
  auto db = BuildMovie43();
  SchemaFreeEngine engine(db.get());
  TranslationExplain explain;
  auto result = engine.TranslateExplained("SELEC nonsense", 3, &explain);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(explain.ok);
  EXPECT_FALSE(explain.error.empty());
  EXPECT_TRUE(explain.results.empty());
}

TEST(SlowLogTest, ThresholdCrossingDumpsExplainToSink) {
  auto db = BuildMovie43();
  core::EngineConfig config;
  // Every clock reading advances 1 ms, so a translation "takes" several ms of
  // fake time — far over the 1 ms threshold.
  obs::FakeClock clock(0, 1'000'000);
  config.clock = &clock;
  config.slow_translate_threshold_ms = 1.0;
  std::vector<std::string> dumps;
  config.slow_log_sink = [&dumps](const std::string& s) {
    dumps.push_back(s);
  };
  SchemaFreeEngine engine(db.get(), config);

  auto result = engine.Translate(kQuery, 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps[0].find("slow translation"), std::string::npos);
  // The dump embeds the EXPLAIN tree: candidates and phases are visible.
  EXPECT_NE(dumps[0].find("Movie"), std::string::npos);
  EXPECT_NE(dumps[0].find("phases"), std::string::npos);
}

TEST(SlowLogTest, FastTranslationsStayQuiet) {
  auto db = BuildMovie43();
  core::EngineConfig config;
  obs::FakeClock clock(0, 1'000);  // 1 µs per reading: everything is "fast"
  config.clock = &clock;
  config.slow_translate_threshold_ms = 1000.0;
  int dumps = 0;
  config.slow_log_sink = [&dumps](const std::string&) { ++dumps; };
  SchemaFreeEngine engine(db.get(), config);

  ASSERT_TRUE(engine.Translate(kQuery, 3).ok());
  EXPECT_EQ(dumps, 0);
}

TEST(GeneratorTimingTest, RootSecondsSumAggregatesDeterministically) {
  auto db = BuildMovie43();
  core::EngineConfig config;
  obs::FakeClock clock(0, 1'000'000);
  config.clock = &clock;
  SchemaFreeEngine engine(db.get(), config);

  core::TranslateStats stats;
  auto result = engine.Translate(kQuery, 3, &stats);
  ASSERT_TRUE(result.ok());
  const core::GeneratorStats& g = stats.generator;
  ASSERT_GT(g.roots, 0);
  // Each root's bracket is (start, end) on the same fake clock and the roots
  // run one after another inside the search phase: 0 < sum <= search.
  EXPECT_GT(g.root_seconds_sum, 0.0);
  EXPECT_LE(g.root_seconds_sum, g.search_seconds);
}

}  // namespace
}  // namespace sfsql
