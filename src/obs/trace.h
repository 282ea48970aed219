#ifndef SFSQL_OBS_TRACE_H_
#define SFSQL_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/json.h"

namespace sfsql::obs {

/// One finished (or still-open) span. Attributes are stringified key/value
/// pairs in insertion order.
struct SpanRecord {
  int id = -1;
  int parent = -1;  ///< SpanRecord::id of the parent, -1 for roots
  std::string name;
  uint64_t start_nanos = 0;
  uint64_t end_nanos = 0;
  std::vector<std::pair<std::string, std::string>> attributes;

  double seconds() const { return NanosToSeconds(end_nanos - start_nanos); }
};

/// Lightweight in-process span collector. Spans are identified by small
/// integer ids and parented explicitly (no thread-local context), so work
/// on several threads can report spans into the same trace. All
/// methods are thread-safe; the clock is injected (steady by default) so
/// tests and golden files get deterministic timings.
///
/// A Tracer is cheap to construct and is typically created per traced
/// operation (one Translate call); a null Tracer* anywhere means "not
/// tracing" and costs nothing.
class Tracer {
 public:
  explicit Tracer(const Clock* clock = nullptr) : clock_(ClockOrSteady(clock)) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII handle: ends the span on destruction unless End() was called.
  /// Movable; a default-constructed Span is inactive and all operations on it
  /// are no-ops.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept {
      End();
      tracer_ = other.tracer_;
      id_ = other.id_;
      other.tracer_ = nullptr;
      other.id_ = -1;
      return *this;
    }
    ~Span() { End(); }

    void Attr(std::string_view key, std::string_view value);
    void Attr(std::string_view key, long long value);
    void Attr(std::string_view key, double value);
    void End();

    bool active() const { return tracer_ != nullptr; }
    int id() const { return id_; }

   private:
    friend class Tracer;
    Span(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}

    Tracer* tracer_ = nullptr;
    int id_ = -1;
  };

  /// Opens a span; `parent_id` is the id() of the enclosing span (-1 = root).
  Span StartSpan(std::string name, int parent_id = -1);

  /// Records an already-measured interval (e.g. a per-root search timed by
  /// the generator) as a closed span. Returns its id.
  int AddCompleteSpan(std::string name, int parent_id, uint64_t start_nanos,
                      uint64_t end_nanos,
                      std::vector<std::pair<std::string, std::string>>
                          attributes = {});

  uint64_t NowNanos() const { return clock_->NowNanos(); }
  const Clock& clock() const { return *clock_; }

  std::vector<SpanRecord> Snapshot() const;

  /// Indented tree of the collected spans with millisecond durations and
  /// attributes, children in start order.
  std::string RenderTree() const;

  /// Writes the spans as a JSON array (flat, with parent ids).
  void WriteJson(JsonWriter& w) const;

  /// As WriteJson, for a snapshot taken earlier.
  static void WriteSpansJson(const std::vector<SpanRecord>& spans,
                             JsonWriter& w);

  /// Writes the spans as a nested forest: a JSON array of root span objects,
  /// each with its attributes and a "children" array, children in start
  /// (= id) order — the tree RenderTree prints, machine-readable. This is the
  /// shape a QueryProfile embeds verbatim as its "trace" member. Spans whose
  /// parent id is out of range are treated as roots, like RenderSpanTree.
  void WriteForestJson(JsonWriter& w) const;

  /// As WriteForestJson, for a snapshot taken earlier.
  static void WriteForestJson(const std::vector<SpanRecord>& spans,
                              JsonWriter& w);

 private:
  void EndSpan(int id);
  void AddAttr(int id, std::string_view key, std::string value);

  const Clock* clock_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Human rendering of a span forest (used by Tracer::RenderTree and the
/// EXPLAIN output, which embeds span snapshots).
std::string RenderSpanTree(const std::vector<SpanRecord>& spans);

}  // namespace sfsql::obs

#endif  // SFSQL_OBS_TRACE_H_
