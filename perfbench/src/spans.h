/// \file spans.h
/// \brief In-memory span recording for the benchmark's traced mode.
///
/// A span is (name, start, end, parent, key).  The benchmark opens spans
/// around its own calls into each layer's public functions, one recorder
/// per thread, so recording never locks.  Spans nest through the
/// recorder's open stack; synthetic children (engine phases read back from
/// a MetricsRegistry after the call) are attached to an open span with
/// explicit times.  When a root span closes, every span of its tree gets
/// its self time -- its duration minus the part of its interval that its
/// children cover -- and is folded into per-name totals.  The first
/// `keep_limit` spans are kept verbatim and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int name{0};             ///< index into the recorder's name table
  int parent{-1};          ///< index within the same tree, -1 for the root
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint64_t key{0};    ///< slot or episode the span belongs to
};

/// Self time of `spans[i]`: its duration minus the length of the union of
/// its direct children's intervals, each clipped to the parent's interval.
/// Children may overlap or spill outside the parent; neither is counted
/// twice or outside.
[[nodiscard]] std::int64_t self_time_ns(const std::vector<Span>& spans,
                                        std::size_t i);

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t count{0};
    std::int64_t total_ns{0};
    std::int64_t self_ns{0};
  };

  explicit SpanRecorder(std::string thread_name,
                        std::size_t keep_limit = 1U << 16);

  /// Registers (or finds) a span name; resolve once, outside hot loops.
  int name(const std::string& span_name);

  /// Opens a span now (or at `at_ns`), as a child of the innermost open
  /// span.
  int begin(int name_id, std::uint64_t key, std::int64_t at_ns = -1);
  /// Closes the innermost open span, which must be `id`, now or at `at_ns`.
  void end(int id, std::int64_t at_ns = -1);
  /// Attaches an already-finished child to the open span `parent`.
  int add_child(int parent, int name_id, std::int64_t start_ns,
                std::int64_t end_ns);

  [[nodiscard]] const std::string& thread_name() const noexcept {
    return thread_name_;
  }
  /// Totals of every closed span named `span_name`.
  [[nodiscard]] Totals totals(const std::string& span_name) const;

  /// Appends the kept spans as Chrome trace-event objects (one per line,
  /// comma-separated, no enclosing brackets).  `first` tracks the comma.
  void write_chrome_events(std::ostream& out, int tid, bool& first) const;
  [[nodiscard]] std::uint64_t kept() const noexcept { return kept_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  void finish_tree();

  std::string thread_name_;
  std::size_t keep_limit_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Span> tree_;      ///< spans of the current root's tree
  std::vector<int> open_;       ///< indices into tree_
  std::vector<Span> kept_;      ///< finished trees, parents re-indexed
  std::uint64_t dropped_{0};
};

/// RAII span: begin on construction, end on destruction; a null recorder
/// records nothing (the untraced mode pays one branch).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, int name_id, std::uint64_t key)
      : rec_(rec), id_(rec != nullptr ? rec->begin(name_id, key) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
