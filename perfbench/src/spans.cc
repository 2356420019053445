#include "spans.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t self_time_ns(const std::vector<Span>& spans, std::size_t i) {
  const Span& p = spans.at(i);
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& s : spans) {
    if (s.parent != static_cast<int>(i)) continue;
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = p.start_ns;
  for (const auto& [lo, hi] : iv) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return (p.end_ns - p.start_ns) - covered;
}

SpanRecorder::SpanRecorder(std::string thread_name, std::size_t keep_limit)
    : thread_name_(std::move(thread_name)), keep_limit_(keep_limit) {}

int SpanRecorder::name(const std::string& span_name) {
  const auto it = std::find(names_.begin(), names_.end(), span_name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.push_back(span_name);
  totals_.emplace_back();
  return static_cast<int>(names_.size()) - 1;
}

int SpanRecorder::begin(int name_id, std::uint64_t key, std::int64_t at_ns) {
  Span s;
  s.name = name_id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.key = key;
  s.start_ns = at_ns >= 0 ? at_ns : now_ns();
  tree_.push_back(s);
  open_.push_back(static_cast<int>(tree_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int id, std::int64_t at_ns) {
  const std::int64_t t = at_ns >= 0 ? at_ns : now_ns();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanRecorder::end: spans closed out of order");
  }
  tree_[static_cast<std::size_t>(id)].end_ns = t;
  open_.pop_back();
  if (open_.empty()) finish_tree();
}

int SpanRecorder::add_child(int parent, int name_id, std::int64_t start_ns,
                            std::int64_t end_ns) {
  Span s;
  s.name = name_id;
  s.parent = parent;
  s.key = tree_.at(static_cast<std::size_t>(parent)).key;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  tree_.push_back(s);
  return static_cast<int>(tree_.size()) - 1;
}

SpanRecorder::Totals SpanRecorder::totals(const std::string& span_name) const {
  const auto it = std::find(names_.begin(), names_.end(), span_name);
  if (it == names_.end()) return {};
  return totals_[static_cast<std::size_t>(it - names_.begin())];
}

void SpanRecorder::finish_tree() {
  for (std::size_t i = 0; i < tree_.size(); ++i) {
    Totals& tot = totals_[static_cast<std::size_t>(tree_[i].name)];
    ++tot.count;
    tot.total_ns += tree_[i].end_ns - tree_[i].start_ns;
    tot.self_ns += self_time_ns(tree_, i);
  }
  if (kept_.size() + tree_.size() <= keep_limit_) {
    const int base = static_cast<int>(kept_.size());
    for (Span s : tree_) {
      if (s.parent >= 0) s.parent += base;
      kept_.push_back(s);
    }
  } else {
    dropped_ += tree_.size();
  }
  tree_.clear();
}

void SpanRecorder::write_chrome_events(std::ostream& out, int tid,
                                       bool& first) const {
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    out << (first ? "" : ",\n") << "{\"name\":\""
        << names_[static_cast<std::size_t>(s.name)]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"key\":" << s.key << ",\"thread\":\"" << thread_name_
        << "\",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
    first = false;
  }
}

}  // namespace perfbench
