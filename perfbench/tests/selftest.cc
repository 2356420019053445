/// \file selftest.cc
/// \brief The benchmark's own tests: refusal-aware percentiles, span
/// self-time arithmetic, and request-generator validity on short runs.
///
///   python3 perfbench/run.py --selftest
///
/// Exits 0 when every check passes; prints each failed check otherwise.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "episodes.h"
#include "serve/request.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,        \
                   __LINE__, #cond);                                     \
      ++g_failures;                                                      \
    }                                                                    \
  } while (0)

using perfbench::RefusalAwareSample;
using pfr::serve::Decision;
using pfr::serve::RequestKind;

void percentiles_count_refusals() {
  RefusalAwareSample s;
  for (int v = 1; v <= 8; ++v) s.add(v);
  s.add_refused(2);  // ten samples: 1..8, then two beyond every limit
  CHECK(s.count() == 10);
  CHECK(s.percentile(0.5) == 5);
  CHECK(s.percentile(0.8) == 8);
  // Dropping the refusals would report 8 here; they own ranks 9 and 10.
  CHECK(std::isinf(s.percentile(0.9)));
  CHECK(std::isinf(s.percentile(0.99)));
  CHECK(s.beyond(0.5) == 5);  // 6, 7, 8 and both refusals
  CHECK(s.beyond(0.99) == 0);

  RefusalAwareSample other;
  other.add(100);
  other.add(100);
  s.merge(other);  // twelve samples, refusals still rank last
  CHECK(s.count() == 12);
  CHECK(s.percentile(10.0 / 12.0) == 100);
  CHECK(std::isinf(s.percentile(11.0 / 12.0)));

  CHECK(RefusalAwareSample{}.percentile(0.5) == 0);
  CHECK(perfbench::percentile({3, 1, 2}, 0.5) == 2);
  CHECK(perfbench::percentile({3, 1, 2}, 1.0) == 3);
  CHECK(perfbench::percentile({}, 0.5) == 0);
}

void span_self_time() {
  using perfbench::Span;
  // Parent [0, 100]; children overlap each other and one spills past the
  // parent's end.  Covered: [10, 50] and [90, 100], so self = 100 - 50.
  std::vector<Span> t(5);
  t[0] = Span{0, -1, 0, 100, 0};
  t[1] = Span{1, 0, 10, 30, 0};
  t[2] = Span{1, 0, 20, 50, 0};
  t[3] = Span{1, 0, 90, 120, 0};
  t[4] = Span{2, 1, 12, 18, 0};  // grandchild: counts against t[1] only
  CHECK(perfbench::self_time_ns(t, 0) == 50);
  CHECK(perfbench::self_time_ns(t, 1) == 14);
  CHECK(perfbench::self_time_ns(t, 3) == 30);

  perfbench::SpanRecorder rec{"test"};
  const int slot = rec.name("slot");
  const int phase = rec.name("phase");
  const int root = rec.begin(slot, 7, 1000);
  const int dispatch = rec.add_child(root, phase, 1100, 1300);
  rec.add_child(dispatch, phase, 1100, 1200);
  rec.add_child(root, phase, 1300, 1600);
  rec.end(root, 2000);
  const auto s = rec.totals("slot");
  CHECK(s.count == 1 && s.total_ns == 1000 && s.self_ns == 500);
  const auto p = rec.totals("phase");
  CHECK(p.count == 3 && p.total_ns == 600 && p.self_ns == 500);
  CHECK(rec.kept() == 4);
  // A nested begin/end pair becomes a child through the open stack.
  const int outer = rec.begin(slot, 8, 5000);
  const int inner = rec.begin(phase, 8, 5100);
  rec.end(inner, 5400);
  rec.end(outer, 6000);
  CHECK(rec.totals("slot").self_ns == 500 + 700);
}

/// Plays the churn producer against a stand-in service that accepts or
/// rejects joins and defers some reweights, and checks that no request
/// ever names a task the producer should not target.
void churn_producer_targets_only_members() {
  perfbench::ChurnProducer prod{perfbench::ChurnConfig{}, 5};
  std::set<std::string> members;
  for (const auto& t : prod.initial()) members.insert(t.name);
  std::set<std::string> left;
  std::vector<pfr::serve::Request> batch;
  std::vector<pfr::serve::Request> parked;  // deferred, retried next slot
  int joins = 0;
  int leaves = 0;
  for (pfr::pfair::Slot t = 0; t < 400; ++t) {
    batch.clear();
    prod.next_batch(t, batch);
    std::vector<pfr::serve::Request> work = parked;
    parked.clear();
    work.insert(work.end(), batch.begin(), batch.end());
    for (const auto& r : work) {
      pfr::serve::Response resp;
      resp.id = r.id;
      resp.kind = r.kind;
      resp.decision = Decision::kAccepted;
      if (r.kind == RequestKind::kJoin) {
        ++joins;
        CHECK(members.count(r.task) == 0 && left.count(r.task) == 0);
        if (r.id % 5 == 0) {
          resp.decision = Decision::kRejected;
        } else {
          members.insert(r.task);
        }
      } else {
        CHECK(members.count(r.task) == 1);
        if (r.kind == RequestKind::kLeave) {
          ++leaves;
          members.erase(r.task);
          left.insert(r.task);
        } else if (r.kind == RequestKind::kReweight && r.id % 7 == 0 &&
                   r.due == t) {
          resp.decision = Decision::kDeferred;
          parked.push_back(r);
        }
      }
      prod.observe(resp);
    }
  }
  CHECK(joins > 0);
  CHECK(leaves > 0);
  CHECK(prod.live() == members.size());
}

void short_episodes_pass_every_gate() {
  perfbench::EpisodeSize size;
  size.churn_slots = 300;
  size.harmonic_slots = 200;
  size.reads_requests = 20000;
  for (const auto& w : perfbench::workloads()) {
    const perfbench::EpisodeResult a =
        perfbench::run_episode(w.id, 11, size, nullptr);
    for (const std::string& f : a.failures) {
      std::fprintf(stderr, "%s: %s\n", w.name, f.c_str());
    }
    CHECK(a.failures.empty());
    CHECK(a.offered > 0 && a.offered == a.terminal);
    CHECK(a.invalid == 0);
    CHECK(a.slots > 0 && !a.slot_us.empty());
    // Same seed, same inputs, same responses -- traced or not.
    perfbench::TraceBook book;
    const perfbench::EpisodeResult b =
        perfbench::run_episode(w.id, 11, size, &book);
    CHECK(b.digest == a.digest);
    CHECK(book.totals("serve.run_slot").count == b.slots);
    CHECK(book.totals("pfair.phase.dispatch").count > 0);
  }
}

}  // namespace

int main() {
  percentiles_count_refusals();
  span_self_time();
  churn_producer_targets_only_members();
  short_episodes_pass_every_gate();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
