#include "episodes.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cluster/cluster.h"
#include "cluster/elastic/controller.h"
#include "net/feed.h"
#include "net/ingest.h"
#include "net/spsc_ring.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/telemetry.h"
#include "pfair/engine.h"
#include "pfair/task.h"
#include "serve/router.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

using pfr::pfair::Engine;
using pfr::pfair::ReweightPolicy;
using pfr::pfair::Slot;
using pfr::pfair::TaskId;
using pfr::serve::Decision;
using pfr::serve::Request;
using pfr::serve::RequestId;
using pfr::serve::RequestKind;
using pfr::serve::Response;

namespace {

/// Extra engine-only slots after the last request, to let pending
/// enactments resolve before what is still pending counts as stranded.
constexpr Slot kGrace = 4096;
constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kRingFrames = 4096;
/// ingest-reads scrapes live telemetry every this many served slots.
constexpr std::int64_t kScrapeEvery = 32;

/// Engine phases in step() order; "dispatch" contains the two sub-phases.
constexpr std::array<const char*, 8> kTopPhases{
    "faults", "joins", "enactments", "releases",
    "events", "ideal", "dispatch", "miss_detect"};
constexpr std::size_t kDispatch = 6;
constexpr std::array<const char*, 2> kDispatchSub{"dispatch.select",
                                                  "dispatch.commit"};

/// The EngineConfig every episode uses: default-constructed, then policy,
/// processors and record_slot_trace only.
pfr::pfair::EngineConfig engine_config(ReweightPolicy policy, int processors) {
  pfr::pfair::EngineConfig cfg;
  cfg.policy = policy;
  cfg.processors = processors;
  cfg.record_slot_trace = false;
  return cfg;
}

/// Empty when `engine` runs the default dispatch and accrual path;
/// otherwise what differs (an environment override, say).
std::string non_default_path(const Engine& engine) {
  const pfr::pfair::EngineConfig dflt;
  const pfr::pfair::EngineConfig& cfg = engine.config();
  std::string why;
  if (cfg.use_ready_queue != dflt.use_ready_queue) why += " use_ready_queue";
  if (cfg.dispatch_mode != dflt.dispatch_mode) why += " dispatch_mode";
  if (cfg.legacy_accrual != dflt.legacy_accrual) why += " legacy_accrual";
  if (cfg.verify_priorities != dflt.verify_priorities) {
    why += " verify_priorities";
  }
  if (cfg.validate != dflt.validate) why += " validate";
  return why;
}

double secs(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Span name ids of one recorder.
struct Names {
  explicit Names(SpanRecorder& rec)
      : push(rec.name("serve.push")), run_slot(rec.name("serve.run_slot")) {
    for (std::size_t i = 0; i < kTopPhases.size(); ++i) {
      top[i] = rec.name(std::string("pfair.phase.") + kTopPhases[i]);
    }
    for (std::size_t i = 0; i < kDispatchSub.size(); ++i) {
      sub[i] = rec.name(std::string("pfair.phase.") + kDispatchSub[i]);
    }
  }
  int push;
  int run_slot;
  std::array<int, kTopPhases.size()> top{};
  std::array<int, kDispatchSub.size()> sub{};
};

/// One engine's phase timers, read as per-slot deltas.
class PhaseTimers {
 public:
  explicit PhaseTimers(pfr::obs::MetricsRegistry& reg) {
    for (std::size_t i = 0; i < kTopPhases.size(); ++i) {
      top_[i] = &reg.timer(std::string("engine.phase.") + kTopPhases[i]);
    }
    for (std::size_t i = 0; i < kDispatchSub.size(); ++i) {
      sub_[i] = &reg.timer(std::string("engine.phase.") + kDispatchSub[i]);
    }
  }
  void mark() {
    for (std::size_t i = 0; i < top_.size(); ++i) top0_[i] = top_[i]->total_ns;
    for (std::size_t i = 0; i < sub_.size(); ++i) sub0_[i] = sub_[i]->total_ns;
  }
  [[nodiscard]] std::int64_t top(std::size_t i) const {
    return top_[i]->total_ns - top0_[i];
  }
  [[nodiscard]] std::int64_t sub(std::size_t i) const {
    return sub_[i]->total_ns - sub0_[i];
  }
  [[nodiscard]] std::int64_t total() const {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < top_.size(); ++i) sum += top(i);
    return sum;
  }

 private:
  std::array<pfr::obs::Timer*, kTopPhases.size()> top_{};
  std::array<pfr::obs::Timer*, kDispatchSub.size()> sub_{};
  std::array<std::int64_t, kTopPhases.size()> top0_{};
  std::array<std::int64_t, kDispatchSub.size()> sub0_{};
};

/// Turns the phase deltas since mark() into children of the open span
/// `parent`, laid end to end (engine by engine, in step() order) so the
/// last one finishes at `end_ns`.  The registry gives durations, not
/// positions; what matters for self time is that they sit inside the
/// parent.  Returns the summed top-level deltas.
std::int64_t emit_phase_spans(SpanRecorder& rec, const Names& names,
                              int parent, std::int64_t end_ns,
                              const std::vector<PhaseTimers>& engines) {
  std::int64_t total = 0;
  for (const PhaseTimers& pt : engines) total += pt.total();
  std::int64_t at = end_ns - total;
  for (const PhaseTimers& pt : engines) {
    for (std::size_t i = 0; i < kTopPhases.size(); ++i) {
      const std::int64_t d = pt.top(i);
      const int id = rec.add_child(parent, names.top[i], at, at + d);
      if (i == kDispatch) {
        std::int64_t sub_at = at;
        for (std::size_t j = 0; j < kDispatchSub.size(); ++j) {
          rec.add_child(id, names.sub[j], sub_at, sub_at + pt.sub(j));
          sub_at += pt.sub(j);
        }
      }
      at += d;
    }
  }
  return total;
}

/// Follows the responses a service issues.  Counts decisions, keeps the
/// set of deferred requests, and remembers every accepted reweight with
/// its target's enactment count at apply time.  At the end of the episode
/// a reweight whose target's count has since advanced enacted (the
/// service stamped the exact slot on its response); one whose count has
/// not is stranded.  This is the service's own resolution rule, so the
/// resolved total must equal the telemetry latency histogram's count.
struct Tracker {
  std::size_t seen{0};
  std::vector<std::int32_t> snap;      ///< by id - 1
  std::vector<RequestId> deferred;     ///< deferred, not yet terminal
  std::vector<std::size_t> applied;    ///< response indices, accepted reweights
  std::uint64_t terminal{0};
  std::uint64_t refused{0};
  std::uint64_t refused_reweights{0};
  std::uint64_t deferred_responses{0};
  std::uint64_t unknown_task{0};
  std::uint64_t leaving{0};

  /// Records the enactment count of every reweight about to be served:
  /// ids [first, last] and every deferred retry.
  template <typename CountOf>
  void snapshot(const std::vector<RequestMeta>& meta, RequestId first,
                RequestId last, CountOf&& count_of) {
    if (snap.size() < meta.size()) snap.resize(meta.size(), 0);
    const auto take = [&](RequestId id) {
      const RequestMeta& m = meta[id - 1];
      if (m.kind == RequestKind::kReweight) {
        snap[id - 1] = count_of(m.target);
      }
    };
    for (RequestId id = first; id <= last; ++id) take(id);
    for (const RequestId id : deferred) take(id);
  }

  /// Consumes the responses issued since the last call; returns how many
  /// were terminal.  `on_terminal(response, meta)` sees each terminal one.
  template <typename OnTerminal>
  std::uint64_t take(const std::vector<Response>& all,
                     const std::vector<RequestMeta>& meta,
                     OnTerminal&& on_terminal) {
    std::uint64_t n = 0;
    for (; seen < all.size(); ++seen) {
      const Response& r = all[seen];
      if (r.decision == Decision::kDeferred) {
        deferred.push_back(r.id);
        ++deferred_responses;
        continue;
      }
      ++n;
      if (!deferred.empty()) std::erase(deferred, r.id);
      const RequestMeta& m = meta[r.id - 1];
      const bool refusal =
          r.decision == Decision::kRejected || r.decision == Decision::kShed;
      if (refusal) {
        ++refused;
        if (m.kind == RequestKind::kReweight) ++refused_reweights;
        if (r.reason == "unknown task") ++unknown_task;
        if (r.reason.find("leaving") != std::string::npos) ++leaving;
      } else if (m.kind == RequestKind::kReweight) {
        applied.push_back(seen);
      }
      on_terminal(r, m);
    }
    terminal += n;
    return n;
  }

  template <typename CountOf>
  void resolve(EpisodeResult& out, const std::vector<Response>& all,
               const std::vector<RequestMeta>& meta,
               CountOf&& count_of) const {
    out.accepted_reweights = applied.size();
    for (const std::size_t i : applied) {
      const Response& r = all[i];
      if (count_of(meta[r.id - 1].target) > snap[r.id - 1]) {
        out.enact_slots.add(r.enact_slot - r.due);
      } else {
        ++out.stranded;  // reported in enacted_frac, not as a latency
      }
    }
    out.enact_slots.add_refused(refused_reweights);
  }
};

/// Per-slot window bookkeeping: when each served slot ended and how many
/// terminal responses it issued.
struct Window {
  std::int64_t start_ns{0};
  std::vector<std::int64_t> end_ns;
  std::vector<std::uint32_t> terminal;
  std::uint64_t empty_before{0};  ///< slots whose queue was empty before run_slot

  void close(EpisodeResult& out) const {
    const std::size_t n = end_ns.size();
    out.slots = n;
    if (n == 0) return;
    out.serve_s = secs(start_ns, end_ns.back());
    for (const std::uint32_t k : terminal) out.window_terminal += k;
    const std::size_t tail = std::max<std::size_t>(1, n / 10);
    const std::int64_t from = n > tail ? end_ns[n - tail - 1] : start_ns;
    std::uint64_t tail_terminal = 0;
    for (std::size_t i = n - tail; i < n; ++i) tail_terminal += terminal[i];
    const double tail_s = secs(from, end_ns.back());
    out.tail_req_per_s =
        tail_s > 0 ? static_cast<double>(tail_terminal) / tail_s : 0.0;
  }
};

/// Calls run_slot(), timing it; traced, wraps it in a span whose children
/// are the engines' phase deltas.
template <typename Service>
bool timed_run_slot(Service& svc, Slot t, SpanRecorder* rec,
                    const Names* names, std::vector<PhaseTimers>& engines,
                    EpisodeResult& out) {
  if (rec == nullptr) {
    const std::int64_t a = now_ns();
    const bool open = svc.run_slot();
    out.slot_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
    return open;
  }
  for (PhaseTimers& pt : engines) pt.mark();
  const std::int64_t a = now_ns();
  const int id = rec->begin(names->run_slot, static_cast<std::uint64_t>(t));
  const bool open = svc.run_slot();
  const std::int64_t b = now_ns();
  out.engine_child_ns += emit_phase_spans(*rec, *names, id, b, engines);
  rec->end(id, b);
  out.slot_us.push_back(static_cast<double>(b - a) / 1e3);
  return open;
}

void add_engine_counts(EpisodeResult& out, const Engine& e) {
  const pfr::pfair::EngineStats& s = e.stats();
  auto& c = out.counts;
  c["pfair.dispatched"] += static_cast<double>(s.dispatched);
  c["pfair.holes"] += static_cast<double>(s.holes);
  c["pfair.initiations"] += s.initiations;
  c["pfair.enactments"] += s.enactments;
  c["pfair.halts"] += s.halts;
  c["pfair.oi_events"] += s.oi_events;
  c["pfair.lj_events"] += s.lj_events;
  c["pfair.disruptions"] += static_cast<double>(s.disruptions);
  c["pfair.fastpath.upserts"] += static_cast<double>(s.fastpath_upserts);
  c["pfair.fastpath.pops"] += static_cast<double>(s.fastpath_pops);
  c["pfair.fastpath.erases"] += static_cast<double>(s.fastpath_erases);
  c["pfair.retained_tasks"] += static_cast<double>(e.task_count());
  double live = 0;
  for (std::size_t i = 0; i < e.task_count(); ++i) {
    const pfr::pfair::TaskState& t = e.task(static_cast<TaskId>(i));
    const bool present =
        t.joined && (t.left_at == pfr::pfair::kNever || t.left_at > e.now());
    if (present) live += 1;
    out.drift_max = std::max(out.drift_max, std::abs(t.drift.to_double()));
  }
  c["pfair.live_tasks"] += live;
  if (!e.misses().empty()) {
    out.failures.push_back(std::to_string(e.misses().size()) +
                           " deadline misses");
  }
  if (const std::string why = non_default_path(e); !why.empty()) {
    out.failures.push_back("engine not on the default path: " + why);
  }
}

template <typename Stats>
void add_serve_counts(EpisodeResult& out, const Stats& s,
                      std::size_t responses, std::size_t queue_max,
                      const Tracker& tr, const Window& win) {
  auto& c = out.counts;
  c["serve.admitted"] = static_cast<double>(s.admitted);
  c["serve.clamped"] = static_cast<double>(s.clamped);
  c["serve.rejected"] = static_cast<double>(s.rejected);
  c["serve.deferred"] = static_cast<double>(s.deferred);
  c["serve.shed"] = static_cast<double>(s.shed);
  c["serve.responses_retained"] = static_cast<double>(responses);
  c["serve.queue_depth_max"] = static_cast<double>(queue_max);
  const double slots = std::max<double>(1, static_cast<double>(out.slots));
  const double offered = std::max<double>(1, static_cast<double>(out.offered));
  c["serve.requests_per_slot"] = static_cast<double>(out.offered) / slots;
  c["serve.retry_frac"] = static_cast<double>(tr.deferred_responses) / offered;
  c["serve.queue_empty_frac"] = static_cast<double>(win.empty_before) / slots;
}

/// The gates every workload shares, once the episode has drained.
void common_gates(EpisodeResult& out, const Tracker& tr,
                  std::int64_t histogram_resolved) {
  out.terminal = tr.terminal;
  out.refused = tr.refused;
  out.invalid = tr.unknown_task + tr.leaving;
  if (tr.unknown_task != 0) {
    out.failures.push_back(std::to_string(tr.unknown_task) +
                           " requests rejected as unknown task");
  }
  if (tr.leaving != 0) {
    out.failures.push_back(std::to_string(tr.leaving) +
                           " requests targeted a departing task");
  }
  if (out.terminal != out.offered) {
    out.failures.push_back("offered " + std::to_string(out.offered) +
                           " requests but saw " +
                           std::to_string(out.terminal) +
                           " terminal responses");
  }
  const auto resolved = static_cast<std::int64_t>(out.accepted_reweights -
                                                  out.stranded);
  if (resolved != histogram_resolved) {
    out.failures.push_back(
        "enactment watch resolved " + std::to_string(resolved) +
        " reweights, telemetry histogram " +
        std::to_string(histogram_resolved));
  }
}

/// churn-hybrid and engine-harmonic: one in-thread producer, one engine.
template <typename Producer, typename OnTerminal>
EpisodeResult serve_in_thread(Producer& prod, ReweightPolicy policy,
                              int processors, std::int64_t slots,
                              std::int64_t setup_start, TraceBook* book,
                              OnTerminal&& on_terminal,
                              std::vector<TaskId>& ids) {
  EpisodeResult out;
  pfr::serve::ServiceConfig cfg;
  cfg.engine = engine_config(policy, processors);
  cfg.queue_capacity = kQueueCapacity;
  pfr::serve::ReweightService svc{cfg};
  pfr::obs::TelemetryShard tel;
  svc.set_telemetry(&tel);
  for (const SeedTask& t : prod.initial()) {
    ids.push_back(svc.seed_task(t.name, t.weight, t.rank));
  }
  const int handle = svc.queue().add_producer();
  pfr::obs::MetricsRegistry reg;
  std::vector<PhaseTimers> engines;
  SpanRecorder* rec = book != nullptr ? &book->make("serve") : nullptr;
  std::optional<Names> names;
  if (rec != nullptr) {
    svc.engine().set_metrics(&reg);
    engines.emplace_back(reg);
    names.emplace(*rec);
  }
  const auto count_of = [&](int target) {
    return svc.engine().task(ids[static_cast<std::size_t>(target)])
        .enactment_count;
  };
  Tracker tr;
  Window win;
  std::vector<Request> batch;
  out.setup_s = secs(setup_start, now_ns());

  win.start_ns = now_ns();
  for (Slot t = 0; t < slots; ++t) {
    batch.clear();
    const RequestId first = prod.meta().size() + 1;
    prod.next_batch(t, batch);
    for (Request& r : batch) {
      ScopedSpan span(rec, rec != nullptr ? names->push : 0, r.id);
      svc.queue().push(handle, std::move(r));
    }
    svc.queue().advance_watermark(handle, t + 1);
    tr.snapshot(prod.meta(), first, prod.meta().size(), count_of);
    if (svc.queue().depth() == 0) ++win.empty_before;
    timed_run_slot(svc, t, rec, names ? &*names : nullptr, engines, out);
    win.terminal.push_back(static_cast<std::uint32_t>(
        tr.take(svc.responses(), prod.meta(), on_terminal)));
    win.end_ns.push_back(now_ns());
  }
  win.close(out);
  out.offered = prod.meta().size();

  // Outside the window: finish deferred retries, then let pending
  // enactments resolve.
  svc.queue().producer_done(handle);
  for (bool open = true; open;) {
    tr.snapshot(prod.meta(), 1, 0, count_of);
    open = svc.run_slot();
    tr.take(svc.responses(), prod.meta(), on_terminal);
  }
  svc.engine().set_metrics(nullptr);
  svc.run_to_completion(kGrace);
  tr.take(svc.responses(), prod.meta(), on_terminal);

  out.digest = svc.response_digest();
  tr.resolve(out, svc.responses(), prod.meta(), count_of);
  add_engine_counts(out, svc.engine());
  add_serve_counts(out, svc.stats(), svc.responses().size(),
                   svc.queue().high_watermark(), tr, win);
  out.counts["pfair.live_task_frac"] =
      out.counts["pfair.live_tasks"] /
      std::max(1.0, out.counts["pfair.retained_tasks"]);
  common_gates(out, tr, tel.hist(pfr::obs::TelHist::kEnactLatency).total);
  return out;
}

EpisodeResult run_churn(std::uint64_t seed, const EpisodeSize& size,
                        TraceBook* book) {
  const std::int64_t setup_start = now_ns();
  const ChurnConfig cfg;
  ChurnProducer prod{cfg, seed};
  std::vector<TaskId> ids;
  // Accepted joins bind the producer's new name to its engine id.
  const auto on_terminal = [&](const Response& r, const RequestMeta& m) {
    if (m.kind == RequestKind::kJoin &&
        (r.decision == Decision::kAccepted ||
         r.decision == Decision::kClamped)) {
      if (ids.size() <= static_cast<std::size_t>(m.target)) {
        ids.resize(static_cast<std::size_t>(m.target) + 1, -1);
      }
      ids[static_cast<std::size_t>(m.target)] = r.task;
    }
    prod.observe(r);
  };
  return serve_in_thread(prod, ReweightPolicy::kHybridMagnitude,
                         cfg.processors, size.churn_slots, setup_start, book,
                         on_terminal, ids);
}

EpisodeResult run_harmonic(std::uint64_t seed, const EpisodeSize& size,
                           TraceBook* book) {
  const std::int64_t setup_start = now_ns();
  HarmonicProducer prod{HarmonicConfig{}, seed};
  std::vector<TaskId> ids;
  return serve_in_thread(prod, ReweightPolicy::kOmissionIdeal,
                         prod.processors(), size.harmonic_slots, setup_start,
                         book, [](const Response&, const RequestMeta&) {},
                         ids);
}

/// Joins the ingest threads on every exit path: closing the rings and the
/// queue unblocks a producer or a drain that would otherwise wait forever.
class ThreadGuard {
 public:
  ThreadGuard(std::vector<pfr::net::ShmRing>& rings,
              pfr::serve::RequestQueue& queue, std::atomic<bool>& abort)
      : rings_(rings), queue_(queue), abort_(abort) {}
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;
  ~ThreadGuard() {
    if (joined_) return;
    abort_.store(true, std::memory_order_release);
    for (pfr::net::ShmRing& r : rings_) r.close();
    queue_.close();
    join();
  }
  void add(std::thread t) { threads_.push_back(std::move(t)); }
  void join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    joined_ = true;
  }

 private:
  std::vector<pfr::net::ShmRing>& rings_;
  pfr::serve::RequestQueue& queue_;
  std::atomic<bool>& abort_;
  std::vector<std::thread> threads_;
  bool joined_{false};
};

/// What the benchmark-driven mux loop saw.
struct PumpLog {
  std::uint64_t calls{0};
  std::uint64_t useful{0};
  std::uint64_t scrapes{0};
  bool scrape_ok{true};
};

/// The mux loop, as IngestMux::run() drives it, with a span per pump_once
/// call and a live telemetry scrape every kScrapeEvery served slots.
void pump_loop(pfr::net::IngestMux& mux, const pfr::obs::Telemetry& tel,
               const std::atomic<std::int64_t>& served,
               const std::atomic<bool>& abort, SpanRecorder* rec,
               PumpLog& log) {
  const int pump = rec != nullptr ? rec->name("net.pump_once") : 0;
  const int scrape = rec != nullptr ? rec->name("obs.scrape") : 0;
  std::int64_t next_scrape = kScrapeEvery;
  while (!abort.load(std::memory_order_acquire)) {
    bool moved = false;
    {
      ScopedSpan span(rec, pump, log.calls);
      moved = mux.pump_once();
    }
    ++log.calls;
    if (moved) ++log.useful;
    if (served.load(std::memory_order_acquire) >= next_scrape) {
      ScopedSpan span(rec, scrape, static_cast<std::uint64_t>(next_scrape));
      const std::string text = pfr::obs::dump_prometheus(tel);
      log.scrape_ok = log.scrape_ok && !text.empty();
      ++log.scrapes;
      next_scrape += kScrapeEvery;
    }
    if (moved) continue;
    if (mux.all_sources_done()) {
      if (!mux.pump_once()) break;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

EpisodeResult run_reads(std::uint64_t seed, const EpisodeSize& size,
                        TraceBook* book) {
  EpisodeResult out;
  const std::int64_t setup_start = now_ns();
  ReadsConfig rc;
  rc.requests = size.reads_requests;
  const ReadsLog log = make_reads_log(rc, seed);
  std::vector<std::vector<Request>> slices;
  for (int p = 0; p < 2; ++p) {
    slices.push_back(pfr::net::partition_requests(log.requests, p, 2));
  }

  pfr::serve::ShardedServiceConfig cfg;
  for (int k = 0; k < rc.shards; ++k) {
    cfg.cluster.shards.push_back(
        engine_config(ReweightPolicy::kOmissionIdeal, rc.processors_per_shard));
  }
  cfg.cluster.threads = 1;
  cfg.cluster.elastic.enabled = true;
  // Lending only: a migration would move a task between shards mid-run.
  cfg.cluster.elastic.allow_migration = false;
  // About 20 tasks per processor: weigh pressure by utilization, as the
  // cluster_scaling skew bench does, or the ready-depth term alone would
  // disqualify every donor.
  cfg.cluster.elastic.depth_weight = 0.001;
  cfg.queue_capacity = kQueueCapacity;
  pfr::serve::ShardedService svc{cfg};
  pfr::cluster::Cluster& cluster = svc.cluster();
  pfr::obs::Telemetry tel{rc.shards + 1};
  svc.set_telemetry(&tel);
  // Three tasks in four start on shard 0, so it runs near 90% of its
  // capacity and shard 1 near 30%: the elastic controller has something
  // to lend.
  std::vector<pfr::cluster::Cluster::MemberRef> where;
  for (std::size_t i = 0; i < log.tasks.size(); ++i) {
    const SeedTask& t = log.tasks[i];
    const auto res = cluster.admit(t.name, t.weight, t.rank, i % 4 == 3);
    if (res.shard < 0) {
      throw std::runtime_error("ingest-reads: cannot seed " + t.name);
    }
    where.push_back({res.shard, res.local});
  }
  std::vector<pfr::obs::MetricsRegistry> regs(
      static_cast<std::size_t>(rc.shards));
  std::vector<PhaseTimers> engines;
  SpanRecorder* rec = book != nullptr ? &book->make("serve") : nullptr;
  std::optional<Names> names;
  if (rec != nullptr) {
    for (int k = 0; k < rc.shards; ++k) {
      cluster.shard(k).set_metrics(&regs[static_cast<std::size_t>(k)]);
      engines.emplace_back(regs[static_cast<std::size_t>(k)]);
    }
    names.emplace(*rec);
  }
  const auto count_of = [&](int target) {
    const auto& ref = where[static_cast<std::size_t>(target)];
    return cluster.shard(ref.shard).task(ref.local).enactment_count;
  };

  std::vector<pfr::net::ShmRing> rings;
  for (int p = 0; p < 2; ++p) {
    rings.push_back(pfr::net::ShmRing::create_anonymous(kRingFrames));
  }
  pfr::net::IngestMux mux{svc.queue()};
  for (pfr::net::ShmRing& r : rings) mux.add_ring(r);
  mux.set_telemetry(&tel.shard(rc.shards));
  std::atomic<std::int64_t> served{0};
  std::vector<pfr::net::FeedStats> fed(2);
  PumpLog pump_log;
  SpanRecorder* mux_rec = book != nullptr ? &book->make("mux") : nullptr;
  std::array<SpanRecorder*, 2> feed_rec{};
  for (int p = 0; p < 2; ++p) {
    if (book != nullptr) feed_rec[p] = &book->make("feed" + std::to_string(p));
  }
  std::atomic<bool> abort{false};
  ThreadGuard guard{rings, svc.queue(), abort};
  for (int p = 0; p < 2; ++p) {
    guard.add(std::thread{[&, p] {
      pin_to_cpu(2 + p);
      SpanRecorder* r = feed_rec[static_cast<std::size_t>(p)];
      pfr::net::FeedConfig fc;
      fc.producer_tag = static_cast<std::uint64_t>(p);
      fc.blocking = true;  // lossless: wait for ring space, never shed
      ScopedSpan span(r, r != nullptr ? r->name("net.feed_ring") : 0,
                      static_cast<std::uint64_t>(p));
      fed[static_cast<std::size_t>(p)] = pfr::net::feed_ring(
          rings[static_cast<std::size_t>(p)],
          slices[static_cast<std::size_t>(p)], fc);
    }});
  }
  guard.add(std::thread{
      [&] {
        pin_to_cpu(1);
        pump_loop(mux, tel, served, abort, mux_rec, pump_log);
      }});
  out.setup_s = secs(setup_start, now_ns());

  Tracker tr;
  Window win;
  std::size_t next = 0;
  const auto ignore = [](const Response&, const RequestMeta&) {};
  win.start_ns = now_ns();
  for (Slot t = 0;; ++t) {
    const std::size_t first = next;
    while (next < log.requests.size() && log.requests[next].due <= t) ++next;
    tr.snapshot(log.meta, first + 1, next, count_of);
    if (svc.queue().depth() == 0) ++win.empty_before;
    const bool open = timed_run_slot(svc, t, rec, names ? &*names : nullptr,
                                     engines, out);
    served.store(t + 1, std::memory_order_release);
    win.terminal.push_back(
        static_cast<std::uint32_t>(tr.take(svc.responses(), log.meta, ignore)));
    win.end_ns.push_back(now_ns());
    if (!open) break;
  }
  win.close(out);
  guard.join();
  out.offered = log.requests.size();
  for (int k = 0; k < rc.shards; ++k) cluster.shard(k).set_metrics(nullptr);
  svc.run_to_completion(kGrace);
  tr.take(svc.responses(), log.meta, ignore);

  out.digest = svc.response_digest();
  tr.resolve(out, svc.responses(), log.meta, count_of);
  std::int64_t hist_total = 0;
  double load_min = 0;
  double load_max = 0;
  int delta_sum = 0;
  int alive_sum = 0;
  int physical_sum = 0;
  for (int k = 0; k < rc.shards; ++k) {
    add_engine_counts(out, cluster.shard(k));
    hist_total += tel.shard(k).hist(pfr::obs::TelHist::kEnactLatency).total;
    const double load = cluster.shard_load(k).to_double();
    load_min = k == 0 ? load : std::min(load_min, load);
    load_max = k == 0 ? load : std::max(load_max, load);
    delta_sum += cluster.shard(k).elastic_delta();
    alive_sum += cluster.shard(k).alive_processors();
    physical_sum += cluster.shard(k).processors();
  }
  add_serve_counts(out, svc.stats(), svc.responses().size(),
                   svc.queue().high_watermark(), tr, win);
  auto& c = out.counts;
  c["pfair.live_task_frac"] =
      c["pfair.live_tasks"] / std::max(1.0, c["pfair.retained_tasks"]);
  c["serve.placement_fallbacks"] =
      static_cast<double>(svc.stats().placement_fallbacks);
  c["serve.migration_defers"] =
      static_cast<double>(svc.stats().migration_defers);
  c["cluster.shard_load_skew"] = load_min > 0 ? load_max / load_min : 0.0;
  c["cluster.elastic.loans"] =
      cluster.elastic() != nullptr
          ? static_cast<double>(cluster.elastic()->stats().loans)
          : 0.0;
  c["cluster.migrations.completed"] =
      static_cast<double>(cluster.stats().migrations_completed);
  const pfr::net::IngestMux::Stats ms = mux.stats();
  c["net.frames"] = static_cast<double>(ms.frames);
  c["net.malformed"] = static_cast<double>(ms.malformed);
  c["net.pump_calls"] = static_cast<double>(pump_log.calls);
  c["net.pump_useful_frac"] =
      static_cast<double>(pump_log.useful) /
      std::max<double>(1, static_cast<double>(pump_log.calls));
  c["obs.scrapes"] = static_cast<double>(pump_log.scrapes);

  common_gates(out, tr, hist_total);
  std::uint64_t sent = 0;
  std::uint64_t shed = 0;
  for (const pfr::net::FeedStats& f : fed) {
    sent += f.sent;
    shed += f.shed;
  }
  if (ms.requests != log.requests.size() || sent != log.requests.size() ||
      shed != 0 || ms.ring_shed != 0) {
    out.failures.push_back("ring delivery lost frames: fed " +
                           std::to_string(sent) + ", shed " +
                           std::to_string(shed + ms.ring_shed) +
                           ", delivered " + std::to_string(ms.requests) +
                           " of " + std::to_string(log.requests.size()));
  }
  if (ms.malformed != 0) {
    out.failures.push_back(std::to_string(ms.malformed) + " malformed frames");
  }
  if (delta_sum != 0 || alive_sum != physical_sum) {
    out.failures.push_back("capacity loans do not conserve: sum of deltas " +
                           std::to_string(delta_sum));
  }
  if (!pump_log.scrape_ok) out.failures.push_back("empty telemetry scrape");
  for (std::size_t i = 0; i < log.tasks.size(); ++i) {
    const auto ref = cluster.find(log.tasks[i].name);
    if (!ref || ref->shard != where[i].shard || ref->local != where[i].local) {
      out.failures.push_back("task " + log.tasks[i].name + " moved shards");
      break;
    }
  }
  return out;
}

}  // namespace

void pin_to_cpu(int cpu) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online < 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu % online), &set);
  // Best effort: a run without the pin is still a valid run.
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kAll{
      {Workload::kChurnHybrid, "churn-hybrid",
       "ReweightService, hybrid-magnitude, 32 tasks on M=8, join/leave churn"},
      {Workload::kEngineHarmonic, "engine-harmonic",
       "ReweightService, PD2-OI, 1024 harmonic tasks, low reweight rate"},
      {Workload::kIngestReads, "ingest-reads",
       "2 ring producers -> IngestMux -> ShardedService K=2, 9:1 reads"},
  };
  return kAll;
}

Workload workload_from_name(const std::string& name) {
  for (const WorkloadInfo& w : workloads()) {
    if (name == w.name) return w.id;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

SpanRecorder& TraceBook::make(const std::string& thread_name) {
  for (SpanRecorder& r : recorders_) {
    if (r.thread_name() == thread_name) return r;
  }
  return recorders_.emplace_back(thread_name);
}

SpanRecorder::Totals TraceBook::totals(const std::string& name) const {
  SpanRecorder::Totals sum;
  for (const SpanRecorder& r : recorders_) {
    const SpanRecorder::Totals t = r.totals(name);
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

EpisodeResult run_episode(Workload w, std::uint64_t seed,
                          const EpisodeSize& size, TraceBook* book) {
  switch (w) {
    case Workload::kChurnHybrid: return run_churn(seed, size, book);
    case Workload::kEngineHarmonic: return run_harmonic(seed, size, book);
    case Workload::kIngestReads: return run_reads(seed, size, book);
  }
  throw std::invalid_argument("unknown workload");
}

}  // namespace perfbench
