/// \file main.cc
/// \brief perfbench: the end-to-end serving benchmark.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--out-dir <dir>]
///
/// Runs one untraced warm-up episode, then episodes of the named workload
/// (each seeded from --seed and its index) until --seconds have passed.
/// Prints a run record, every metric by name with its unit and sample
/// count, and as its last line one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// With --trace 0 the metrics are the end-to-end ones.  With --trace 1
/// every episode runs twice on the same inputs, untraced and traced in
/// alternating order; the metrics are the per-layer split from the traced
/// runs, and the spans kept in memory are written to
/// <out-dir>/spans-<workload>-<seed>.json (Chrome trace format).
/// Exits 1 when a correctness gate trips, 2 on a usage error.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "episodes.h"
#include "spans.h"
#include "stats.h"
#include "util/rng.h"

namespace {

using perfbench::EpisodeResult;
using perfbench::median;

/// At least this many measured episodes, however short --seconds is.
constexpr std::size_t kMinEpisodes = 2;

/// The quantile of per-episode rates a run reports as its throughput.  On
/// a shared host, other tenants only ever slow an episode, and they come
/// and go in stretches of seconds to minutes.  A median over episodes
/// reports how much of the run fell in a slow stretch, which varies from
/// run to run by more than the code does; the fast end of the episodes
/// reads what the code sustains when the host lets it, while a slower
/// code path still slows every episode.
constexpr double kRateQuantile = 0.9;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string out_dir{".bench_out"};
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <churn-hybrid|engine-harmonic|"
               "ingest-reads> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

std::uint64_t episode_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x100000001B3ULL + index;
  return pfr::splitmix64(state);
}

/// Peak resident set of one episode.  Before it, freed heap goes back to
/// the kernel and the kernel's high-water mark is reset to the current RSS;
/// after it, the high-water mark is the episode's peak.  Without the reset
/// (clear_refs not writable) it falls back to the process peak.  Only the
/// warm-up is measured this way: trimming before every episode would make
/// each set-up pay fresh page faults, which swing with the host far more
/// than the set-up work itself.
class PeakRss {
 public:
  PeakRss() {
    malloc_trim(0);
    std::ofstream clear{"/proc/self/clear_refs"};
    clear << "5";
    resettable_ = static_cast<bool>(clear.flush());
  }
  [[nodiscard]] double read_mb() const {
    if (resettable_) {
      std::ifstream status{"/proc/self/status"};
      std::string line;
      while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
          return std::stod(line.substr(6)) / 1024.0;  // kB
        }
      }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  }

 private:
  bool resettable_{false};
};

double rate(double n, double seconds) { return seconds > 0 ? n / seconds : 0; }

/// One reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count and anything else worth printing
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Summary {
  std::vector<Metric> metrics;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;
};

/// Requests whose handling broke a gate: traffic the service should never
/// have seen, or requests left without a terminal response.
std::uint64_t invalid_requests(const EpisodeResult& e) {
  std::uint64_t n = e.invalid;
  if (e.offered > e.terminal) n += e.offered - e.terminal;
  return n;
}

void collect_failures(Summary& s, const std::vector<EpisodeResult>& eps,
                      const char* label) {
  for (std::size_t i = 0; i < eps.size(); ++i) {
    s.attempted += eps[i].offered;
    s.failed += invalid_requests(eps[i]);
    for (const std::string& f : eps[i].failures) {
      s.failures.push_back(std::string(label) + " episode " +
                           std::to_string(i) + ": " + f);
    }
  }
}

void end_to_end(Summary& s, const std::vector<EpisodeResult>& eps,
                double peak_rss_mb) {
  std::vector<double> rps;
  std::vector<double> tail;
  std::vector<double> setup;
  std::vector<double> drift;
  std::vector<double> slot_us;
  perfbench::RefusalAwareSample enact;
  double offered = 0;
  double refused = 0;
  double accepted = 0;
  double stranded = 0;
  for (const EpisodeResult& e : eps) {
    rps.push_back(rate(static_cast<double>(e.window_terminal), e.serve_s));
    tail.push_back(e.tail_req_per_s);
    setup.push_back(e.setup_s);
    drift.push_back(e.drift_max);
    slot_us.insert(slot_us.end(), e.slot_us.begin(), e.slot_us.end());
    enact.merge(e.enact_slots);
    offered += static_cast<double>(e.offered);
    refused += static_cast<double>(e.refused);
    accepted += static_cast<double>(e.accepted_reweights);
    stranded += static_cast<double>(e.stranded);
  }
  std::cout << "episodes req_per_s:";
  for (const double r : rps) std::cout << " " << static_cast<std::int64_t>(r);
  std::cout << "\n";
  const std::string n_ep = "n=" + std::to_string(eps.size()) + " episodes";
  const std::string rate_note =
      "p" + std::to_string(static_cast<int>(kRateQuantile * 100)) +
      " over episodes";
  const std::string n_slots = "n=" + std::to_string(slot_us.size()) + " slots";
  const std::string n_enact =
      "n=" + std::to_string(enact.count()) + " reweights, " +
      std::to_string(enact.refused()) + " refused or stranded";
  const double failed_frac = offered > 0 ? refused / offered : 0;
  const double stranded_frac = accepted > 0 ? stranded / accepted : 0;
  s.metrics = {
      {"req_per_s", perfbench::percentile(rps, kRateQuantile), "1/s",
       rate_note + ", " + n_ep},
      {"tail_req_per_s", perfbench::percentile(tail, kRateQuantile), "1/s",
       rate_note + " of the last tenth of slots, " + n_ep},
      {"slot_us_p50", perfbench::percentile(slot_us, 0.50), "us", n_slots},
      {"slot_us_p99", perfbench::percentile(slot_us, 0.99), "us", n_slots},
      {"enact_slots_p50", enact.percentile(0.50), "slots", n_enact},
      {"enact_slots_p99", enact.percentile(0.99), "slots",
       n_enact + ", " + std::to_string(enact.beyond(0.99)) + " beyond"},
      {"served_frac", 1.0 - failed_frac, "ratio",
       "1 - failed_frac; failed_frac=" + json_number(failed_frac) + " of " +
           json_number(offered) + " offered"},
      {"enacted_frac", 1.0 - stranded_frac, "ratio",
       "1 - stranded_frac; stranded_frac=" + json_number(stranded_frac) +
           " of " + json_number(accepted) + " accepted reweights"},
      {"drift_max_quanta", median(drift), "quanta", "median, " + n_ep},
      {"peak_rss_mb", peak_rss_mb, "MB", "warm-up episode peak"},
      {"setup_s", median(setup), "s", "median, " + n_ep},
  };
}

/// Per-layer split from the traced episodes.  Times come from every traced
/// episode's spans; counts from the first traced episode, which the seed
/// fixes exactly.
void per_layer(Summary& s, const perfbench::TraceBook& book,
               const std::vector<EpisodeResult>& traced,
               const std::vector<double>& overhead_ratios) {
  double slots = 0;
  double offered = 0;
  double frames = 0;
  double engine_child = 0;
  for (const EpisodeResult& e : traced) {
    slots += static_cast<double>(e.slots);
    offered += static_cast<double>(e.offered);
    const auto it = e.counts.find("net.frames");
    if (it != e.counts.end()) frames += it->second;
    engine_child += static_cast<double>(e.engine_child_ns);
  }
  const auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };
  const auto total = [&](const char* name) {
    return static_cast<double>(book.totals(name).total_ns);
  };
  const auto mean_ns = [&](const char* name) {
    const perfbench::SpanRecorder::Totals t = book.totals(name);
    return per(static_cast<double>(t.total_ns), static_cast<double>(t.count));
  };
  const std::map<std::string, double>& first = traced.front().counts;
  const auto count = [&](const std::string& name) {
    const auto it = first.find(name);
    return it == first.end() ? 0.0 : it->second;
  };
  const double run_slot = total("serve.run_slot");
  const double serve_self =
      static_cast<double>(book.totals("serve.run_slot").self_ns);
  const char* const phases[] = {"faults",   "joins",           "enactments",
                                "releases", "events",          "ideal",
                                "dispatch", "dispatch.select", "dispatch.commit",
                                "miss_detect"};
  double step = 0;
  for (const char* p : phases) {
    const std::string name = std::string("pfair.phase.") + p;
    if (std::string(p).rfind("dispatch.", 0) != 0) step += total(name.c_str());
  }
  const bool sharded = count("net.frames") > 0;
  auto& m = s.metrics;
  const std::string n_slots = "n=" + json_number(slots) + " slots";
  m.push_back({"net.feed_ns_per_frame", per(total("net.feed_ring"), frames),
               "ns", "n=" + json_number(frames) + " frames"});
  m.push_back({"net.pump_ns_per_frame", per(total("net.pump_once"), frames),
               "ns", "n=" + json_number(frames) + " frames"});
  m.push_back({"net.pump_useful_frac", count("net.pump_useful_frac"), "ratio",
               "pump_once calls that moved a frame / all calls"});
  for (const char* c : {"net.frames", "net.malformed"}) {
    m.push_back({c, count(c), "count", "first traced episode"});
  }
  m.push_back({"serve.self_ns_per_slot", per(serve_self, slots), "ns",
               n_slots});
  m.push_back({"serve.self_ns_per_request", per(serve_self, offered), "ns",
               "n=" + json_number(offered) + " requests"});
  m.push_back({"serve.push_ns_per_request", mean_ns("serve.push"), "ns",
               "n=" + std::to_string(book.totals("serve.push").count)});
  m.push_back({"serve.run_slot_share", per(serve_self, run_slot), "ratio",
               "serve self time / run_slot"});
  for (const char* c : {"serve.queue_empty_frac", "serve.retry_frac"}) {
    m.push_back({c, count(c), "ratio", "first traced episode"});
  }
  m.push_back({"serve.requests_per_slot", count("serve.requests_per_slot"),
               "1/slot", "first traced episode"});
  for (const char* c :
       {"serve.queue_depth_max", "serve.responses_retained", "serve.admitted",
        "serve.clamped", "serve.rejected", "serve.deferred", "serve.shed",
        "serve.placement_fallbacks", "serve.migration_defers"}) {
    m.push_back({c, count(c), "count", "first traced episode"});
  }
  m.push_back({"pfair.step_ns_per_slot", per(step, slots), "ns", n_slots});
  for (const char* p : phases) {
    const std::string name = std::string("pfair.phase.") + p;
    m.push_back({name + "_ns_per_slot", per(total(name.c_str()), slots), "ns",
                 n_slots});
  }
  m.push_back({"pfair.run_slot_share", per(step, run_slot), "ratio",
               "engine phases / run_slot"});
  m.push_back({"pfair.live_task_frac", count("pfair.live_task_frac"), "ratio",
               "first traced episode"});
  for (const char* c :
       {"pfair.retained_tasks", "pfair.live_tasks", "pfair.dispatched",
        "pfair.holes", "pfair.initiations", "pfair.enactments", "pfair.halts",
        "pfair.oi_events", "pfair.lj_events", "pfair.disruptions",
        "pfair.fastpath.upserts", "pfair.fastpath.pops",
        "pfair.fastpath.erases"}) {
    m.push_back({c, count(c), "count", "first traced episode"});
  }
  m.push_back({"cluster.shard_step_ns_per_slot", sharded ? per(step, slots) : 0,
               "ns", n_slots});
  m.push_back({"cluster.shard_load_skew", count("cluster.shard_load_skew"),
               "ratio", "max/min shard_load at the end"});
  for (const char* c :
       {"cluster.elastic.loans", "cluster.migrations.completed"}) {
    m.push_back({c, count(c), "count", "first traced episode"});
  }
  m.push_back({"obs.scrape_ns", mean_ns("obs.scrape"), "ns",
               "n=" + std::to_string(book.totals("obs.scrape").count) +
                   " scrapes"});
  m.push_back({"trace.overhead_frac", 1.0 - median(overhead_ratios), "ratio",
               "1 - traced/untraced req_per_s, median of " +
                   std::to_string(overhead_ratios.size()) + " pairs"});
  m.push_back({"trace.residual_frac",
               per(run_slot - serve_self - engine_child, run_slot), "ratio",
               "run_slot - serve self - engine children, / run_slot"});
  const double net = total("net.feed_ring") + total("net.pump_once");
  const double serve = serve_self + total("serve.push");
  m.push_back({"layer.net_ns_per_request", per(net, offered), "ns",
               "feed_ring + pump_once spans"});
  m.push_back({"layer.serve_ns_per_request", per(serve, offered), "ns",
               "push spans + run_slot self time"});
  m.push_back({"layer.pfair_ns_per_request", per(step, offered), "ns",
               "engine phase child spans"});
}

void write_spans(const Options& o, const perfbench::TraceBook& book) {
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string path = o.out_dir + "/spans-" + o.workload + "-" +
                           std::to_string(o.seed) + ".json";
  std::ofstream out{path};
  if (!out) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return;
  }
  out << "{\"traceEvents\":[\n";
  bool first = true;
  int tid = 0;
  std::uint64_t kept = 0;
  std::uint64_t dropped = 0;
  for (const perfbench::SpanRecorder& r : book.recorders()) {
    r.write_chrome_events(out, ++tid, first);
    kept += r.kept();
    dropped += r.dropped();
  }
  out << "\n]}\n";
  std::cout << "spans: " << kept << " kept, " << dropped
            << " aggregated only, written to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  perfbench::Workload w{};
  try {
    w = perfbench::workload_from_name(o.workload);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const char* shape = "";
  for (const perfbench::WorkloadInfo& info : perfbench::workloads()) {
    if (info.id == w) shape = info.shape;
  }
  const perfbench::EpisodeSize size;

  std::cout << "run: workload=" << o.workload << " (" << shape << ")"
            << "\nrun: seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << "\nrun: nproc=" << std::thread::hardware_concurrency()
            << " online_cpus=" << sysconf(_SC_NPROCESSORS_ONLN)
            << " compiler=\"" << __VERSION__
            << "\" build_type=" << PERFBENCH_BUILD_TYPE << " PFR_SIMD="
#ifdef PFR_SIMD
            << "on"
#else
            << "off"
#endif
            << "\nrun: episode size churn_slots=" << size.churn_slots
            << " harmonic_slots=" << size.harmonic_slots
            << " reads_requests=" << size.reads_requests << "\n";

  Summary s;
  // Warm-up: the first episode's inputs, untraced and unmeasured.  Its
  // digest must match the measured replay of the same inputs.
  perfbench::pin_to_cpu(0);
  const PeakRss rss;
  const EpisodeResult warm =
      perfbench::run_episode(w, episode_seed(o.seed, 0), size, nullptr);
  const double warm_rss_mb = rss.read_mb();
  std::vector<EpisodeResult> untraced;
  std::vector<EpisodeResult> traced;
  std::vector<double> overhead_ratios;
  perfbench::TraceBook book;
  const std::int64_t start = perfbench::now_ns();
  const auto elapsed = [&] {
    return static_cast<double>(perfbench::now_ns() - start) / 1e9;
  };
  for (std::uint64_t i = 0;
       untraced.size() < kMinEpisodes || elapsed() < o.seconds; ++i) {
    const std::uint64_t seed = episode_seed(o.seed, i);
    if (!o.trace) {
      untraced.push_back(perfbench::run_episode(w, seed, size, nullptr));
      continue;
    }
    // Same inputs twice; alternate which runs first.
    if (i % 2 == 0) {
      untraced.push_back(perfbench::run_episode(w, seed, size, nullptr));
      traced.push_back(perfbench::run_episode(w, seed, size, &book));
    } else {
      traced.push_back(perfbench::run_episode(w, seed, size, &book));
      untraced.push_back(perfbench::run_episode(w, seed, size, nullptr));
    }
    const EpisodeResult& a = untraced.back();
    const EpisodeResult& b = traced.back();
    overhead_ratios.push_back(
        rate(static_cast<double>(b.window_terminal), b.serve_s) /
        rate(static_cast<double>(a.window_terminal), a.serve_s));
    if (a.digest != b.digest) {
      s.failures.push_back("episode " + std::to_string(i) +
                           ": traced and untraced response digests differ");
    }
  }
  for (const std::string& f : warm.failures) {
    s.failures.push_back("warm-up: " + f);
  }
  collect_failures(s, untraced, "untraced");
  collect_failures(s, traced, "traced");
  if (warm.digest != untraced.front().digest) {
    s.failures.push_back(
        "replaying the first episode's inputs changed the response digest");
  }

  if (o.trace) {
    per_layer(s, book, traced, overhead_ratios);
    write_spans(o, book);
  } else {
    end_to_end(s, untraced, warm_rss_mb);
  }

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(warm.digest));
  std::cout << "digest: " << digest << " (episode 0 response digest)\n";
  for (const Metric& m : s.metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "  (" << m.note << ")\n";
  }
  for (const std::string& f : s.failures) {
    std::cout << "GATE FAILED: " << f << "\n";
  }
  for (const Metric& m : s.metrics) {
    if (!std::isfinite(m.value)) {
      s.failures.push_back("metric " + m.name + " is not finite");
    }
  }
  const bool correct = s.failures.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << s.attempted << ", \"failed\": " << s.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    const Metric& m = s.metrics[i];
    // JSON has no infinity; a non-finite value already failed the run.
    const double value = std::isfinite(m.value) ? m.value : -1.0;
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << json_number(value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
