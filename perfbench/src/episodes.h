/// \file episodes.h
/// \brief One episode of a workload: set up, serve a seeded request stream
/// to completion, check the correctness gates, and return what was seen.
///
/// A run of the benchmark is a sequence of episodes, each with its own
/// seed derived from the run's seed.  Every episode builds a fresh service
/// from a default-constructed EngineConfig (policy, processors and
/// record_slot_trace only), so set-up cost is measured every time and no
/// state leaks between episodes.  With a TraceBook the episode also
/// records spans around its calls into each layer, and attaches one
/// MetricsRegistry per engine through Engine::set_metrics; the registry's
/// per-slot phase deltas become child spans of the run_slot span.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {

enum class Workload { kChurnHybrid, kEngineHarmonic, kIngestReads };

struct WorkloadInfo {
  Workload id;
  const char* name;
  const char* shape;
};
[[nodiscard]] const std::vector<WorkloadInfo>& workloads();
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload workload_from_name(const std::string& name);

/// Episode size knobs; the defaults are the benchmark's.  Tests shrink them.
struct EpisodeSize {
  std::int64_t churn_slots{400};
  std::int64_t harmonic_slots{4000};
  std::uint64_t reads_requests{300000};
};

/// Every span recorder of a traced run, one per thread that records.
/// Recorders outlive their episodes so totals accumulate over the run.
class TraceBook {
 public:
  SpanRecorder& make(const std::string& thread_name);
  [[nodiscard]] const std::deque<SpanRecorder>& recorders() const noexcept {
    return recorders_;
  }
  /// Totals of one span name summed over every recorder.
  [[nodiscard]] SpanRecorder::Totals totals(const std::string& name) const;

 private:
  std::deque<SpanRecorder> recorders_;
};

struct EpisodeResult {
  std::uint64_t digest{0};
  double setup_s{0};
  double serve_s{0};            ///< timed window: first to last served slot
  std::uint64_t window_terminal{0};  ///< terminal responses in the window
  double tail_req_per_s{0};     ///< same rate over the window's last tenth
  std::vector<double> slot_us;  ///< host time of every run_slot call
  /// Due-to-enactment slots of every enacted reweight, with rejected and
  /// shed reweights ranked beyond every limit.
  RefusalAwareSample enact_slots;
  std::uint64_t offered{0};
  std::uint64_t terminal{0};
  std::uint64_t refused{0};     ///< rejected + shed
  std::uint64_t accepted_reweights{0};
  std::uint64_t stranded{0};    ///< accepted reweights never enacted
  /// Requests the service should never have seen: unknown or departing
  /// targets.  Valid traffic keeps this at zero.
  std::uint64_t invalid{0};
  double drift_max{0};          ///< max |drift| over all tasks at the end
  std::uint64_t slots{0};       ///< served slots in the window
  /// Sum of every engine phase delta read back after run_slot (traced
  /// episodes), before any clipping to the run_slot interval.
  std::int64_t engine_child_ns{0};
  /// Layer counters (serve.*, pfair.*, cluster.*, net.*), by metric name.
  std::map<std::string, double> counts;
  /// Correctness gates that tripped; empty on a good episode.
  std::vector<std::string> failures;
};

/// Runs one episode.  `book` null = untraced.
[[nodiscard]] EpisodeResult run_episode(Workload w, std::uint64_t seed,
                                        const EpisodeSize& size,
                                        TraceBook* book);

/// Pins the calling thread to CPU `cpu` modulo the online CPUs, so every
/// run places its threads the same way (the consumer on CPU 0, the mux on
/// 1, ring producers on 2 and 3).  Best effort; failure is ignored.
void pin_to_cpu(int cpu);

}  // namespace perfbench
