/// \file workloads.h
/// \brief Seeded request generators for the three benchmark workloads.
///
/// Every generator is a pure function of its seed (and, for the churn
/// producer, of the responses it is shown), so the same seed always offers
/// the same requests.  None is paced by wall clock: slot t's batch is made
/// when the service is ready to serve slot t.
///
///   * ChurnProducer -- in-thread producer for `churn-hybrid`.  It tracks
///     membership from the service's responses, so it never targets a name
///     whose join has not been accepted or that it has already sent a leave
///     for, and it only sends a leave for a task with no request in flight.
///   * HarmonicProducer -- `engine-harmonic`: a fixed set of harmonic-weight
///     tasks and a low rate of reweights that toggle a task between its base
///     weight and half of it, plus queries.
///   * make_reads_log -- `ingest-reads`: a pre-generated, read-heavy log
///     (about nine queries per reweight) over a fixed task set, in large
///     per-slot batches, for the ring producers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pfair/types.h"
#include "rational/rational.h"
#include "serve/request.h"
#include "util/rng.h"

namespace perfbench {

/// A task of the initial set.
struct SeedTask {
  std::string name;
  pfr::Rational weight;
  int rank{0};
};

/// What the benchmark remembers about every request it offered, indexed
/// by request id - 1.  `target` indexes the generator's task names; for a
/// join it is the new name.
struct RequestMeta {
  pfr::serve::RequestKind kind{pfr::serve::RequestKind::kReweight};
  int target{-1};
};

struct ChurnConfig {
  int tasks{32};          ///< initial set; membership stays in [tasks/2, tasks]
  int processors{8};
  int mean_batch{128};    ///< requests per slot, bursts 0.5x..1.5x
  pfr::pfair::Slot deadline_slack{16};
  double p_query{0.20};
  double p_join{0.02};
  double p_leave{0.02};   ///< the rest are reweights
};

class ChurnProducer {
 public:
  ChurnProducer(const ChurnConfig& cfg, std::uint64_t seed);

  [[nodiscard]] const std::vector<SeedTask>& initial() const noexcept {
    return initial_;
  }
  /// Appends the requests due at slot `t` (ids continue from the last
  /// batch), drawn against the membership known so far.
  void next_batch(pfr::pfair::Slot t, std::vector<pfr::serve::Request>& out);
  /// Shows the producer one response.  Accepted joins become targets;
  /// terminal responses clear the request's in-flight mark.
  void observe(const pfr::serve::Response& r);

  [[nodiscard]] const std::vector<RequestMeta>& meta() const noexcept {
    return meta_;
  }
  /// Tasks the producer may target right now.
  [[nodiscard]] std::size_t live() const noexcept { return live_.size(); }

 private:
  enum class State : std::uint8_t { kJoining, kLive, kGone };
  void make_live(int index);
  void retire(int index);
  [[nodiscard]] int pick_live();

  ChurnConfig cfg_;
  pfr::Xoshiro256 rng_;
  std::vector<SeedTask> initial_;
  std::vector<std::string> names_;
  std::vector<State> state_;
  std::vector<int> inflight_;      ///< non-terminal requests per name
  std::vector<std::uint64_t> touched_;  ///< last slot + 1 a request named it
  std::vector<int> live_;          ///< indices in State::kLive
  std::vector<int> live_pos_;      ///< index -> position in live_, or -1
  int joining_{0};
  int next_join_{0};
  std::vector<RequestMeta> meta_;
};

struct HarmonicConfig {
  int tasks{1024};
  int mean_batch{2};
  double p_query{0.25};
  pfr::pfair::Slot deadline_slack{16};
};

class HarmonicProducer {
 public:
  HarmonicProducer(const HarmonicConfig& cfg, std::uint64_t seed);

  [[nodiscard]] const std::vector<SeedTask>& initial() const noexcept {
    return initial_;
  }
  /// Processors sized so the base weights use about 80% of capacity.
  [[nodiscard]] int processors() const noexcept { return processors_; }
  void next_batch(pfr::pfair::Slot t, std::vector<pfr::serve::Request>& out);
  [[nodiscard]] const std::vector<RequestMeta>& meta() const noexcept {
    return meta_;
  }

 private:
  HarmonicConfig cfg_;
  pfr::Xoshiro256 rng_;
  std::vector<SeedTask> initial_;
  std::vector<bool> halved_;
  int processors_{1};
  std::vector<RequestMeta> meta_;
};

struct ReadsConfig {
  int tasks{256};
  int processors_per_shard{8};
  int shards{2};
  int mean_batch{512};
  double p_reweight{0.1};   ///< the rest are queries
  std::uint64_t requests{300000};
  pfr::pfair::Slot deadline_slack{16};
};

struct ReadsLog {
  std::vector<SeedTask> tasks;
  std::vector<pfr::serve::Request> requests;  ///< ids 1..N, due ascending
  std::vector<RequestMeta> meta;
};

[[nodiscard]] ReadsLog make_reads_log(const ReadsConfig& cfg,
                                      std::uint64_t seed);

}  // namespace perfbench
