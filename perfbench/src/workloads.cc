#include "workloads.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using pfr::Rational;
using pfr::pfair::Slot;
using pfr::serve::Decision;
using pfr::serve::Request;
using pfr::serve::RequestKind;
using pfr::serve::Response;

namespace {

/// Stream ids, so each generator draws from its own sequence of one seed.
constexpr std::uint64_t kChurnStream = 11;
constexpr std::uint64_t kHarmonicStream = 12;
constexpr std::uint64_t kReadsStream = 13;

std::int64_t burst(pfr::Xoshiro256& rng, int mean) {
  return rng.uniform_int(mean / 2, mean + mean / 2);
}

template <typename T>
T pick(pfr::Xoshiro256& rng, const std::vector<T>& from) {
  return from[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
}

}  // namespace

ChurnProducer::ChurnProducer(const ChurnConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(pfr::Xoshiro256::for_stream(seed, kChurnStream)) {
  // Light weights k/64 summing to about 0.6 * M, as serve::generate_load.
  const double mean_weight = 0.6 * cfg.processors / cfg.tasks;
  const std::int64_t mean_k = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(mean_weight * 64.0), 2, 30);
  for (int i = 0; i < cfg.tasks; ++i) {
    SeedTask task{"T" + std::to_string(i),
                  Rational{rng_.uniform_int(mean_k - 4 < 1 ? 1 : mean_k - 4,
                                            mean_k + 4),
                           64},
                  i};
    initial_.push_back(task);
    names_.push_back(task.name);
    state_.push_back(State::kJoining);
    inflight_.push_back(0);
    touched_.push_back(0);
    live_pos_.push_back(-1);
    make_live(i);
  }
}

void ChurnProducer::make_live(int index) {
  state_[static_cast<std::size_t>(index)] = State::kLive;
  live_pos_[static_cast<std::size_t>(index)] = static_cast<int>(live_.size());
  live_.push_back(index);
}

void ChurnProducer::retire(int index) {
  state_[static_cast<std::size_t>(index)] = State::kGone;
  const int pos = live_pos_[static_cast<std::size_t>(index)];
  const int last = live_.back();
  live_[static_cast<std::size_t>(pos)] = last;
  live_pos_[static_cast<std::size_t>(last)] = pos;
  live_.pop_back();
  live_pos_[static_cast<std::size_t>(index)] = -1;
}

int ChurnProducer::pick_live() { return pick(rng_, live_); }

void ChurnProducer::next_batch(Slot t, std::vector<Request>& out) {
  const std::int64_t n = burst(rng_, cfg_.mean_batch);
  const auto stamp = static_cast<std::uint64_t>(t) + 1;
  const auto min_live = static_cast<std::size_t>(std::max(1, cfg_.tasks / 2));
  for (std::int64_t i = 0; i < n; ++i) {
    Request r;
    r.id = meta_.size() + 1;
    r.due = t;
    r.deadline = t + cfg_.deadline_slack;
    RequestMeta m;
    const double roll = rng_.uniform01();
    const bool may_join =
        static_cast<int>(live_.size()) + joining_ < cfg_.tasks;
    if (roll < cfg_.p_query && !live_.empty()) {
      r.kind = RequestKind::kQuery;
      m.target = pick_live();
    } else if (roll < cfg_.p_query + cfg_.p_join && may_join) {
      r.kind = RequestKind::kJoin;
      r.weight = Rational{rng_.uniform_int(4, 8), 64};
      r.rank = cfg_.tasks + next_join_;
      m.target = static_cast<int>(names_.size());
      names_.push_back("J" + std::to_string(next_join_++));
      state_.push_back(State::kJoining);
      inflight_.push_back(0);
      touched_.push_back(stamp);
      live_pos_.push_back(-1);
      ++joining_;
    } else {
      if (roll < cfg_.p_query + cfg_.p_join + cfg_.p_leave &&
          live_.size() > min_live) {
        // Only a task nothing else is waiting on may leave: a request
        // retried after the leave would meet a departing task.
        for (int tries = 0; tries < 4 && m.target < 0; ++tries) {
          const int c = pick_live();
          if (inflight_[static_cast<std::size_t>(c)] == 0 &&
              touched_[static_cast<std::size_t>(c)] != stamp) {
            m.target = c;
          }
        }
        if (m.target >= 0) {
          r.kind = RequestKind::kLeave;
          retire(m.target);
        }
      }
      if (m.target < 0) {
        if (live_.empty()) continue;
        r.kind = RequestKind::kReweight;
        m.target = pick_live();
        r.weight = Rational{rng_.uniform_int(4, 16), 64};
      }
    }
    m.kind = r.kind;
    r.task = names_[static_cast<std::size_t>(m.target)];
    ++inflight_[static_cast<std::size_t>(m.target)];
    touched_[static_cast<std::size_t>(m.target)] = stamp;
    meta_.push_back(m);
    out.push_back(std::move(r));
  }
}

void ChurnProducer::observe(const Response& r) {
  if (r.decision == Decision::kDeferred) return;
  const RequestMeta& m = meta_.at(static_cast<std::size_t>(r.id - 1));
  --inflight_[static_cast<std::size_t>(m.target)];
  if (m.kind != RequestKind::kJoin) return;
  --joining_;
  if (r.decision == Decision::kAccepted || r.decision == Decision::kClamped) {
    make_live(m.target);
  } else {
    state_[static_cast<std::size_t>(m.target)] = State::kGone;
  }
}

HarmonicProducer::HarmonicProducer(const HarmonicConfig& cfg,
                                   std::uint64_t seed)
    : cfg_(cfg),
      rng_(pfr::Xoshiro256::for_stream(seed, kHarmonicStream)),
      halved_(static_cast<std::size_t>(cfg.tasks), false) {
  // Harmonic weights 1/2 .. 1/8; their halves stay on the lcm(1..16) grid
  // the engine's exact arithmetic is sized for.
  double total = 0;
  for (int i = 0; i < cfg.tasks; ++i) {
    const Rational w{1, 2 + i % 7};
    total += w.to_double();
    initial_.push_back(SeedTask{"H" + std::to_string(i), w, 0});
  }
  processors_ = static_cast<int>(std::ceil(total / 0.8));
}

void HarmonicProducer::next_batch(Slot t, std::vector<Request>& out) {
  const std::int64_t n = burst(rng_, cfg_.mean_batch);
  for (std::int64_t i = 0; i < n; ++i) {
    Request r;
    r.id = meta_.size() + 1;
    r.due = t;
    r.deadline = t + cfg_.deadline_slack;
    RequestMeta m;
    m.target = static_cast<int>(rng_.uniform_int(0, cfg_.tasks - 1));
    const SeedTask& task = initial_[static_cast<std::size_t>(m.target)];
    r.task = task.name;
    if (rng_.uniform01() < cfg_.p_query) {
      r.kind = RequestKind::kQuery;
    } else {
      r.kind = RequestKind::kReweight;
      auto&& halved = halved_[static_cast<std::size_t>(m.target)];
      halved = !halved;
      r.weight = halved ? task.weight / Rational{2} : task.weight;
    }
    m.kind = r.kind;
    meta_.push_back(m);
    out.push_back(std::move(r));
  }
}

ReadsLog make_reads_log(const ReadsConfig& cfg, std::uint64_t seed) {
  ReadsLog log;
  pfr::Xoshiro256 rng = pfr::Xoshiro256::for_stream(seed, kReadsStream);
  const double capacity = cfg.processors_per_shard * cfg.shards;
  const std::int64_t mean_k = std::max<std::int64_t>(
      2, static_cast<std::int64_t>(0.6 * capacity / cfg.tasks * 64.0));
  for (int i = 0; i < cfg.tasks; ++i) {
    log.tasks.push_back(SeedTask{"T" + std::to_string(i),
                                 Rational{rng.uniform_int(1, 2 * mean_k - 1),
                                          64},
                                 i});
  }
  log.requests.reserve(cfg.requests);
  log.meta.reserve(cfg.requests);
  Slot due = 0;
  std::int64_t left = 0;
  while (log.requests.size() < cfg.requests) {
    if (left == 0) {
      ++due;
      left = burst(rng, cfg.mean_batch);
    }
    --left;
    Request r;
    r.id = log.requests.size() + 1;
    r.due = due;
    r.deadline = due + cfg.deadline_slack;
    RequestMeta m;
    m.target = static_cast<int>(rng.uniform_int(0, cfg.tasks - 1));
    r.task = log.tasks[static_cast<std::size_t>(m.target)].name;
    if (rng.uniform01() < cfg.p_reweight) {
      r.kind = RequestKind::kReweight;
      r.weight = Rational{rng.uniform_int(1, 2 * mean_k), 64};
    } else {
      r.kind = RequestKind::kQuery;
    }
    m.kind = r.kind;
    log.meta.push_back(m);
    log.requests.push_back(std::move(r));
  }
  return log;
}

}  // namespace perfbench
