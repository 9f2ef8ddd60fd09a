// Workload definitions and the seeded plan each run derives from them.
//
// A WorkloadSpec fixes the traffic shape (audience, topic universe, payload
// size, offered rates, latency limit). A Plan is what one --seed turns the
// spec into: subscriber -> topic and subscriber -> member placement, the
// publish topic sequence and the payload filler bytes. The program under
// test only ever sees the generated traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"

namespace pb {

struct WorkloadSpec {
  std::string name;
  int members = 1;             // 1: core::Server; 3: TcpClusterHost cluster
  int subscribers = 0;         // subscriber connections
  int topics = 0;              // publish topic universe
  int topicsPerSubscriber = 1; // >1: the subscriber takes the hottest topics
  std::size_t payloadBytes = 140;
  int publisherConns = 1;      // all on the one publisher loop
  int subLoops = 2;
  double zipfS = 0;            // 0 = uniform topic choice
  bool wal = false;            // durable cache, fsync=os
  double nominalRate = 0;      // publishes/s for the latency and CPU figures
  double warmupSeconds = 0.5;  // unmeasured traffic before the nominal window
  std::vector<double> ladder;  // offered publishes/s, ascending
  double p99LimitMs = 0;       // capacity condition on deliver_p99_ms
  int setups = 3;              // set-ups per run; setup_s is their median
  // Report the p50 latencies and CPU figures (paceScaled) or setup_s
  // (setupPaceScaled) at the reference host pace (see host_pace.hpp). Set
  // only where those figures were measured to move with the pace.
  bool paceScaled = false;
  bool setupPaceScaled = false;
};

/// Every workload, and one by name (nullptr for an unknown name).
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

class Plan {
 public:
  Plan(const WorkloadSpec& spec, std::uint64_t seed);

  [[nodiscard]] const std::string& TopicName(std::uint32_t t) const {
    return topicNames_[t];
  }
  /// Topics of subscriber `s` (hottest first for multi-topic subscribers).
  [[nodiscard]] const std::vector<std::uint32_t>& SubscriberTopics(int s) const {
    return subTopics_[static_cast<std::size_t>(s)];
  }
  /// Cluster member (0-based) subscriber `s` connects to.
  [[nodiscard]] int SubscriberMember(int s) const {
    return subMember_[static_cast<std::size_t>(s)];
  }
  /// Subscriptions on topic `t` (expected deliveries per publish to it).
  [[nodiscard]] std::uint32_t Audience(std::uint32_t t) const {
    return audience_[t];
  }
  [[nodiscard]] std::uint64_t TotalSubscriptions() const noexcept {
    return totalSubscriptions_;
  }

  /// Draws the next publish topic; every run of one seed draws the same
  /// sequence when it starts from TopicRng().
  [[nodiscard]] std::uint32_t NextTopic(md::Rng& rng) const;
  [[nodiscard]] md::Rng TopicRng() const { return md::Rng(seed_ * 31 + 7); }
  /// The first `n` publish topics of the run.
  [[nodiscard]] std::vector<std::uint32_t> TopicSequence(std::size_t n) const;

  /// Writes a payload of spec.payloadBytes: header, then seeded filler.
  void FillPayload(const PayloadHeader& h, md::Bytes& out) const;
  /// True when `payload` is exactly what FillPayload wrote for its header.
  [[nodiscard]] bool CheckPayload(md::BytesView payload, PayloadHeader& h) const;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  [[nodiscard]] std::size_t FillerOffset(std::uint64_t id) const noexcept;

  std::uint64_t seed_;
  std::size_t payloadBytes_;
  std::vector<std::string> topicNames_;
  std::vector<std::vector<std::uint32_t>> subTopics_;
  std::vector<int> subMember_;
  std::vector<std::uint32_t> audience_;
  std::uint64_t totalSubscriptions_ = 0;
  std::vector<double> cdf_;          // Zipf over ranks; empty = uniform
  std::vector<std::uint32_t> rankToTopic_;
  std::vector<std::uint8_t> filler_;
};

}  // namespace pb
