#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pb {

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;

  // The paper's Benchpub/Benchsub shape: many subscribers, each on one of a
  // few topics, so per-delivery layers do almost all the work.
  WorkloadSpec fanout;
  fanout.name = "fanout";
  fanout.subscribers = 2000;
  fanout.topics = 20;
  fanout.payloadBytes = 140;
  fanout.nominalRate = 1000;
  fanout.ladder = {2000, 6000, 12000};
  fanout.p99LimitMs = 500;
  fanout.setups = 5;
  fanout.paceScaled = true;
  fanout.setupPaceScaled = true;  // 2000 connects and subscribes
  out.push_back(fanout);

  // Fan-in: small payloads over a large Zipf-skewed topic universe, WAL on.
  // Per-publish layers do the work; one subscriber takes the hot topics.
  WorkloadSpec ingest;
  ingest.name = "ingest";
  ingest.subscribers = 1;
  ingest.topics = 10000;
  ingest.topicsPerSubscriber = 4;
  ingest.payloadBytes = 32;
  ingest.publisherConns = 3;
  ingest.subLoops = 1;
  ingest.zipfS = 1.0;
  ingest.wal = true;
  ingest.nominalRate = 5000;
  ingest.ladder = {25000, 50000, 75000};
  ingest.p99LimitMs = 100;
  ingest.setups = 11;  // a set-up takes a few milliseconds
  out.push_back(ingest);

  WorkloadSpec fanin = ingest;
  fanin.name = "fanin";
  fanin.publisherConns = 1;
  out.push_back(fanin);

  // The replication path: publisher on member 1, subscribers on all three.
  WorkloadSpec cluster3;
  cluster3.name = "cluster3";
  cluster3.members = 3;
  cluster3.subscribers = 900;
  cluster3.topics = 20;
  cluster3.payloadBytes = 140;
  cluster3.nominalRate = 1000;
  cluster3.ladder = {4000, 8000, 14000};
  cluster3.p99LimitMs = 300;
  cluster3.setups = 1;
  cluster3.paceScaled = true;
  out.push_back(cluster3);
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Plan::Plan(const WorkloadSpec& spec, std::uint64_t seed)
    : seed_(seed), payloadBytes_(spec.payloadBytes) {
  md::Rng rng(seed);
  const auto topics = static_cast<std::uint32_t>(spec.topics);
  for (std::uint32_t t = 0; t < topics; ++t) {
    topicNames_.push_back("pb/" + spec.name + "/" + std::to_string(t));
  }

  // Topic popularity: ranks are shuffled onto topics by the seed.
  rankToTopic_.resize(topics);
  std::iota(rankToTopic_.begin(), rankToTopic_.end(), 0U);
  std::shuffle(rankToTopic_.begin(), rankToTopic_.end(), rng);
  if (spec.zipfS > 0) {
    double sum = 0;
    for (std::uint32_t r = 0; r < topics; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipfS);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  // Placement: a seeded shuffle of the subscribers, dealt round-robin over
  // topics and members, so every seed has the same audience per topic and
  // per member but a different mapping of connections to loops and threads.
  std::vector<int> order(static_cast<std::size_t>(spec.subscribers));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  subTopics_.resize(order.size());
  subMember_.resize(order.size());
  audience_.assign(topics, 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto s = static_cast<std::size_t>(order[i]);
    if (spec.topicsPerSubscriber > 1) {
      for (int k = 0; k < spec.topicsPerSubscriber; ++k) {
        subTopics_[s].push_back(rankToTopic_[static_cast<std::size_t>(k)]);
      }
    } else {
      subTopics_[s].push_back(static_cast<std::uint32_t>(i % topics));
    }
    subMember_[s] = static_cast<int>(i % static_cast<std::size_t>(spec.members));
    for (std::uint32_t t : subTopics_[s]) ++audience_[t];
    totalSubscriptions_ += subTopics_[s].size();
  }

  filler_.resize(4096 + payloadBytes_);
  for (auto& b : filler_) b = static_cast<std::uint8_t>(rng.Next());
}

std::uint32_t Plan::NextTopic(md::Rng& rng) const {
  if (cdf_.empty()) {
    return static_cast<std::uint32_t>(rng.NextBelow(topicNames_.size()));
  }
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  return rankToTopic_[rank];
}

std::vector<std::uint32_t> Plan::TopicSequence(std::size_t n) const {
  md::Rng rng = TopicRng();
  std::vector<std::uint32_t> out(n);
  for (auto& t : out) t = NextTopic(rng);
  return out;
}

std::size_t Plan::FillerOffset(std::uint64_t id) const noexcept {
  return static_cast<std::size_t>((id * 2654435761ULL) % 4096);
}

void Plan::FillPayload(const PayloadHeader& h, md::Bytes& out) const {
  out.resize(payloadBytes_);
  EncodeHeader(h, out.data());
  std::memcpy(out.data() + kHeaderBytes, filler_.data() + FillerOffset(h.id),
              payloadBytes_ - kHeaderBytes);
}

bool Plan::CheckPayload(md::BytesView payload, PayloadHeader& h) const {
  if (payload.size() != payloadBytes_) return false;
  h = DecodeHeader(payload.data());
  return std::memcmp(payload.data() + kHeaderBytes,
                     filler_.data() + FillerOffset(h.id),
                     payloadBytes_ - kHeaderBytes) == 0;
}

}  // namespace pb
