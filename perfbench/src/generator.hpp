// Open-loop, constant-rate load generator around the real client library.
//
// Threads (the whole generator, at most four): the caller's thread paces the
// schedule, one publisher event loop owns every publisher connection, and
// one or two subscriber event loops own the subscriber connections. Each
// loop has its own Recorder (histograms, exact samples, CPU clock), merged
// only after the loops stop or through a task run on the loop itself.
//
// Every publish is due at t0 + k / rate. Its payload carries that intended
// time, so delivery and ack latency are measured from when the message was
// due, not from when the generator got round to sending it; the lateness of
// each send against the schedule is recorded separately.
#pragma once

#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "client/client.hpp"
#include "common/histogram.hpp"
#include "oracle.hpp"
#include "targets.hpp"
#include "transport/epoll_loop.hpp"
#include "workload.hpp"

namespace pb {

enum class SpanKind : std::uint8_t { kPublishCall, kAck, kReceipt };

/// One span of the traced run: message id, start, end, and the connection
/// (publisher or subscriber index) it belongs to. Spans of one message share
/// its id.
struct Span {
  std::uint64_t id = 0;
  Nanos start = 0;
  Nanos end = 0;
  std::uint32_t who = 0;
  SpanKind kind = SpanKind::kReceipt;
};

/// Single-writer progress counter: only the owning loop thread increments
/// it, any thread may read it.
struct ProgressCounter {
  std::atomic<std::uint64_t> v{0};
  void Inc(std::uint64_t n = 1) noexcept {
    v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Get() const noexcept {
    return v.load(std::memory_order_relaxed);
  }
};

/// Everything one generator loop measures. Only the owning loop thread
/// writes it; progress counters may be read from any thread.
struct alignas(64) Recorder {
  std::array<ProgressCounter, kMaxPhases> received{};  // in-order receipts
  std::array<ProgressCounter, kMaxPhases> acked{};     // OK acks
  ProgressCounter frames;                              // every DELIVER frame
  std::array<Nanos, kMaxPhases> lastAck{};             // arrival of the newest

  std::array<md::Histogram, kMaxPhases> deliver, ack, late;  // ladder steps
  std::vector<Sample> nominalDeliver, nominalAck, nominalLate;  // exact samples
  Faults faults;
  std::vector<Span> spans;
};

/// Self-test hooks: subscriber 0 misbehaves on its n-th in-order receipt.
struct FaultInjection {
  std::int64_t dropNth = -1;       // act as if it never arrived
  std::int64_t duplicateNth = -1;  // observe it twice
};

struct PhaseView {
  md::Histogram deliver, ack, late;
  std::uint64_t published = 0;
  std::uint64_t expected = 0;  // deliveries the phase's publishes owe
  std::uint64_t received = 0;
  std::uint64_t acked = 0;
  Nanos lastAck = 0;
  std::uint64_t faults = 0;  // duplicates, corrupt, misrouted, failed acks so far
};

class Fleet {
 public:
  Fleet(const WorkloadSpec& spec, const Plan& plan, Target& target,
        int setupIndex, bool tracing, FaultInjection inject = {});
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Connects every subscriber and publisher; true once every subscription
  /// has been SubAck'd and every publisher is connected.
  bool Connect(Nanos timeout);
  /// Publishes once to every topic that has an audience and waits for the
  /// acks and deliveries (for a cluster this elects the topic coordinators).
  bool Prime(Nanos timeout);

  struct PhaseRun {
    Nanos t0 = 0;  // when the first publish was due
    std::uint64_t scheduled = 0;
    std::uint64_t sent = 0;  // < scheduled: the generator fell behind
    bool stoppedEarly = false;
  };
  /// Publishes at `rate` for `seconds` on the open-loop schedule. `onTick`
  /// runs on the pacing thread after each wake-up; returning false ends the
  /// phase early (the rest of the schedule is never sent).
  PhaseRun RunPhase(int phase, double rate, double seconds,
                    const std::function<bool()>& onTick = {});
  /// Waits until every ack and delivery the phase owes has arrived.
  bool AwaitPhase(int phase, Nanos timeout);
  /// Waits until every phase is complete.
  bool AwaitAll(Nanos timeout);
  /// Copy of one phase's merged histograms and counts (runs on each loop).
  PhaseView View(int phase);

  /// Blocks the publisher loop for `ns` (self-test: a generator stall).
  void StallPublisher(Nanos ns);

  /// CPU consumed so far by every generator thread, the caller included.
  [[nodiscard]] Nanos GeneratorCpuNs() const;
  /// CPU consumed so far by the subscriber loops.
  [[nodiscard]] Nanos SubscriberCpuNs() const;

  /// Stops every client and joins the loops; recorders are then final.
  void Stop();

  // Also valid after Stop():
  [[nodiscard]] OracleInputs Oracle(std::uint64_t serverDelivered) const;
  [[nodiscard]] std::vector<const Recorder*> Recorders() const;
  [[nodiscard]] std::uint64_t Published(int phase) const {
    return published_[static_cast<std::size_t>(phase)].Get();
  }
  [[nodiscard]] std::uint64_t Expected(int phase) const {
    return expected_[static_cast<std::size_t>(phase)].Get();
  }
  /// In-order receipts and OK acks of a phase so far (any thread).
  [[nodiscard]] std::uint64_t Received(int phase) const;
  [[nodiscard]] std::uint64_t Acked(int phase) const {
    return pubRec_.acked[static_cast<std::size_t>(phase)].Get();
  }
  [[nodiscard]] std::size_t Sessions() const noexcept {
    return subs_.size() + pubs_.size();
  }

 private:
  struct Sub {
    int index = 0;
    std::unique_ptr<md::client::Client> client;
    std::vector<StreamCheck> streams;
    Recorder* rec = nullptr;
    std::int64_t receipts = 0;  // for fault injection
  };

  /// Publisher-loop-only schedule state.
  struct Schedule {
    bool open = false;
    int phase = 0;
    Nanos t0 = 0;
    double intervalNs = 0;
    std::uint64_t total = 0;
    std::uint64_t sent = 0;
  };

  void OnDeliver(Sub& sub, const md::Message& m, bool duplicate);
  void Observe(Sub& sub, const md::Message& m, bool duplicate, Nanos now);
  void OnAck(const PayloadHeader& h, const md::Status& s);
  void PublishOne(std::uint32_t topic, Nanos intended, int phase);
  void Pump();
  /// Runs `fn` on `loop` and waits for it.
  static void RunOn(md::EpollLoop& loop, const std::function<void()>& fn);

  const WorkloadSpec& spec_;
  const Plan& plan_;
  Target& target_;
  int setupIndex_;
  bool tracing_;
  FaultInjection inject_;

  std::vector<std::unique_ptr<md::EpollLoop>> subLoops_;
  std::vector<std::unique_ptr<Recorder>> subRecs_;
  std::unique_ptr<md::EpollLoop> pubLoop_;
  Recorder pubRec_;
  std::vector<std::thread> threads_;  // subscriber loops, then publisher loop

  std::vector<std::unique_ptr<Sub>> subs_;
  std::vector<std::unique_ptr<md::client::Client>> pubs_;
  md::Rng topicRng_;
  std::uint64_t nextId_ = 0;
  std::vector<std::uint64_t> perTopic_;  // publishes per topic
  Schedule sched_;
  std::atomic<bool> pumpPending_{false};
  std::array<ProgressCounter, kMaxPhases> published_{};
  std::array<ProgressCounter, kMaxPhases> expected_{};
  std::atomic<std::uint64_t> subscribed_{0};
  std::atomic<int> pubsUp_{0};
  bool stopped_ = false;
  std::uint64_t missing_ = 0;  // per-stream shortfalls, summed at Stop()
  std::uint64_t extra_ = 0;
};

}  // namespace pb
