// Delivery oracle: per-stream order checks plus the end-of-run accounting
// that turns them into error_rate.
//
// For every (subscriber, topic) stream the (epoch, seq) positions must rise
// with no gap and no duplicate, starting at seq 1 (every subscription is in
// place before the first publish). At the end every stream must hold exactly
// the publishes made to its topic, every publish must be acked OK, and the
// DELIVER frames seen must equal the program's own delivered counter delta.
#pragma once

#include <cstdint>
#include <string>

namespace pb {

struct StreamCheck {
  std::uint32_t topic = 0;
  bool seen = false;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint64_t received = 0;  // in-order, first-time receipts
};

enum class Verdict : std::uint8_t { kOk, kDuplicate, kGap };

/// Applies one DELIVER frame to its stream. `clientDuplicate` is the client
/// library's own filter verdict (a repeated publication id or a position at
/// or behind the stream's cursor). A gap still advances the stream, so a
/// single loss is counted once.
Verdict Observe(StreamCheck& stream, std::uint32_t epoch, std::uint64_t seq,
                bool clientDuplicate);

/// Failure counters a loop accumulates as it observes its streams.
struct Faults {
  std::uint64_t duplicates = 0;  // repeated or out-of-order DELIVER frames
  std::uint64_t gaps = 0;        // position jumps (diagnostic; see missing)
  std::uint64_t corrupt = 0;     // payload bytes not what was published
  std::uint64_t misrouted = 0;   // payload names a topic the stream lacks
  std::uint64_t ackFailed = 0;   // publishes acked with a non-OK status

  void Add(const Faults& o) {
    duplicates += o.duplicates;
    gaps += o.gaps;
    corrupt += o.corrupt;
    misrouted += o.misrouted;
    ackFailed += o.ackFailed;
  }
};

struct OracleInputs {
  std::uint64_t publishes = 0;           // Publish calls made
  std::uint64_t ackedOk = 0;
  std::uint64_t expectedDeliveries = 0;  // sum over publishes of the audience
  std::uint64_t missing = 0;             // per stream: expected - received
  std::uint64_t extra = 0;               // per stream: received - expected
  std::uint64_t frames = 0;              // every DELIVER frame observed
  std::uint64_t serverDelivered = 0;     // program's delivered counter delta
  Faults faults;
};

struct OracleReport {
  std::uint64_t attempted = 0;  // expected deliveries + publishes
  std::uint64_t failed = 0;
  double errorRate = 0;
  bool correct = false;
  std::string detail;  // one line naming every nonzero failure count
};

OracleReport Judge(const OracleInputs& in);

}  // namespace pb
