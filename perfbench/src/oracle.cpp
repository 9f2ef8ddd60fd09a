#include "oracle.hpp"

namespace pb {

Verdict Observe(StreamCheck& stream, std::uint32_t epoch, std::uint64_t seq,
                bool clientDuplicate) {
  if (clientDuplicate) return Verdict::kDuplicate;
  Verdict verdict = Verdict::kOk;
  if (!stream.seen) {
    if (seq != 1) verdict = Verdict::kGap;  // the stream's head is missing
  } else if (epoch < stream.epoch ||
             (epoch == stream.epoch && seq <= stream.seq)) {
    return Verdict::kDuplicate;
  } else if (epoch == stream.epoch && seq != stream.seq + 1) {
    verdict = Verdict::kGap;
  }
  stream.seen = true;
  stream.epoch = epoch;
  stream.seq = seq;
  ++stream.received;
  return verdict;
}

OracleReport Judge(const OracleInputs& in) {
  OracleReport r;
  r.attempted = in.expectedDeliveries + in.publishes;
  const std::uint64_t unacked =
      in.publishes > in.ackedOk ? in.publishes - in.ackedOk : 0;
  const std::uint64_t countMismatch = in.frames > in.serverDelivered
                                          ? in.frames - in.serverDelivered
                                          : in.serverDelivered - in.frames;
  r.failed = in.missing + in.extra + in.faults.duplicates + in.faults.corrupt +
             in.faults.misrouted + unacked + countMismatch;
  r.errorRate = r.attempted == 0 ? 0
                                 : static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted);
  r.correct = r.attempted > 0 && r.failed == 0;

  auto note = [&](const char* what, std::uint64_t n) {
    if (n == 0) return;
    if (!r.detail.empty()) r.detail += ", ";
    r.detail += what;
    r.detail += "=" + std::to_string(n);
  };
  note("missing", in.missing);
  note("extra", in.extra);
  note("duplicates", in.faults.duplicates);
  note("gaps", in.faults.gaps);
  note("corrupt", in.faults.corrupt);
  note("misrouted", in.faults.misrouted);
  note("unacked_or_failed", unacked);
  note("server_count_mismatch", countMismatch);
  if (r.detail.empty()) r.detail = "ok";
  return r;
}

}  // namespace pb
