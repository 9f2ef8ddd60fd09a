// Shared pieces of the open-loop benchmark: the clock, the payload layout
// that carries each message's intended send time, exact percentiles and
// per-thread CPU clocks.
#pragma once

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.hpp"

namespace pb {

using Nanos = std::int64_t;

/// The benchmark's one clock (steady_clock is CLOCK_MONOTONIC on Linux, the
/// same clock clock_nanosleep paces against).
inline Nanos NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void SleepUntil(Nanos when) noexcept {
  timespec ts{};
  ts.tv_sec = when / 1'000'000'000;
  ts.tv_nsec = when % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

inline Nanos CpuNs(clockid_t clock) noexcept {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline Nanos ProcessCpuNs() noexcept { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU clock of another thread of this process (readable from any thread).
inline clockid_t ThreadCpuClock(pthread_t thread) noexcept {
  clockid_t id{};
  if (pthread_getcpuclockid(thread, &id) != 0) return CLOCK_THREAD_CPUTIME_ID;
  return id;
}

// Phases a message can belong to. Phase 0 (priming and warm-up) is checked
// by the oracle but not timed; phase 1 is the nominal-rate window; ladder
// step i is phase kFirstStep + i.
inline constexpr int kWarmPhase = 0;
inline constexpr int kNominalPhase = 1;
inline constexpr int kFirstStep = 2;
inline constexpr int kMaxPhases = 16;

/// Fixed header at the front of every payload; the rest is filler derived
/// from the seed and the message id, so receipts can be checked byte for byte.
struct PayloadHeader {
  Nanos intended = 0;     // when the open-loop schedule says it was due
  std::uint64_t id = 0;   // run-wide message id
  std::uint32_t topic = 0;
  std::uint8_t phase = 0;
};
inline constexpr std::size_t kHeaderBytes = 21;

inline void EncodeHeader(const PayloadHeader& h, std::uint8_t* out) noexcept {
  std::memcpy(out, &h.intended, 8);
  std::memcpy(out + 8, &h.id, 8);
  std::memcpy(out + 16, &h.topic, 4);
  out[20] = h.phase;
}

inline PayloadHeader DecodeHeader(const std::uint8_t* in) noexcept {
  PayloadHeader h;
  std::memcpy(&h.intended, in, 8);
  std::memcpy(&h.id, in + 8, 8);
  std::memcpy(&h.topic, in + 16, 4);
  h.phase = in[20];
  return h;
}

/// One timed observation of the nominal window: when the message was due,
/// and the measured value (latency or lateness).
struct Sample {
  Nanos intended = 0;
  Nanos value = 0;
};

/// Exact q-quantile (nearest rank) of `v`; reorders `v`. 0 when empty.
inline double Quantile(std::vector<Nanos>& v, double q) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace pb
