// Harness self-tests: the benchmark must see what it claims to measure.
//
//   - a stall of the publisher loop shows up in deliver_p99_ms and in the
//     generator's lateness (latency is taken from the intended send time);
//   - an injected gap or duplicate raises error_rate and fails the run;
//   - a ladder step beyond what the generator can send is flagged
//     generator-bound, not reported as capacity;
//   - with three busy-looping threads competing for the cores, fanout runs
//     lose nothing (the subscription barrier and bounded drain hold).
//
// Exits 0 when every check passes; prints each failed check.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "runner.hpp"

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

double MetricOf(const std::vector<pb::Metric>& ms, const std::string& name) {
  for (const pb::Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  return -1;
}

pb::WorkloadSpec SmallFanout(int subscribers) {
  pb::WorkloadSpec s;
  s.name = "selftest";
  s.subscribers = subscribers;
  s.topics = 4;
  s.payloadBytes = 64;
  s.nominalRate = 500;
  s.warmupSeconds = 0.1;
  s.ladder = {500};
  s.p99LimitMs = 50;
  return s;
}

pb::RunOptions Options(const std::string& scratch, double seconds) {
  pb::RunOptions o;
  o.seed = 42;
  o.seconds = seconds;
  o.setups = 1;
  o.scratchDir = scratch;
  return o;
}

void OracleUnit() {
  pb::StreamCheck s;
  Check(pb::Observe(s, 1, 1, false) == pb::Verdict::kOk, "oracle: seq 1 starts a stream");
  Check(pb::Observe(s, 1, 2, false) == pb::Verdict::kOk, "oracle: seq 2 follows");
  Check(pb::Observe(s, 1, 4, false) == pb::Verdict::kGap, "oracle: seq 4 is a gap");
  Check(pb::Observe(s, 1, 4, false) == pb::Verdict::kDuplicate, "oracle: repeat is a duplicate");
  Check(pb::Observe(s, 1, 3, false) == pb::Verdict::kDuplicate, "oracle: going back is a duplicate");
  Check(pb::Observe(s, 1, 5, true) == pb::Verdict::kDuplicate, "oracle: client-filtered is a duplicate");
  pb::StreamCheck late;
  Check(pb::Observe(late, 1, 7, false) == pb::Verdict::kGap, "oracle: a missing head is a gap");

  pb::OracleInputs in;
  in.publishes = 10;
  in.ackedOk = 10;
  in.expectedDeliveries = 100;
  in.frames = 100;
  in.serverDelivered = 100;
  Check(pb::Judge(in).correct && pb::Judge(in).errorRate == 0, "oracle: clean run is correct");
  in.missing = 1;
  in.frames = 99;
  const pb::OracleReport r = pb::Judge(in);
  Check(!r.correct && r.failed == 2 && r.attempted == 110,
        "oracle: one loss counts as missing and as a server count mismatch");
}

void StallIsMeasured(const std::string& scratch) {
  pb::RunOptions o = Options(scratch, 2.4);  // 1.2 s nominal window
  o.stallNs = 100'000'000;                   // 100 ms in every 200 ms slice
  o.stallEveryNs = 200'000'000;
  o.tracing = true;
  const pb::RunResult r = pb::RunWorkload(SmallFanout(40), o);
  Check(r.setupOk && r.oracle.correct, "stall: run completes with no delivery errors");
  const double p99 = MetricOf(r.tails, "deliver_p99_ms");
  const double late = MetricOf(r.perLayer, "client.publish_late_p99_ms");
  std::printf("     deliver_p99_ms %.3f, client.publish_late_p99_ms %.3f (stalls of 100 ms)\n",
              p99, late);
  Check(p99 >= 75, "stall: deliver_p99_ms includes the 100 ms stalls");
  Check(late >= 75, "stall: generator lateness reports the stalls");
}

void InjectedFaultsFail(const std::string& scratch) {
  for (const bool drop : {true, false}) {
    pb::RunOptions o = Options(scratch, 1.0);
    (drop ? o.inject.dropNth : o.inject.duplicateNth) = 5;
    const pb::RunResult r = pb::RunWorkload(SmallFanout(10), o);
    std::printf("     %s: error_rate %.6f (%s)\n", drop ? "gap" : "duplicate",
                r.oracle.errorRate, r.oracle.detail.c_str());
    Check(r.setupOk && !r.oracle.correct && r.oracle.errorRate > 0,
          std::string("oracle: an injected ") + (drop ? "gap" : "duplicate") +
              " raises error_rate");
  }
}

void GeneratorBoundIsFlagged(const std::string& scratch) {
  pb::WorkloadSpec spec = SmallFanout(2);
  spec.topics = 1;
  spec.ladder = {500, 5'000'000};
  const pb::RunResult r = pb::RunWorkload(spec, Options(scratch, 1.0));
  const bool flagged = r.steps.size() == 2 && r.steps[1].generatorBound &&
                       r.capacityNote == "generator-bound";
  Check(r.setupOk && flagged, "ladder: a step beyond the generator is generator-bound");
  Check(r.steps.size() == 2 && r.steps[0].pass &&
            MetricOf(r.endToEnd, "capacity_publishes_per_s") < 1000,
        "ladder: capacity stays at the last step the generator kept up with");
}

void NoLossUnderBusyLoops(const std::string& scratch) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> busy;
  for (int i = 0; i < 3; ++i) {
    busy.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  // The fanout workload's own audience, at its nominal rate only: the
  // ladder's overload steps would measure the engine's load shedding.
  pb::WorkloadSpec spec = *pb::FindWorkload("fanout");
  spec.ladder = {spec.nominalRate};
  int clean = 0;
  constexpr int kRuns = 3;
  for (int i = 0; i < kRuns; ++i) {
    pb::RunOptions o = Options(scratch, 2.0);
    o.seed = 100 + static_cast<std::uint64_t>(i);
    const pb::RunResult r = pb::RunWorkload(spec, o);
    std::printf("     busy run %d: %s\n", i,
                r.setupOk ? r.oracle.detail.c_str() : r.error.c_str());
    if (r.setupOk && r.oracle.correct) ++clean;
  }
  stop.store(true);
  for (std::thread& t : busy) t.join();
  Check(clean == kRuns, "barrier: fanout runs under 3 busy threads lose nothing");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scratch = argc > 1 ? argv[1] : ".bench_build/perfbench-selftest";
  OracleUnit();
  StallIsMeasured(scratch);
  InjectedFaultsFail(scratch);
  GeneratorBoundIsFlagged(scratch);
  NoLossUnderBusyLoops(scratch);
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  std::printf("%s: %d failed check(s)\n", g_failures == 0 ? "OK" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
