// One benchmark run of one workload: set-up (repeated for setup_s), warm-up,
// the nominal-rate window, the capacity ladder, the final drain and the
// oracle; with tracing on, also the client spans, the program's own stage
// and transport counters, and the per-layer replays.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "generator.hpp"
#include "layers.hpp"
#include "oracle.hpp"
#include "workload.hpp"

namespace pb {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;      // nominal window + ladder
  bool tracing = false;
  int setups = 0;           // set-ups per run (0: the workload's own count)
  std::string scratchDir;   // WAL directories and span files
  FaultInjection inject;    // self-tests only
  Nanos stallNs = 0;        // self-tests: stall the publisher loop this long
  Nanos stallEveryNs = 0;   //   once per this period of the nominal window
};

struct StepResult {
  double offered = 0;      // publishes/s
  double achieved = 0;     // publishes / (step start -> its last ack)
  double deliverP99Ms = 0;
  double lateP99Ms = 0;
  double backlogMs = 0;    // work outstanding at the step's end, in time
  std::uint64_t errors = 0;
  bool generatorBound = false;
  bool stoppedEarly = false;  // backlog passed the limit mid-step
  bool pass = false;
  std::string verdict;        // "pass", or the first condition that failed
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool setupOk = false;
  std::string error;
  OracleReport oracle;
  std::vector<double> setupSamples;
  std::uint64_t deliverSamples = 0;
  std::uint64_t ackSamples = 0;
  int windows = 0;               // slices of the nominal window
  double wholeDeliverP99Ms = 0;  // p99 over the whole window, for reference
  double wholeAckP99Ms = 0;
  std::vector<double> deliverP99Windows;  // ms, one per slice
  std::vector<double> cpuPerDeliveryWindows;  // us, one per slice
  std::vector<double> paceTrialsNs;  // host pace probe, one per trial
  double hostRttNs = 0;              // their median
  double paceScale = 1;              // reference pace / hostRttNs
  std::vector<StepResult> steps;
  std::string capacityNote;
  std::vector<Metric> endToEnd;  // always; the metrics BENCHMARK.json gates
  std::vector<Metric> measured;  // the pace-scaled ones, as measured
  // Tail latency at the nominal rate, always reported but not gated: on a
  // host that shares its cores, p99 follows the neighbours more than the
  // engine (see README.md).
  std::vector<Metric> tails;
  std::vector<Metric> perLayer;  // tracing only
  std::string spansPath;         // tracing only
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& opt);

/// Applies the capacity rule to one finished ladder step.
void JudgeStep(StepResult& step, double p99LimitMs);

}  // namespace pb
