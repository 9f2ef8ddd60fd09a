// perfbench: one run of one workload against the real engine.
//
//   perfbench --workload fanout|ingest|cluster3 --seed N --seconds S
//             --trace 0|1 [--scratch DIR] [--git-sha SHA] [--setups K]
//
// Prints a host block, every metric with its unit, the capacity ladder and
// the delivery oracle's verdict; the last line is one JSON object with the
// keys correct, attempted, failed and metrics (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1). Every run also prints its
// end-to-end and tail metrics on a line starting "end_to_end:", so the
// tracing overhead can be taken between a traced and an untraced run.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/server.hpp"
#include "runner.hpp"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int setups = 0;
  std::string scratch = ".bench_build/perfbench-run";
  std::string gitSha = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--git-sha SHA] "
               "[--setups K]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      haveWorkload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else if (key == "--setups") {
      a.setups = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else if (key == "--scratch") {
      a.scratch = val;
    } else if (key == "--git-sha") {
      a.gitSha = val;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + key).c_str());
  }
  if (!haveWorkload) Usage("--workload is required");
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1) || a.setups < 0) {
    Usage("--seconds must be > 0, --trace 0 or 1, --setups >= 0");
  }
  return a;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<pb::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

void PrintHost(const Args& a) {
  utsname u{};
  uname(&u);
  std::printf(
      "host: {\"nproc\": %ld, \"kernel\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_sha\": \"%s\", \"event_loop\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), u.release, PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, a.gitSha.c_str(),
      md::LoopKindName(md::core::ServerConfig{}.eventLoop), a.workload.c_str(),
      static_cast<unsigned long long>(a.seed), JsonNumber(a.seconds).c_str(),
      a.trace);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const pb::WorkloadSpec* spec = pb::FindWorkload(args.workload);
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());

  // Two sockets per subscriber live in this process.
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
  }

  PrintHost(args);
  pb::RunOptions opt;
  opt.seed = args.seed;
  opt.seconds = args.seconds;
  opt.tracing = args.trace == 1;
  opt.setups = args.setups;
  opt.scratchDir = args.scratch;
  const pb::RunResult r = pb::RunWorkload(*spec, opt);
  if (!r.setupOk) {
    std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());
    return 1;
  }

  std::printf("setup_s samples:");
  for (double s : r.setupSamples) std::printf(" %.4f", s);
  std::printf(
      "\nnominal rate %.0f publishes/s: %llu delivery samples, %llu ack samples; "
      "latencies are medians over %d windows (whole-window p99: deliver %.3f ms, "
      "ack %.3f ms)\n",
      spec->nominalRate, static_cast<unsigned long long>(r.deliverSamples),
      static_cast<unsigned long long>(r.ackSamples), r.windows, r.wholeDeliverP99Ms,
      r.wholeAckP99Ms);
  std::printf("deliver_p99_ms by window:");
  for (double v : r.deliverP99Windows) std::printf(" %.3f", v);
  std::printf("\nserver_cpu_us_per_delivery by window:");
  for (double v : r.cpuPerDeliveryWindows) std::printf(" %.3f", v);
  std::printf("\nhost pace: loopback round trip %.3f us, median of", r.hostRttNs / 1e3);
  for (double ns : r.paceTrialsNs) std::printf(" %.3f", ns / 1e3);
  std::printf("\nladder (p99 limit %.1f ms):\n", spec->p99LimitMs);
  for (const pb::StepResult& s : r.steps) {
    std::printf(
        "  offered %8.0f/s achieved %10.1f/s deliver_p99 %8.3f ms late_p99 %7.3f ms "
        "backlog %7.3f ms errors %llu -> %s\n",
        s.offered, s.achieved, s.deliverP99Ms, s.lateP99Ms, s.backlogMs,
        static_cast<unsigned long long>(s.errors), s.verdict.c_str());
  }
  std::printf("ladder stopped: %s\n", r.capacityNote.c_str());
  for (const pb::Metric& m : r.measured) {
    std::printf("%-40s %16.6f %s as measured\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (r.measured.empty()) {
    std::printf("end-to-end metrics, as measured:\n");
  } else {
    std::printf("end-to-end metrics, the ones above scaled by %.6f to the reference "
                "pace of a 20 us round trip:\n",
                r.paceScale);
  }
  for (const pb::Metric& m : r.endToEnd) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const pb::Metric& m : r.tails) {
    std::printf("%-40s %16.6f %s (not gated)\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const pb::Metric& m : r.perLayer) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-40s %16.9f ratio (%llu failed of %llu attempted: %s)\n",
              "error_rate", r.oracle.errorRate,
              static_cast<unsigned long long>(r.oracle.failed),
              static_cast<unsigned long long>(r.oracle.attempted),
              r.oracle.detail.c_str());
  if (args.trace == 1) std::printf("spans: %s\n", r.spansPath.c_str());
  std::vector<pb::Metric> all = r.endToEnd;
  all.insert(all.end(), r.tails.begin(), r.tails.end());
  std::printf("end_to_end: %s\n", MetricsJson(all).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.oracle.correct ? "true" : "false",
              static_cast<unsigned long long>(r.oracle.attempted),
              static_cast<unsigned long long>(r.oracle.failed),
              MetricsJson(args.trace == 1 ? r.perLayer : r.endToEnd).c_str());
  std::fflush(stdout);
  return 0;
}
