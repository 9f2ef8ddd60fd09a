#include "runner.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "host_pace.hpp"
#include "obs/families.hpp"

namespace pb {

namespace {

constexpr Nanos kSecondNs = 1'000'000'000;
constexpr double kNominalShare = 0.5;  // of --seconds; the ladder gets the rest
constexpr int kWindows = 10;           // slices of the nominal window
// A ladder step is cut short once its backlog has stayed past the workload's
// limit (and past the floor) for the hold time; a stall that clears sooner,
// such as a host hiccup, does not end a step.
constexpr double kStopBacklogFloorMs = 250;
constexpr Nanos kStopHoldNs = 250'000'000;
// Host pace: ping-pong trials after set-up and again after the drain, while
// the program is idle. A workload's pace-scaled figures are reported at a
// reference pace of one loopback round trip per 20 us (an unloaded 4-vCPU
// guest).
constexpr int kPaceTrials = 48;
constexpr double kReferenceRttNs = 20'000;

/// Removes a directory tree when the run ends, whichever way it ends.
struct DirGuard {
  std::string path;
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::unique_ptr<Target> MakeTarget(const WorkloadSpec& spec,
                                   const std::string& walRoot, int setup) {
  if (spec.members == 3) return MakeCluster3();
  std::string walDir;
  if (spec.wal) {
    walDir = walRoot + "/setup-" + std::to_string(setup);
    std::filesystem::create_directories(walDir);
  }
  return MakeSingleNode(walDir);
}

/// Sum of one counter over every member (`perServer`: the child labeled
/// with the member's server id; otherwise the child labeled `labels`).
std::uint64_t SumCounter(Target& t, std::string_view name, bool perServer,
                         std::string_view labels = "") {
  const std::vector<md::obs::MetricsRegistry*> regs = t.Registries();
  const std::vector<std::string> ids = t.ServerIds();
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < regs.size(); ++i) {
    sum += perServer ? CounterValue(*regs[i], name, md::obs::ServerLabel(ids[i]))
                     : CounterValue(*regs[i], name, labels);
  }
  return sum;
}

/// Merged histogram of one family child over every member.
md::Histogram MergedHistogram(Target& t, std::string_view name, bool perServer,
                              std::string_view labels = "") {
  const std::vector<md::obs::MetricsRegistry*> regs = t.Registries();
  const std::vector<std::string> ids = t.ServerIds();
  md::Histogram out;
  for (std::size_t i = 0; i < regs.size(); ++i) {
    const std::string label = perServer ? md::obs::ServerLabel(ids[i])
                                        : std::string(labels);
    out.Merge(regs[i]->GetHistogram(name, "", label).Merged());
  }
  return out;
}

/// The transport counters the traced run turns into ratios.
struct TransportCounters {
  std::uint64_t send = 0, sendmsg = 0, recv = 0, posted = 0, iterations = 0,
                copyBytes = 0;

  static TransportCounters Read(Target& t) {
    TransportCounters c;
    c.send = SumCounter(t, "md_transport_syscalls_total", false, "op=\"send\"");
    c.sendmsg = SumCounter(t, "md_transport_syscalls_total", false, "op=\"sendmsg\"");
    c.recv = SumCounter(t, "md_transport_syscalls_total", false, "op=\"recv\"");
    c.posted = SumCounter(t, "md_transport_tasks_posted_total", false);
    c.iterations = SumCounter(t, "md_transport_loop_iterations_total", false);
    c.copyBytes = SumCounter(t, "md_transport_copy_bytes_total", false);
    return c;
  }
};

/// a - b, or 0 when b has caught up.
std::uint64_t Shortfall(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : 0; }

double PerUnit(double amount, std::uint64_t units) {
  return units == 0 ? 0 : amount / static_cast<double>(units);
}

double Ms(double ns) { return ns / 1e6; }

std::vector<Sample> Gather(const std::vector<const Recorder*>& recs,
                           std::vector<Sample> Recorder::*field) {
  std::vector<Sample> out;
  for (const Recorder* r : recs) {
    out.insert(out.end(), (r->*field).begin(), (r->*field).end());
  }
  return out;
}

/// The nominal window's q-quantile, taken as the median over kWindows equal
/// slices (by intended send time) of each slice's own q-quantile: a stall
/// that recurs moves it, a one-off hiccup of the host does not.
double WindowedQuantile(const std::vector<Sample>& samples, Nanos t0, Nanos span,
                        double q, std::vector<double>* perWindow = nullptr) {
  std::vector<std::vector<Nanos>> slices(kWindows);
  for (const Sample& s : samples) {
    const Nanos offset = std::clamp<Nanos>(s.intended - t0, 0, span - 1);
    slices[static_cast<std::size_t>(offset * kWindows / span)].push_back(s.value);
  }
  std::vector<double> per;
  for (auto& slice : slices) {
    if (!slice.empty()) per.push_back(Quantile(slice, q));
  }
  if (perWindow != nullptr) *perWindow = per;
  return Median(per);
}

double WholeQuantile(const std::vector<Sample>& samples, double q) {
  std::vector<Nanos> v;
  for (const Sample& s : samples) v.push_back(s.value);
  return Quantile(v, q);
}

void WriteSpans(const std::string& path, const std::vector<const Recorder*>& recs,
                const std::vector<LayerSpan>& layerSpans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  static const char* kKinds[] = {"publish_call", "ack", "receipt"};
  std::fprintf(f, "kind\tid\tstart_ns\tend_ns\twho_or_calls\n");
  for (const Recorder* r : recs) {
    for (const Span& s : r->spans) {
      std::fprintf(f, "%s\t%llu\t%lld\t%lld\t%u\n",
                   kKinds[static_cast<int>(s.kind)],
                   static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.start), static_cast<long long>(s.end),
                   s.who);
    }
  }
  for (const LayerSpan& s : layerSpans) {
    std::fprintf(f, "%s\t-\t%lld\t%lld\t%llu\n", s.name.c_str(),
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 static_cast<unsigned long long>(s.calls));
  }
  std::fclose(f);
}

}  // namespace

void JudgeStep(StepResult& step, double p99LimitMs) {
  if (step.generatorBound) {
    step.verdict = "generator-bound";
  } else if (step.stoppedEarly) {
    step.verdict = "backlog stayed past the limit mid-step";
  } else if (step.errors != 0) {
    step.verdict = "delivery errors";
  } else if (step.deliverP99Ms >= p99LimitMs) {
    step.verdict = "p99 over the limit";
  } else if (step.backlogMs >= p99LimitMs) {
    step.verdict = "backlog over the limit";
  } else {
    step.verdict = "pass";
  }
  step.pass = step.verdict == "pass";
}

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& opt) {
  RunResult res;
  const Plan plan(spec, opt.seed);
  std::filesystem::create_directories(opt.scratchDir);
  const DirGuard walRoot{opt.scratchDir + "/wal-" + std::to_string(::getpid())};

  // --- set-up, repeated: only the last one is kept and measured ----------
  std::unique_ptr<Target> target;
  std::unique_ptr<Fleet> fleet;
  const int setups = opt.setups > 0 ? opt.setups : spec.setups;
  for (int i = 0; i < setups; ++i) {
    const Nanos start = NowNs();
    std::unique_ptr<Target> t = MakeTarget(spec, walRoot.path, i);
    if (md::Status s = t->Start(); !s.ok()) {
      res.error = "target start failed: " + s.ToString();
      return res;
    }
    auto f = std::make_unique<Fleet>(spec, plan, *t, i, opt.tracing, opt.inject);
    if (!f->Connect(30 * kSecondNs)) {
      res.error = "subscription barrier timed out";
      return res;
    }
    if (!f->Prime(30 * kSecondNs)) {
      res.error = "priming publishes were not all acked and delivered (published " +
                  std::to_string(f->Published(kWarmPhase)) + ", acked " +
                  std::to_string(f->Acked(kWarmPhase)) + ", deliveries " +
                  std::to_string(f->Received(kWarmPhase)) + " of " +
                  std::to_string(f->Expected(kWarmPhase)) + ")";
      return res;
    }
    res.setupSamples.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    if (i + 1 < setups) continue;  // f, then t, are torn down here
    target = std::move(t);
    fleet = std::move(f);
  }
  res.setupOk = true;
  const double bytesPerSession = target->BytesPerSession(fleet->Sessions());
  const double quorumS = target->QuorumReadySeconds();

  res.paceTrialsNs = MeasureHostPace(kPaceTrials);

  // --- warm-up, then the nominal-rate window ------------------------------
  fleet->RunPhase(kWarmPhase, spec.nominalRate, spec.warmupSeconds);
  fleet->AwaitPhase(kWarmPhase, 5 * kSecondNs);

  const TransportCounters tc0 = TransportCounters::Read(*target);
  const std::uint64_t fwd0 = SumCounter(*target, "md_cluster_forwarded_total", true);
  const std::uint64_t cdel0 = SumCounter(*target, "md_cluster_delivered_total", true);
  const Nanos sub0 = fleet->SubscriberCpuNs();
  // Server CPU (process CPU minus the generator threads' own) and the work
  // done so far, read at each slice boundary of the nominal window.
  struct CpuMark {
    Nanos serverCpu;
    std::uint64_t publishes, deliveries;
  };
  auto mark = [&] {
    const Nanos gen = fleet->GeneratorCpuNs();
    return CpuMark{ProcessCpuNs() - gen, fleet->Published(kNominalPhase),
                   fleet->Expected(kNominalPhase)};
  };
  std::vector<CpuMark> cpuMarks{mark()};

  std::int64_t sendQueueMax = 0;
  std::vector<md::obs::Gauge*> queueGauges;
  if (opt.tracing) {
    for (md::obs::MetricsRegistry* r : target->Registries()) {
      queueGauges.push_back(&r->GetGauge("md_transport_send_queue_bytes", ""));
    }
  }
  const double nominalSeconds = opt.seconds * kNominalShare;
  const auto nominalSpan = static_cast<Nanos>(nominalSeconds * 1e9);
  Nanos nextStall = NowNs() + opt.stallEveryNs / 2;
  Nanos nextMark = NowNs() + nominalSpan / kWindows;
  const Fleet::PhaseRun nominal =
      fleet->RunPhase(kNominalPhase, spec.nominalRate, nominalSeconds, [&] {
        if (NowNs() >= nextMark && cpuMarks.size() < kWindows) {
          cpuMarks.push_back(mark());
          nextMark += nominalSpan / kWindows;
        }
        for (md::obs::Gauge* g : queueGauges) {
          sendQueueMax = std::max(sendQueueMax, g->Value());
        }
        if (opt.stallNs > 0 && NowNs() >= nextStall) {
          fleet->StallPublisher(opt.stallNs);
          nextStall += opt.stallEveryNs;
        }
        return true;
      });
  fleet->AwaitPhase(kNominalPhase, 10 * kSecondNs);
  cpuMarks.push_back(mark());
  // Per slice, then the median over slices, as for latency: a burst of load
  // from outside the process in one slice does not move it.
  std::vector<double> cpuPerDelivery, cpuPerPublish;
  for (std::size_t i = 1; i < cpuMarks.size(); ++i) {
    const CpuMark& a = cpuMarks[i - 1];
    const CpuMark& b = cpuMarks[i];
    const double us = static_cast<double>(b.serverCpu - a.serverCpu) / 1e3;
    if (b.deliveries > a.deliveries) {
      cpuPerDelivery.push_back(us / static_cast<double>(b.deliveries - a.deliveries));
    }
    if (b.publishes > a.publishes) {
      cpuPerPublish.push_back(us / static_cast<double>(b.publishes - a.publishes));
    }
  }
  res.cpuPerDeliveryWindows = cpuPerDelivery;
  const Nanos subCpu = fleet->SubscriberCpuNs() - sub0;
  const TransportCounters tc1 = TransportCounters::Read(*target);
  const std::uint64_t nominalPublishes = fleet->Published(kNominalPhase);
  const std::uint64_t nominalDeliveries = fleet->Expected(kNominalPhase);

  // Stage and replication histograms as the program recorded them so far
  // (priming, warm-up and the nominal window).
  std::vector<Metric> stageMetrics;
  for (const char* stage : {"sequenced", "cached", "fanned_out", "socket_written"}) {
    const md::Histogram h = MergedHistogram(
        *target, "md_trace_stage_ns", false,
        std::string("domain=\"wall\",stage=\"") + stage + "\"");
    for (const auto& [suffix, q] : {std::pair{"p50", 0.5}, std::pair{"p99", 0.99}}) {
      stageMetrics.push_back({std::string("core.stage_") + stage + "_" + suffix + "_us",
                              static_cast<double>(h.Percentile(q)) / 1e3, "us"});
    }
  }
  const md::Histogram replAck =
      MergedHistogram(*target, "md_cluster_replication_ack_ns", true);
  const std::uint64_t forwarded =
      SumCounter(*target, "md_cluster_forwarded_total", true) - fwd0;
  const std::uint64_t clusterDelivered =
      SumCounter(*target, "md_cluster_delivered_total", true) - cdel0;

  // --- capacity ladder ----------------------------------------------------
  const double stepSeconds =
      opt.seconds * (1 - kNominalShare) / static_cast<double>(spec.ladder.size());
  double capacity = 0;  // achieved rate of the highest passing step
  for (std::size_t i = 0; i < spec.ladder.size() && kFirstStep + i < kMaxPhases; ++i) {
    const int phase = kFirstStep + static_cast<int>(i);
    const std::uint64_t faultsBefore = fleet->View(kNominalPhase).faults;
    // Work outstanding, as the time the offered rate took to produce it.
    const Nanos stepStart = NowNs();
    auto backlogMs = [&] {
      const double elapsed = static_cast<double>(NowNs() - stepStart) * 1e-9;
      if (elapsed <= 0) return 0.0;
      const double deliveryRate = static_cast<double>(fleet->Expected(phase)) / elapsed;
      const double publishRate = static_cast<double>(fleet->Published(phase)) / elapsed;
      const auto outDeliveries =
          static_cast<double>(Shortfall(fleet->Expected(phase), fleet->Received(phase)));
      const auto outAcks =
          static_cast<double>(Shortfall(fleet->Published(phase), fleet->Acked(phase)));
      return 1e3 * std::max(deliveryRate > 0 ? outDeliveries / deliveryRate : 0,
                            publishRate > 0 ? outAcks / publishRate : 0);
    };
    // A step whose backlog stays past the limit has failed; ending it there
    // keeps the overload short, so the engine never reaches its load-shedding
    // (slow-consumer eviction) regime. A stall that clears is not overload.
    const double stopMs = std::max(spec.p99LimitMs, kStopBacklogFloorMs);
    Nanos overSince = 0;
    const Fleet::PhaseRun run = fleet->RunPhase(phase, spec.ladder[i], stepSeconds, [&] {
      if (backlogMs() < stopMs) {
        overSince = 0;
        return true;
      }
      if (overSince == 0) overSince = NowNs();
      return NowNs() - overSince < kStopHoldNs;
    });
    StepResult step;
    step.offered = spec.ladder[i];
    step.stoppedEarly = run.stoppedEarly;
    step.backlogMs = backlogMs();
    fleet->AwaitPhase(phase, 3 * kSecondNs);
    const PhaseView view = fleet->View(phase);
    step.deliverP99Ms = Ms(static_cast<double>(
        view.expected > 0 ? view.deliver.Percentile(0.99) : view.ack.Percentile(0.99)));
    step.lateP99Ms = Ms(static_cast<double>(view.late.Percentile(0.99)));
    step.achieved = view.lastAck > run.t0
                        ? static_cast<double>(view.acked) * 1e9 /
                              static_cast<double>(view.lastAck - run.t0)
                        : 0;
    step.errors = Shortfall(view.expected, view.received) +
                  Shortfall(view.published, view.acked) + (view.faults - faultsBefore);
    step.generatorBound = (!run.stoppedEarly && run.sent < run.scheduled) ||
                          step.lateP99Ms > spec.p99LimitMs / 2;
    JudgeStep(step, spec.p99LimitMs);
    res.steps.push_back(step);
    if (!step.pass) {
      res.capacityNote = step.verdict;
      break;
    }
    capacity = step.achieved;
  }
  if (res.capacityNote.empty()) res.capacityNote = "top of ladder";

  // --- drain, oracle, teardown --------------------------------------------
  fleet->AwaitAll(5 * kSecondNs);
  for (double ns : MeasureHostPace(kPaceTrials)) res.paceTrialsNs.push_back(ns);
  res.hostRttNs = Median(res.paceTrialsNs);
  const std::uint64_t serverDelivered = target->DeliveredTotal();
  fleet->Stop();
  res.oracle = Judge(fleet->Oracle(serverDelivered));

  const std::vector<const Recorder*> recs = fleet->Recorders();
  const std::vector<Sample> deliver = Gather(recs, &Recorder::nominalDeliver);
  const std::vector<Sample> ack = Gather(recs, &Recorder::nominalAck);
  const std::vector<Sample> late = Gather(recs, &Recorder::nominalLate);
  res.deliverSamples = deliver.size();
  res.ackSamples = ack.size();
  res.windows = kWindows;
  res.wholeDeliverP99Ms = Ms(WholeQuantile(deliver, 0.99));
  res.wholeAckP99Ms = Ms(WholeQuantile(ack, 0.99));
  auto windowed = [&](const std::vector<Sample>& v, double q) {
    return Ms(WindowedQuantile(v, nominal.t0, nominalSpan, q));
  };
  WindowedQuantile(deliver, nominal.t0, nominalSpan, 0.99, &res.deliverP99Windows);
  for (double& v : res.deliverP99Windows) v = Ms(v);
  std::vector<Nanos> publishCall;
  for (const Recorder* r : recs) {
    for (const Span& s : r->spans) {
      if (s.kind == SpanKind::kPublishCall) publishCall.push_back(s.end - s.start);
    }
  }

  res.tails = {
      {"deliver_p99_ms", windowed(deliver, 0.99), "ms"},
      {"ack_p99_ms", windowed(ack, 0.99), "ms"},
  };
  if (res.hostRttNs <= 0) {
    res.setupOk = false;
    res.error = "the host pace probe could not open a loopback connection";
    return res;
  }
  res.paceScale = kReferenceRttNs / res.hostRttNs;
  auto report = [&](Metric m, bool paceScaled) {
    if (paceScaled) {
      res.measured.push_back(m);
      m.value *= res.paceScale;
    }
    res.endToEnd.push_back(m);
  };
  report({"setup_s", [&] {
            std::vector<Nanos> ns;
            for (double s : res.setupSamples) ns.push_back(static_cast<Nanos>(s * 1e9));
            return Quantile(ns, 0.5) * 1e-9;
          }(), "s"},
         spec.setupPaceScaled);
  report({"deliver_p50_ms", windowed(deliver, 0.5), "ms"}, spec.paceScaled);
  report({"ack_p50_ms", windowed(ack, 0.5), "ms"}, spec.paceScaled);
  report({"server_cpu_us_per_delivery", Median(cpuPerDelivery), "us"}, spec.paceScaled);
  report({"server_cpu_us_per_publish", Median(cpuPerPublish), "us"}, spec.paceScaled);
  report({"capacity_publishes_per_s", capacity, "1/s"}, false);
  report({"server_bytes_per_session", bytesPerSession, "B"}, false);

  // The program stops before the replays, so they run on a quiet machine.
  target.reset();
  if (opt.tracing) {
    const double egress = static_cast<double>((tc1.send - tc0.send) +
                                              (tc1.sendmsg - tc0.sendmsg));
    std::vector<LayerSpan> layerSpans;
    const LayerCosts lc = ReplayLayers(spec, plan, opt.scratchDir, layerSpans);
    // One file per workload, replaced by each traced run, so repeated runs
    // do not pile up span files.
    res.spansPath = opt.scratchDir + "/spans-" + spec.name + ".tsv";
    WriteSpans(res.spansPath, recs, layerSpans);

    res.perLayer = {
        {"client.publish_call_ns", Quantile(publishCall, 0.5), "ns"},
        {"client.publish_late_p99_ms", windowed(late, 0.99), "ms"},
        {"client.sub_cpu_us_per_delivery",
         PerUnit(static_cast<double>(subCpu) / 1e3, nominalDeliveries), "us"},
        {"proto.decode_publish_ns", lc.decodePublishNs, "ns"},
        {"proto.encode_puback_ns", lc.encodePubackNs, "ns"},
        {"proto.encode_deliver_ns", lc.encodeDeliverNs, "ns"},
        {"proto.decode_deliver_ns", lc.decodeDeliverNs, "ns"},
        {"core.sequencer_assign_ns", lc.sequencerAssignNs, "ns"},
        {"core.cache_append_ns", lc.cacheAppendNs, "ns"},
        {"core.registry_snapshot_ns", lc.registrySnapshotNs, "ns"},
        {"core.session_find_ns", lc.sessionFindNs, "ns"},
    };
    res.perLayer.insert(res.perLayer.end(), stageMetrics.begin(), stageMetrics.end());
    const std::vector<Metric> rest = {
        {"transport.egress_syscalls_per_delivery", PerUnit(egress, nominalDeliveries),
         "count"},
        {"transport.tasks_posted_per_publish",
         PerUnit(static_cast<double>(tc1.posted - tc0.posted), nominalPublishes), "count"},
        {"transport.loop_iterations_per_delivery",
         PerUnit(static_cast<double>(tc1.iterations - tc0.iterations), nominalDeliveries),
         "count"},
        {"transport.send_queue_bytes_max", static_cast<double>(sendQueueMax), "B"},
        {"transport.copy_bytes_per_delivery",
         PerUnit(static_cast<double>(tc1.copyBytes - tc0.copyBytes), nominalDeliveries),
         "B"},
        {"transport.recv_syscalls_per_publish",
         PerUnit(static_cast<double>(tc1.recv - tc0.recv), nominalPublishes), "count"},
        {"wal.append_ns", lc.walAppendNs, "ns"},
        {"wal.bytes_per_publish", lc.walBytesPerPublish, "B"},
        {"cluster.replication_ack_p50_ms", Ms(static_cast<double>(replAck.Percentile(0.5))),
         "ms"},
        {"cluster.replication_ack_p99_ms", Ms(static_cast<double>(replAck.Percentile(0.99))),
         "ms"},
        {"cluster.forwarded_per_publish",
         PerUnit(static_cast<double>(forwarded), nominalPublishes), "count"},
        {"cluster.delivered_per_publish",
         PerUnit(static_cast<double>(clusterDelivered), nominalPublishes), "count"},
        {"coord.quorum_ready_s", quorumS, "s"},
        {"obs.tracer_cycle_ns", lc.tracerCycleNs, "ns"},
        {"obs.tracer_cycle_2t_ns", lc.tracerCycle2tNs, "ns"},
    };
    res.perLayer.insert(res.perLayer.end(), rest.begin(), rest.end());
  }
  return res;
}

}  // namespace pb
