#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <thread>

#include "common/hash.hpp"
#include "core/cache.hpp"
#include "core/registry.hpp"
#include "core/sequencer.hpp"
#include "core/session.hpp"
#include "obs/families.hpp"
#include "obs/trace.hpp"
#include "proto/codec.hpp"
#include "wal/env.hpp"
#include "wal/log.hpp"

namespace pb {

namespace {

constexpr int kRepeats = 5;
constexpr std::size_t kMessages = 20000;   // frames, cache and WAL records
constexpr std::size_t kLookups = 200000;   // snapshots, sequencer, tracer
constexpr std::size_t kFinds = 400000;     // session lookups

// Every replayed result is folded in here, so no call can be optimised away.
std::uint64_t g_sink = 0;

/// Times `batch` kRepeats times; returns the median ns per call and records
/// one span per batch. `setup` (untimed) runs before each batch.
double TimeBatches(const char* name, std::uint64_t calls,
                   const std::function<void()>& setup,
                   const std::function<void()>& batch,
                   std::vector<LayerSpan>& spans) {
  std::vector<Nanos> per;
  for (int r = 0; r < kRepeats; ++r) {
    if (setup) setup();
    const Nanos start = NowNs();
    batch();
    const Nanos end = NowNs();
    spans.push_back({name, start, end, calls});
    per.push_back(end - start);
  }
  return Quantile(per, 0.5) / static_cast<double>(std::max<std::uint64_t>(calls, 1));
}

std::vector<md::Message> MakeMessages(const WorkloadSpec& spec, const Plan& plan,
                                      std::size_t n) {
  const std::vector<std::uint32_t> topics = plan.TopicSequence(n);
  std::vector<md::Message> out(n);
  std::vector<std::uint64_t> nextSeq(static_cast<std::size_t>(spec.topics), 1);
  for (std::size_t i = 0; i < n; ++i) {
    PayloadHeader h;
    h.id = i;
    h.topic = topics[i];
    h.phase = kNominalPhase;
    md::Message& m = out[i];
    m.topic = plan.TopicName(topics[i]);
    plan.FillPayload(h, m.payload);
    m.epoch = 1;
    m.seq = nextSeq[topics[i]]++;
    m.pubId = {0x5eed, i + 1};
    m.publishTs = static_cast<std::int64_t>(i);
  }
  return out;
}

}  // namespace

LayerCosts ReplayLayers(const WorkloadSpec& spec, const Plan& plan,
                        const std::string& scratchDir,
                        std::vector<LayerSpan>& spans) {
  LayerCosts c;
  const std::vector<md::Message> msgs = MakeMessages(spec, plan, kMessages);

  // --- proto: the workload's own frames through the codec -----------------
  md::Bytes publishWire;
  md::Bytes deliverWire;
  for (const md::Message& m : msgs) {
    md::PublishFrame pub;
    pub.topic = m.topic;
    pub.payload = m.payload;
    pub.pubId = m.pubId;
    pub.publishTs = m.publishTs;
    md::EncodeFramed(pub, publishWire);
    md::EncodeFramed(md::DeliverFrame{m}, deliverWire);
  }
  auto decodeAll = [&](const md::Bytes& wire) {
    md::ByteQueue in;
    in.Append(md::BytesView(wire));
    for (;;) {
      md::FrameExtractResult r = md::ExtractFrame(in);
      if (!r.frame) break;
      g_sink += r.frame->index();
    }
  };
  c.decodePublishNs = TimeBatches(
      "proto.decode_publish", msgs.size(), {}, [&] { decodeAll(publishWire); }, spans);
  c.decodeDeliverNs = TimeBatches(
      "proto.decode_deliver", msgs.size(), {}, [&] { decodeAll(deliverWire); }, spans);
  md::Bytes out;
  c.encodeDeliverNs = TimeBatches(
      "proto.encode_deliver", msgs.size(), {},
      [&] {
        for (const md::Message& m : msgs) {
          out.clear();
          md::EncodeFramed(md::DeliverFrame{m}, out);
          g_sink += out.size();
        }
      },
      spans);
  c.encodePubackNs = TimeBatches(
      "proto.encode_puback", msgs.size(), {},
      [&] {
        for (const md::Message& m : msgs) {
          out.clear();
          md::EncodeFramed(md::PubAckFrame{m.pubId, md::PubAckCode::kOk}, out);
          g_sink += out.size();
        }
      },
      spans);

  // --- core: sequencer, cache, registry, sessions --------------------------
  const std::vector<std::uint32_t> sequence = plan.TopicSequence(kLookups);
  const md::core::CacheConfig cacheCfg;
  std::vector<std::uint32_t> groupOf(static_cast<std::size_t>(spec.topics));
  for (std::uint32_t t = 0; t < groupOf.size(); ++t) {
    groupOf[t] = md::TopicGroupOf(plan.TopicName(t), cacheCfg.topicGroups);
  }
  std::unique_ptr<md::core::Sequencer> sequencer;
  c.sequencerAssignNs = TimeBatches(
      "core.sequencer_assign", sequence.size(),
      [&] {
        sequencer = std::make_unique<md::core::Sequencer>();
        for (std::uint32_t g = 0; g < cacheCfg.topicGroups; ++g) {
          sequencer->BeginEpoch(g, 1);
        }
      },
      [&] {
        for (std::uint32_t t : sequence) {
          g_sink += sequencer->Assign(groupOf[t], plan.TopicName(t))->seq;
        }
      },
      spans);

  std::unique_ptr<md::core::Cache> cache;
  c.cacheAppendNs = TimeBatches(
      "core.cache_append", msgs.size(),
      [&] { cache = std::make_unique<md::core::Cache>(cacheCfg); },
      [&] {
        for (const md::Message& m : msgs) g_sink += cache->Append(m) ? 1 : 0;
      },
      spans);
  cache.reset();

  md::core::SubscriptionRegistry registry;
  md::core::SessionTable sessions;
  for (int s = 0; s < spec.subscribers; ++s) {
    const auto handle = static_cast<md::core::ClientHandle>(s + 1);
    for (std::uint32_t t : plan.SubscriberTopics(s)) {
      registry.Subscribe(plan.TopicName(t), handle);
    }
    md::core::SessionPtr session = md::core::MakeSession();
    session->handle = handle;
    sessions.Insert(session);
  }
  c.registrySnapshotNs = TimeBatches(
      "core.registry_snapshot", sequence.size(), {},
      [&] {
        for (std::uint32_t t : sequence) {
          const md::core::SubscriberSnapshot snap = registry.Snapshot(plan.TopicName(t));
          g_sink += snap ? snap->size() : 0;  // null: a topic nobody took
        }
      },
      spans);

  // The handles every delivery of the publish sequence resolves, in order.
  std::vector<md::core::ClientHandle> targets;
  for (std::size_t i = 0; targets.size() < kFinds && i < sequence.size(); ++i) {
    const auto snap = registry.Snapshot(plan.TopicName(sequence[i]));
    if (snap) targets.insert(targets.end(), snap->begin(), snap->end());
  }
  if (targets.empty()) targets.push_back(1);
  c.sessionFindNs = TimeBatches(
      "core.session_find", targets.size(), {},
      [&] {
        for (md::core::ClientHandle h : targets) {
          g_sink += sessions.Find(h) != nullptr ? 1 : 0;
        }
      },
      spans);

  // --- wal: the workload's records through Log::Append, fsync=os ----------
  {
    md::obs::MetricsRegistry walRegistry;
    md::obs::WalMetrics walMetrics(walRegistry);
    std::vector<std::uint32_t> msgGroups;
    for (const md::Message& m : msgs) {
      msgGroups.push_back(md::TopicGroupOf(m.topic, cacheCfg.topicGroups));
    }
    std::uint64_t appends = 0;
    int round = 0;
    std::unique_ptr<md::wal::Log> log;
    std::string dir;
    c.walAppendNs = TimeBatches(
        "wal.append", msgs.size(),
        [&] {
          if (log) log->Close();
          log.reset();
          if (!dir.empty()) std::filesystem::remove_all(dir);
          dir = scratchDir + "/wal-replay-" + std::to_string(round++);
          std::filesystem::create_directories(dir);
          md::wal::WalConfig cfg;
          cfg.dir = dir;
          cfg.fsync = md::wal::FsyncPolicy::kOs;
          log = std::make_unique<md::wal::Log>(md::wal::PosixEnv::Instance(),
                                               cfg, &walMetrics);
        },
        [&] {
          for (std::size_t i = 0; i < msgs.size(); ++i) {
            appends += log->Append(msgGroups[i], msgs[i], msgs[i].publishTs).ok() ? 1 : 0;
          }
        },
        spans);
    log->Close();
    log.reset();
    std::filesystem::remove_all(dir);
    c.walBytesPerPublish =
        appends == 0 ? 0
                     : static_cast<double>(walMetrics.appendBytes.Value()) /
                           static_cast<double>(appends);
  }

  // --- obs: one trace cycle per publish, from one and from two threads ----
  auto cycles = [](md::obs::Tracer& tracer, std::uint64_t client) {
    for (std::uint64_t i = 0; i < kLookups; ++i) {
      const md::obs::TraceKey key{client, i};
      tracer.Begin(key);
      tracer.Stamp(key, md::obs::Stage::kSequenced);
      tracer.Stamp(key, md::obs::Stage::kCached);
      tracer.Stamp(key, md::obs::Stage::kFannedOut);
      tracer.Stamp(key, md::obs::Stage::kSocketWritten);
    }
  };
  md::obs::MetricsRegistry traceRegistry;
  md::obs::Tracer tracer(traceRegistry, [] { return NowNs(); }, "wall");
  c.tracerCycleNs = TimeBatches(
      "obs.tracer_cycle", kLookups, {}, [&] { cycles(tracer, 1); }, spans);
  c.tracerCycle2tNs = TimeBatches(
      "obs.tracer_cycle_2t", kLookups, {},
      [&] {
        std::thread other([&] { cycles(tracer, 3); });
        cycles(tracer, 2);
        other.join();
      },
      spans);
  return c;
}

}  // namespace pb
