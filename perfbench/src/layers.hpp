// Per-layer replays for the traced run: each layer's public functions are
// called from outside with the workload's own data (its topics, payload
// size, audience and working set) and timed as a batch. The batch median
// over a few repetitions is the layer's cost per call.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "workload.hpp"

namespace pb {

/// A replayed batch: `calls` calls of one layer function.
struct LayerSpan {
  std::string name;
  Nanos start = 0;
  Nanos end = 0;
  std::uint64_t calls = 0;
};

struct LayerCosts {
  double decodePublishNs = 0;     // ExtractFrame of a framed PUBLISH
  double encodePubackNs = 0;      // EncodeFramed(PubAckFrame)
  double encodeDeliverNs = 0;     // EncodeFramed(DeliverFrame)
  double decodeDeliverNs = 0;     // ExtractFrame of a framed DELIVER
  double sequencerAssignNs = 0;   // Sequencer::Assign
  double cacheAppendNs = 0;       // Cache::Append
  double registrySnapshotNs = 0;  // SubscriptionRegistry::Snapshot
  double sessionFindNs = 0;       // SessionTable::Find
  double walAppendNs = 0;         // wal::Log::Append, fsync=os
  double walBytesPerPublish = 0;  // md_wal_append_bytes_total / appends
  double tracerCycleNs = 0;       // Tracer Begin + 4 Stamps, one thread
  double tracerCycle2tNs = 0;     // the same from two threads at once
};

/// `scratchDir` receives the replayed WAL (removed afterwards).
LayerCosts ReplayLayers(const WorkloadSpec& spec, const Plan& plan,
                        const std::string& scratchDir,
                        std::vector<LayerSpan>& spans);

}  // namespace pb
