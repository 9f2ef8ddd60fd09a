// The program under test: one core::Server, or a three-member
// TcpClusterHost cluster (each member with its co-located MiniZK node), all
// in-process on loopback. Every target keeps the engine's defaults; the
// benchmark only picks ports, the metrics registry and (for ingest) the WAL
// directory.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cluster/tcp_host.hpp"
#include "common/status.hpp"
#include "core/server.hpp"
#include "obs/metrics.hpp"

namespace pb {

class Target {
 public:
  virtual ~Target() = default;

  /// Starts the program; returns once it can take clients (for a cluster:
  /// once MiniZK has one leader every member knows and quorum contact).
  virtual md::Status Start() = 0;
  virtual void Stop() = 0;

  /// Client port of each member, member 0 first.
  [[nodiscard]] virtual std::vector<std::uint16_t> ClientPorts() const = 0;
  /// Server id of each member (the server="..." metric label).
  [[nodiscard]] virtual std::vector<std::string> ServerIds() const = 0;
  /// One metrics registry per member.
  [[nodiscard]] virtual std::vector<md::obs::MetricsRegistry*> Registries() = 0;
  /// Cumulative notifications the program says it sent to subscribers.
  [[nodiscard]] virtual std::uint64_t DeliveredTotal() = 0;
  /// Engine bytes per session as the program accounts them, with
  /// `sessions` client connections open.
  [[nodiscard]] virtual double BytesPerSession(std::size_t sessions) = 0;
  /// Seconds from Start() to quorum (0 for a single node).
  [[nodiscard]] virtual double QuorumReadySeconds() const { return 0; }
};

/// `walDir` empty = no WAL.
std::unique_ptr<Target> MakeSingleNode(const std::string& walDir);
std::unique_ptr<Target> MakeCluster3();

/// Reads a counter or gauge child without taking a full snapshot.
inline std::uint64_t CounterValue(md::obs::MetricsRegistry& r,
                                  std::string_view name,
                                  std::string_view labels = "") {
  return r.GetCounter(name, "", labels).Value();
}

}  // namespace pb
