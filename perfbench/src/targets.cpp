#include "targets.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "common/slab.hpp"
#include "obs/families.hpp"

namespace pb {

namespace {

using namespace std::chrono_literals;

class SingleNode final : public Target {
 public:
  explicit SingleNode(const std::string& walDir) {
    md::core::ServerConfig cfg;
    cfg.metrics = &registry_;
    if (!walDir.empty()) {
      cfg.wal.dir = walDir;
      cfg.wal.fsync = md::wal::FsyncPolicy::kOs;
    }
    server_ = std::make_unique<md::core::Server>(cfg);
  }
  ~SingleNode() override { Stop(); }

  md::Status Start() override { return server_->Start(); }
  void Stop() override { server_->Stop(); }

  std::vector<std::uint16_t> ClientPorts() const override {
    return {server_->Port()};
  }
  std::vector<std::string> ServerIds() const override {
    return {server_->config().serverId};
  }
  std::vector<md::obs::MetricsRegistry*> Registries() override {
    return {&registry_};
  }
  std::uint64_t DeliveredTotal() override {
    return CounterValue(registry_, "md_core_delivered_total",
                        md::obs::ServerLabel(server_->config().serverId));
  }
  double BytesPerSession(std::size_t /*sessions*/) override {
    server_->RefreshBytesPerSession();
    return static_cast<double>(
        registry_
            .GetGauge("md_core_bytes_per_session", "",
                      md::obs::ServerLabel(server_->config().serverId))
            .Value());
  }

 private:
  md::obs::MetricsRegistry registry_;  // outlives server_ (declared first)
  std::unique_ptr<md::core::Server> server_;
};

/// Reserves `n` distinct free TCP ports (bound together, then released).
std::vector<std::uint16_t> FreePorts(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      break;
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

class Cluster3 final : public Target {
 public:
  ~Cluster3() override { Stop(); }

  md::Status Start() override {
    const std::vector<std::uint16_t> ports = FreePorts(kMembers * 3);
    if (ports.size() != kMembers * 3) {
      return md::Err(md::ErrorCode::kUnavailable, "no free ports");
    }
    std::vector<md::cluster::TcpHostConfig> cfgs(kMembers);
    for (std::size_t i = 0; i < kMembers; ++i) {
      cfgs[i].serverId = MemberId(i);
      cfgs[i].nodeId = static_cast<md::coord::NodeId>(i + 1);
      cfgs[i].clientPort = ports[i * 3];
      cfgs[i].peerPort = ports[i * 3 + 1];
      cfgs[i].coordPort = ports[i * 3 + 2];
      cfgs[i].seed = 1000 + i;
      cfgs[i].cluster.metrics = &registries_[i];
      cfgs[i].coord.metrics = &registries_[i];
    }
    for (std::size_t i = 0; i < kMembers; ++i) {
      for (std::size_t j = 0; j < kMembers; ++j) {
        if (i == j) continue;
        cfgs[i].peers.push_back({cfgs[j].serverId, cfgs[j].nodeId,
                                 "127.0.0.1", cfgs[j].peerPort,
                                 cfgs[j].coordPort});
      }
    }
    slabAtStart_ = md::SlabArena::Default().Stats().bytesInUse;
    const Nanos start = NowNs();
    for (std::size_t i = 0; i < kMembers; ++i) {
      hosts_.push_back(std::make_unique<md::cluster::TcpClusterHost>(cfgs[i]));
      if (md::Status s = hosts_.back()->Start(); !s.ok()) return s;
    }
    const Nanos deadline = start + 30'000'000'000LL;
    while (!QuorumReady()) {
      if (NowNs() > deadline) {
        return md::Err(md::ErrorCode::kTimeout, "cluster quorum not reached");
      }
      std::this_thread::sleep_for(1ms);
    }
    quorumSeconds_ = static_cast<double>(NowNs() - start) * 1e-9;
    return md::OkStatus();
  }

  void Stop() override {
    for (auto& host : hosts_) host->Stop();
    hosts_.clear();
  }

  std::vector<std::uint16_t> ClientPorts() const override {
    std::vector<std::uint16_t> out;
    for (const auto& host : hosts_) out.push_back(host->ClientPort());
    return out;
  }
  std::vector<std::string> ServerIds() const override {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < kMembers; ++i) out.push_back(MemberId(i));
    return out;
  }
  std::vector<md::obs::MetricsRegistry*> Registries() override {
    std::vector<md::obs::MetricsRegistry*> out;
    for (auto& r : registries_) out.push_back(&r);
    return out;
  }
  std::uint64_t DeliveredTotal() override {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kMembers; ++i) {
      sum += CounterValue(registries_[i], "md_cluster_delivered_total",
                          md::obs::ServerLabel(MemberId(i)));
    }
    return sum;
  }
  /// TcpClusterHost has no md_core_bytes_per_session gauge. Its per-session
  /// engine state lives in the slab-backed registries, so this reads the
  /// slab arena's growth since Start() divided by the sessions.
  double BytesPerSession(std::size_t sessions) override {
    const std::uint64_t now = md::SlabArena::Default().Stats().bytesInUse;
    if (sessions == 0 || now <= slabAtStart_) return 0;
    return static_cast<double>(now - slabAtStart_) /
           static_cast<double>(sessions);
  }
  double QuorumReadySeconds() const override { return quorumSeconds_; }

 private:
  static constexpr std::size_t kMembers = 3;

  static std::string MemberId(std::size_t i) {
    return "member-" + std::to_string(i + 1);
  }

  /// One MiniZK leader that every member knows, and quorum contact on all.
  bool QuorumReady() {
    int leaders = 0;
    bool allKnow = true;
    for (auto& host : hosts_) {
      host->WithCoord([&](md::coord::CoordNode& c) {
        if (c.IsLeader()) ++leaders;
        if (!c.KnownLeader() || !c.HasQuorumContact()) allKnow = false;
      });
    }
    return leaders == 1 && allKnow;
  }

  md::obs::MetricsRegistry registries_[kMembers];  // outlive hosts_
  std::vector<std::unique_ptr<md::cluster::TcpClusterHost>> hosts_;
  double quorumSeconds_ = 0;
  std::uint64_t slabAtStart_ = 0;
};

}  // namespace

std::unique_ptr<Target> MakeSingleNode(const std::string& walDir) {
  return std::make_unique<SingleNode>(walDir);
}

std::unique_ptr<Target> MakeCluster3() {
  return std::make_unique<Cluster3>();
}

}  // namespace pb
