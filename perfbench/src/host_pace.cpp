#include "host_pace.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <thread>

namespace pb {

namespace {

constexpr int kRoundTrips = 250;
constexpr std::size_t kMessageBytes = 140;

bool SendAll(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool RecvAll(int fd, char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::recv(fd, p, n, 0);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// A connected loopback TCP pair with Nagle off; {-1, -1} on failure.
std::array<int, 2> LoopbackPair() {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  std::array<int, 2> pair{-1, -1};
  if (lfd >= 0 && ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
      ::listen(lfd, 1) == 0 &&
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    pair[0] = ::socket(AF_INET, SOCK_STREAM, 0);
    if (pair[0] >= 0 &&
        ::connect(pair[0], reinterpret_cast<sockaddr*>(&addr), len) == 0) {
      pair[1] = ::accept(lfd, nullptr, nullptr);
    }
  }
  if (lfd >= 0) ::close(lfd);
  if (pair[1] < 0) {
    if (pair[0] >= 0) ::close(pair[0]);
    return {-1, -1};
  }
  const int one = 1;
  for (int fd : pair) ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return pair;
}

/// One ping-pong trial: wall ns per round trip (0 if the socket failed).
double PingPong() {
  const std::array<int, 2> fds = LoopbackPair();
  if (fds[0] < 0) return 0;
  std::thread echo([&] {
    char buf[kMessageBytes];
    while (RecvAll(fds[1], buf, sizeof(buf)) && SendAll(fds[1], buf, sizeof(buf))) {
    }
  });
  char buf[kMessageBytes] = {};
  const Nanos t0 = NowNs();
  int done = 0;
  while (done < kRoundTrips && SendAll(fds[0], buf, sizeof(buf)) &&
         RecvAll(fds[0], buf, sizeof(buf))) {
    ++done;
  }
  const Nanos wall = NowNs() - t0;
  ::shutdown(fds[0], SHUT_RDWR);
  echo.join();
  ::close(fds[0]);
  ::close(fds[1]);
  return done < kRoundTrips ? 0 : static_cast<double>(wall) / done;
}

}  // namespace

std::vector<double> MeasureHostPace(int trials) {
  std::vector<double> out;
  for (int i = 0; i < trials; ++i) {
    if (const double ns = PingPong(); ns > 0) out.push_back(ns);
  }
  return out;
}

}  // namespace pb
