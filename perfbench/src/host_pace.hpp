// The host's own pace, measured with no engine code: the wall time of a
// 140 B round trip between two threads over loopback TCP. The engine's
// latency and CPU per message are made of the same things (loopback
// syscalls and cross-thread wake-ups), and on a host whose cores are shared
// with other guests both move together with the neighbours' load. Dividing
// by the pace takes that common factor out of a run's figures.
#pragma once

#include <vector>

#include "bench.hpp"

namespace pb {

/// Wall time per round trip of each of `trials` fresh ping-pong trials
/// (250 round trips on a new connection and echo thread each).
std::vector<double> MeasureHostPace(int trials);

}  // namespace pb
