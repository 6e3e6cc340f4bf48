// The shared proximity/latency plane.
//
// Every overlay prices a link the same way: each handle owns a deterministic
// coordinate on the unit torus (a pure hash of the handle — no RNG stream is
// consumed and no per-node state is stored), and a link costs the Euclidean
// torus distance between the endpoints' coordinates. Because the coordinate
// is a function of the handle alone, a since-departed node prices exactly as
// it did while live — which is what lets route pricing under churn sum a
// recorded trace without ever re-resolving its hops (trace_latency below,
// DESIGN.md §12).
//
// One model for every overlay means the proximity-aware neighbour selection
// extension and the latency columns of the churn benches mean the same thing
// for all seven overlays.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "dht/types.hpp"
#include "util/rng.hpp"

namespace cycloid::dht {

/// How an overlay breaks ties among equivalent routing-table candidates
/// (Cycloid's cubical-neighbour window, paper Sec. 2.1's "abundance in
/// choosing cubical neighbors").
enum class NeighborSelection {
  /// The candidate whose identifier suffix is numerically closest to the
  /// node's own (deterministic; the default used throughout the paper
  /// reproduction).
  kClosestSuffix,
  /// The candidate with the lowest link latency on the shared proximity
  /// plane (Pastry-style proximity neighbour selection, applied as an
  /// extension).
  kProximity,
};

/// A handle's position on the unit torus.
struct ProximityCoord {
  double x = 0.0;
  double y = 0.0;
};

/// Deterministic per-handle coordinates: two 53-bit draws from a splitmix64
/// stream seeded by the handle. Any change to this function moves every
/// proximity-selected table and every latency figure.
inline ProximityCoord proximity_coord(NodeHandle handle) noexcept {
  std::uint64_t seed = util::mix64(handle ^ 0xc0cac01aULL);
  ProximityCoord coord;
  coord.x = static_cast<double>(util::splitmix64(seed) >> 11) * 0x1.0p-53;
  coord.y = static_cast<double>(util::splitmix64(seed) >> 11) * 0x1.0p-53;
  return coord;
}

/// Simulated one-hop latency between two handles: Euclidean distance between
/// their coordinates on the unit torus. Pure — never consults membership, so
/// it cannot trap on a departed handle.
inline double torus_latency(NodeHandle a, NodeHandle b) noexcept {
  const ProximityCoord ca = proximity_coord(a);
  const ProximityCoord cb = proximity_coord(b);
  const auto axis = [](double u, double v) {
    const double d = u > v ? u - v : v - u;
    return d > 0.5 ? 1.0 - d : d;
  };
  const double dx = axis(ca.x, cb.x);
  const double dy = axis(ca.y, cb.y);
  return std::sqrt(dx * dx + dy * dy);
}

/// Total simulated latency of a recorded route: the sum of the per-hop
/// latencies the engine captured at routing time. The trace is the single
/// source of truth — pricing never re-looks-up handles, so traces taken
/// before departures price correctly after them.
inline double trace_latency(const std::vector<TraceStep>& trace) noexcept {
  double total = 0.0;
  for (const TraceStep& step : trace) total += step.latency;
  return total;
}

}  // namespace cycloid::dht
