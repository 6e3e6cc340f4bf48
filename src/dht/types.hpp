// Shared vocabulary types for all overlay implementations.
#pragma once

#include <array>
#include <cstdint>

#include "util/contracts.hpp"

namespace cycloid::dht {

/// Opaque per-overlay node handle. Each overlay documents its encoding
/// (Cycloid packs (cubical << 8) | cyclic; ring DHTs use the ring ID;
/// Viceroy uses a stable serial number).
using NodeHandle = std::uint64_t;

/// Sentinel for "no such node".
inline constexpr NodeHandle kNoNode = ~0ULL;

/// Sentinel for "no such slot" in the dense handle registry
/// (DhtNetwork::slot_of and the slot-carrying routing engine).
inline constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// A 64-bit consistent hash of a key name; overlays reduce it into their own
/// identifier spaces internally.
using KeyHash = std::uint64_t;

/// Maximum number of per-overlay routing phases tracked in a lookup.
inline constexpr std::size_t kMaxPhases = 4;

/// How a lookup terminated.
enum class LookupStatus {
  /// Routing delivered the request to the node it believes owns the key.
  kDelivered,
  /// Routing got stuck (e.g. Koorde with a dead de Bruijn pointer and all
  /// backups dead) — the paper's "lookup failure".
  kFailed,
  /// The engine's universal hop cap fired: the step policy kept forwarding
  /// past the configured maximum. A would-be infinite routing loop reports
  /// this instead of hanging.
  kHopLimit,
};

/// One forwarding step of a traced lookup (engine-level; every overlay).
/// The recorded `latency` is the single source of truth for route pricing:
/// it is captured at routing time, so summing a trace never has to resolve
/// handles that may have departed since (dht/latency.hpp::trace_latency).
struct TraceStep {
  NodeHandle node = kNoNode;   ///< node the request was forwarded to
  std::size_t phase = 0;       ///< phase slot that accounted the hop
  const char* link = "";       ///< routing entry followed (static string)
  int timeouts_before = 0;     ///< departed entries skipped at the sender
  double latency = 0.0;        ///< simulated link latency of this hop
};

/// Outcome of one simulated lookup.
struct LookupResult {
  /// Nodes traversed after the source (message forwardings).
  int hops = 0;
  /// Attempts to contact a departed node (paper Sec. 4.3: "a timeout occurs
  /// when a node tries to contact a departed node"). Timeouts are not hops.
  int timeouts = 0;
  /// False when routing got stuck or hit the hop cap; `status` says which.
  bool success = true;
  /// Structured termination cause (always consistent with `success`).
  LookupStatus status = LookupStatus::kDelivered;
  /// Node at which the lookup terminated (the key's storing node on success).
  NodeHandle destination = kNoNode;
  /// Hops attributed to each routing phase; slot meanings are given by the
  /// overlay's phase_names(). Sums to `hops`.
  std::array<int, kMaxPhases> phase_hops{};
  /// Sum of the per-hop link latencies along the route. Populated only when
  /// the engine traced the route (RouterOptions::trace); zero otherwise, so
  /// untraced batches pay nothing for it.
  double route_latency = 0.0;

  void count_hop(std::size_t phase) {
    CYCLOID_EXPECTS(phase < kMaxPhases);
    ++hops;
    ++phase_hops[phase];
  }
};

}  // namespace cycloid::dht
