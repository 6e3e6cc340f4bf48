// Per-figure experiment drivers.
//
// Each function reproduces the workload behind one table or figure of the
// paper's evaluation (Sec. 4) and returns structured rows; the bench
// binaries print them, the integration tests assert on their shape. Every
// driver takes a seed and a scale knob so tests can run the same code paths
// cheaply.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dht/maintenance.hpp"
#include "dht/types.hpp"
#include "exp/overlays.hpp"

namespace cycloid::exp {

// --- Figs. 5/6/7: dense-network path lengths -----------------------------

struct PathLengthRow {
  OverlayKind kind;
  int dimension = 0;          // Cycloid dimension d (network size = d * 2^d)
  std::uint64_t nodes = 0;
  std::uint64_t lookups = 0;
  double mean_path = 0.0;
  std::array<double, dht::kMaxPhases> phase_fractions{};
  std::vector<std::string> phase_names;
  std::uint64_t incorrect = 0;
};

/// Complete networks with n = d * 2^d nodes; each node issues
/// `lookup_scale * n/4` random lookups (lookup_scale = 1 is the paper's
/// workload).
std::vector<PathLengthRow> run_dense_path_lengths(
    const std::vector<OverlayKind>& kinds, const std::vector<int>& dimensions,
    double lookup_scale, std::uint64_t seed, int threads = 1);

// --- Figs. 8/9: key distribution ------------------------------------------

struct KeyDistributionRow {
  OverlayKind kind;
  std::uint64_t keys = 0;
  double mean = 0.0;
  double p1 = 0.0;
  double p99 = 0.0;
};

/// `node_count` participants in the d-dimensional space; keys swept over
/// `key_counts` (paper: 2000 or 1000 nodes in a 2048-position space,
/// 10^4..10^5 keys).
std::vector<KeyDistributionRow> run_key_distribution(
    const std::vector<OverlayKind>& kinds, int dimension,
    std::size_t node_count, const std::vector<std::uint64_t>& key_counts,
    std::uint64_t seed);

// --- Fig. 10: query load ---------------------------------------------------

struct QueryLoadRow {
  OverlayKind kind;
  std::uint64_t nodes = 0;
  std::uint64_t lookups = 0;
  double mean = 0.0;
  double p1 = 0.0;
  double p99 = 0.0;
  double stddev = 0.0;
};

/// Per-node received-query counts after the dense lookup workload, tallied
/// from route traces (query_loads). The batch is sharded across `threads`
/// (deterministic at any thread count).
std::vector<QueryLoadRow> run_query_load(const std::vector<OverlayKind>& kinds,
                                         const std::vector<int>& dimensions,
                                         double lookup_scale,
                                         std::uint64_t seed, int threads = 1);

// --- Fig. 11 / Table 4: massive simultaneous departures --------------------

struct FailureRow {
  OverlayKind kind;
  double departure_probability = 0.0;
  std::uint64_t survivors = 0;
  std::uint64_t lookups = 0;
  double mean_path = 0.0;
  double mean_timeouts = 0.0;
  double timeouts_p1 = 0.0;
  double timeouts_p99 = 0.0;
  std::uint64_t failures = 0;  // unresolved or wrongly-resolved lookups
};

/// 2048-node dense networks; each node departs with probability p; then
/// `lookups` random lookups run without stabilization (paper Sec. 4.3).
std::vector<FailureRow> run_failure_experiment(
    const std::vector<OverlayKind>& kinds, int dimension,
    const std::vector<double>& probabilities, std::uint64_t lookups,
    std::uint64_t seed, int threads = 1);

// --- Extension: ungraceful departures (paper Sec. 5 future work) -----------

struct UngracefulRow {
  OverlayKind kind;
  double departure_probability = 0.0;
  std::uint64_t survivors = 0;
  std::uint64_t lookups = 0;
  double mean_path = 0.0;
  double mean_timeouts = 0.0;
  /// Unresolved or wrongly-resolved lookups right after the failures…
  std::uint64_t failures_before_repair = 0;
  /// …and after one full stabilization pass.
  std::uint64_t failures_after_repair = 0;
};

/// Nodes vanish *without warning* (no leaf-set/successor repair), the
/// scenario the paper's conclusion flags as the open weakness of
/// constant-degree DHTs. Measures lookup failures before and after a
/// stabilization pass.
std::vector<UngracefulRow> run_ungraceful_experiment(
    const std::vector<OverlayKind>& kinds, int dimension,
    const std::vector<double>& probabilities, std::uint64_t lookups,
    std::uint64_t seed, int threads = 1);

// --- Fig. 12 / Table 5: lookups under continuous churn ---------------------

/// How the churn driver stabilizes. kFull is the paper's model — every node
/// refreshes itself on its own timer, whether or not anything near it
/// changed. kIncremental enables the engine's dirty-neighborhood tracking
/// and replaces the per-node timers with one periodic stabilize_dirty()
/// drain that refreshes only the nodes membership events actually touched.
/// Both modes draw the identical RNG sequence, so the join/leave/lookup
/// streams — and therefore the workloads being compared — match exactly.
enum class StabilizeMode {
  kFull = 0,
  kIncremental = 1,
};

struct ChurnRow {
  OverlayKind kind;
  double join_leave_rate = 0.0;  // R: joins/sec and leaves/sec each
  std::uint64_t lookups = 0;
  double mean_path = 0.0;
  double mean_timeouts = 0.0;
  double timeouts_p1 = 0.0;
  double timeouts_p99 = 0.0;
  std::uint64_t failures = 0;
  std::size_t final_size = 0;
  /// Maintenance updates incurred during the run (build cost excluded),
  /// total and split by cause (join repair / leave repair / stabilization
  /// refresh / lookup-learned promotion).
  std::uint64_t maintenance_total = 0;
  dht::MaintenanceBreakdown maintenance_by_cause{};
  /// Incremental-mode drain counters (zero under StabilizeMode::kFull):
  /// dirty nodes the drains refreshed and clean nodes they skipped — the
  /// per-pass work a full stabilization would have wasted.
  std::uint64_t nodes_refreshed_dirty = 0;
  std::uint64_t nodes_skipped_clean = 0;
  /// End-to-end route pricing of the churn lookups on the shared latency
  /// plane: every lookup is priced from its recorded per-hop latencies
  /// (trace-is-truth — hops that departed mid-run price correctly), so
  /// this is the mean over all lookups, failures included.
  double mean_route_latency = 0.0;
  double route_latency_p99 = 0.0;
};

/// Seconds between a node's stabilizations under churn (paper Sec. 4.4).
inline constexpr double kStabilizePeriod = 30.0;

/// Start a d * 2^d-node network (2048 at d = 8); Poisson lookups at 1/s,
/// Poisson joins and leaves each at rate R, per-node stabilization every
/// kStabilizePeriod seconds with uniformly distributed phases (paper Sec.
/// 4.4). Runs for `duration` virtual seconds.
/// `selection` switches the Cycloid variants onto proximity-aware
/// neighbour selection (ignored by the other overlays); both selections
/// consume the identical RNG stream, so suffix-vs-proximity cells compare
/// the same join/leave/lookup workload.
ChurnRow run_churn_experiment(
    OverlayKind kind, int dimension, double join_leave_rate, double duration,
    std::uint64_t seed, StabilizeMode mode = StabilizeMode::kFull,
    dht::NeighborSelection selection = dht::NeighborSelection::kClosestSuffix);

// --- Figs. 13/14: identifier-space sparsity ---------------------------------

struct SparsityRow {
  OverlayKind kind;
  double sparsity = 0.0;  // fraction of identifier positions unpopulated
  std::uint64_t nodes = 0;
  std::uint64_t lookups = 0;
  double mean_path = 0.0;
  std::array<double, dht::kMaxPhases> phase_fractions{};
  std::vector<std::string> phase_names;
  std::uint64_t failures = 0;
};

std::vector<SparsityRow> run_sparsity_experiment(
    const std::vector<OverlayKind>& kinds, int dimension,
    const std::vector<double>& sparsities, std::uint64_t lookups,
    std::uint64_t seed, int threads = 1);

}  // namespace cycloid::exp
