// Workload runners shared by the bench binaries and the integration tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dht/metrics.hpp"
#include "dht/network.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace cycloid::exp {

/// Aggregate outcome of a batch of lookups. Wraps a dht::LookupMetrics sink
/// (counters, per-phase hops) together with the experiment-side quantities
/// the sink cannot know: per-lookup path-length / timeout samples (for
/// percentiles) and owner-correctness checks.
struct WorkloadStats {
  std::uint64_t lookups = 0;
  std::uint64_t failures = 0;    // routing gave up (Koorde broken pointers)
  std::uint64_t incorrect = 0;   // terminated at a node that is not the owner
  stats::Summary path_length;
  stats::Summary timeouts;
  /// Per-lookup end-to-end route latency (sum of per-hop link latencies on
  /// the shared proximity plane). Populated only by drivers that price
  /// their lookups (the churn driver); batch runs leave it empty rather
  /// than paying per-hop latency evaluation on the hot path.
  stats::Summary route_latency;
  dht::LookupMetrics metrics;
  std::vector<std::string> phase_names;

  double mean_path() const { return path_length.mean(); }
  double mean_timeouts() const { return timeouts.mean(); }
  /// Fraction of all hops spent in phase `i`.
  double phase_fraction(std::size_t i) const;

  /// Record one lookup result (the sink counters were already updated by
  /// the routing core; this adds the experiment-side samples).
  void note(const dht::LookupResult& result, bool correct);

  /// Fold `other` into this batch. Sample order follows merge order, so a
  /// fixed merge order gives bit-identical summaries.
  void merge(const WorkloadStats& other);
};

/// Run `count` lookups from uniform-random sources toward uniform-random
/// keys, one at a time (route_batch at width 1), through one shared sink,
/// so each of Koorde's learned repairs serves every later lookup of the
/// run. When `check_owner`, each lookup's destination is compared against
/// the overlay's ground-truth owner (counted in `incorrect` on mismatch).
WorkloadStats run_random_lookups(const dht::DhtNetwork& net,
                                 std::uint64_t count, util::Rng& rng,
                                 bool check_owner = true);

/// Lookups per shard of a parallel batch. Fixed — independent of the thread
/// count — so the shard structure, every per-shard RNG stream, and the
/// merge order never change with parallelism.
inline constexpr std::uint64_t kLookupShardSize = 2048;

/// Process-wide default interleave width for run_lookup_batch — how many
/// lookups each shard keeps in flight through the overlay's interleaved
/// batch router (DhtNetwork::route_batch). bench::Report installs the
/// CYCLOID_BENCH_INTERLEAVE knob here so every bench binary honors it.
/// Widths are clamped to at least 1; 1 (the default) routes one lookup at
/// a time. Results are identical at every width.
void set_lookup_interleave(int width);
int lookup_interleave();

/// Run `count` random lookups sharded across `threads` workers. Each shard
/// draws its sources and keys from its own splitmix64-derived RNG stream
/// and accumulates into its own sink; shards merge in index order. The
/// result is bit-identical at any thread count.
///
/// `interleave` is the per-shard in-flight lookup width: > 0 overrides, 0
/// (the default) uses the process-wide lookup_interleave(). Any width
/// produces bit-identical results; widths > 1 only overlap the DRAM misses
/// of independent lookups inside a shard (DESIGN.md §14).
WorkloadStats run_lookup_batch(const dht::DhtNetwork& net, std::uint64_t count,
                               std::uint64_t seed, int threads,
                               bool check_owner = true, int interleave = 0);

/// One fully traced lookup: the engine-level per-hop record of every
/// overlay (dht::RouterOptions::trace), plus the workload-side draw that
/// produced it. Used by the bench binaries to surface example routes.
struct RouteSample {
  dht::NodeHandle source = dht::kNoNode;
  dht::KeyHash key = 0;
  /// Its route_latency is the total link latency along `trace`.
  dht::LookupResult result;
  std::vector<dht::TraceStep> trace;
};

/// Trace `count` random lookups (sources and keys drawn from a stream
/// seeded by `seed`; deterministic run to run). Each lookup routes through
/// a throwaway sink, so sampling never perturbs the network's metrics.
std::vector<RouteSample> sample_routes(const dht::DhtNetwork& net,
                                       std::uint64_t count,
                                       std::uint64_t seed);

/// Hash `key_count` keys into the overlay and count how many each node
/// stores; the returned summary has one sample per node (zero included) —
/// the quantity plotted in paper Figs. 8 and 9.
stats::Summary key_distribution(const dht::DhtNetwork& net,
                                std::uint64_t key_count);

/// Received-query count of every live node after `count` random lookups
/// (paper Fig. 10), in node_handles() order, zeros included. The lookups
/// are run_lookup_batch(net, count, seed, threads)'s, run through the same
/// loop at width 1 with a route trace; each traced hop counts once for the
/// node that received it. Identical at any thread count.
std::vector<std::uint64_t> query_loads(const dht::DhtNetwork& net,
                                       std::uint64_t count, std::uint64_t seed,
                                       int threads);

/// The same tally over run_random_lookups(net, count, rng)'s lookups; the
/// returned summary has one sample per live node, zeros included.
stats::Summary query_load_distribution(const dht::DhtNetwork& net,
                                       std::uint64_t count, util::Rng& rng);

}  // namespace cycloid::exp
