#include "exp/workloads.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "hash/keys.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace cycloid::exp {

double WorkloadStats::phase_fraction(std::size_t i) const {
  CYCLOID_EXPECTS(i < dht::kMaxPhases);
  return metrics.hops == 0
             ? 0.0
             : static_cast<double>(metrics.phase_hops[i]) /
                   static_cast<double>(metrics.hops);
}

void WorkloadStats::note(const dht::LookupResult& result, bool correct) {
  ++lookups;
  path_length.add(result.hops);
  timeouts.add(result.timeouts);
  if (!result.success) {
    ++failures;
  } else if (!correct) {
    ++incorrect;
  }
}

void WorkloadStats::merge(const WorkloadStats& other) {
  lookups += other.lookups;
  failures += other.failures;
  incorrect += other.incorrect;
  path_length.merge(other.path_length);
  timeouts.merge(other.timeouts);
  route_latency.merge(other.route_latency);
  metrics.merge(other.metrics);
  if (phase_names.empty()) phase_names = other.phase_names;
}

namespace {

/// Process-wide run_lookup_batch interleave default (set_lookup_interleave).
/// Plain int: the knob is installed once at startup (bench::Report) or from
/// the test thread, never concurrently with a running batch.
int g_lookup_interleave = 1;

/// Per-node counts keyed by handle (received queries, stored keys).
using NodeCounts = std::unordered_map<dht::NodeHandle, std::uint64_t>;

/// One count per live node, in node_handles() order, zeros included.
std::vector<std::uint64_t> per_node(const dht::DhtNetwork& net,
                                    const NodeCounts& counts) {
  std::vector<std::uint64_t> out;
  out.reserve(net.node_count());
  for (const dht::NodeHandle handle : net.node_handles()) {
    const auto it = counts.find(handle);
    out.push_back(it == counts.end() ? 0 : it->second);
  }
  return out;
}

stats::Summary summarize(const std::vector<std::uint64_t>& counts) {
  stats::Summary summary;
  for (const std::uint64_t count : counts) summary.add_count(count);
  return summary;
}

/// Per-worker buffers of the lookup loop, reused across its chunks so
/// steady-state batches allocate nothing.
struct LookupScratch {
  std::vector<dht::NodeHandle> sources;
  std::vector<dht::KeyHash> keys;
  std::vector<dht::LookupResult> results;
  std::vector<dht::TraceStep> trace;
  dht::BatchScratch lanes;
};

/// The one lookup loop: `count` lookups drawn from `rng` into `out`, with
/// up to `width` in flight through route_batch. Sources and keys are
/// pre-drawn in chunks of kLookupShardSize, in (source, key, source, key,
/// ...) order, so the RNG stream is the same at every width and chunking;
/// route_batch guarantees the per-lookup results and sink writes match
/// routing them one at a time. With `received`, every route is traced and
/// each hop counts once for its receiver; the width must then be 1, so the
/// trace holds the chunk's routes back to back.
void run_lookups(const dht::DhtNetwork& net, std::uint64_t count,
                 util::Rng& rng, bool check_owner, int width,
                 WorkloadStats& out, LookupScratch& scratch,
                 NodeCounts* received = nullptr) {
  dht::RouterOptions options;
  if (received != nullptr) options.trace = &scratch.trace;
  for (std::uint64_t begin = 0; begin < count; begin += kLookupShardSize) {
    const auto n =
        static_cast<std::size_t>(std::min(kLookupShardSize, count - begin));
    scratch.sources.resize(n);
    scratch.keys.resize(n);
    scratch.results.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      scratch.sources[i] = net.random_node(rng);
      scratch.keys[i] = rng();
    }
    net.route_batch(scratch.sources.data(), scratch.keys.data(), n, width,
                    out.metrics, scratch.results.data(), scratch.lanes,
                    options);
    if (received != nullptr) {
      for (const dht::TraceStep& step : scratch.trace) ++(*received)[step.node];
      scratch.trace.clear();
    }
    for (std::size_t i = 0; i < n; ++i) {
      const dht::LookupResult& result = scratch.results[i];
      out.note(result, !check_owner || !result.success ||
                           result.destination == net.owner_of(scratch.keys[i]));
    }
  }
}

/// run_lookup_batch's sharding: `count` lookups in kLookupShardSize
/// shards, each with its own RNG stream, scratch and stats, merged in
/// index order. With `received`, each shard counts received queries on
/// its own and the sums are added afterwards (order-independent).
WorkloadStats run_shards(const dht::DhtNetwork& net, std::uint64_t count,
                         std::uint64_t seed, int threads, bool check_owner,
                         int width, NodeCounts* received) {
  const std::uint64_t shards =
      count == 0 ? 0 : (count + kLookupShardSize - 1) / kLookupShardSize;
  std::vector<WorkloadStats> parts(static_cast<std::size_t>(shards));
  std::vector<NodeCounts> part_received(received != nullptr ? parts.size()
                                                            : 0);

  util::parallel_for(static_cast<std::size_t>(shards), threads,
                     [&](std::size_t s) {
    const std::uint64_t begin = static_cast<std::uint64_t>(s) * kLookupShardSize;
    const std::uint64_t n = std::min(kLookupShardSize, count - begin);
    // Per-shard stream: decorrelate the shard index into a full 64-bit
    // seed (splitmix64-style), so streams never overlap in practice.
    util::Rng rng(util::mix64(seed ^ ((s + 1) * 0x9e3779b97f4a7c15ULL)));
    // Per-shard scratch: engine buffers warm up once per shard and are
    // reused across its kLookupShardSize lookups (never shared; DESIGN.md
    // §8). Results do not depend on scratch reuse or interleave width.
    LookupScratch scratch;
    run_lookups(net, n, rng, check_owner, width, parts[s], scratch,
                received != nullptr ? &part_received[s] : nullptr);
  });

  WorkloadStats out;
  out.phase_names = net.phase_names();
  for (const WorkloadStats& part : parts) out.merge(part);
  for (const NodeCounts& part : part_received) {
    for (const auto& [node, queries] : part) (*received)[node] += queries;
  }
  return out;
}

}  // namespace

void set_lookup_interleave(int width) {
  g_lookup_interleave = width < 1 ? 1 : width;
}

int lookup_interleave() { return g_lookup_interleave; }

WorkloadStats run_random_lookups(const dht::DhtNetwork& net,
                                 std::uint64_t count, util::Rng& rng,
                                 bool check_owner) {
  WorkloadStats out;
  out.phase_names = net.phase_names();
  LookupScratch scratch;
  run_lookups(net, count, rng, check_owner, /*width=*/1, out, scratch);
  return out;
}

WorkloadStats run_lookup_batch(const dht::DhtNetwork& net, std::uint64_t count,
                               std::uint64_t seed, int threads,
                               bool check_owner, int interleave) {
  return run_shards(net, count, seed, threads, check_owner,
                    interleave > 0 ? interleave : lookup_interleave(),
                    /*received=*/nullptr);
}

std::vector<RouteSample> sample_routes(const dht::DhtNetwork& net,
                                       std::uint64_t count,
                                       std::uint64_t seed) {
  util::Rng rng(util::mix64(seed));
  std::vector<RouteSample> samples(static_cast<std::size_t>(count));
  for (RouteSample& sample : samples) {
    sample.source = net.random_node(rng);
    sample.key = rng();
    dht::LookupMetrics sink;
    dht::RouterOptions options;
    options.trace = &sample.trace;
    sample.result = net.route(sample.source, sample.key, sink, options);
  }
  return samples;
}

stats::Summary key_distribution(const dht::DhtNetwork& net,
                                std::uint64_t key_count) {
  NodeCounts counts;
  for (std::uint64_t i = 0; i < key_count; ++i) {
    ++counts[net.owner_of(hash::hash_index(i))];
  }
  return summarize(per_node(net, counts));
}

std::vector<std::uint64_t> query_loads(const dht::DhtNetwork& net,
                                       std::uint64_t count, std::uint64_t seed,
                                       int threads) {
  NodeCounts received;
  run_shards(net, count, seed, threads, /*check_owner=*/false, /*width=*/1,
             &received);
  return per_node(net, received);
}

stats::Summary query_load_distribution(const dht::DhtNetwork& net,
                                       std::uint64_t count, util::Rng& rng) {
  WorkloadStats stats;
  LookupScratch scratch;
  NodeCounts received;
  run_lookups(net, count, rng, /*check_owner=*/false, /*width=*/1, stats,
              scratch, &received);
  return summarize(per_node(net, received));
}

}  // namespace cycloid::exp
