#include "exp/experiments.hpp"

#include <queue>
#include <vector>

#include "exp/workloads.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "viceroy/viceroy.hpp"

namespace cycloid::exp {

namespace {

std::uint64_t dense_size(int dimension) {
  return static_cast<std::uint64_t>(dimension) * (1ULL << dimension);
}

/// Per-experiment seed derivation so every (overlay, parameter) cell is
/// independent but reproducible.
std::uint64_t cell_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b << 32);
  return util::splitmix64(s);
}

/// One row per (kind, index) cell, kinds-major: slot i is
/// run(kinds[i / per_kind], i % per_kind). The cells fan out over
/// `threads`; each builds its own network from its own seed, so the rows do
/// not depend on the thread count.
template <typename Row, typename Run>
std::vector<Row> run_cells(const std::vector<OverlayKind>& kinds,
                           std::size_t per_kind, int threads, Run&& run) {
  std::vector<Row> rows(kinds.size() * per_kind);
  util::parallel_for(rows.size(), threads, [&](std::size_t i) {
    rows[i] = run(kinds[i / per_kind], i % per_kind);
  });
  return rows;
}

}  // namespace

std::vector<PathLengthRow> run_dense_path_lengths(
    const std::vector<OverlayKind>& kinds, const std::vector<int>& dimensions,
    double lookup_scale, std::uint64_t seed, int threads) {
  struct Cell {
    int dimension;
    OverlayKind kind;
  };
  std::vector<Cell> cells;
  for (const int d : dimensions) {
    for (const OverlayKind kind : kinds) cells.push_back(Cell{d, kind});
  }

  // Cells run sequentially; the lookup batch inside each cell is sharded
  // across `threads`. Intra-cell parallelism scales with the workload
  // (n^2/4 lookups) instead of with the number of (overlay, d) cells, so
  // the largest dense network does not serialize on a single worker.
  std::vector<PathLengthRow> rows(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto [d, kind] = cells[i];
    const std::uint64_t n = dense_size(d);
    // Paper workload: every node issues n/4 lookups to random destinations.
    const auto lookups = static_cast<std::uint64_t>(
        static_cast<double>(n) * static_cast<double>(n) / 4.0 * lookup_scale);
    const std::uint64_t s = cell_seed(seed, static_cast<std::uint64_t>(d),
                                      static_cast<std::uint64_t>(kind));
    // Cells run one at a time here, so the workers can go to the build's
    // stabilize pass as well as the lookup batch (state is thread-count-
    // independent; DESIGN.md §9).
    auto net = make_dense_overlay(kind, d, s, threads);
    const WorkloadStats stats = run_lookup_batch(
        *net, std::max<std::uint64_t>(lookups, 1), s + 1, threads);

    PathLengthRow row;
    row.kind = kind;
    row.dimension = d;
    row.nodes = net->node_count();
    row.lookups = stats.lookups;
    row.mean_path = stats.mean_path();
    for (std::size_t p = 0; p < dht::kMaxPhases; ++p) {
      row.phase_fractions[p] = stats.phase_fraction(p);
    }
    row.phase_names = stats.phase_names;
    row.incorrect = stats.incorrect + stats.failures;
    rows[i] = std::move(row);
  }
  return rows;
}

std::vector<KeyDistributionRow> run_key_distribution(
    const std::vector<OverlayKind>& kinds, int dimension,
    std::size_t node_count, const std::vector<std::uint64_t>& key_counts,
    std::uint64_t seed) {
  std::vector<KeyDistributionRow> rows;
  for (const OverlayKind kind : kinds) {
    const std::uint64_t s =
        cell_seed(seed, static_cast<std::uint64_t>(kind), node_count);
    auto net = make_sparse_overlay(kind, dimension, node_count, s);
    for (const std::uint64_t keys : key_counts) {
      const stats::Summary per_node = key_distribution(*net, keys);
      rows.push_back(KeyDistributionRow{kind, keys, per_node.mean(),
                                        per_node.p1(), per_node.p99()});
    }
  }
  return rows;
}

std::vector<QueryLoadRow> run_query_load(const std::vector<OverlayKind>& kinds,
                                         const std::vector<int>& dimensions,
                                         double lookup_scale,
                                         std::uint64_t seed, int threads) {
  std::vector<QueryLoadRow> rows;
  for (const int d : dimensions) {
    const std::uint64_t n = dense_size(d);
    const auto lookups = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(n) *
                                      static_cast<double>(n) / 4.0 *
                                      lookup_scale));
    for (const OverlayKind kind : kinds) {
      const std::uint64_t s = cell_seed(seed, static_cast<std::uint64_t>(d),
                                        static_cast<std::uint64_t>(kind) + 16);
      auto net = make_dense_overlay(kind, d, s, threads);
      stats::Summary loads;
      for (const std::uint64_t load :
           query_loads(*net, lookups, s + 1, threads)) {
        loads.add_count(load);
      }
      rows.push_back(QueryLoadRow{kind, net->node_count(), lookups,
                                  loads.mean(), loads.p1(), loads.p99(),
                                  loads.stddev()});
    }
  }
  return rows;
}

std::vector<FailureRow> run_failure_experiment(
    const std::vector<OverlayKind>& kinds, int dimension,
    const std::vector<double>& probabilities, std::uint64_t lookups,
    std::uint64_t seed, int threads) {
  const auto cell = [&](OverlayKind kind, std::size_t pi) {
    const double p = probabilities[pi];
    const std::uint64_t s =
        cell_seed(seed, static_cast<std::uint64_t>(kind), pi + 100);
    auto net = make_dense_overlay(kind, dimension, s);
    util::Rng rng(s + 1);
    net->fail_simultaneously(p, rng);

    // Cells already fan out (run_cells), so the batch itself runs
    // single-threaded; the shard structure still makes the result
    // seed-deterministic.
    const WorkloadStats stats =
        run_lookup_batch(*net, lookups, s + 2, /*threads=*/1);
    FailureRow row;
    row.kind = kind;
    row.departure_probability = p;
    row.survivors = net->node_count();
    row.lookups = stats.lookups;
    row.mean_path = stats.mean_path();
    row.mean_timeouts = stats.mean_timeouts();
    row.timeouts_p1 = stats.timeouts.p1();
    row.timeouts_p99 = stats.timeouts.p99();
    row.failures = stats.failures + stats.incorrect;
    return row;
  };
  return run_cells<FailureRow>(kinds, probabilities.size(), threads, cell);
}

std::vector<UngracefulRow> run_ungraceful_experiment(
    const std::vector<OverlayKind>& kinds, int dimension,
    const std::vector<double>& probabilities, std::uint64_t lookups,
    std::uint64_t seed, int threads) {
  const auto cell = [&](OverlayKind kind, std::size_t pi) {
    const double p = probabilities[pi];
    const std::uint64_t s =
        cell_seed(seed, static_cast<std::uint64_t>(kind), pi + 300);
    auto net = make_dense_overlay(kind, dimension, s);
    util::Rng rng(s + 1);
    net->fail_ungraceful(p, rng);

    const WorkloadStats before =
        run_lookup_batch(*net, lookups, s + 2, /*threads=*/1);
    // Apply the repairs the first batch learned (Koorde backup promotions)
    // before stabilizing, so the pass starts from the state the lookups
    // left behind.
    net->absorb(before.metrics);
    net->stabilize_all();
    const WorkloadStats after =
        run_lookup_batch(*net, lookups, s + 3, /*threads=*/1);

    UngracefulRow row;
    row.kind = kind;
    row.departure_probability = p;
    row.survivors = net->node_count();
    row.lookups = before.lookups;
    row.mean_path = before.mean_path();
    row.mean_timeouts = before.mean_timeouts();
    row.failures_before_repair = before.failures + before.incorrect;
    row.failures_after_repair = after.failures + after.incorrect;
    return row;
  };
  return run_cells<UngracefulRow>(kinds, probabilities.size(), threads, cell);
}

ChurnRow run_churn_experiment(OverlayKind kind, int dimension,
                              double join_leave_rate, double duration,
                              std::uint64_t seed, StabilizeMode mode,
                              dht::NeighborSelection selection) {
  const std::uint64_t s =
      cell_seed(seed, static_cast<std::uint64_t>(kind),
                static_cast<std::uint64_t>(join_leave_rate * 1000.0));
  auto net = make_dense_overlay(kind, dimension, s, /*threads=*/1, selection);
  const std::size_t initial_size = net->node_count();
  // Counting only — no RNG draws or routing impact, so the lookup/path
  // columns stay byte-identical with or without this.
  if (auto* v = dynamic_cast<viceroy::ViceroyNetwork*>(net.get())) {
    v->enable_maintenance_accounting(true);
  }
  net->reset_maintenance();  // measure churn-driven maintenance, not build
  const bool incremental = mode == StabilizeMode::kIncremental;
  if (incremental) net->set_dirty_tracking(true);
  util::Rng rng(s + 1);

  // The event loop (DESIGN.md §11). Events run in time order, ties in the
  // order they were scheduled; each one re-arms itself after its action.
  enum class Kind : std::uint8_t { kStabilize, kDrain, kLookup, kJoin, kLeave };
  struct Event {
    double time;
    std::uint64_t order;
    Kind kind;
    dht::NodeHandle node;  // kStabilize only
  };
  const auto later = [](const Event& a, const Event& b) {
    return a.time != b.time ? a.time > b.time : a.order > b.order;
  };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> events(
      later);
  std::uint64_t scheduled = 0;
  const auto schedule = [&](double time, Kind kind,
                            dht::NodeHandle node = dht::kNoNode) {
    events.push(Event{time, scheduled++, kind, node});
  };

  // Per-node stabilization every kStabilizePeriod seconds, at a phase
  // drawn uniformly across the interval. Under kIncremental one periodic
  // dirty-queue drain replaces the per-node timers, but the phases are
  // still drawn, so both modes consume the identical RNG stream and see
  // the same join/leave/lookup sequence.
  const auto draw_timer = [&](dht::NodeHandle h, double now) {
    const double phase = rng.uniform01() * kStabilizePeriod;
    if (!incremental) schedule(now + phase, Kind::kStabilize, h);
  };
  for (const dht::NodeHandle h : net->node_handles()) draw_timer(h, 0.0);
  if (incremental) schedule(kStabilizePeriod, Kind::kDrain);
  // Poisson lookups at 1 per second, joins and leaves each at rate R
  // (paper Sec. 4.4).
  schedule(rng.exponential(1.0), Kind::kLookup);
  if (join_leave_rate > 0.0) {
    schedule(rng.exponential(join_leave_rate), Kind::kJoin);
    schedule(rng.exponential(join_leave_rate), Kind::kLeave);
  }

  // Each lookup is traced to price it on the shared latency plane (the
  // trace sums per-hop link latencies at routing time — no extra RNG
  // draws, no routing impact, so the hop and timeout columns stay
  // byte-identical to an untraced driver).
  std::vector<dht::TraceStep> trace;
  dht::RouterOptions lookup_options;
  lookup_options.trace = &trace;
  WorkloadStats stats;

  while (!events.empty() && events.top().time <= duration) {
    const Event event = events.top();
    events.pop();
    const double now = event.time;
    switch (event.kind) {
      case Kind::kStabilize:
        // A timer whose node has left is dropped. Handles are reused, so a
        // node that joins under a departed node's handle before that
        // timer fires keeps it beside its own and stabilizes twice per
        // period: a known fault, kept because mending it moves fig12's
        // numbers (ROADMAP item 9).
        if (!net->contains(event.node)) break;
        net->stabilize_one(event.node);
        schedule(now + kStabilizePeriod, Kind::kStabilize, event.node);
        break;
      case Kind::kDrain:
        net->stabilize_dirty();
        schedule(now + kStabilizePeriod, Kind::kDrain);
        break;
      case Kind::kLookup: {
        const dht::NodeHandle source = net->random_node(rng);
        const dht::KeyHash key = rng();
        dht::LookupMetrics sink;
        trace.clear();
        const dht::LookupResult result =
            net->route(source, key, sink, lookup_options);
        net->absorb(sink);
        stats.note(result, !result.success ||
                               result.destination == net->owner_of(key));
        stats.route_latency.add(result.route_latency);
        schedule(now + rng.exponential(1.0), Kind::kLookup);
        break;
      }
      case Kind::kJoin:
        for (int attempt = 0; attempt < 16; ++attempt) {
          const dht::NodeHandle h = net->join(rng());
          if (h != dht::kNoNode) {
            draw_timer(h, now);
            break;
          }
        }
        schedule(now + rng.exponential(join_leave_rate), Kind::kJoin);
        break;
      case Kind::kLeave:
        if (net->node_count() > initial_size / 2) {  // keep it bounded
          net->leave(net->random_node(rng));
        }
        schedule(now + rng.exponential(join_leave_rate), Kind::kLeave);
        break;
    }
  }

  ChurnRow row;
  row.kind = kind;
  row.join_leave_rate = join_leave_rate;
  row.lookups = stats.lookups;
  row.mean_path = stats.lookups == 0 ? 0.0 : stats.mean_path();
  row.mean_timeouts = stats.lookups == 0 ? 0.0 : stats.mean_timeouts();
  row.timeouts_p1 = stats.lookups == 0 ? 0.0 : stats.timeouts.p1();
  row.timeouts_p99 = stats.lookups == 0 ? 0.0 : stats.timeouts.p99();
  row.failures = stats.failures + stats.incorrect;
  row.final_size = net->node_count();
  row.maintenance_total = net->maintenance_metrics().total();
  row.maintenance_by_cause = net->maintenance_by_cause();
  row.nodes_refreshed_dirty = net->nodes_refreshed_dirty();
  row.nodes_skipped_clean = net->nodes_skipped_clean();
  row.mean_route_latency =
      stats.lookups == 0 ? 0.0 : stats.route_latency.mean();
  row.route_latency_p99 =
      stats.lookups == 0 ? 0.0 : stats.route_latency.p99();
  return row;
}

std::vector<SparsityRow> run_sparsity_experiment(
    const std::vector<OverlayKind>& kinds, int dimension,
    const std::vector<double>& sparsities, std::uint64_t lookups,
    std::uint64_t seed, int threads) {
  for (const double sparsity : sparsities) {
    CYCLOID_EXPECTS(sparsity >= 0.0 && sparsity < 1.0);
  }
  const std::uint64_t space = dense_size(dimension);
  const auto cell = [&](OverlayKind kind, std::size_t si) {
    const double sparsity = sparsities[si];
    const auto count = static_cast<std::size_t>(
        static_cast<double>(space) * (1.0 - sparsity));
    const std::uint64_t s =
        cell_seed(seed, static_cast<std::uint64_t>(kind), si + 200);
    auto net = make_sparse_overlay(kind, dimension,
                                   std::max<std::size_t>(count, 2), s);
    const WorkloadStats stats =
        run_lookup_batch(*net, lookups, s + 1, /*threads=*/1);

    SparsityRow row;
    row.kind = kind;
    row.sparsity = sparsity;
    row.nodes = net->node_count();
    row.lookups = stats.lookups;
    row.mean_path = stats.mean_path();
    for (std::size_t p = 0; p < dht::kMaxPhases; ++p) {
      row.phase_fractions[p] = stats.phase_fraction(p);
    }
    row.phase_names = stats.phase_names;
    row.failures = stats.failures + stats.incorrect;
    return row;
  };
  return run_cells<SparsityRow>(kinds, sparsities.size(), threads, cell);
}

}  // namespace cycloid::exp
