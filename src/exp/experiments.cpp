#include "exp/experiments.hpp"

#include <functional>
#include <memory>

#include "exp/workloads.hpp"
#include "util/parallel.hpp"
#include "sim/event_queue.hpp"
#include "sim/poisson.hpp"
#include "util/contracts.hpp"
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
  // the big dense networks no longer serialize on a single worker.
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
  struct Cell {
    OverlayKind kind;
    std::size_t pi;
  };
  std::vector<Cell> cells;
  for (const OverlayKind kind : kinds) {
    for (std::size_t pi = 0; pi < probabilities.size(); ++pi) {
      cells.push_back(Cell{kind, pi});
    }
  }

  std::vector<FailureRow> rows(cells.size());
  util::parallel_for(cells.size(), threads, [&](std::size_t i) {
    const auto [kind, pi] = cells[i];
    const double p = probabilities[pi];
    const std::uint64_t s =
        cell_seed(seed, static_cast<std::uint64_t>(kind), pi + 100);
    auto net = make_dense_overlay(kind, dimension, s);
    util::Rng rng(s + 1);
    net->fail_simultaneously(p, rng);

    // Cells already fan out above, so the batch itself runs single-threaded;
    // the shard structure still makes the result seed-deterministic.
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
    rows[i] = row;
  });
  return rows;
}

std::vector<UngracefulRow> run_ungraceful_experiment(
    const std::vector<OverlayKind>& kinds, int dimension,
    const std::vector<double>& probabilities, std::uint64_t lookups,
    std::uint64_t seed, int threads) {
  struct Cell {
    OverlayKind kind;
    std::size_t pi;
  };
  std::vector<Cell> cells;
  for (const OverlayKind kind : kinds) {
    for (std::size_t pi = 0; pi < probabilities.size(); ++pi) {
      cells.push_back(Cell{kind, pi});
    }
  }

  std::vector<UngracefulRow> rows(cells.size());
  util::parallel_for(cells.size(), threads, [&](std::size_t i) {
    const auto [kind, pi] = cells[i];
    const double p = probabilities[pi];
    const std::uint64_t s =
        cell_seed(seed, static_cast<std::uint64_t>(kind), pi + 300);
    auto net = make_dense_overlay(kind, dimension, s);
    util::Rng rng(s + 1);
    net->fail_ungraceful(p, rng);

    const WorkloadStats before =
        run_lookup_batch(*net, lookups, s + 2, /*threads=*/1);
    // Keep the repairs the first batch learned (Koorde backup promotions)
    // before stabilizing, like the old in-place mutating lookups did.
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
    rows[i] = row;
  });
  return rows;
}

ChurnRow run_churn_experiment(OverlayKind kind, int dimension,
                              double join_leave_rate, double duration,
                              double stabilize_period, std::uint64_t seed,
                              StabilizeMode mode,
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

  sim::EventQueue queue;
  WorkloadStats stats;
  stats.phase_names = net->phase_names();

  // Per-node stabilization every `stabilize_period` seconds, with phases
  // uniformly distributed across the interval. A node's timer dies with it.
  // The stored closure holds itself only weakly: a shared self-capture
  // would form a refcount cycle and leak the function object (the local
  // `stabilizer` below is the one strong owner, and it outlives the queue
  // run, so lock() always succeeds while events still fire).
  auto stabilizer = std::make_shared<std::function<void(dht::NodeHandle)>>();
  *stabilizer = [&net, &queue, stabilize_period,
                 weak = std::weak_ptr(stabilizer)](dht::NodeHandle h) {
    if (!net->contains(h)) return;
    net->stabilize_one(h);
    queue.schedule_in(stabilize_period, [weak, h] {
      if (const auto self = weak.lock()) (*self)(h);
    });
  };
  // Under kIncremental the per-node timers are replaced by one periodic
  // dirty-queue drain — but the phase draws still happen, so both modes
  // consume the identical RNG stream and see the same join/leave/lookup
  // sequence.
  const auto arm_stabilizer = [&](dht::NodeHandle h, double phase) {
    if (incremental) return;
    queue.schedule_in(phase, [stabilizer, h] { (*stabilizer)(h); });
  };
  for (const dht::NodeHandle h : net->node_handles()) {
    arm_stabilizer(h, rng.uniform01() * stabilize_period);
  }
  std::shared_ptr<sim::PeriodicProcess> drain_proc;
  if (incremental) {
    drain_proc = sim::PeriodicProcess::start(
        queue, stabilize_period, stabilize_period,
        [&] { net->stabilize_dirty(); });
  }

  // Poisson lookups at 1 per second (paper Sec. 4.4). Each lookup is traced
  // to price it on the shared latency plane (the trace sums per-hop link
  // latencies at routing time — no extra RNG draws, no routing impact, so
  // the hop and timeout columns stay byte-identical to an untraced driver).
  std::vector<dht::TraceStep> trace;
  dht::RouterOptions lookup_options;
  lookup_options.trace = &trace;
  auto lookup_proc = sim::PoissonProcess::start(queue, rng, 1.0, [&] {
    const dht::NodeHandle source = net->random_node(rng);
    const dht::KeyHash key = rng();
    dht::LookupMetrics sink;
    trace.clear();
    const dht::LookupResult result = net->route(source, key, sink, lookup_options);
    net->absorb(sink);
    ++stats.lookups;
    stats.path_length.add(result.hops);
    stats.timeouts.add(result.timeouts);
    stats.route_latency.add(result.route_latency);
    if (!result.success) {
      ++stats.failures;
    } else if (result.destination != net->owner_of(key)) {
      ++stats.incorrect;
    }
  });

  std::shared_ptr<sim::PoissonProcess> join_proc;
  std::shared_ptr<sim::PoissonProcess> leave_proc;
  if (join_leave_rate > 0.0) {
    join_proc = sim::PoissonProcess::start(queue, rng, join_leave_rate, [&] {
      for (int attempt = 0; attempt < 16; ++attempt) {
        const dht::NodeHandle h = net->join(rng());
        if (h != dht::kNoNode) {
          arm_stabilizer(h, rng.uniform01() * stabilize_period);
          return;
        }
      }
    });
    leave_proc = sim::PoissonProcess::start(queue, rng, join_leave_rate, [&] {
      if (net->node_count() <= initial_size / 2) return;  // keep it bounded
      net->leave(net->random_node(rng));
    });
  }

  queue.run_until(duration);
  lookup_proc->stop();
  if (join_proc) join_proc->stop();
  if (leave_proc) leave_proc->stop();
  if (drain_proc) drain_proc->stop();

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
  const std::uint64_t space = dense_size(dimension);
  struct Cell {
    OverlayKind kind;
    std::size_t si;
  };
  std::vector<Cell> cells;
  for (const OverlayKind kind : kinds) {
    for (std::size_t si = 0; si < sparsities.size(); ++si) {
      CYCLOID_EXPECTS(sparsities[si] >= 0.0 && sparsities[si] < 1.0);
      cells.push_back(Cell{kind, si});
    }
  }

  std::vector<SparsityRow> rows(cells.size());
  util::parallel_for(cells.size(), threads, [&](std::size_t i) {
    const auto [kind, si] = cells[i];
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
    rows[i] = std::move(row);
  });
  return rows;
}

}  // namespace cycloid::exp
