// The repository's benchmark binary: one workload per process.
//
//   cycloid_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                 [--smoke] [--trace-out PATH]
//
// Prints one JSON document on stdout: how the run was made, the
// correctness gates, a digest of the simulated totals, and the metrics —
// the end-to-end metrics in an untraced run, the per-layer metrics in a
// traced one. README.md describes the workloads and every metric; run.py
// builds this binary, runs it, and aggregates runs.
//
// Every workload is closed-loop and single-threaded: one caller, each call
// waits for the previous one. All inputs derive from --seed. Networks are
// built first; timed work then goes round-robin across overlays, in short
// samples, until --seconds have passed and every distinct input has run.
// Rates are medians over the samples, so a burst of load from elsewhere on
// the machine moves a few samples and not the result, and every sample is
// scaled by a reference slice timed just before it (reference.hpp), so a
// slow drift of the machine's speed cancels.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dht/network.hpp"
#include "exp/overlays.hpp"
#include "exp/workloads.hpp"
#include "reference.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace {

using cycloid::dht::DhtNetwork;
using cycloid::dht::KeyHash;
using cycloid::dht::kNoNode;
using cycloid::dht::LookupMetrics;
using cycloid::dht::LookupResult;
using cycloid::dht::MaintenanceBreakdown;
using cycloid::dht::NodeHandle;
using cycloid::exp::OverlayKind;
using cycloid::util::mix64;
using cycloid::util::Rng;
using Scope = bench::Tracer::Scope;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct OverlayInfo {
  OverlayKind kind;
  const char* key;
};

// Workloads run a prefix of this table. Per-overlay metrics exist for the
// first kReportedOverlays only: every workload runs those, and every metric
// must be reported on every workload. Pastry and CAN count in the
// workload-wide metrics of the workloads that build them.
constexpr OverlayInfo kOverlays[] = {
    {OverlayKind::kCycloid7, "cycloid7"},
    {OverlayKind::kCycloid11, "cycloid11"},
    {OverlayKind::kViceroy, "viceroy"},
    {OverlayKind::kChord, "chord"},
    {OverlayKind::kKoorde, "koorde"},
    {OverlayKind::kPastry, "pastry"},
    {OverlayKind::kCan, "can"}};
constexpr int kReportedOverlays = 5;

enum class Shape { kLookup, kFailure, kChurn };

struct Workload {
  const char* name;
  Shape shape;
  int overlays;       ///< runs kOverlays[0, overlays)
  std::size_t nodes;  ///< initial network size
  int dim;            ///< Cycloid dimension sizing every identifier space
  int inputs;         ///< distinct inputs per overlay (batches or streams)
  int min_rounds;     ///< timed rounds per run, at least
  int setups;         ///< timed builds of every network before the rounds
  bench::Reference::Kind reference;  ///< the workload's bottleneck
};

// lookup-2e17 leaves out Pastry (~270 s build) and CAN (~38 s); failure-2e14
// leaves out CAN, which repairs eagerly and whose O(n) oracle would double
// the run. Viceroy repairs eagerly too; it stays as the control. Churn
// builds afresh for every round as well; its set-ups only time the build.
constexpr auto kCore = bench::Reference::Kind::kCore;
constexpr auto kMemory = bench::Reference::Kind::kMemory;
constexpr Workload kWorkloads[] = {
    {"lookup-2e14", Shape::kLookup, 7, 1u << 14, 11, 8, 8, 3, kCore},
    {"lookup-2e17", Shape::kLookup, 5, 1u << 17, 14, 8, 8, 3, kMemory},
    {"churn-2e11", Shape::kChurn, 7, 1u << 11, 9, 1, 2, 3, kCore},
    {"failure-2e14", Shape::kFailure, 6, 1u << 14, 11, 8, 8, 3, kCore},
};

constexpr double kDepartureProbability = 0.3;  // paper Fig. 11
constexpr double kJoinRate = 2.0;              // per virtual second
constexpr double kLeaveRate = 2.0;
constexpr double kLookupRate = 50.0;
constexpr double kDrainPeriod = 30.0;  // also the churn sample length
constexpr int kJoinAttempts = 64;      // identifier collisions retry

/// Operation counts of a run; --smoke shrinks every one of them.
struct Sizes {
  std::uint64_t batch;   ///< lookups per timed batch (one sample)
  std::uint64_t warmup;  ///< untimed lookups before each batch
  double churn_seconds;  ///< virtual length of the churn stream
  // Traced-run probe on the workload's final network state:
  std::uint64_t probe_batch;  ///< lookups per checked/W=1/W=8/oracle call
  int probe_reps;             ///< repetitions of those four calls
  int probe_lookups;          ///< single-call lookups (> 10 beyond the p99)
  int probe_rounds;           ///< join/leave/drain rounds
  int probe_per_round;        ///< joins and leaves per round
};
constexpr Sizes kFull{4096, 1024, 1200.0, 32768, 3, 1200, 40, 28};
constexpr Sizes kSmoke{1024, 256, 120.0, 4096, 1, 100, 4, 8};
constexpr std::size_t kMaxTraceEvents = 100000;

// Seed derivation: every input stream is a pure function of --seed.
enum Tag : std::uint64_t {
  kNetTag = 1,
  kBatchTag,
  kWarmupTag,
  kFailTag,
  kStreamTag,
  kProbeTag,
};

std::uint64_t derive(std::uint64_t seed, Tag tag, std::uint64_t a = 0) {
  return mix64(seed ^ mix64((static_cast<std::uint64_t>(tag) << 56) ^ a));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Simulated outcome of a batch, a replay, or a probe phase. Two runs of
/// one seed must produce identical values.
struct Totals {
  std::uint64_t lookups = 0;
  std::uint64_t hops = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failed = 0;     ///< routing gave up or hit the hop cap
  std::uint64_t incorrect = 0;  ///< delivered to a node that is not owner
  std::uint64_t joins = 0;
  std::uint64_t join_failures = 0;
  std::uint64_t leaves = 0;
  std::uint64_t drains = 0;
  MaintenanceBreakdown maintenance{};  ///< updates charged in the phase
  std::uint64_t refreshed = 0;         ///< dirty nodes drains refreshed
  std::uint64_t skipped = 0;           ///< clean nodes drains skipped

  bool operator==(const Totals&) const = default;

  std::uint64_t operations() const {
    return lookups + joins + leaves + drains;
  }
  std::uint64_t membership_events() const { return joins + leaves; }
  std::uint64_t maintenance_updates() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : maintenance) sum += v;
    return sum;
  }

  void add(const Totals& o) {
    lookups += o.lookups;
    hops += o.hops;
    timeouts += o.timeouts;
    failed += o.failed;
    incorrect += o.incorrect;
    joins += o.joins;
    join_failures += o.join_failures;
    leaves += o.leaves;
    drains += o.drains;
    for (std::size_t c = 0; c < maintenance.size(); ++c) {
      maintenance[c] += o.maintenance[c];
    }
    refreshed += o.refreshed;
    skipped += o.skipped;
  }
};

Totals totals_of(const cycloid::exp::WorkloadStats& stats) {
  Totals t;
  t.lookups = stats.lookups;
  t.hops = stats.metrics.hops;
  t.timeouts = stats.metrics.timeouts;
  t.failed = stats.failures;
  t.incorrect = stats.incorrect;
  return t;
}

/// Counter snapshot used to charge a phase its maintenance work.
struct Counters {
  MaintenanceBreakdown maintenance;
  std::uint64_t refreshed;
  std::uint64_t skipped;

  explicit Counters(const DhtNetwork& net)
      : maintenance(net.maintenance_by_cause()),
        refreshed(net.nodes_refreshed_dirty()),
        skipped(net.nodes_skipped_clean()) {}

  void charge_since(const DhtNetwork& net, Totals& out) const {
    const Counters now(net);
    for (std::size_t c = 0; c < maintenance.size(); ++c) {
      out.maintenance[c] += now.maintenance[c] - maintenance[c];
    }
    out.refreshed += now.refreshed - refreshed;
    out.skipped += now.skipped - skipped;
  }
};

struct OverlayRun {
  int index = 0;  ///< into kOverlays
  std::unique_ptr<DhtNetwork> net;
  std::vector<double> rates;         ///< op/s of each untraced sample
  std::vector<double> traced_rates;  ///< op/s of each traced sample
  std::uint64_t ops_per_round = 0;   ///< operations in one timed round
  Totals totals;                     ///< over the distinct inputs
  std::vector<Totals> per_input;
  MaintenanceBreakdown after_setup{};
  Totals probe;  ///< membership probe of a traced run
};

struct Event {
  enum Type { kJoin, kLeave, kLookup, kDrain };
  double time;
  Type type;
  std::uint64_t a;  ///< join seed / victim draw / source draw
  std::uint64_t b;  ///< lookup key
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string trace_out;
};

class Bench {
 public:
  explicit Bench(const Options& options)
      : opt_(options),
        size_(options.smoke ? kSmoke : kFull),
        w_(*options.workload),
        reference_(w_.reference) {
    if (opt_.smoke) {
      w_.nodes = 1u << 11;
      w_.dim = 9;
      w_.inputs = 1;
      w_.min_rounds = 2;  // one traced and one untraced round when traced
      w_.setups = 1;
    }
    overlays_.resize(static_cast<std::size_t>(w_.overlays));
    for (int i = 0; i < w_.overlays; ++i) {
      overlays_[static_cast<std::size_t>(i)].index = i;
    }
  }

  void run() {
    const auto start = Clock::now();
    tracer_.enabled = opt_.traced;  // set-up is traced in a traced run
    for (int s = 0; s < w_.setups; ++s) {
      double total = 0.0;
      for (OverlayRun& o : overlays_) {
        total += build(o, static_cast<std::uint64_t>(s));
      }
      setup_s_.push_back(total);
    }
    if (w_.shape == Shape::kChurn) {
      run_churn();
    } else {
      run_lookups();
    }
    if (opt_.traced) {
      tracer_.enabled = true;
      for (OverlayRun& o : overlays_) {
        Scope span(tracer_, "exp.probe", o.index, 0);
        probe(o);
      }
      tracer_.enabled = false;
    }
    wall_s_ = since(start);
  }

  int print() const;

 private:
  // --- layer calls, each under a span ---------------------------------------

  /// Times one slice of reference work: the machine's current slowness.
  double machine_factor() {
    factors_.push_back(reference_.factor());
    return factors_.back();
  }

  /// Builds the overlay's network; returns the build time in reference
  /// seconds.
  double build(OverlayRun& o, std::uint64_t setup) {
    o.net.reset();  // keep one copy of each network alive
    const double factor = machine_factor();
    Scope span(tracer_, "exp.make_sparse_overlay", o.index, setup);
    const auto start = Clock::now();
    o.net = cycloid::exp::make_sparse_overlay(
        kOverlays[o.index].kind, w_.dim, w_.nodes,
        derive(opt_.seed, kNetTag, static_cast<std::uint64_t>(o.index)));
    span.set_arg(o.net->node_count());
    return since(start) / factor;
  }

  void join(OverlayRun& o, std::uint64_t seed, std::uint64_t request,
            Totals& out) {
    Scope span(tracer_, "maint.join", o.index, request);
    NodeHandle handle = kNoNode;
    for (int a = 0; a < kJoinAttempts && handle == kNoNode; ++a) {
      handle = o.net->join(mix64(seed + static_cast<std::uint64_t>(a)));
    }
    ++out.joins;
    if (handle == kNoNode) ++out.join_failures;
  }

  void leave(OverlayRun& o, std::uint64_t draw, std::uint64_t request,
             Totals& out) {
    Rng rng(draw);
    const NodeHandle victim = o.net->random_node(rng);
    Scope span(tracer_, "maint.leave", o.index, request);
    o.net->leave(victim);
    ++out.leaves;
  }

  void drain(OverlayRun& o, std::uint64_t request, Totals& out) {
    Scope span(tracer_, "maint.stabilize_dirty", o.index, request);
    o.net->stabilize_dirty(1);
    ++out.drains;
  }

  /// One routed lookup as a single call, with the repairs it learned
  /// absorbed at once, then checked against the oracle.
  void lookup(OverlayRun& o, std::uint64_t draw, KeyHash key,
              std::uint64_t request, Totals& out) {
    Scope span(tracer_, "exp.lookup", o.index, request);
    Rng rng(draw);
    const NodeHandle source = o.net->random_node(rng);
    LookupMetrics sink;
    LookupResult result;
    {
      Scope route(tracer_, "router.route", o.index, request);
      result = o.net->route(source, key, sink, {});
      route.set_arg(static_cast<std::uint64_t>(result.hops));
    }
    {
      Scope absorb(tracer_, "dht.absorb", o.index, request);
      o.net->absorb(sink);
    }
    NodeHandle owner = kNoNode;
    {
      Scope oracle(tracer_, "oracle.owner_of", o.index, request);
      owner = o.net->owner_of(key);
      oracle.set_arg(1);
    }
    ++out.lookups;
    out.hops += static_cast<std::uint64_t>(result.hops);
    out.timeouts += static_cast<std::uint64_t>(result.timeouts);
    if (!result.success) {
      ++out.failed;
    } else if (result.destination != owner) {
      ++out.incorrect;
    }
  }

  // --- workloads -------------------------------------------------------------

  /// Even rounds of a traced run are traced; the others give the untraced
  /// rates the tracing overhead is measured against.
  bool begin_round(int round) {
    tracer_.enabled = opt_.traced && round % 2 == 0;
    return tracer_.enabled;
  }

  bool end_round(int round, Clock::time_point start) {
    rounds_ = round + 1;
    tracer_.enabled = false;
    return rounds_ >= w_.min_rounds && since(start) >= opt_.seconds;
  }

  /// lookup-* and failure-*: checked batches of size_.batch lookups, each
  /// after an untimed warm-up batch; one batch is one sample.
  void run_lookups() {
    for (OverlayRun& o : overlays_) {
      if (w_.shape == Shape::kFailure) {
        Rng rng(derive(opt_.seed, kFailTag,
                       static_cast<std::uint64_t>(o.index)));
        Scope span(tracer_, "maint.fail_simultaneously", o.index, 0);
        o.net->fail_simultaneously(kDepartureProbability, rng);
        span.set_arg(o.net->node_count());
      }
      o.after_setup = o.net->maintenance_by_cause();
      o.ops_per_round = size_.batch;
    }
    const auto start = Clock::now();
    for (int round = 0;; ++round) {
      const bool traced = begin_round(round);
      const int input = round % w_.inputs;
      const auto r = static_cast<std::uint64_t>(round);
      for (OverlayRun& o : overlays_) {
        const auto i = static_cast<std::uint64_t>(o.index);
        const double factor = machine_factor();
        {
          Scope span(tracer_, "exp.warmup", o.index, r);
          cycloid::exp::run_lookup_batch(
              *o.net, size_.warmup, derive(opt_.seed, kWarmupTag, r * 16 + i),
              1);
        }
        Scope span(tracer_, "exp.run_lookup_batch", o.index, r);
        const auto batch_start = Clock::now();
        const cycloid::exp::WorkloadStats stats =
            cycloid::exp::run_lookup_batch(
                *o.net, size_.batch,
                derive(opt_.seed, kBatchTag,
                       static_cast<std::uint64_t>(input)),
                1);
        const double elapsed = since(batch_start);
        span.set_arg(size_.batch);
        (traced ? o.traced_rates : o.rates)
            .push_back(static_cast<double>(size_.batch) / elapsed * factor);
        note_round(o, round, input, totals_of(stats));
      }
      if (end_round(round, start)) break;
    }
  }

  /// churn-2e11: replay one seed-generated event stream on a fresh build
  /// of each overlay per round (each a further set-up), with dirty
  /// tracking on. The stretch of stream up to each drain is one sample;
  /// overlays take turns stretch by stretch, so each one's samples spread
  /// over the whole round.
  void run_churn() {
    const std::vector<Event> stream = make_stream();
    std::vector<std::size_t> stretch_ends;  // one past each drain
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (stream[i].type == Event::kDrain) stretch_ends.push_back(i + 1);
    }
    const auto start = Clock::now();
    for (int round = 0;; ++round) {
      const bool traced = begin_round(round);
      const auto r = static_cast<std::uint64_t>(round);
      double setup = 0.0;
      std::vector<Counters> before;
      for (OverlayRun& o : overlays_) {
        setup += build(o, r);
        o.net->set_dirty_tracking(true);
        o.after_setup = o.net->maintenance_by_cause();
        before.emplace_back(*o.net);
      }
      setup_s_.push_back(setup);

      std::vector<Totals> totals(overlays_.size());
      std::size_t begin = 0;
      for (const std::size_t end : stretch_ends) {
        for (std::size_t k = 0; k < overlays_.size(); ++k) {
          OverlayRun& o = overlays_[k];
          const std::uint64_t ops = totals[k].operations();
          const double factor = machine_factor();
          const auto sample_start = Clock::now();
          replay(o, stream, begin, end, totals[k]);
          (traced ? o.traced_rates : o.rates)
              .push_back(static_cast<double>(totals[k].operations() - ops) /
                         since(sample_start) * factor);
        }
        begin = end;
      }
      for (std::size_t k = 0; k < overlays_.size(); ++k) {
        OverlayRun& o = overlays_[k];
        before[k].charge_since(*o.net, totals[k]);
        o.ops_per_round = totals[k].operations();
        note_round(o, round, 0, totals[k]);
      }
      if (end_round(round, start)) break;
    }
  }

  std::vector<Event> make_stream() const {
    const double duration = size_.churn_seconds;
    std::vector<Event> stream;
    const auto poisson = [&](Event::Type type, double rate) {
      Rng rng(derive(opt_.seed, kStreamTag, type));
      for (double t = rng.exponential(rate); t < duration;
           t += rng.exponential(rate)) {
        const std::uint64_t a = rng();
        stream.push_back(Event{t, type, a, rng()});
      }
    };
    poisson(Event::kJoin, kJoinRate);
    poisson(Event::kLeave, kLeaveRate);
    poisson(Event::kLookup, kLookupRate);
    for (double t = kDrainPeriod; t <= duration; t += kDrainPeriod) {
      stream.push_back(Event{t, Event::kDrain, 0, 0});
    }
    std::stable_sort(
        stream.begin(), stream.end(),
        [](const Event& x, const Event& y) { return x.time < y.time; });
    return stream;
  }

  /// Applies stream[begin, end) to the overlay's network.
  void replay(OverlayRun& o, const std::vector<Event>& stream,
              std::size_t begin, std::size_t end, Totals& out) {
    const std::size_t floor = w_.nodes / 2;
    for (std::size_t i = begin; i < end; ++i) {
      const Event& e = stream[i];
      switch (e.type) {
        case Event::kJoin:
          join(o, e.a, i, out);
          break;
        case Event::kLeave:
          if (o.net->node_count() > floor) leave(o, e.a, i, out);
          break;
        case Event::kLookup:
          lookup(o, e.a, e.b, i, out);
          break;
        case Event::kDrain:
          drain(o, i, out);
          break;
      }
    }
  }

  /// Every operation counts as attempted. A lookup fails when it ends at a
  /// node that is not the key's owner, and on an intact network also when
  /// it is not delivered at all. After departures an overlay may report a
  /// lookup stuck (Koorde with every backup dead: the paper's lookup
  /// failure); delivered_frac and the digest measure those instead.
  void count(const Totals& t) {
    attempted_ += t.operations();
    failed_ += t.incorrect + t.join_failures +
               (w_.shape == Shape::kLookup ? t.failed : 0);
  }

  /// Folds a round's simulated outcome into the totals over the distinct
  /// inputs, or checks it against the earlier round with the same input.
  void note_round(OverlayRun& o, int round, int input, const Totals& t) {
    count(t);
    if (round < w_.inputs) {
      o.per_input.push_back(t);
      o.totals.add(t);
    } else if (!(t == o.per_input[static_cast<std::size_t>(input)])) {
      rounds_repeat_ = false;
    }
  }

  /// Traced runs only: time each layer of a lookup on the final network
  /// state, check that the interleaved router matches the sequential one,
  /// then time a full stabilization pass and membership events.
  void probe(OverlayRun& o) {
    DhtNetwork& net = *o.net;
    const std::uint64_t seed =
        derive(opt_.seed, kProbeTag, static_cast<std::uint64_t>(o.index));
    Rng rng(seed);
    const std::size_t n = size_.probe_batch;
    std::vector<NodeHandle> froms(n);
    std::vector<KeyHash> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      froms[i] = net.random_node(rng);
      keys[i] = rng();
    }
    std::vector<LookupResult> w1(n);
    std::vector<LookupResult> w8(n);
    cycloid::dht::BatchScratch lanes;
    for (int rep = 0; rep < size_.probe_reps; ++rep) {
      const auto request = static_cast<std::uint64_t>(rep);
      {
        Scope span(tracer_, "exp.run_lookup_batch", o.index, request);
        count(totals_of(
            cycloid::exp::run_lookup_batch(net, n, seed + request, 1)));
        span.set_arg(n);
      }
      {
        LookupMetrics sink;
        Scope span(tracer_, "router.route_batch.w1", o.index, request);
        net.route_batch(froms.data(), keys.data(), n, 1, sink, w1.data(),
                        lanes, {});
        span.set_arg(sink.hops);
      }
      {
        LookupMetrics sink;
        Scope span(tracer_, "router.route_batch.w8", o.index, request);
        net.route_batch(froms.data(), keys.data(), n, 8, sink, w8.data(),
                        lanes, {});
        span.set_arg(sink.hops);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const LookupResult& a = w1[i];
        const LookupResult& b = w8[i];
        if (a.destination != b.destination || a.hops != b.hops ||
            a.timeouts != b.timeouts || a.status != b.status) {
          w8_matches_ = false;
        }
      }
      Totals checked;
      checked.lookups = n;
      {
        Scope span(tracer_, "oracle.owner_of.batch", o.index, request);
        for (std::size_t i = 0; i < n; ++i) {
          if (!w1[i].success) {
            ++checked.failed;
          } else if (w1[i].destination != net.owner_of(keys[i])) {
            ++checked.incorrect;
          }
        }
        span.set_arg(n);
      }
      count(checked);
    }

    if (w_.shape != Shape::kChurn) {
      Totals single;
      for (int i = 0; i < size_.probe_lookups; ++i) {
        const std::uint64_t draw = rng();
        lookup(o, draw, rng(), static_cast<std::uint64_t>(i), single);
      }
      count(single);
    }

    {
      Scope span(tracer_, "maint.stabilize_all", o.index, 0);
      net.stabilize_all(1);
    }

    if (w_.shape != Shape::kChurn) {
      net.set_dirty_tracking(true);
      const Counters before(net);
      std::uint64_t request = 0;
      for (int round = 0; round < size_.probe_rounds; ++round) {
        for (int i = 0; i < size_.probe_per_round; ++i) {
          join(o, rng(), request++, o.probe);
        }
        for (int i = 0; i < size_.probe_per_round; ++i) {
          leave(o, rng(), request++, o.probe);
        }
        drain(o, request++, o.probe);
      }
      before.charge_since(net, o.probe);
      count(o.probe);
    }
  }

  // --- results ---------------------------------------------------------------

  struct Metric {
    std::string name;
    double value;
    const char* unit;
    std::size_t samples;
  };

  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;
  std::string digest() const;

  Options opt_;
  const Sizes& size_;
  Workload w_;
  bench::Tracer tracer_;
  bench::Reference reference_;  ///< after w_, which picks its kind
  std::vector<double> factors_;  ///< every machine_factor() reading
  std::vector<OverlayRun> overlays_;
  std::vector<double> setup_s_;  ///< one sum of build times per set-up
  int rounds_ = 0;
  double wall_s_ = 0.0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool rounds_repeat_ = true;
  bool w8_matches_ = true;
};

/// Time for one round of every overlay at its median rate: the rate of the
/// whole workload.
double workload_rate(const std::vector<OverlayRun>& overlays,
                     std::vector<double> OverlayRun::*rates) {
  double ops = 0.0;
  double seconds = 0.0;
  for (const OverlayRun& o : overlays) {
    ops += static_cast<double>(o.ops_per_round);
    seconds += ratio(static_cast<double>(o.ops_per_round), median(o.*rates));
  }
  return ratio(ops, seconds);
}

std::vector<Bench::Metric> Bench::end_to_end() const {
  std::vector<Metric> out;
  out.push_back({"setup_s", median(setup_s_), "s", setup_s_.size()});
  Totals all;
  for (const OverlayRun& o : overlays_) {
    all.add(o.totals);
    if (o.index < kReportedOverlays) {
      out.push_back({std::string("ops_per_s.") + kOverlays[o.index].key,
                     median(o.rates), "op/s", o.rates.size()});
    }
  }
  out.push_back({"ops_per_s.all", workload_rate(overlays_, &OverlayRun::rates),
                 "op/s", overlays_.front().rates.size()});
  const auto lookups = static_cast<double>(all.lookups);
  out.push_back(
      {"delivered_frac",
       ratio(lookups - static_cast<double>(all.failed + all.incorrect),
             lookups),
       "fraction", all.lookups});
  out.push_back({"hops_mean", ratio(static_cast<double>(all.hops), lookups),
                 "hop", all.lookups});
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.push_back({"rss_peak_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                 "MB", 1});
  return out;
}

std::vector<Bench::Metric> Bench::per_layer() const {
  using Span = bench::Tracer::Span;
  const std::vector<Span>& spans = tracer_.spans();
  const auto parent_is = [&](const Span& s, std::string_view name) {
    return s.parent != bench::Tracer::kNoParent &&
           name == spans[static_cast<std::size_t>(s.parent)].name;
  };

  // Span samples per overlay, in seconds unless noted.
  struct Samples {
    std::vector<double> build, full_pass, join, leave, drain, lookup;
    std::vector<double> w1, w8, ns_per_hop, oracle_per_key;
    /// Probe rep -> {checked batch, route_batch W=1, oracle loop}.
    std::vector<std::array<double, 3>> reps;
  };
  std::vector<Samples> by_overlay(overlays_.size());
  for (Samples& x : by_overlay) {
    x.reps.resize(static_cast<std::size_t>(size_.probe_reps));
  }
  // Route + absorb of each single-call lookup: its exp.lookup span's
  // children except the oracle check.
  std::vector<double> routed_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (parent_is(s, "exp.lookup") &&
        std::string_view(s.name) != "oracle.owner_of") {
      routed_s[static_cast<std::size_t>(s.parent)] += s.seconds();
    }
  }
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    Samples& x = by_overlay[static_cast<std::size_t>(s.overlay)];
    const std::string_view name(s.name);
    const double sec = s.seconds();
    const auto rep = static_cast<std::size_t>(s.request);
    const double per_arg =
        s.arg == 0 ? 0.0 : sec / static_cast<double>(s.arg);
    if (name == "exp.make_sparse_overlay") {
      x.build.push_back(sec);
    } else if (name == "maint.stabilize_all") {
      x.full_pass.push_back(sec);
    } else if (name == "maint.join") {
      x.join.push_back(sec);
    } else if (name == "maint.leave") {
      x.leave.push_back(sec);
    } else if (name == "maint.stabilize_dirty") {
      x.drain.push_back(sec);
    } else if (name == "exp.lookup") {
      x.lookup.push_back(routed_s[k]);
    } else if (name == "exp.run_lookup_batch" && parent_is(s, "exp.probe")) {
      x.reps[rep][0] = sec;
    } else if (name == "router.route_batch.w1") {
      x.w1.push_back(sec);
      x.ns_per_hop.push_back(per_arg * 1e9);
      x.reps[rep][1] = sec;
    } else if (name == "router.route_batch.w8") {
      x.w8.push_back(sec);
    } else if (name == "oracle.owner_of.batch") {
      x.oracle_per_key.push_back(per_arg * 1e9);
      x.reps[rep][2] = sec;
    }
  }

  std::vector<Metric> out;
  for (const OverlayRun& o : overlays_) {
    if (o.index >= kReportedOverlays) continue;
    const Samples& x = by_overlay[static_cast<std::size_t>(o.index)];
    const auto add = [&](const char* family, double value, const char* unit,
                         std::size_t samples) {
      out.push_back({std::string(family) + "." + kOverlays[o.index].key,
                     value, unit, samples});
    };
    std::vector<double> overhead_ns;
    for (const auto& [batch, routed, oracle] : x.reps) {
      overhead_ns.push_back((batch - routed - oracle) * 1e9 /
                            static_cast<double>(size_.probe_batch));
    }
    // Membership counts: the first replay of the stream on churn, the
    // probe elsewhere.
    const Totals& m = w_.shape == Shape::kChurn ? o.totals : o.probe;

    add("router.ns_per_hop", median(x.ns_per_hop), "ns", x.ns_per_hop.size());
    add("router.w8_gain", ratio(median(x.w1), median(x.w8)), "x",
        x.w8.size());
    add("router.lookup_us", median(x.lookup) * 1e6, "us", x.lookup.size());
    add("router.lookup_us_p99", quantile(x.lookup, 0.99) * 1e6, "us",
        x.lookup.size());
    add("hops", static_cast<double>(o.totals.hops), "count", 1);
    add("timeouts", static_cast<double>(o.totals.timeouts), "count", 1);
    add("oracle.owner_of_ns", median(x.oracle_per_key), "ns",
        x.oracle_per_key.size());
    add("exp.batch_overhead_ns", median(overhead_ns), "ns",
        overhead_ns.size());
    add("build.s", median(x.build), "s", x.build.size());
    add("maint.full_pass_s", median(x.full_pass), "s", x.full_pass.size());
    add("maint.join_us", median(x.join) * 1e6, "us", x.join.size());
    add("maint.join_us_p99", quantile(x.join, 0.99) * 1e6, "us",
        x.join.size());
    add("maint.leave_us", median(x.leave) * 1e6, "us", x.leave.size());
    add("maint.leave_us_p99", quantile(x.leave, 0.99) * 1e6, "us",
        x.leave.size());
    add("maint.drain_ms", median(x.drain) * 1e3, "ms", x.drain.size());
    add("maint.updates_per_event",
        ratio(static_cast<double>(m.maintenance_updates()),
              static_cast<double>(m.membership_events())),
        "count", 1);
    add("maint.dirty_useful_frac",
        ratio(static_cast<double>(m.refreshed),
              static_cast<double>(m.refreshed + m.skipped)),
        "fraction", 1);
  }
  // Rates fall by the share of time the spans cost.
  out.push_back({"trace.overhead_frac",
                 ratio(workload_rate(overlays_, &OverlayRun::rates),
                       workload_rate(overlays_, &OverlayRun::traced_rates)) -
                     1.0,
                 "fraction", overlays_.front().traced_rates.size()});
  return out;
}

/// FNV-1a over every simulated total; equal seeds must give equal digests.
std::string Bench::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const OverlayRun& o : overlays_) {
    const Totals& t = o.totals;
    for (const std::uint64_t v :
         {t.lookups, t.hops, t.timeouts, t.failed, t.incorrect, t.joins,
          t.join_failures, t.leaves, t.drains, t.refreshed, t.skipped}) {
      mix(v);
    }
    for (const std::uint64_t v : t.maintenance) mix(v);
    for (const std::uint64_t v : o.after_setup) mix(v);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* boolean(bool v) { return v ? "true" : "false"; }

int Bench::print() const {
  const std::vector<Metric> metrics = opt_.traced ? per_layer() : end_to_end();
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  const bool correct =
      failed_ == 0 && rounds_repeat_ && w8_matches_ && finite;

  if (opt_.traced && !opt_.trace_out.empty()) {
    std::vector<std::string> categories;
    for (const OverlayRun& o : overlays_) {
      categories.push_back(kOverlays[o.index].key);
    }
    if (!tracer_.write_chrome(opt_.trace_out, categories, kMaxTraceEvents)) {
      std::fprintf(stderr, "cycloid_bench: cannot write %s\n",
                   opt_.trace_out.c_str());
      return 1;
    }
  }

  std::string overlays;
  for (const OverlayRun& o : overlays_) {
    if (!overlays.empty()) overlays += ",";
    overlays += quote(kOverlays[o.index].key);
  }
  std::printf("{\n\"workload\": %s,\n", quote(w_.name).c_str());
  std::printf(
      "\"record\": {\"compiler\": %s, \"build_type\": %s, "
      "\"cxx_flags\": %s, \"nproc\": %ld, \"threads\": 1, "
      "\"interleave\": %d, \"seed\": %llu, \"trace\": %d, \"smoke\": %s, "
      "\"seconds\": %s, \"wall_s\": %s, \"machine_factor\": %s, "
      "\"nodes\": %zu, \"dim\": %d, "
      "\"overlays\": [%s], \"batch_lookups\": %llu, "
      "\"probe_lookups\": %llu, \"rounds\": %d, \"setups\": %zu, "
      "\"ops_per_round\": %llu},\n",
      quote(BENCH_COMPILER).c_str(), quote(BENCH_BUILD_TYPE).c_str(),
      quote(BENCH_CXX_FLAGS).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      cycloid::exp::lookup_interleave(),
      static_cast<unsigned long long>(opt_.seed), opt_.traced ? 1 : 0,
      boolean(opt_.smoke), number(opt_.seconds).c_str(),
      number(wall_s_).c_str(), number(median(factors_)).c_str(), w_.nodes,
      w_.dim, overlays.c_str(),
      static_cast<unsigned long long>(size_.batch),
      static_cast<unsigned long long>(size_.probe_batch), rounds_,
      setup_s_.size(),
      static_cast<unsigned long long>(overlays_.front().ops_per_round));
  std::printf(
      "\"gates\": {\"no_failed_operations\": %s, \"rounds_repeat\": %s, "
      "\"w8_matches_w1\": %s, \"finite\": %s},\n",
      boolean(failed_ == 0), boolean(rounds_repeat_),
      opt_.traced ? boolean(w8_matches_) : "null", boolean(finite));
  std::printf("\"digest\": %s,\n", quote(digest()).c_str());
  std::printf("\"correct\": %s,\n\"attempted\": %llu,\n\"failed\": %llu,\n",
              boolean(correct), static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\n  %s: {\"value\": %s, \"unit\": %s, \"samples\": %zu}",
                i == 0 ? "" : ",", quote(m.name).c_str(),
                number(std::isfinite(m.value) ? m.value : 0.0).c_str(),
                quote(m.unit).c_str(), m.samples);
  }
  std::printf("\n}\n}\n");
  return correct ? 0 : 3;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "cycloid_bench: %s\nusage: cycloid_bench --workload NAME "
               "--seed N [--seconds S] [--trace 0|1] [--smoke] "
               "[--trace-out PATH]\nworkloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) usage("unknown workload " + name);
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds >= 0.0) ||
          opt.seconds > 3600.0) {
        usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.traced = v == "1";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else {
      usage("unknown option " + arg);
    }
  }
  if (opt.workload == nullptr) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Bench bench(options);
  bench.run();
  return bench.print();
}
