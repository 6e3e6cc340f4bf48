// Micro-benchmarks (google-benchmark): per-operation costs of the simulator
// substrate and of each overlay's core operations. These measure *our
// implementation* (wall-clock per simulated operation), complementing the
// hop-count experiments which measure the *protocols*.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "chord/chord.hpp"
#include "core/network.hpp"
#include "exp/overlays.hpp"
#include "hash/sha1.hpp"
#include "koorde/koorde.hpp"
#include "util/rng.hpp"
#include "viceroy/viceroy.hpp"

namespace {

using namespace cycloid;

void BM_Sha1Digest64(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hash::Sha1::digest64("key-" + std::to_string(i++)));
  }
}
BENCHMARK(BM_Sha1Digest64);

void BM_CycloidBuildComplete(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto net = ccc::CycloidNetwork::build_complete(d);
    benchmark::DoNotOptimize(net->node_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          (static_cast<std::int64_t>(d) << d));
}
BENCHMARK(BM_CycloidBuildComplete)->Arg(4)->Arg(6)->Arg(8);

void BM_CycloidLookup(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  auto net = ccc::CycloidNetwork::build_complete(d);
  util::Rng rng(1);
  dht::LookupMetrics sink;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net->lookup(net->random_node(rng), rng(), sink).hops);
  }
}
BENCHMARK(BM_CycloidLookup)->Arg(4)->Arg(6)->Arg(8);

void BM_CycloidOwnerOf(benchmark::State& state) {
  auto net = ccc::CycloidNetwork::build_complete(8);
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net->owner_of(rng()));
  }
}
BENCHMARK(BM_CycloidOwnerOf);

void BM_CycloidJoinLeave(benchmark::State& state) {
  util::Rng rng(3);
  auto net = ccc::CycloidNetwork::build_random(8, 1024, rng);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    dht::NodeHandle h = dht::kNoNode;
    while (h == dht::kNoNode) h = net->join(seed++);
    net->leave(h);
  }
}
BENCHMARK(BM_CycloidJoinLeave);

void BM_CycloidStabilizeOne(benchmark::State& state) {
  util::Rng rng(4);
  auto net = ccc::CycloidNetwork::build_random(8, 1024, rng);
  for (auto _ : state) {
    net->stabilize_one(net->random_node(rng));
  }
}
BENCHMARK(BM_CycloidStabilizeOne);

void BM_ChordLookup(benchmark::State& state) {
  auto net = chord::ChordNetwork::build_complete(11);
  util::Rng rng(5);
  dht::LookupMetrics sink;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net->lookup(net->random_node(rng), rng(), sink).hops);
  }
}
BENCHMARK(BM_ChordLookup);

void BM_KoordeLookup(benchmark::State& state) {
  auto net = koorde::KoordeNetwork::build_complete(11);
  util::Rng rng(6);
  dht::LookupMetrics sink;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net->lookup(net->random_node(rng), rng(), sink).hops);
  }
}
BENCHMARK(BM_KoordeLookup);

void BM_ViceroyLookup(benchmark::State& state) {
  util::Rng build_rng(7);
  auto net = viceroy::ViceroyNetwork::build_random(2048, build_rng);
  util::Rng rng(8);
  dht::LookupMetrics sink;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net->lookup(net->random_node(rng), rng(), sink).hops);
  }
}
BENCHMARK(BM_ViceroyLookup);

}  // namespace

// Same `--json <path>` contract as the table benches (see bench::Report):
// translated into google-benchmark's native JSON reporter; all other
// arguments pass through to the benchmark library.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> passthrough;
  passthrough.push_back(args.empty() ? "micro_overlays" : args[0]);
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string path;
    if (args[i] == "--json" && i + 1 < args.size()) {
      path = args[++i];
    } else if (args[i].rfind("--json=", 0) == 0) {
      path = args[i].substr(7);
    } else {
      passthrough.push_back(args[i]);
      continue;
    }
    passthrough.push_back("--benchmark_out=" + path);
    passthrough.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> c_args;
  for (std::string& arg : passthrough) c_args.push_back(arg.data());
  int c_argc = static_cast<int>(c_args.size());
  benchmark::Initialize(&c_argc, c_args.data());
  if (benchmark::ReportUnrecognizedArguments(c_argc, c_args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
