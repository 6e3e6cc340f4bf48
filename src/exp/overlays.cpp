#include "exp/overlays.hpp"

#include "can/can.hpp"
#include "chord/chord.hpp"
#include "core/network.hpp"
#include "koorde/koorde.hpp"
#include "pastry/pastry.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "viceroy/viceroy.hpp"

namespace cycloid::exp {

namespace {

/// Ring bits for a network meant to hold `n` participants.
int ring_bits_for(std::uint64_t n) { return util::ceil_log2(n); }

}  // namespace

const std::vector<OverlayKind>& all_overlays() {
  static const std::vector<OverlayKind> kinds = {
      OverlayKind::kCycloid7, OverlayKind::kCycloid11, OverlayKind::kViceroy,
      OverlayKind::kChord, OverlayKind::kKoorde};
  return kinds;
}

const std::vector<OverlayKind>& extended_overlays() {
  static const std::vector<OverlayKind> kinds = {
      OverlayKind::kCycloid7, OverlayKind::kCycloid11, OverlayKind::kViceroy,
      OverlayKind::kChord,    OverlayKind::kKoorde,    OverlayKind::kPastry,
      OverlayKind::kCan};
  return kinds;
}

std::string overlay_label(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::kCycloid7:
      return "Cycloid-7";
    case OverlayKind::kCycloid11:
      return "Cycloid-11";
    case OverlayKind::kViceroy:
      return "Viceroy";
    case OverlayKind::kChord:
      return "Chord";
    case OverlayKind::kKoorde:
      return "Koorde";
    case OverlayKind::kPastry:
      return "Pastry";
    case OverlayKind::kCan:
      return "CAN";
  }
  CYCLOID_ASSERT(false);
  return {};
}

std::unique_ptr<dht::DhtNetwork> make_dense_overlay(
    OverlayKind kind, int cycloid_dim, std::uint64_t seed, int threads,
    dht::NeighborSelection selection) {
  const std::uint64_t n =
      static_cast<std::uint64_t>(cycloid_dim) * (1ULL << cycloid_dim);
  util::Rng rng(seed);
  const int bits = ring_bits_for(n);
  const bool ring_complete = (1ULL << bits) == n;

  switch (kind) {
    case OverlayKind::kCycloid7:
      return ccc::CycloidNetwork::build_complete(cycloid_dim, 1, selection,
                                                 threads);
    case OverlayKind::kCycloid11:
      return ccc::CycloidNetwork::build_complete(cycloid_dim, 2, selection,
                                                 threads);
    case OverlayKind::kViceroy:
      return viceroy::ViceroyNetwork::build_random(n, rng);
    case OverlayKind::kChord:
      return ring_complete
                 ? chord::ChordNetwork::build_complete(bits, threads)
                 : chord::ChordNetwork::build_random(bits, n, rng, threads);
    case OverlayKind::kKoorde:
      return ring_complete
                 ? koorde::KoordeNetwork::build_complete(bits, threads)
                 : koorde::KoordeNetwork::build_random(bits, n, rng, threads);
    case OverlayKind::kPastry:
      return pastry::PastryNetwork::build_random(bits, n, rng, threads);
    case OverlayKind::kCan:
      return can::CanNetwork::build_random(n, rng);
  }
  CYCLOID_ASSERT(false);
  return nullptr;
}

std::unique_ptr<dht::DhtNetwork> make_sparse_overlay(
    OverlayKind kind, int cycloid_dim, std::size_t count, std::uint64_t seed,
    int threads, dht::NeighborSelection selection) {
  const std::uint64_t space =
      static_cast<std::uint64_t>(cycloid_dim) * (1ULL << cycloid_dim);
  util::Rng rng(seed);
  const int bits = ring_bits_for(space);

  switch (kind) {
    case OverlayKind::kCycloid7:
      return ccc::CycloidNetwork::build_random(cycloid_dim, count, rng, 1,
                                               selection, threads);
    case OverlayKind::kCycloid11:
      return ccc::CycloidNetwork::build_random(cycloid_dim, count, rng, 2,
                                               selection, threads);
    case OverlayKind::kViceroy:
      return viceroy::ViceroyNetwork::build_random(count, rng);
    case OverlayKind::kChord:
      return chord::ChordNetwork::build_random(bits, count, rng, threads);
    case OverlayKind::kKoorde:
      return koorde::KoordeNetwork::build_random(bits, count, rng, threads);
    case OverlayKind::kPastry:
      return pastry::PastryNetwork::build_random(bits, count, rng, threads);
    case OverlayKind::kCan:
      return can::CanNetwork::build_random(count, rng);
  }
  CYCLOID_ASSERT(false);
  return nullptr;
}

}  // namespace cycloid::exp
