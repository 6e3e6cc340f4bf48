// Overlay factories used by every experiment.
//
// The paper compares five systems: 7-entry Cycloid, 11-entry Cycloid,
// Viceroy, Chord, and Koorde. Dense networks (the path-length experiments,
// Figs. 5-7, 10) populate an entire identifier space; sparse networks
// (Figs. 8, 9, 11-14) place `count` participants at random identifiers in a
// fixed space. Cycloid's space is d * 2^d; the ring DHTs use 2^bits with
// bits chosen so the space is at least the Cycloid network's size.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dht/network.hpp"

namespace cycloid::exp {

enum class OverlayKind {
  kCycloid7,
  kCycloid11,
  kViceroy,
  kChord,
  kKoorde,
  // Related-work systems from the paper's Sec. 2 / Table 1, implemented as
  // extensions; not part of the paper's own evaluation runs.
  kPastry,
  kCan,
};

/// The five systems of the paper's evaluation, in its reporting order.
const std::vector<OverlayKind>& all_overlays();

/// The evaluation systems plus the related-work DHTs (Pastry, CAN).
const std::vector<OverlayKind>& extended_overlays();

/// The overlay's name in tables and JSON: "Cycloid-7", "Cycloid-11",
/// "Viceroy", "Chord", "Koorde", "Pastry" or "CAN".
std::string overlay_label(OverlayKind kind);

/// Dense network: for Cycloid the complete d-dimensional CCC (d * 2^d
/// nodes); the others get the same number of participants — completely
/// populating a 2^bits ring when d * 2^d is a power of two, else random
/// placement in the smallest sufficient ring.
///
/// Both factories build in bulk mode: membership is registered first, then
/// one stabilize pass computes every routing table, fanned out over
/// `threads` workers. The resulting network is byte-identical at any
/// thread count (DESIGN.md §9).
///
/// `selection` picks the neighbour-selection policy for the overlays that
/// support one (the Cycloid variants — kProximity breaks cubical-neighbour
/// ties by link latency on the shared plane); the others ignore it.
std::unique_ptr<dht::DhtNetwork> make_dense_overlay(
    OverlayKind kind, int cycloid_dim, std::uint64_t seed, int threads = 1,
    dht::NeighborSelection selection = dht::NeighborSelection::kClosestSuffix);

/// Sparse network: `count` participants at random identifiers inside the
/// identifier space sized by cycloid_dim (d * 2^d positions for Cycloid,
/// 2^ceil(log2(d * 2^d)) for the ring DHTs, [0,1) for Viceroy).
std::unique_ptr<dht::DhtNetwork> make_sparse_overlay(
    OverlayKind kind, int cycloid_dim, std::size_t count, std::uint64_t seed,
    int threads = 1,
    dht::NeighborSelection selection = dht::NeighborSelection::kClosestSuffix);

}  // namespace cycloid::exp
