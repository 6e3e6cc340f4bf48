// Pastry (Rowstron & Druschel 2001) — the hypercube-class, prefix-routing
// DHT that Cycloid is derived from (paper Sec. 2.1 and Table 1).
//
// Identifiers are sequences of base-2^b digits. A node keeps:
//   * a routing table with one row per digit: row r holds, for every digit
//     value c, some node that shares the first r digits with it and has c
//     at position r ("nodes that match each prefix of its own identifier
//     but differ in the next digit");
//   * a leaf set L of the |L|/2 numerically closest smaller and |L|/2
//     larger nodes;
//   * a neighborhood set M of the |M| geographically closest nodes (we
//     model proximity with random coordinates on a unit torus).
// Keys live at the numerically closest node. Routing corrects one digit per
// hop left-to-right and finishes numerically within the leaf set — exactly
// the scheme Cycloid's descending phase borrows.
//
// Maintenance model matches the other overlays: leaf sets are repaired
// eagerly on join/leave, routing-table and neighborhood entries go stale
// until stabilization.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dht/arena.hpp"
#include "dht/network.hpp"
#include "dht/sorted_ring.hpp"
#include "dht/unit_grid.hpp"
#include "util/rng.hpp"

namespace cycloid::pastry {

struct PastryNode {
  std::uint64_t id = 0;
  double x = 0.0;  ///< proximity coordinates (unit torus)
  double y = 0.0;
  /// routing_table[row][column]; kNoNode where no participant matches (or
  /// where the column equals the node's own digit).
  std::vector<std::vector<dht::NodeHandle>> routing_table;
  std::vector<dht::NodeHandle> leaf_smaller;  // nearest first
  std::vector<dht::NodeHandle> leaf_larger;
  std::vector<dht::NodeHandle> neighborhood;  // closest by proximity
  /// Proximity to the |M|-th neighbourhood member, the set's radius; 0
  /// while the set holds fewer than |M| nodes.
  double reach = 0.0;
};

class PastryNetwork final : public dht::ArenaNetwork<PastryNode> {
 public:
  /// Identifier space of 2^bits ids read as bits/bits_per_digit digits of
  /// base 2^bits_per_digit. `bits` must be divisible by `bits_per_digit`.
  PastryNetwork(int bits, int bits_per_digit = 2, int leaf_set_size = 8,
                int neighborhood_size = 8);

  /// Bulk mode: membership first, then one stabilize pass over `threads`
  /// workers — byte-identical to the incremental build.
  static std::unique_ptr<PastryNetwork> build_random(int bits,
                                                     std::size_t count,
                                                     util::Rng& rng,
                                                     int bits_per_digit = 2,
                                                     int threads = 1);

  int bits() const noexcept { return bits_; }
  std::uint64_t space_size() const noexcept { return space_size_; }
  int digit_count() const noexcept { return rows_; }
  int bits_per_digit() const noexcept { return bits_per_digit_; }
  /// |L|: leaf_set_size() / 2 ring neighbours on each side.
  int leaf_set_size() const noexcept { return 2 * leaf_half_; }
  /// |M|: proximity-nearest nodes kept in each neighborhood set.
  int neighborhood_size() const noexcept { return neighborhood_size_; }

  /// Insert at an explicit identifier with proximity coordinates in [0, 1).
  /// Registers membership (ring and proximity grid); outside bulk mode the
  /// join repair then computes the newcomer's state and its leaf-set
  /// neighbours'. Returns false when `id` is taken.
  bool insert(std::uint64_t id, double x, double y);

  // node_state/node_of/node_at come from dht::ArenaNetwork<PastryNode>.

  /// Value of digit `row` (0 = most significant) of an identifier.
  int digit(std::uint64_t id, int row) const;
  /// Number of leading digits shared by two identifiers.
  int shared_prefix_digits(std::uint64_t a, std::uint64_t b) const;
  /// True when `key` falls within the span covered by the node's leaf set.
  bool key_in_leaf_range(const PastryNode& node, std::uint64_t key) const;
  /// Squared Euclidean distance between two points of the unit torus: the
  /// proximity metric that ranks neighbourhood sets.
  static double proximity(double ax, double ay, double bx, double by);

  /// Structural invariants: the registry, the arena and the ring hold the
  /// same members, the ring in ascending order (dht::ring_matches_registry);
  /// the proximity grid files each live node once, in the cell of its
  /// coordinates, and no departed node; every routing table is rows x 2^b;
  /// the network's neighbourhood reach is at least every node's.
  bool check_invariants() const override;

  enum Phase : std::size_t { kPrefix = 0, kLeaf = 1 };

  // DhtNetwork interface -----------------------------------------------
  // node_handles() uses the base registry implementation (handle == id, so
  // ascending handle order is the ring order).
  // leave / fail_* / stabilize_* are DhtNetwork's; the overlay's repair
  // logic is this class's maintenance hooks (pastry.cpp).
  std::string name() const override { return "Pastry"; }
  std::vector<std::string> phase_names() const override;
  dht::NodeHandle owner_of(dht::KeyHash key) const override;
  dht::NodeHandle join(std::uint64_t seed) override;
  void route_batch(const dht::NodeHandle* froms, const dht::KeyHash* keys,
                   std::size_t count, int width, dht::LookupMetrics& sink,
                   dht::LookupResult* results, dht::BatchScratch& lanes,
                   const dht::RouterOptions& options) const override;

 private:
  // Maintenance hooks (DhtNetwork's contract).
  void on_join(dht::NodeHandle node) override;
  void on_graceful_leave(dht::NodeHandle node) override;
  void on_vanish(dht::NodeHandle node) override;
  void before_pass() override;
  void repair_after_mass_leave() override;
  void refresh(dht::NodeHandle node) override;
  void dirty(dht::MembershipEvent event, dht::NodeHandle node) override;
  // The dirty hook's parts: leaf-set neighbours (walk_leaf_neighbors, the
  // eager repair's walk), routing-row referencers and neighbourhood holders
  // of the change at `id` (pastry.cpp).
  void mark_routing_referencers(std::uint64_t id, dht::NodeHandle changed,
                                bool join);
  void mark_if_routing_referencer(dht::NodeHandle referencer, int row,
                                  int col, std::uint64_t preferred,
                                  std::uint64_t id, dht::NodeHandle changed,
                                  bool join);
  void mark_neighborhood_referencers(const PastryNode& state,
                                     dht::NodeHandle changed, bool join);
  void mark_if_neighborhood_holder(dht::NodeHandle handle, double prox,
                                   const PastryNode& state,
                                   dht::NodeHandle changed, bool join,
                                   std::size_t m);

  /// Numerically closest node to `id` (circular distance; clockwise wins
  /// ties) — Pastry's key-assignment rule.
  dht::NodeHandle closest_to(std::uint64_t id) const;

  void compute_leaf_sets(PastryNode& node);
  void compute_routing_table(PastryNode& node);
  void compute_neighborhood(PastryNode& node);
  template <typename Visit>
  void walk_leaf_neighbors(std::uint64_t id, Visit&& visit) const;
  void refresh_leafsets_around(std::uint64_t id);
  void unlink(dht::NodeHandle handle);
  /// Re-fit the proximity grid to the node count when it has drifted 2x,
  /// filing every node again.
  void refit_grid();

  static double proximity(const PastryNode& a, const PastryNode& b) {
    return proximity(a.x, a.y, b.x, b.y);
  }

  int bits_;
  int bits_per_digit_;
  int rows_;
  std::uint64_t space_size_;
  int leaf_half_;
  int neighborhood_size_;

  /// Live identifiers (id == handle).
  dht::SortedRing<std::uint64_t> ring_;

  /// A node's proximity coordinates, filed in the grid cell of (x, y).
  struct GridEntry {
    double x;
    double y;
    dht::NodeHandle handle;
    friend bool operator==(const GridEntry&, const GridEntry&) = default;
  };
  /// Every live node by proximity coordinates (DESIGN.md §16).
  dht::UnitGrid<GridEntry> grid_;

  /// The neighbourhood reach R: the largest PastryNode::reach any
  /// compute_neighborhood has stored, so no stored neighbourhood reaches
  /// farther. The dirty hook reads its holders from the grid cells
  /// covering the disc of radius R (DESIGN.md §20). Only grows; folded
  /// with a relaxed atomic max, so a parallel pass leaves it identical at
  /// any thread count.
  std::atomic<double> reach_{0.0};
  void fold_reach(double proximity);
};

}  // namespace cycloid::pastry
