// CAN (Ratnasamy et al. 2001) — the mesh-class DHT of paper Sec. 2.3 and
// Table 1: "CAN chooses its keys from a d-dimensional toroidal space. Each
// node is associated with a region of this key space, and its neighbors are
// the nodes that own the contiguous regions."
//
// Nodes own axis-aligned dyadic boxes ("zones") of the unit torus. A join
// splits the zone containing the newcomer's point in half along its longest
// side; a graceful leave hands the departing node's zones to its
// smallest-volume neighbour (which coalesces perfect buddies back into
// larger boxes — a node can temporarily hold several zones, as in the CAN
// paper's takeover rule). Routing greedily forwards to the neighbour whose
// zone is nearest the target point; path lengths are O(dims * n^(1/dims)).
//
// Each node keeps the CAN paper's coordinate routing table: every
// neighbour's handle and zones, in one flat block (DESIGN.md §18), so a
// greedy hop reads the current node's record, its own zone list and that
// block, and no other node's state. CAN repairs the tables as zones change
// hands, so — like Viceroy — its lookups never hit departed nodes (zero
// timeouts).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dht/arena.hpp"
#include "dht/network.hpp"
#include "dht/unit_grid.hpp"
#include "util/rng.hpp"

namespace cycloid::can {

inline constexpr int kMaxDims = 4;

/// Half-open interval [lo, hi) of the unit torus (never wraps; zones are
/// dyadic sub-boxes of [0,1)^dims).
struct Interval {
  double lo = 0.0;
  double hi = 1.0;
  friend bool operator==(const Interval&, const Interval&) = default;
};

struct Zone {
  std::array<Interval, kMaxDims> span;  // entries [0, dims) are meaningful
  friend bool operator==(const Zone&, const Zone&) = default;
};

/// Point of the unit torus.
using Point = std::array<double, kMaxDims>;

struct CanNode {
  std::vector<Zone> zones;  // usually one; more after takeovers
  /// Coordinate routing table: one entry per zone of each zone-contiguous
  /// neighbour, in ascending handle order (a neighbour's entries adjacent,
  /// in its zone-list order). An entry is CanNetwork::entry_words() words:
  /// the neighbour's handle, then that zone's lo and hi on axes
  /// 0..dims-1 as IEEE-754 bit patterns (40 B at dims = 2). A neighbour's
  /// refresh may coalesce its zones without rewriting this copy, which then
  /// stays a finer tiling of the same region (DESIGN.md §18).
  std::vector<std::uint64_t> table;
};

class CanNetwork final : public dht::ArenaNetwork<CanNode> {
 public:
  explicit CanNetwork(int dims = 2);

  /// Bootstrap a network by `count` protocol-level joins at random points.
  /// Joins stay eager even under bulk mode — a join's zone split IS the
  /// final state, not derived state the stabilize pass would recompute —
  /// so `threads` only sizes the finish_bulk coalesce pass (a no-op on a
  /// fresh build); accepted for builder-signature uniformity.
  static std::unique_ptr<CanNetwork> build_random(std::size_t count,
                                                  util::Rng& rng,
                                                  int dims = 2,
                                                  int threads = 1);

  int dims() const noexcept { return dims_; }

  /// Map a key hash to a point of the torus (one hash slice per dimension).
  Point point_from_hash(dht::KeyHash key) const;

  /// Protocol join at an explicit point; returns the new node's handle
  /// (the first join owns the whole space).
  dht::NodeHandle join_at(const Point& point);

  // node_state/node_of/node_at come from dht::ArenaNetwork<CanNode>.

  /// Zone volume owned by a node (1.0 totals across the network).
  double volume_of(dht::NodeHandle handle) const;

  /// True when one of the node's zones contains `p`.
  bool node_owns_point(dht::NodeHandle handle, const Point& p) const;
  bool node_owns_point(const CanNode& node, const Point& p) const;
  /// Squared torus distance from the node's nearest zone to `p`.
  double node_distance2(const CanNode& node, const Point& p) const;

  /// Words per routing-table entry: the handle plus 2 * dims bounds.
  std::size_t entry_words() const noexcept {
    return 1 + 2 * static_cast<std::size_t>(dims_);
  }
  /// Squared torus distance from the box of the table entry starting at
  /// `entry` to `p` — zone_distance2's arithmetic on the cached bounds.
  double entry_distance2(const std::uint64_t* entry, const Point& p) const;
  /// Handles in the node's routing table, ascending and each once.
  std::vector<dht::NodeHandle> neighbors_of(const CanNode& node) const;

  /// Structural invariants (zones tile the torus; each routing table lists
  /// exactly the node's geometric neighbours in ascending handle order,
  /// with boxes that tile each neighbour's zones; the ownership grid lists
  /// each live node in exactly the cells its zones overlap and no departed
  /// node).
  bool check_invariants() const override;

  enum Phase : std::size_t { kGreedy = 0 };

  // DhtNetwork interface -----------------------------------------------
  // node_handles() uses the base registry implementation (handles are
  // ascending join serials — sorting the registry reproduces the previous
  // sorted-serial order).
  // leave / fail_* / stabilize_* are DhtNetwork's; the overlay's takeover
  // logic is this class's maintenance hooks (can.cpp). CAN repairs
  // eagerly: every departure — even fail_ungraceful — runs the graceful
  // takeover rule, since CAN has no stale-state model.
  std::string name() const override { return "CAN"; }
  std::vector<std::string> phase_names() const override;
  dht::NodeHandle owner_of(dht::KeyHash key) const override;
  dht::NodeHandle join(std::uint64_t seed) override;
  void route_batch(const dht::NodeHandle* froms, const dht::KeyHash* keys,
                   std::size_t count, int width, dht::LookupMetrics& sink,
                   dht::LookupResult* results, dht::BatchScratch& lanes,
                   const dht::RouterOptions& options) const override;

 private:
  // Maintenance hooks (DhtNetwork's contract).
  bool repairs_eagerly() const override;
  void on_join(dht::NodeHandle node) override;
  void on_graceful_leave(dht::NodeHandle node) override;
  void on_vanish(dht::NodeHandle node) override;
  void refresh(dht::NodeHandle node) override;
  void dirty(dht::MembershipEvent event, dht::NodeHandle node) override;

  bool zone_contains(const Zone& zone, const Point& p) const;
  /// Squared torus distance from the closest point of `zone` to `p`.
  double zone_distance2(const Zone& zone, const Point& p) const;
  bool zones_adjacent(const Zone& a, const Zone& b) const;
  bool nodes_adjacent(const CanNode& a, const CanNode& b) const;

  /// Node whose zone contains `p` (every point is covered): only the nodes
  /// listed in p's grid cell are checked. Named to stay clear of the
  /// arena's slot-indexed node_at overloads.
  dht::NodeHandle node_owning(const Point& p) const;

  /// Grid cells the node's zones overlap (their spans over the first two
  /// axes), ascending and each once. Coalescing leaves it unchanged.
  std::vector<std::size_t> footprint(const CanNode& node) const;
  /// Move `handle`'s grid listing from the cells `before` to `after`.
  void relist(dht::NodeHandle handle, const std::vector<std::size_t>& before,
              const std::vector<std::size_t>& after);
  /// Re-fit the grid when membership has drifted 2x, listing every node
  /// again.
  void refit_grid();

  /// Rebuild `node`'s routing table from a candidate set (ascending and
  /// distinct: the union of the previous neighbourhoods of every party to
  /// a zone transfer), and rewrite `node`'s entries in its old and new
  /// neighbours' tables with its current zones.
  void relink(dht::NodeHandle node,
              const std::vector<dht::NodeHandle>& candidates);

  /// Append an entry per zone of `neighbor` (state `other`) to `table`.
  void append_entries(std::vector<std::uint64_t>& table,
                      dht::NodeHandle neighbor, const CanNode& other) const;
  /// Insert `neighbor`'s entries into `node`'s table at their sorted place
  /// (the table holds none yet), growing it to exactly the size needed.
  void insert_entries(CanNode& node, dht::NodeHandle neighbor,
                      const CanNode& other) const;
  /// Erase `neighbor`'s entries from `node`'s table.
  void erase_entries(CanNode& node, dht::NodeHandle neighbor) const;

  /// Merge perfect-buddy zone pairs owned by one node until fixpoint.
  void coalesce(CanNode& node) const;

  /// The CAN takeover rule: hand the departing node's zones to its
  /// smallest-volume neighbour, coalesce, relink (all departure semantics
  /// funnel here — CAN repairs eagerly).
  void depart_gracefully(dht::NodeHandle node);

  void unlink(dht::NodeHandle handle);

  int dims_;
  std::uint64_t next_serial_ = 0;
  /// Each live node, listed in every cell its zones overlap over the first
  /// min(dims, 2) axes (DESIGN.md §16).
  dht::UnitGrid<dht::NodeHandle> grid_;
};

}  // namespace cycloid::can
