// Viceroy (Malkhi, Naor & Ratajczak 2002) — the butterfly constant-degree
// DHT.
//
// Every node has a real identifier uniformly drawn from [0, 1) and a
// butterfly level drawn uniformly from [1, log n0] at join time (n0 = the
// size estimate when it joined). A node's seven links are its general-ring
// predecessor/successor, its level-ring neighbours, two down links into
// level l+1 (down-left near its own id, down-right near id + 2^-l), and one
// up link into the closest populated level below l. Keys are stored at
// their successor on the general ring. Routing ascends to level 1, descends
// down the butterfly, then traverses via level-ring / ring pointers (paper
// Sec. 2.5).
//
// Maintenance model: Viceroy nodes notify both outgoing AND incoming
// connections on arrival/departure, so every link is always fresh and no
// lookup ever hits a departed node (zero timeouts — paper Sec. 4.3). Each
// node stores its seven links with every target's identifier inline, so a
// hop reads only the current node's record. A join or leave at level l
// rewrites exactly the links that move: the ring and level-ring
// neighbours', the down links of level l-1, and the up links of the first
// populated level past l — each set found by a range query on a ring
// (DESIGN.md §17). That eager repair is the cost the paper's conclusion
// criticizes; the hop counts do not measure it, the maintenance accounting
// does.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dht/arena.hpp"
#include "dht/network.hpp"
#include "dht/sorted_ring.hpp"
#include "util/rng.hpp"

namespace cycloid::viceroy {

/// One stored link: the target's handle and, inline, its identifier, so a
/// hop measures ring distances without reading the target's record.
struct ViceroyLink {
  dht::NodeHandle node = dht::kNoNode;
  double id = 0.0;

  bool operator==(const ViceroyLink&) const = default;
};

/// Positions in ViceroyLinks, in the traverse stage's candidate order (of
/// two links at the same distance, the earlier one wins).
enum LinkIndex : std::size_t {
  kRingPred,
  kRingSucc,
  kLevelPrev,
  kLevelNext,
  kDownLeft,
  kDownRight,
  kUp,
  kLinkCount,
};

/// A node's seven links as stored in its record; an absent link (a ring or
/// level of one node, an empty level below, level 1's up link) is the
/// default ViceroyLink{}.
using ViceroyLinks = std::array<ViceroyLink, kLinkCount>;

/// One arena record: 128 bytes, everything a hop reads.
struct ViceroyNode {
  double id = 0.0;
  int level = 1;
  ViceroyLinks links{};
};

class ViceroyNetwork final : public dht::ArenaNetwork<ViceroyNode> {
 public:
  ViceroyNetwork() = default;

  /// A network of `count` nodes with uniform-random identifiers and levels
  /// drawn from [1, log2(count)]. `threads` sizes the finish_bulk stabilize
  /// pass, a no-op here (its serial before_pass fills every link) —
  /// accepted for builder-signature uniformity across the overlays.
  static std::unique_ptr<ViceroyNetwork> build_random(std::size_t count,
                                                      util::Rng& rng,
                                                      int threads = 1);

  /// Direct insertion; false when the identifier collides. While
  /// bulk-building the unsorted rings cannot be probed, so a collision is
  /// not reported: SortedRing::settle() traps on it at finish_bulk.
  bool insert(double id, int level);

  // node_state/node_of/node_at come from dht::ArenaNetwork<ViceroyNode>;
  // a node's links are node_state(handle).links.

  /// Current highest populated butterfly level.
  int max_level() const noexcept;

  enum Phase : std::size_t { kAscend = 0, kDescend = 1, kRing = 2 };

  // DhtNetwork interface -----------------------------------------------
  // node_handles() keeps its override: handles are join serials, so the
  // base registry sort would NOT give ascending identifier order — the
  // real-valued ring does.
  // leave / fail_* / stabilize_* are DhtNetwork's; the overlay's eager
  // repair is this class's maintenance hooks (viceroy.cpp). Viceroy
  // repairs eagerly, so even fail_ungraceful runs with graceful semantics
  // — every stored link stays fresh (paper Sec. 4.3).
  std::string name() const override { return "Viceroy"; }
  std::vector<dht::NodeHandle> node_handles() const override;
  std::vector<std::string> phase_names() const override;
  dht::NodeHandle owner_of(dht::KeyHash key) const override;
  dht::NodeHandle join(std::uint64_t seed) override;
  void route_batch(const dht::NodeHandle* froms, const dht::KeyHash* keys,
                   std::size_t count, int width, dht::LookupMetrics& sink,
                   dht::LookupResult* results, dht::BatchScratch& lanes,
                   const dht::RouterOptions& options) const override;

  /// Structural invariants: the general ring and the level rings list
  /// exactly the members, each in ascending id order; every ring handle is
  /// a member whose record has that id (and, on a level ring, that level);
  /// the last level ring is non-empty. The stored links are checked
  /// against a brute-force resolver in the tests.
  bool check_invariants() const override;

  /// Viceroy repairs both outgoing AND incoming connections on every join
  /// and leave (that is why it never times out — and why the paper calls
  /// its maintenance expensive). With accounting on, each join or leave
  /// charges 7 plus the number of other nodes whose links it rewrote; mass
  /// departures charge nothing. Off by default, which keeps the churn
  /// benchmark's digest; the maintenance bench and the churn driver turn
  /// it on.
  void enable_maintenance_accounting(bool on) { count_maintenance_ = on; }

 private:
  // Maintenance hooks (DhtNetwork's contract; dirty() keeps the no-op).
  bool repairs_eagerly() const override;
  void on_join(dht::NodeHandle node) override;
  void on_graceful_leave(dht::NodeHandle node) override;
  void on_vanish(dht::NodeHandle node) override;
  void before_pass() override;
  void refresh(dht::NodeHandle node) override;

  /// The level-`level` ring; nullptr outside [1, max_level()].
  const dht::SortedRing<double>* level_ring(int level) const;

  /// First populated level past / before `level` (numbered upwards from
  /// level 1); 0 when there is none.
  int populated_after(int level) const;
  int populated_before(int level) const;

  /// The links a node at `id` on `level` has in the current rings — the
  /// live resolver, used only for a newcomer's own links.
  ViceroyLinks resolve_links(double id, int level) const;

  /// Fill every node's links from the settled rings: one sweep of the
  /// general ring, then one sweep per level ring merged against the rings
  /// its down and up links point into. The bulk build's fill.
  void fill_links();

  /// A newcomer's own links, then the links of every other node that now
  /// resolve to it.
  void link_newcomer(dht::NodeHandle handle);

  /// Remove a node and repoint every link that resolved to it.
  void unlink(dht::NodeHandle handle);

  /// Recompute both neighbour links of the member at index `i` of `ring`.
  void relink_member(const dht::SortedRing<double>& ring, std::size_t i,
                     LinkIndex pred, LinkIndex succ);

  /// Point at `target` the down links of level - 1 whose query (own id for
  /// down-left, id + 2^-(level-1) for down-right) lies on the clockwise arc
  /// (lo, hi]; lo == hi is the full circle.
  void retarget_down(int level, double lo, double hi, ViceroyLink target);

  /// Point at `target` the up links of the first populated level past
  /// `level` whose node id lies on the arc (lo, hi].
  void retarget_up(int level, double lo, double hi, ViceroyLink target);

  /// Point link `which` of `handle` at `target`, noting the node in
  /// touched_ when its record changes.
  void set_link(dht::NodeHandle handle, LinkIndex which, ViceroyLink target);

  /// Distinct nodes in touched_: the incoming links the last join or leave
  /// repaired, counted once per node.
  std::uint64_t count_touched();

  bool count_maintenance_ = false;
  /// Set by bulk inserts: the rings are unsorted and no link is filled
  /// until before_pass.
  bool fill_pending_ = false;
  std::uint64_t next_serial_ = 0;
  /// The general ring over every node's real identifier.
  dht::SortedRing<double> ring_;
  /// levels_[l - 1] is the level-l ring; trimmed so the last is non-empty
  /// (max_level() == levels_.size()).
  std::vector<dht::SortedRing<double>> levels_;
  /// Nodes whose records the current join or leave rewrote (repeats
  /// allowed); reused across events.
  std::vector<dht::NodeHandle> touched_;
};

}  // namespace cycloid::viceroy
