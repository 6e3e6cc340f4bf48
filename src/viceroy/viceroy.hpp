// Viceroy (Malkhi, Naor & Ratajczak 2002) — the butterfly constant-degree
// DHT.
//
// Every node has a real identifier uniformly drawn from [0, 1) and a
// butterfly level drawn uniformly from [1, log n0] at join time (n0 = the
// size estimate when it joined). A node's seven links are its general-ring
// predecessor/successor, its level-ring neighbours, two down links into
// level l+1 (down-left near its own id, down-right near id + 2^-l), and one
// up link into level l-1. Keys are stored at their successor on the general
// ring. Routing ascends to level 1, descends down the butterfly, then
// traverses via level-ring / ring pointers (paper Sec. 2.5).
//
// Maintenance model: Viceroy nodes notify both outgoing AND incoming
// connections on arrival/departure, so every link is always fresh and no
// lookup ever hits a departed node (zero timeouts — paper Sec. 4.3). We
// model that by resolving links from the live membership at use time; the
// cost of that eager repair is what the paper's conclusion criticizes, not
// something the hop counts measure.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dht/arena.hpp"
#include "dht/network.hpp"
#include "dht/sorted_ring.hpp"
#include "util/rng.hpp"

namespace cycloid::viceroy {

struct ViceroyNode {
  double id = 0.0;
  int level = 1;
};

/// Snapshot of a node's seven links, resolved from the live membership.
struct ViceroyLinks {
  dht::NodeHandle ring_pred = dht::kNoNode;
  dht::NodeHandle ring_succ = dht::kNoNode;
  dht::NodeHandle level_prev = dht::kNoNode;
  dht::NodeHandle level_next = dht::kNoNode;
  dht::NodeHandle down_left = dht::kNoNode;
  dht::NodeHandle down_right = dht::kNoNode;
  dht::NodeHandle up = dht::kNoNode;
};

class ViceroyNetwork final : public dht::ArenaNetwork<ViceroyNode> {
 public:
  ViceroyNetwork();

  /// A network of `count` nodes with uniform-random identifiers and levels
  /// drawn from [1, log2(count)]. `threads` sizes the finish_bulk stabilize
  /// pass, a no-op here (links resolve from live membership at use time) —
  /// accepted for builder-signature uniformity across the overlays.
  static std::unique_ptr<ViceroyNetwork> build_random(std::size_t count,
                                                      util::Rng& rng,
                                                      int threads = 1);

  /// Direct insertion; false when the identifier collides. While
  /// bulk-building the unsorted rings cannot be probed, so a collision is
  /// not reported: SortedRing::settle() traps on it at finish_bulk.
  bool insert(double id, int level);

  // node_state/node_of/node_at come from dht::ArenaNetwork<ViceroyNode>.
  ViceroyLinks links_of(dht::NodeHandle handle) const;

  /// Current highest populated butterfly level.
  int max_level() const noexcept;

  enum Phase : std::size_t { kAscend = 0, kDescend = 1, kRing = 2 };

  // DhtNetwork interface -----------------------------------------------
  // node_handles() keeps its override: handles are join serials, so the
  // base registry sort would NOT give ascending identifier order — the
  // real-valued ring does.
  // leave / fail_* / stabilize_* are engine-owned (dht::Maintainer); the
  // overlay's eager-repair accounting lives in ViceroyMaintenancePolicy
  // (viceroy.cpp). The policy repairs eagerly, so even fail_ungraceful runs
  // with graceful semantics — links always resolve fresh (paper Sec. 4.3).
  std::string name() const override { return "Viceroy"; }
  std::vector<dht::NodeHandle> node_handles() const override;
  std::vector<std::string> phase_names() const override;
  dht::NodeHandle owner_of(dht::KeyHash key) const override;
  dht::NodeHandle join(std::uint64_t seed) override;

  /// Viceroy repairs both outgoing AND incoming connections on every join
  /// and leave (that is why it never times out — and why the paper calls
  /// its maintenance expensive). Counting the incoming side requires
  /// scanning the membership, so it is off by default; the maintenance
  /// bench turns it on.
  void enable_maintenance_accounting(bool on) { count_maintenance_ = on; }

 private:
  friend class ViceroyMaintenancePolicy;

  void route_batch_impl(const dht::NodeHandle* froms, const dht::KeyHash* keys,
                        std::size_t count, int width, dht::LookupMetrics& sink,
                        dht::LookupResult* results, dht::BatchScratch& lanes,
                        const dht::RouterOptions& options) const override;

  /// First node of `level` clockwise at-or-after `id` (kNoNode if empty).
  dht::NodeHandle level_successor(int level, double id) const;

  void unlink(dht::NodeHandle handle);

  /// Nodes whose resolved links reference `handle` (incoming connections).
  std::uint64_t count_referencers(dht::NodeHandle handle) const;

  bool count_maintenance_ = false;
  std::uint64_t next_serial_ = 0;
  /// The general ring over every node's real identifier.
  dht::SortedRing<double> ring_;
  /// levels_[l - 1] is the level-l ring; trimmed so the last is non-empty
  /// (max_level() == levels_.size()).
  std::vector<dht::SortedRing<double>> levels_;
};

}  // namespace cycloid::viceroy
