// Chord (Stoica et al. 2003) — the O(log n)-degree reference DHT.
//
// The Cycloid paper includes Chord in every experiment as the
// non-constant-degree baseline. This implementation follows the paper's
// simulation setup: an m-bit circular identifier space, finger tables with
// m entries (finger[i] = successor(id + 2^i)), a successor list for ring
// robustness, and greedy closest-preceding-finger routing. Keys are stored
// at their successor. Graceful leaves repair the successor structure
// immediately; fingers go stale until stabilization.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dht/arena.hpp"
#include "dht/network.hpp"
#include "dht/sorted_ring.hpp"
#include "util/rng.hpp"

namespace cycloid::chord {

struct ChordNode {
  std::uint64_t id = 0;
  dht::NodeHandle predecessor = dht::kNoNode;
  /// successors[0] is the immediate successor; kept alive by eager repair.
  std::vector<dht::NodeHandle> successors;
  /// fingers[i] targets successor(id + 2^i); may be stale between
  /// stabilizations.
  std::vector<dht::NodeHandle> fingers;
};

class ChordNetwork final : public dht::ArenaNetwork<ChordNode> {
 public:
  /// An empty network over a 2^bits identifier space.
  explicit ChordNetwork(int bits, int successor_list_length = 3);

  /// A network of `count` nodes at distinct uniform-random identifiers
  /// (bulk mode: membership first, then one stabilize pass over `threads`
  /// workers — byte-identical to the incremental build).
  static std::unique_ptr<ChordNetwork> build_random(int bits,
                                                    std::size_t count,
                                                    util::Rng& rng,
                                                    int successor_list_length = 3,
                                                    int threads = 1);

  /// The complete network: every identifier populated (used for the paper's
  /// dense path-length experiments).
  static std::unique_ptr<ChordNetwork> build_complete(int bits,
                                                      int threads = 1);

  int bits() const noexcept { return bits_; }
  std::uint64_t space_size() const noexcept { return space_size_; }

  /// Direct insertion at a specific identifier (false if occupied).
  bool insert(std::uint64_t id);

  // node_state/node_of/node_at come from dht::ArenaNetwork<ChordNode>.

  /// Routing-phase slots in LookupResult::phase_hops.
  enum Phase : std::size_t { kFinger = 0, kSuccessor = 1 };

  // DhtNetwork interface -----------------------------------------------
  // node_handles() uses the base registry implementation (handle == id, so
  // ascending handle order is the ring order — also the engine's departure
  // sampling order). leave / fail_* / stabilize_* are DhtNetwork's; the
  // repair logic is this class's maintenance hooks (chord.cpp).
  std::string name() const override { return "Chord"; }
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
  void repair_after_mass_leave() override;
  void refresh(dht::NodeHandle node) override;
  void before_pass() override;
  void dirty(dht::MembershipEvent event, dht::NodeHandle node) override;
  /// Mark every ring member whose id lies in the circular interval
  /// (lo, hi].
  void mark_members(std::uint64_t lo, std::uint64_t hi);

  /// Set `node`'s predecessor and successor list from the live ring.
  void link_ring(ChordNode& node) const;
  void compute_state(ChordNode& node);
  /// Repair successor lists / predecessors in the ring neighbourhood of a
  /// join or leave at identifier `id`.
  void refresh_ring_around(std::uint64_t id);
  void unlink(dht::NodeHandle handle);

  int bits_;
  std::uint64_t space_size_;
  int successor_list_length_;

  /// Live identifiers (id == handle), the ground truth behind owner_of and
  /// every state recompute.
  dht::SortedRing<std::uint64_t> ring_;
};

}  // namespace cycloid::chord
