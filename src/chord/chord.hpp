// Chord (Stoica et al. 2003) — the O(log n)-degree reference DHT.
//
// The Cycloid paper includes Chord in every experiment as the
// non-constant-degree baseline. This implementation follows the paper's
// simulation setup: an m-bit circular identifier space, finger tables with
// m entries (finger[i] = successor(id + 2^i)), a successor list for ring
// robustness, and greedy closest-preceding-finger routing. Keys are stored
// at their successor. Graceful leaves repair the successor structure
// immediately; fingers go stale until stabilization.
//
// The ring itself (membership, the successor list and its repair walk, the
// owner oracle) is dht::SuccessorRing, shared with Koorde; this class adds
// the fingers, the step policy and what each repair is charged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dht/network.hpp"
#include "dht/successor_ring.hpp"
#include "util/rng.hpp"

namespace cycloid::chord {

struct ChordNode : dht::RingNode {
  /// fingers[i] targets successor(id + 2^i); may be stale between
  /// stabilizations.
  std::vector<dht::NodeHandle> fingers;
};

class ChordNetwork final : public dht::SuccessorRing<ChordNode> {
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

  // bits/space_size/insert/join/owner_of/check_invariants come from
  // dht::SuccessorRing, node_state/node_of/node_at from dht::ArenaNetwork.

  /// Routing-phase slots in LookupResult::phase_hops.
  enum Phase : std::size_t { kFinger = 0, kSuccessor = 1 };

  // DhtNetwork interface -----------------------------------------------
  // node_handles() uses the base registry implementation (handle == id, so
  // ascending handle order is the ring order — also the engine's departure
  // sampling order). leave / fail_* / stabilize_* are DhtNetwork's; the
  // repair logic is this class's maintenance hooks (chord.cpp).
  std::string name() const override { return "Chord"; }
  std::vector<std::string> phase_names() const override;
  void route_batch(const dht::NodeHandle* froms, const dht::KeyHash* keys,
                   std::size_t count, int width, dht::LookupMetrics& sink,
                   dht::LookupResult* results, dht::BatchScratch& lanes,
                   const dht::RouterOptions& options) const override;

 private:
  // Maintenance hooks (DhtNetwork's contract; before_pass and on_vanish
  // are dht::SuccessorRing's).
  void on_join(dht::NodeHandle node) override;
  void on_graceful_leave(dht::NodeHandle node) override;
  void repair_after_mass_leave() override;
  void refresh(dht::NodeHandle node) override;
  void dirty(dht::MembershipEvent event, dht::NodeHandle node) override;
  /// Mark every ring member whose id lies in the circular interval
  /// (lo, hi].
  void mark_members(std::uint64_t lo, std::uint64_t hi);

  /// Recompute `node`'s ring links and fingers; one update when any changed.
  void compute_state(ChordNode& node);
  /// The ring repair around a join or leave at identifier `id`, charged.
  void refresh_ring_around(std::uint64_t id);
};

}  // namespace cycloid::chord
