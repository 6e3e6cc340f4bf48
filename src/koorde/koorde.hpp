// Koorde (Kaashoek & Karger 2003) — the de Bruijn constant-degree DHT.
//
// Koorde embeds a degree-2 de Bruijn graph on a Chord-like identifier ring:
// node m's "first de Bruijn node" is the live predecessor of 2m, and a
// lookup walks the (possibly imaginary) de Bruijn path toward the key,
// stepping through the real predecessor of each imaginary node. Following
// the Cycloid paper's experimental setup (Sec. 4), each node keeps seven
// entries: one de Bruijn pointer, three successors, and the three immediate
// predecessors of the de Bruijn node as backups. Keys live at their
// successor.
//
// Failure model (paper Sec. 4.3): graceful leaves repair the successor
// structure; de Bruijn pointers go stale. On the first timeout a node
// promotes a live backup to be its de Bruijn pointer — the backups exist
// for exactly this — so repeated traffic does not re-time-out; when the
// pointer and all backups are dead the lookup *fails*, which is the
// behaviour behind the paper's Koorde failure counts. Since the routing
// core is const, a lookup records the promotion it learned into its
// LookupMetrics sink (later lookups through the same sink see it), and
// apply_repairs() writes it back into the node when the sink is absorbed.
//
// The successor ring itself (membership, the successor list and its repair
// walk, the owner oracle) is dht::SuccessorRing, shared with Chord; this
// class adds the de Bruijn pointer and backups, the step policy and what
// each repair is charged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dht/network.hpp"
#include "dht/successor_ring.hpp"
#include "util/rng.hpp"

namespace cycloid::koorde {

struct KoordeNode : dht::RingNode {
  dht::NodeHandle de_bruijn = dht::kNoNode;     // may be stale
  std::vector<dht::NodeHandle> db_backups;      // 3 predecessors of de_bruijn
  bool db_broken = false;  // pointer and all backups found dead
};

class KoordeNetwork final : public dht::SuccessorRing<KoordeNode> {
 public:
  /// `shift_bits` selects the de Bruijn degree 2^shift_bits: each de Bruijn
  /// hop corrects shift_bits bits of the key, so lookups take ~bits/shift_bits
  /// de Bruijn steps at the cost of... nothing in a simulator, but in a real
  /// deployment each node must know the predecessors of 2^shift_bits
  /// positions — the routing-table/hop-count trade-off the Cycloid paper
  /// notes Koorde offers. shift_bits = 1 is the classic degree-2 Koorde
  /// used throughout the paper reproduction.
  explicit KoordeNetwork(int bits, int backup_count = 3, int shift_bits = 1);

  int shift_bits() const noexcept { return shift_bits_; }

  /// Bulk mode: membership first, then one stabilize pass over `threads`
  /// workers — byte-identical to the incremental build.
  static std::unique_ptr<KoordeNetwork> build_random(int bits,
                                                     std::size_t count,
                                                     util::Rng& rng,
                                                     int threads = 1);
  static std::unique_ptr<KoordeNetwork> build_complete(int bits,
                                                       int threads = 1);

  // bits/space_size/insert/join/owner_of/check_invariants come from
  // dht::SuccessorRing, node_state/node_of/node_at from dht::ArenaNetwork.

  enum Phase : std::size_t { kDeBruijn = 0, kSuccessor = 1 };

  /// Choose the best imaginary starting node i in (node, successor] — the
  /// one whose low-order bits already match the key's high-order bits — and
  /// return it together with the number of de Bruijn steps still needed and
  /// the pre-shifted key (Koorde paper Sec. 3's optimization). Public so the
  /// step policy can seed its per-lookup path register.
  struct ImaginaryStart {
    std::uint64_t imaginary = 0;
    /// Remaining key bits to inject, MSB-first in a `window`-bit register
    /// (zero-padded at the top so the length is a whole number of
    /// shift_bits-wide digits; the padding shifts out harmlessly).
    std::uint64_t kshift = 0;
    int window = 0;  ///< register width in bits
    int steps = 0;   ///< de Bruijn steps remaining
  };
  ImaginaryStart best_start(const KoordeNode& node, std::uint64_t key) const;

  // DhtNetwork interface -----------------------------------------------
  // leave / fail_* / stabilize_* are DhtNetwork's; the overlay's repair
  // logic is this class's maintenance hooks (koorde.cpp).
  std::string name() const override { return "Koorde"; }
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
  /// Apply the backup promotions a batch of const lookups learned: the
  /// repair-on-timeout mutation, deferred out of the routing core.
  void apply_repairs(const dht::LookupMetrics& batch) override;
  /// Mark the ring members whose de Bruijn target lies in [lo, hi).
  void mark_preimage(std::uint64_t lo, std::uint64_t hi);

  /// Recompute `node`'s ring links, de Bruijn pointer and backups; one
  /// update when the ring links changed.
  void compute_state(KoordeNode& node);
  /// The ring repair around a join or leave at identifier `id`, charged.
  void refresh_ring_around(std::uint64_t id);

  int backup_count_;
  int shift_bits_;
};

}  // namespace cycloid::koorde
