#include "koorde/koorde.hpp"

#include <algorithm>

#include "util/bits.hpp"
#include "util/prefetch.hpp"

namespace cycloid::koorde {

namespace {
using dht::kNoNode;
using dht::LookupResult;
using dht::NodeHandle;
using util::clockwise_distance;
using util::in_half_open_cw;
}  // namespace

// Koorde's maintenance hooks (paper Sec. 4.3): joins and graceful leaves
// repair the successor structure around the affected identifier; mass
// graceful departures repair every node's ring state but leave de Bruijn
// pointers frozen; ungraceful departures repair nothing. A refresh
// recomputes the full node state (ring + de Bruijn pointer + backups).

void KoordeNetwork::on_join(NodeHandle node) {
  KoordeNode* state = node_of(node);
  CYCLOID_ASSERT(state != nullptr);
  compute_state(*state);
  refresh_ring_around(node);  // handles are ids
}

void KoordeNetwork::on_graceful_leave(NodeHandle node) {
  unlink(node);
  refresh_ring_around(node);
}

void KoordeNetwork::repair_after_mass_leave() {
  // Graceful departures repair the ring; de Bruijn pointers stay frozen.
  note_maintenance(relink_all());
}

void KoordeNetwork::refresh(NodeHandle node) {
  KoordeNode* state = node_of(node);
  if (state == nullptr) return;
  compute_state(*state);
}

void KoordeNetwork::dirty(dht::MembershipEvent event, NodeHandle node) {
  CYCLOID_ASSERT(contains(node));  // pre-unlink / post-join contract
  if (ring().size() <= 1) return;  // nobody else references this node
  mark_ring(event, node);

  // De Bruijn pointers + backups are never eagerly repaired, for any
  // event. X's structure is the backup_count + 1 members at-or-before
  // t = (X.id << shift_bits) mod space walking backwards, so it contains
  // J exactly when t lies in [J, hi) — hi being the (backup_count + 1)-th
  // member strictly after J.
  const std::uint64_t id = node;
  std::uint64_t hi = id;
  for (int b = 0; b <= backup_count_; ++b) {
    hi = ring().successor((hi + 1) % space_size());
    if (hi == id) {  // walked the full (tiny) ring: everyone references J
      for (const NodeHandle h : ring().handles()) mark_dirty(h);
      return;
    }
  }
  mark_preimage(id, hi);
}

/// Mark every ring member X whose de Bruijn target (X.id << shift_bits)
/// mod space lies in the circular interval [lo, hi). Targets are exactly
/// the multiples of 2^shift_bits with the top shift_bits of X.id dropped,
/// so each non-wrapping piece [a, b) inverts to one X.id range
/// [ceil(a/2^s), ceil(b/2^s)) per choice of the dropped top digit.
void KoordeNetwork::mark_preimage(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t space = space_size();
  const auto& ring = this->ring();
  const auto mark_piece = [&](std::uint64_t a, std::uint64_t b) {
    if (a >= b) return;
    const int s = shift_bits_;
    const std::uint64_t r_lo = (a + (1ULL << s) - 1) >> s;
    const std::uint64_t r_hi = (b + (1ULL << s) - 1) >> s;
    if (r_lo >= r_hi) return;
    const std::uint64_t digits = 1ULL << s;
    const std::uint64_t stride = space >> s;
    for (std::uint64_t c = 0; c < digits; ++c) {
      const std::uint64_t from = c * stride + r_lo;
      const std::uint64_t to = c * stride + r_hi;
      for (std::size_t i = ring.lower_bound(from);
           i < ring.size() && ring.key(i) < to; ++i) {
        mark_dirty(ring.handle(i));
      }
    }
  };
  if (lo < hi) {
    mark_piece(lo, hi);
  } else {
    mark_piece(lo, space);
    mark_piece(0, hi);
  }
}

KoordeNetwork::KoordeNetwork(int bits, int backup_count, int shift_bits)
    : SuccessorRing(bits),
      backup_count_(backup_count),
      shift_bits_(shift_bits) {
  CYCLOID_EXPECTS(backup_count >= 0);
  // Identifiers are read as whole base-2^shift_bits digit strings.
  CYCLOID_EXPECTS(shift_bits >= 1 && bits % shift_bits == 0);
}

std::unique_ptr<KoordeNetwork> KoordeNetwork::build_random(int bits,
                                                           std::size_t count,
                                                           util::Rng& rng,
                                                           int threads) {
  auto net = std::make_unique<KoordeNetwork>(bits);
  net->populate_random(count, rng, threads);
  return net;
}

std::unique_ptr<KoordeNetwork> KoordeNetwork::build_complete(int bits,
                                                             int threads) {
  auto net = std::make_unique<KoordeNetwork>(bits);
  net->populate_complete(threads);
  return net;
}

std::vector<std::string> KoordeNetwork::phase_names() const {
  return {"debruijn", "successor"};
}

void KoordeNetwork::compute_state(KoordeNode& node) {
  // One update when the ring links changed; a new de Bruijn pointer or
  // backup list is never charged (CHANGES.md FOUND: charging it would
  // move the maintenance goldens).
  if (relink(node)) note_maintenance();

  // First de Bruijn node: the live node at or immediately preceding
  // 2^shift_bits * m (2m for the classic degree-2 graph).
  const std::uint64_t db_target = (node.id << shift_bits_) % space_size();
  node.de_bruijn = ring().predecessor_incl(db_target);
  node.db_backups.clear();
  std::uint64_t walk = node.de_bruijn;
  for (int b = 0; b < backup_count_; ++b) {
    walk = ring().predecessor(walk);
    node.db_backups.push_back(walk);
  }
  node.db_broken = false;
}

void KoordeNetwork::refresh_ring_around(std::uint64_t id) {
  // Only the members before `id` are charged: the member after it gets a
  // new predecessor for free (CHANGES.md FOUND: charging it would move the
  // maintenance goldens and churn-2e11's digest).
  note_maintenance(relink_around(id).before);
}

KoordeNetwork::ImaginaryStart KoordeNetwork::best_start(
    const KoordeNode& node, std::uint64_t key) const {
  const std::uint64_t mask = space_size() - 1;
  // First live successor (later entries only matter after ungraceful
  // departures); with none alive, fall through to the trivial start — the
  // lookup loop will detect the dead ring and fail.
  const KoordeNode* succ = nullptr;
  for (const NodeHandle sh : node.successors) {
    succ = node_of(sh);
    if (succ != nullptr) break;
  }
  if (succ == nullptr) return ImaginaryStart{node.id, key & mask, bits()};
  const std::uint64_t start = node.id;
  const std::uint64_t span =
      clockwise_distance(node.id, succ->id, space_size());

  // Largest t such that some imaginary node in [node, successor) — the
  // imaginary range this node is the real predecessor of — already has the
  // key's top t bits as its low t bits; the remaining bits - t key bits
  // are injected MSB-first, one shift_bits-wide digit per de Bruijn hop.
  // t is restricted to whole digits so the injection stays aligned (t = 0
  // always qualifies, since shift_bits divides bits).
  const auto make_start = [&](std::uint64_t imaginary, int t) {
    const std::uint64_t inject = t >= bits() ? 0 : ((key << t) & mask);
    return ImaginaryStart{imaginary, inject, bits(),
                          (bits() - t) / shift_bits_};
  };
  for (int t = bits(); t >= 0; --t) {
    if ((bits() - t) % shift_bits_ != 0) continue;
    const std::uint64_t pattern = t == 0 ? 0 : key >> (bits() - t);
    const std::uint64_t t_mask = t == 0 ? 0 : ((t == 64 ? ~0ULL : (1ULL << t) - 1));
    const std::uint64_t offset = (pattern - start) & t_mask;
    const std::uint64_t candidate = (start + offset) & mask;
    if (clockwise_distance(node.id, candidate, space_size()) < span) {
      return make_start(candidate, t);
    }
  }
  // Reached only in a singleton ring (span 0), where the source owns the key.
  return make_start(start, 0);
}

namespace {

/// Koorde's step policy: walk the imaginary de Bruijn path through real
/// predecessors, falling back to the successor ring. The per-lookup
/// ImaginaryStart register lives in the policy; de Bruijn pointer repairs
/// go through the engine's resolve_chain (sink-recorded promotions).
class KoordeStepPolicy {
 public:
  KoordeStepPolicy(const KoordeNetwork& net, std::uint64_t target,
                   KoordeNetwork::ImaginaryStart path)
      : net_(net), target_(target), path_(path) {}

  bool alive(NodeHandle node) const { return net_.contains(node); }
  std::size_t slot_of(NodeHandle node) const { return net_.slot_of(node); }
  int default_max_hops() const { return 8 * net_.bits(); }

  void prefetch(std::size_t slot) const { net_.prefetch_node(slot); }
  void prefetch_tables(std::size_t slot) const {
    // Stage 2 (the successor list sits in the record stage 1 fetched):
    // warm the de Bruijn backups resolve_chain walks past a dead pointer.
    const KoordeNode& cur = net_.node_at(slot);
    util::prefetch_lines(cur.db_backups.data(),
                         cur.db_backups.size() * sizeof(NodeHandle));
  }

  dht::HopDecision next_hop(const dht::RouteState& state) {
    const std::uint64_t space = net_.space_size();
    const std::uint64_t mask = space - 1;
    const int shift = net_.shift_bits();
    const KoordeNode& cur = net_.node_at(state.current_slot());

    // A de Bruijn step whose real predecessor is the current node itself is
    // a local digit injection, not a message: loop here until a decision
    // actually moves the request (or terminates it).
    for (;;) {
      // Owner check: target in (predecessor, cur].
      if (cur.predecessor == cur.id ||
          in_half_open_cw(target_, cur.predecessor, cur.id, space)) {
        return dht::HopDecision::deliver();
      }

      NodeHandle succ = kNoNode;
      for (const NodeHandle sh : cur.successors) {
        if (state.attempt(*this, sh)) {
          succ = sh;
          break;
        }
      }
      if (succ == kNoNode) {
        // Whole successor list dead (ungraceful mass departure): the
        // lookup ends here and counts as delivered, so only the owner check
        // can flag it; the timeouts charged by the scan above are its
        // observable cost. The conformance goldens pin this outcome.
        return dht::HopDecision::deliver();
      }
      // Final step: the sender's view decides (see chord.cpp) — the
      // successor's stale predecessor must not bounce the key.
      if (in_half_open_cw(target_, cur.id, succ, space)) {
        return dht::HopDecision::forward_deliver(
            succ, KoordeNetwork::kSuccessor, "successor");
      }

      if (path_.steps > 0 &&
          clockwise_distance(cur.id, path_.imaginary, space) <
              clockwise_distance(cur.id, succ, space)) {
        // Walk one de Bruijn edge: shift the imaginary node left by the
        // digit width, injecting the next shift_bits key bits, and move to
        // the real predecessor via the pointer (backups consulted through
        // the sink's learned repairs).
        const NodeHandle db = state.resolve_chain(
            *this, cur.id, cur.de_bruijn, cur.db_backups, cur.db_broken);
        if (db == kNoNode) return dht::HopDecision::fail();
        const std::uint64_t digit =
            (path_.kshift >> (path_.window - shift)) & ((1ULL << shift) - 1);
        path_.imaginary = ((path_.imaginary << shift) | digit) & mask;
        path_.kshift =
            (path_.kshift << shift) &
            (path_.window == 64 ? ~0ULL : (1ULL << path_.window) - 1);
        --path_.steps;
        if (db != cur.id) {
          return dht::HopDecision::forward(db, KoordeNetwork::kDeBruijn,
                                           "de-bruijn");
        }
        continue;  // self-hop: stay local, inject the next digit
      }

      // Imaginary node (or, once steps exhaust, the key itself) lies beyond
      // the successor: advance along the ring.
      return dht::HopDecision::forward(succ, KoordeNetwork::kSuccessor,
                                       "successor");
    }
  }

 private:
  const KoordeNetwork& net_;
  const std::uint64_t target_;
  KoordeNetwork::ImaginaryStart path_;
};
static_assert(dht::StepPolicy<KoordeStepPolicy>);

}  // namespace

void KoordeNetwork::route_batch(const NodeHandle* froms,
                                const dht::KeyHash* keys,
                                std::size_t count, int width,
                                dht::LookupMetrics& sink,
                                LookupResult* results,
                                dht::BatchScratch& lanes,
                                const dht::RouterOptions& options) const {
  // Koorde is the one overlay whose hop loop WRITES the shared sink:
  // resolve_chain records backup promotions (learn_link) and dead chains
  // (mark_broken), and later lookups in the same batch read them. Lane
  // interleaving would reorder those writes relative to the sequential
  // schedule, so while stale entries exist — the only state in which
  // resolve_chain ever writes — the batch degrades to width 1 (exactly the
  // sequential schedule). On a repaired network the chain resolves to the
  // primary pointer without touching the sink, and full interleaving is
  // observably identical.
  if (has_stale_entries()) width = 1;
  dht::Router::route_batch(
      froms, keys, count, width, sink, results, lanes, options,
      [this](NodeHandle from, dht::KeyHash key) {
        const KoordeNode* source = node_of(from);
        CYCLOID_EXPECTS(source != nullptr);
        const std::uint64_t target = key & (space_size() - 1);
        return KoordeStepPolicy(*this, target, best_start(*source, target));
      });
}

void KoordeNetwork::apply_repairs(const dht::LookupMetrics& batch) {
  for (const auto& [handle, promoted] : batch.learned_links()) {
    KoordeNode* node = node_of(handle);
    if (node == nullptr || node->de_bruijn == promoted) continue;
    const auto it = std::find(node->db_backups.begin(),
                              node->db_backups.end(), promoted);
    if (it == node->db_backups.end()) continue;  // stale learning
    node->de_bruijn = promoted;  // promote; consumed entries are dropped
    node->db_backups.erase(node->db_backups.begin(), it + 1);
    note_maintenance();
    // Lookup-learned mutation outside any membership event: a batch can be
    // absorbed after the event that caused the damage was already drained,
    // so re-queue the node for the next incremental pass.
    mark_dirty(handle);
  }
  for (const NodeHandle handle : batch.broken_links()) {
    KoordeNode* node = node_of(handle);
    if (node == nullptr || node->db_broken) continue;
    node->db_broken = true;
    note_maintenance();
    mark_dirty(handle);
  }
}

}  // namespace cycloid::koorde
