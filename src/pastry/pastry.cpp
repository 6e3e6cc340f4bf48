#include "pastry/pastry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/bits.hpp"
#include "util/prefetch.hpp"

namespace cycloid::pastry {

namespace {
using dht::kNoNode;
using dht::LookupResult;
using dht::NodeHandle;
using util::circular_distance;
using util::clockwise_distance;
}  // namespace

// Pastry's maintenance hooks (header comment): joins repair the joiner's
// full state plus the leaf sets around it; graceful leaves repair the leaf
// sets around the departed identifier; mass graceful departures repair
// every node's leaf sets while routing tables and neighborhoods stay
// frozen; ungraceful departures repair nothing. A refresh recomputes leaf
// sets, routing table, and neighborhood set.

/// The leaf_half_ + 1 ring members on each side of `id`, nearest first:
/// every node whose leaf set a membership change at `id` can touch. The
/// walk stops where a ring that small wraps back to `id`, so it never
/// visits `id` itself. The ring must not be empty.
template <typename Visit>
void PastryNetwork::walk_leaf_neighbors(std::uint64_t id,
                                        Visit&& visit) const {
  std::uint64_t cursor = id;
  for (int i = 0; i <= leaf_half_; ++i) {
    cursor = ring_.predecessor(cursor);  // Pastry handles are ids
    if (cursor == id) break;
    visit(cursor);
  }
  cursor = id;
  for (int i = 0; i <= leaf_half_; ++i) {
    cursor = ring_.successor((cursor + 1) % space_size_);
    if (cursor == id) break;
    visit(cursor);
  }
}

void PastryNetwork::on_join(NodeHandle node) {
  PastryNode* state = node_of(node);
  CYCLOID_ASSERT(state != nullptr);
  compute_leaf_sets(*state);
  compute_routing_table(*state);
  compute_neighborhood(*state);
  refresh_leafsets_around(state->id);
}

void PastryNetwork::on_graceful_leave(NodeHandle node) {
  CYCLOID_EXPECTS(contains(node));
  const std::uint64_t id = node_of(node)->id;
  unlink(node);
  if (!ring_.empty()) refresh_leafsets_around(id);
}

void PastryNetwork::on_vanish(NodeHandle node) { unlink(node); }

void PastryNetwork::before_pass() { ring_.settle(); }

void PastryNetwork::repair_after_mass_leave() {
  // Graceful departures repair the leaf sets; routing tables stay frozen.
  for (std::size_t slot = 0; slot < node_count(); ++slot) {
    compute_leaf_sets(node_at(slot));
  }
}

void PastryNetwork::refresh(NodeHandle node) {
  PastryNode* state = node_of(node);
  if (state == nullptr) return;
  compute_leaf_sets(*state);
  compute_routing_table(*state);
  compute_neighborhood(*state);
}

void PastryNetwork::dirty(dht::MembershipEvent event, NodeHandle node) {
  const PastryNode* state = node_of(node);
  CYCLOID_ASSERT(state != nullptr);  // pre-unlink / post-join contract
  if (ring_.size() <= 1) return;  // nobody else references this node

  // Leaf sets: eagerly repaired for joins, graceful leaves and mass
  // departures (refresh_leafsets_around / repair_after_mass_leave); only
  // a silent vanish leaves them stale — mark the nodes the repair walk
  // would visit, taken pre-unlink.
  if (event == dht::MembershipEvent::kVanish) {
    walk_leaf_neighbors(state->id, [&](NodeHandle h) { mark_dirty(h); });
  }

  // Routing tables and neighborhood sets are never eagerly repaired, for
  // any event.
  const bool join = event == dht::MembershipEvent::kJoin;
  mark_routing_referencers(state->id, node, join);
  mark_neighborhood_referencers(*state, node, join);
}

/// X can reference the change at J in routing row r only when X shares
/// J's first r digits and differs at digit r (a sibling sub-window of
/// J's row-r prefix window), and only through the entry whose window W
/// holds J. That entry is the member of W nearest X's preferred id (X's
/// suffix placed in W), so a clean X's entry is J (departures) or J
/// ties-or-beats it (joins) only when the preferred id lies in J's
/// closed Voronoi cell in W: from the midpoint to J's nearest smaller
/// member of W (or W's lower edge) to the midpoint to its nearest larger
/// one (or W's upper edge), ties included. Each sibling sub-window's X
/// with a suffix in that cell form one ring range; the per-node test
/// runs there unchanged. A stale X outside them is already queued
/// (DESIGN.md §11, §20).
void PastryNetwork::mark_routing_referencers(std::uint64_t id,
                                             NodeHandle changed, bool join) {
  const auto& ring = ring_;
  const std::size_t self = ring.index_of(id);
  const std::uint64_t below = ring.key(ring.prev(self));
  const std::uint64_t above = ring.key(ring.next(self));
  const int columns = 1 << bits_per_digit_;
  for (int row = 0; row < rows_; ++row) {
    const int col = digit(id, row);
    const int suffix_bits =
        bits_ - (row + 1) * bits_per_digit_;
    const std::uint64_t window = 1ULL << suffix_bits;
    const std::uint64_t lo = id & ~(window - 1);  // W = [lo, lo + window)
    // J's closed cell in W, as suffix offsets. The ring neighbours are
    // J's nearest members of W when they lie in it (a wrapped neighbour
    // never does).
    const std::uint64_t first =
        below >= lo && below < id ? (below + id + 1) / 2 - lo : 0;
    const std::uint64_t last =
        above > id && above - lo < window ? (id + above) / 2 - lo
                                          : window - 1;
    const std::uint64_t prefix =
        id & ~((window << bits_per_digit_) - 1);
    for (int c = 0; c < columns; ++c) {
      if (c == col) continue;  // J's own sub-window: a deeper row
      const std::uint64_t base =
          prefix | (static_cast<std::uint64_t>(c) << suffix_bits);
      for (std::size_t i = ring.lower_bound(base + first);
           i < ring.size() && ring.key(i) <= base + last; ++i) {
        mark_if_routing_referencer(ring.handle(i), row, col,
                                   lo | (ring.key(i) & (window - 1)), id,
                                   changed, join);
      }
    }
  }
}

/// Departures matter only to an X whose stored entry is the victim
/// (removing a non-selected candidate never changes the argmin); joins
/// only to an X the newcomer ties-or-beats on gap to X's `preferred` id.
void PastryNetwork::mark_if_routing_referencer(NodeHandle referencer, int row,
                                               int col, std::uint64_t preferred,
                                               std::uint64_t id,
                                               NodeHandle changed, bool join) {
  const PastryNode* ref = node_of(referencer);
  CYCLOID_ASSERT(ref != nullptr);
  const auto& table = ref->routing_table;
  if (table.size() != static_cast<std::size_t>(rows_)) {
    mark_dirty(referencer);  // unshaped table: be conservative
    return;
  }
  const NodeHandle entry =
      table[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)];
  if (!join) {
    if (entry == changed) mark_dirty(referencer);
    return;
  }
  if (entry == kNoNode) {
    mark_dirty(referencer);
    return;
  }
  const auto gap = [preferred](std::uint64_t c) {
    return c >= preferred ? c - preferred : preferred - c;
  };
  if (gap(id) <= gap(entry)) mark_dirty(referencer);
}

/// X's neighborhood (the |M| proximity-nearest nodes) changes on a
/// departure only when it held the victim, and on a join only when the
/// set is not full yet or the newcomer ties-or-beats the current
/// farthest member. Either way a clean X with a full set lies within
/// its own |M|-th proximity of J, and so within the reach R: the hook
/// reads the grid cells covering the disc of radius R around J. A clean
/// X holds fewer than |M| nodes only when the network has at most
/// |M| + 1 nodes, which are then read whole.
void PastryNetwork::mark_neighborhood_referencers(const PastryNode& state,
                                                  NodeHandle changed,
                                                  bool join) {
  if (neighborhood_size_ == 0) return;
  const std::size_t m =
      static_cast<std::size_t>(neighborhood_size_);
  const auto& grid = grid_;
  const bool whole = node_count() <= m + 1;
  const double reach = reach_.load(std::memory_order_relaxed);
  const auto visit = [&](std::size_t cell) {
    for (const PastryNetwork::GridEntry& e : grid.bucket(cell)) {
      if (e.handle == changed) continue;
      const double prox =
          PastryNetwork::proximity(e.x, e.y, state.x, state.y);
      if (!whole && prox > reach) continue;
      mark_if_neighborhood_holder(e.handle, prox, state, changed, join, m);
    }
  };

  // The square of cells the disc of radius sqrt(R) around J overlaps:
  // on each axis, the cells of [J - sqrt(R), J + sqrt(R)] under the
  // monotone cell map (§16), read with wrap. The 1e-6 and 1e-12 margins
  // are far above the rounding of the cell map and of proximity().
  const auto side = static_cast<std::int64_t>(grid.columns());  // == rows()
  const double width = static_cast<double>(side);
  const double half = std::sqrt(reach + 1e-12);
  const auto span = [width, half](double center) {
    return std::pair<std::int64_t, std::int64_t>{
        static_cast<std::int64_t>(std::floor((center - half) * width - 1e-6)),
        static_cast<std::int64_t>(
            std::floor((center + half) * width + 1e-6))};
  };
  const auto [row_lo, row_hi] = span(state.y);
  const auto [col_lo, col_hi] = span(state.x);
  if (whole || row_hi - row_lo + 1 >= side ||
      col_hi - col_lo + 1 >= side) {  // read every cell
    for (std::size_t cell = 0; cell < grid.cell_count(); ++cell) visit(cell);
    return;
  }
  const auto wrap = [side](std::int64_t c) {
    return static_cast<std::uint32_t>((c % side + side) % side);
  };
  for (std::int64_t row = row_lo; row <= row_hi; ++row) {
    for (std::int64_t col = col_lo; col <= col_hi; ++col) {
      visit(grid.cell(wrap(col), wrap(row)));
    }
  }
}

/// `prox` is proximity(X, J). A clean X with a full set holds J, or J
/// ties-or-beats its farthest member, only when `prox` is within X's
/// own reach, so a full set that reaches less far is passed over first.
void PastryNetwork::mark_if_neighborhood_holder(NodeHandle handle,
                                                double prox,
                                                const PastryNode& state,
                                                NodeHandle changed, bool join,
                                                std::size_t m) {
  const PastryNode* other = node_of(handle);
  CYCLOID_ASSERT(other != nullptr);
  if (other->neighborhood.size() == m && prox > other->reach) return;
  if (!join) {
    if (std::find(other->neighborhood.begin(), other->neighborhood.end(),
                  changed) != other->neighborhood.end()) {
      mark_dirty(handle);
    }
    return;
  }
  if (other->neighborhood.size() < m) {
    mark_dirty(handle);
    return;
  }
  const PastryNode* farthest = node_of(other->neighborhood.back());
  if (farthest == nullptr ||  // stale entry: be conservative
      proximity(*other, state) <= proximity(*other, *farthest)) {
    mark_dirty(handle);
  }
}

PastryNetwork::PastryNetwork(int bits, int bits_per_digit, int leaf_set_size,
                             int neighborhood_size)
    : bits_(bits),
      bits_per_digit_(bits_per_digit),
      rows_(bits / bits_per_digit),
      space_size_(1ULL << bits),
      leaf_half_(leaf_set_size / 2),
      neighborhood_size_(neighborhood_size) {
  CYCLOID_EXPECTS(bits >= 2 && bits <= 32);
  CYCLOID_EXPECTS(bits_per_digit >= 1 && bits % bits_per_digit == 0);
  CYCLOID_EXPECTS(leaf_set_size >= 2 && leaf_set_size % 2 == 0);
  CYCLOID_EXPECTS(neighborhood_size >= 0);
}

std::unique_ptr<PastryNetwork> PastryNetwork::build_random(
    int bits, std::size_t count, util::Rng& rng, int bits_per_digit,
    int threads) {
  auto net = std::make_unique<PastryNetwork>(bits, bits_per_digit);
  CYCLOID_EXPECTS(count >= 1 && count <= net->space_size_);
  net->begin_bulk();
  while (net->node_count() < count) {
    net->insert(rng.below(net->space_size_), rng.uniform01(), rng.uniform01());
  }
  net->finish_bulk(threads);
  return net;
}

int PastryNetwork::digit(std::uint64_t id, int row) const {
  CYCLOID_EXPECTS(row >= 0 && row < rows_);
  const int shift = bits_ - (row + 1) * bits_per_digit_;
  return static_cast<int>((id >> shift) & ((1ULL << bits_per_digit_) - 1));
}

int PastryNetwork::shared_prefix_digits(std::uint64_t a,
                                        std::uint64_t b) const {
  for (int row = 0; row < rows_; ++row) {
    if (digit(a, row) != digit(b, row)) return row;
  }
  return rows_;
}

bool PastryNetwork::insert(std::uint64_t id, double x, double y) {
  CYCLOID_EXPECTS(id < space_size_);
  CYCLOID_EXPECTS(x >= 0.0 && x < 1.0 && y >= 0.0 && y < 1.0);
  if (contains(id)) return false;

  PastryNode& node = create_node(id);
  node.id = id;
  node.x = x;
  node.y = y;
  ring_.insert(id, id, bulk_building());
  grid_.add(grid_.cell_of(x, y), GridEntry{x, y, id});
  refit_grid();

  // Bulk construction defers derived state to finish_bulk's stabilize pass,
  // which recomputes it from final membership anyway.
  notify_joined(id);
  return true;
}

void PastryNetwork::unlink(NodeHandle handle) {
  const PastryNode& node = node_state(handle);
  grid_.remove(grid_.cell_of(node.x, node.y),
               GridEntry{node.x, node.y, handle});
  ring_.erase(handle);
  destroy_node(handle);
  refit_grid();
}

void PastryNetwork::refit_grid() {
  if (!grid_.fit(node_count())) return;
  for (std::size_t slot = 0; slot < node_count(); ++slot) {
    const PastryNode& node = node_at(slot);
    grid_.add(grid_.cell_of(node.x, node.y),
              GridEntry{node.x, node.y, node.id});
  }
}

bool PastryNetwork::check_invariants() const {
  // 1. The registry, the arena and the ring hold the same members, the ring
  //    in ascending order (a Pastry handle is its identifier).
  if (!dht::ring_matches_registry(*this, ring_)) return false;
  const std::size_t n = node_count();

  // 2. The grid files each live node exactly once, in the cell of its own
  //    coordinates, and files no departed handle.
  std::vector<std::size_t> filed(n, 0);
  for (std::size_t cell = 0; cell < grid_.cell_count(); ++cell) {
    for (const GridEntry& e : grid_.bucket(cell)) {
      const std::size_t slot = slot_of(e.handle);
      if (slot == dht::kNoSlot) return false;
      const PastryNode& node = node_at(slot);
      if (!(e == GridEntry{node.x, node.y, node.id}) ||
          cell != grid_.cell_of(node.x, node.y)) {
        return false;
      }
      ++filed[slot];
    }
  }
  if (std::any_of(filed.begin(), filed.end(),
                  [](std::size_t count) { return count != 1; })) {
    return false;
  }

  // 3. Every routing table is rows x 2^b, and 4. the network's reach covers
  //    every node's. (A stored member's coordinates cannot be re-read: its
  //    handle may name a newcomer at the departed node's identifier.)
  const double reach = reach_.load(std::memory_order_relaxed);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const PastryNode& node = node_at(slot);
    if (node.routing_table.size() != static_cast<std::size_t>(rows_)) {
      return false;
    }
    for (const std::vector<NodeHandle>& row : node.routing_table) {
      if (row.size() != std::size_t{1} << bits_per_digit_) return false;
    }
    if (node.reach > reach) return false;
  }
  return true;
}

std::vector<std::string> PastryNetwork::phase_names() const {
  return {"prefix", "leaf"};
}

NodeHandle PastryNetwork::closest_to(std::uint64_t id) const {
  CYCLOID_EXPECTS(!ring_.empty());
  // One search: the successor sits at `at` (wrapping past the top), the
  // predecessor just before it (wrapping below the bottom).
  const std::size_t at = ring_.lower_bound(id);
  const NodeHandle succ = ring_.handle(at == ring_.size() ? 0 : at);
  const NodeHandle pred = ring_.handle(ring_.prev(at));
  if (succ == pred) return succ;  // one or two nodes
  const std::uint64_t up = clockwise_distance(id, succ, space_size_);
  const std::uint64_t down = clockwise_distance(pred, id, space_size_);
  if (succ == id || up == 0) return succ;
  return up <= down ? succ : pred;  // ties go clockwise (the successor)
}

double PastryNetwork::proximity(double ax, double ay, double bx, double by) {
  // Squared Euclidean distance on the unit torus.
  const auto axis = [](double u, double v) {
    const double d = std::fabs(u - v);
    return d > 0.5 ? 1.0 - d : d;
  };
  const double dx = axis(ax, bx);
  const double dy = axis(ay, by);
  return dx * dx + dy * dy;
}

void PastryNetwork::compute_leaf_sets(PastryNode& node) {
  // Rewritten in place, so a warm node allocates nothing; any change is
  // charged once.
  bool changed = false;
  const std::size_t self = ring_.index_of(node.id);
  const auto fill = [&](std::vector<NodeHandle>& leaves, auto step) {
    leaves.reserve(static_cast<std::size_t>(leaf_half_));
    std::size_t count = 0;
    std::size_t at = self;
    for (int i = 0; i < leaf_half_; ++i) {
      at = step(at);
      if (at == self) break;  // wrapped all the way around
      const NodeHandle h = ring_.handle(at);
      if (count == leaves.size()) {
        leaves.push_back(h);
        changed = true;
      } else if (leaves[count] != h) {
        leaves[count] = h;
        changed = true;
      }
      ++count;
    }
    if (count != leaves.size()) {
      leaves.resize(count);
      changed = true;
    }
  };
  fill(node.leaf_smaller, [this](std::size_t i) { return ring_.prev(i); });
  fill(node.leaf_larger, [this](std::size_t i) { return ring_.next(i); });
  if (changed) note_maintenance();
}

void PastryNetwork::compute_routing_table(PastryNode& node) {
  note_maintenance();
  // A warm table is rewritten in place; only a newcomer's rows allocate.
  node.routing_table.resize(static_cast<std::size_t>(rows_));
  for (int row = 0; row < rows_; ++row) {
    std::vector<NodeHandle>& entries =
        node.routing_table[static_cast<std::size_t>(row)];
    entries.assign(std::size_t{1} << bits_per_digit_, kNoNode);
    const int own = digit(node.id, row);
    const int suffix_bits = bits_ - (row + 1) * bits_per_digit_;
    for (int col = 0; col < (1 << bits_per_digit_); ++col) {
      if (col == own) continue;
      // Identifiers sharing the first `row` digits with node.id and having
      // digit `col` at position `row` form a contiguous window.
      const std::uint64_t prefix =
          (node.id >> (suffix_bits + bits_per_digit_))
              << (suffix_bits + bits_per_digit_);
      const std::uint64_t base =
          prefix | (static_cast<std::uint64_t>(col) << suffix_bits);
      const std::uint64_t window = 1ULL << suffix_bits;
      // Prefer the participant whose suffix matches the node's own.
      const std::uint64_t preferred =
          base | (node.id & (window - 1));
      entries[static_cast<std::size_t>(col)] =
          ring_.nearest_in(base, base + window, preferred);
    }
  }
}

void PastryNetwork::compute_neighborhood(PastryNode& node) {
  node.neighborhood.clear();
  node.reach = 0.0;
  if (neighborhood_size_ == 0) return;
  // The first |M| other nodes in (proximity, handle) order, found by an
  // expanding ring of grid cells around the node's own (DESIGN.md §16).
  // One ranking buffer per thread (refresh runs on the stabilize workers),
  // so a warm search allocates nothing.
  const std::size_t keep = static_cast<std::size_t>(neighborhood_size_);
  thread_local std::vector<std::pair<double, NodeHandle>> best;  // ascending
  best.clear();
  best.reserve(keep + 1);
  const auto visit = [&](std::uint32_t column, std::uint32_t row) {
    for (const GridEntry& e : grid_.bucket(grid_.cell(column, row))) {
      if (e.handle == node.id) continue;
      const std::pair<double, NodeHandle> cand{
          proximity(node.x, node.y, e.x, e.y), e.handle};
      if (best.size() == keep && !(cand < best.back())) continue;
      best.insert(std::upper_bound(best.begin(), best.end(), cand), cand);
      if (best.size() > keep) best.pop_back();
    }
  };

  // Ring r is the cells at Chebyshev distance r from the node's cell. Once
  // rings 0..r are read, every unread node lies at least r cell widths away
  // on some axis: stop when the |M|-th best is strictly nearer than that
  // bound (its 1e-6 margin absorbs rounding), so exact ties are still read.
  const auto side = static_cast<std::int64_t>(grid_.columns());  // == rows()
  const std::int64_t cx = grid_.column_of(node.x);
  const std::int64_t cy = grid_.row_of(node.y);
  const auto cell = [side](std::int64_t c, std::int64_t offset) {
    return static_cast<std::uint32_t>((c + side + offset) % side);
  };
  bool done = false;
  for (std::int64_t r = 0; !done && 2 * r + 1 <= side; ++r) {
    for (std::int64_t i = -r; i <= r; ++i) {
      visit(cell(cx, i), cell(cy, -r));
      if (r > 0) visit(cell(cx, i), cell(cy, r));
    }
    for (std::int64_t i = 1 - r; i < r; ++i) {
      visit(cell(cx, -r), cell(cy, i));
      visit(cell(cx, r), cell(cy, i));
    }
    const double gap =
        (static_cast<double>(r) - 1e-6) / static_cast<double>(side);
    done = r > 0 && best.size() == keep && best.back().first < gap * gap;
  }
  if (!done) {  // the next ring would wrap the torus: read every cell
    best.clear();
    for (std::uint32_t row = 0; row < grid_.rows(); ++row) {
      for (std::uint32_t column = 0; column < grid_.columns(); ++column) {
        visit(column, row);
      }
    }
  }
  node.neighborhood.reserve(best.size());
  for (const auto& [distance, handle] : best) {
    node.neighborhood.push_back(handle);
  }
  if (best.size() == keep) {
    node.reach = best.back().first;
    fold_reach(node.reach);
  }
}

void PastryNetwork::fold_reach(double proximity) {
  double seen = reach_.load(std::memory_order_relaxed);
  while (seen < proximity &&
         !reach_.compare_exchange_weak(seen, proximity,
                                       std::memory_order_relaxed)) {
  }
}

void PastryNetwork::refresh_leafsets_around(std::uint64_t id) {
  walk_leaf_neighbors(id, [&](NodeHandle handle) {
    PastryNode* node = node_of(handle);
    CYCLOID_ASSERT(node != nullptr);
    compute_leaf_sets(*node);
  });
}

bool PastryNetwork::key_in_leaf_range(const PastryNode& node,
                                      std::uint64_t key) const {
  if (node.leaf_smaller.empty() || node.leaf_larger.empty()) return true;
  if (node.leaf_smaller.size() < static_cast<std::size_t>(leaf_half_) ||
      node.leaf_larger.size() < static_cast<std::size_t>(leaf_half_)) {
    return true;  // leaf sets cover the whole (tiny) network
  }
  const std::uint64_t lo = node.leaf_smaller.back();
  const std::uint64_t hi = node.leaf_larger.back();
  const std::uint64_t span = clockwise_distance(lo, hi, space_size_);
  return clockwise_distance(lo, key, space_size_) <= span;
}

NodeHandle PastryNetwork::owner_of(dht::KeyHash key) const {
  return closest_to(key % space_size_);
}

namespace {

/// Pastry's step policy: correct one digit per hop via the routing table,
/// finish numerically within the leaf set. Prefix hops strictly extend the
/// shared prefix and leaf hops strictly reduce numeric distance, so routing
/// terminates; the engine's fallback budget is a safety net that forces
/// pure (provably monotone) leaf descent if a pathological alternation
/// between the two phases were ever to arise.
class PastryStepPolicy {
 public:
  PastryStepPolicy(const PastryNetwork& net, std::uint64_t target)
      : net_(net), target_(target) {}

  bool alive(NodeHandle node) const { return net_.contains(node); }
  std::size_t slot_of(NodeHandle node) const { return net_.slot_of(node); }
  int default_max_hops() const { return 8 * net_.bits(); }
  int fallback_budget() const { return 8 * net_.digit_count() + 64; }

  void prefetch(std::size_t slot) const { net_.prefetch_node(slot); }
  void prefetch_tables(std::size_t slot) const {
    // Stage 2: warm the leaf sets (both halves get scanned by best_leaf)
    // and the routing table's row headers (the row picked depends on the
    // key, so the header vector is the common line).
    const PastryNode& cur = net_.node_at(slot);
    util::prefetch_lines(cur.leaf_smaller.data(),
                         cur.leaf_smaller.size() * sizeof(NodeHandle));
    util::prefetch_lines(cur.leaf_larger.data(),
                         cur.leaf_larger.size() * sizeof(NodeHandle));
    util::prefetch_lines(cur.routing_table.data(),
                         cur.routing_table.size() *
                             sizeof(std::vector<NodeHandle>));
  }

  dht::HopDecision next_hop(const dht::RouteState& state) {
    const std::uint64_t space = net_.space_size();
    const PastryNode& cur = net_.node_at(state.current_slot());
    if (cur.id == target_) return dht::HopDecision::deliver();

    // Strictly-improving leaf-set candidate under the numeric metric.
    const auto best_leaf = [&]() -> NodeHandle {
      std::uint64_t best_dist = circular_distance(cur.id, target_, space);
      const std::uint64_t cur_cw = clockwise_distance(target_, cur.id, space);
      NodeHandle best = kNoNode;
      const auto consider = [&](const std::vector<NodeHandle>& entries) {
        for (const NodeHandle h : entries) {
          // Stale after ungraceful failures.
          if (!state.attempt(*this, h)) continue;
          const std::uint64_t dist = circular_distance(h, target_, space);
          const std::uint64_t cand_cw = clockwise_distance(target_, h, space);
          if (dist < best_dist ||
              (dist == best_dist && cand_cw < cur_cw && best == kNoNode)) {
            best_dist = dist;
            best = h;
          }
        }
      };
      consider(cur.leaf_smaller);
      consider(cur.leaf_larger);
      return best;
    };

    // Leaf-set phase: numeric greedy within the leaf span.
    if (state.fallback() || net_.key_in_leaf_range(cur, target_)) {
      const NodeHandle leaf = best_leaf();
      if (leaf == kNoNode) {
        return dht::HopDecision::deliver();  // cur is numerically closest
      }
      return dht::HopDecision::forward(leaf, PastryNetwork::kLeaf,
                                       "leaf-set");
    }

    // Prefix phase: correct the next digit via the routing table.
    const int row = net_.shared_prefix_digits(cur.id, target_);
    CYCLOID_ASSERT(row < net_.digit_count());
    const NodeHandle entry =
        cur.routing_table[static_cast<std::size_t>(row)]
                         [static_cast<std::size_t>(net_.digit(target_, row))];
    if (entry != kNoNode && state.attempt(*this, entry)) {
      return dht::HopDecision::forward(entry, PastryNetwork::kPrefix,
                                       "prefix");
    }

    // Rare case: no usable routing entry. Forward to any known node that
    // shares at least as long a prefix and is numerically closer.
    NodeHandle best = kNoNode;
    std::uint64_t best_dist = circular_distance(cur.id, target_, space);
    const auto consider = [&](NodeHandle h) {
      if (h == kNoNode || h == cur.id) return;
      if (!state.attempt(*this, h)) return;
      if (net_.shared_prefix_digits(h, target_) < row) return;
      const std::uint64_t dist = circular_distance(h, target_, space);
      if (dist < best_dist) {
        best_dist = dist;
        best = h;
      }
    };
    for (const NodeHandle h : cur.leaf_smaller) consider(h);
    for (const NodeHandle h : cur.leaf_larger) consider(h);
    for (const NodeHandle h : cur.neighborhood) consider(h);
    for (const auto& table_row : cur.routing_table) {
      for (const NodeHandle h : table_row) consider(h);
    }
    if (best != kNoNode) {
      return dht::HopDecision::forward(best, PastryNetwork::kPrefix,
                                       "rare-case");
    }

    // Fall back to pure numeric leaf descent.
    const NodeHandle leaf = best_leaf();
    if (leaf == kNoNode) return dht::HopDecision::deliver();
    return dht::HopDecision::forward(leaf, PastryNetwork::kLeaf,
                                     "leaf-fallback");
  }

 private:
  const PastryNetwork& net_;
  const std::uint64_t target_;
};
static_assert(dht::StepPolicy<PastryStepPolicy>);

}  // namespace

void PastryNetwork::route_batch(const NodeHandle* froms,
                                const dht::KeyHash* keys,
                                std::size_t count, int width,
                                dht::LookupMetrics& sink,
                                LookupResult* results,
                                dht::BatchScratch& lanes,
                                const dht::RouterOptions& options) const {
  dht::Router::route_batch(froms, keys, count, width, sink, results, lanes,
                           options, [this](NodeHandle from, dht::KeyHash key) {
                             CYCLOID_EXPECTS(contains(from));
                             return PastryStepPolicy(*this, key % space_size_);
                           });
}

NodeHandle PastryNetwork::join(std::uint64_t seed) {
  const std::uint64_t h = util::mix64(seed);
  const std::uint64_t id = h % space_size_;
  util::Rng coord_rng(h);
  if (!insert(id, coord_rng.uniform01(), coord_rng.uniform01())) {
    return kNoNode;
  }
  return id;
}

}  // namespace cycloid::pastry
