#include "can/can.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/contracts.hpp"
#include "util/prefetch.hpp"

namespace cycloid::can {

namespace {
using dht::kNoNode;
using dht::LookupResult;
using dht::NodeHandle;

bool intervals_overlap(const Interval& a, const Interval& b) {
  return a.lo < b.hi && b.lo < a.hi;
}

bool intervals_abut_torus(const Interval& a, const Interval& b) {
  if (a.hi == b.lo || b.hi == a.lo) return true;
  // Torus wrap: [x, 1) abuts [0, y).
  if (a.hi == 1.0 && b.lo == 0.0) return true;
  if (b.hi == 1.0 && a.lo == 0.0) return true;
  return false;
}

double torus_axis_distance(double x, const Interval& iv) {
  if (x >= iv.lo && x < iv.hi) return 0.0;
  // Distance to the nearer edge, the short way around the circle.
  const auto circ = [](double a, double b) {
    const double d = std::fabs(a - b);
    return d > 0.5 ? 1.0 - d : d;
  };
  return std::min(circ(x, iv.lo), circ(x, iv.hi));
}

/// Axis `d` of the routing-table entry starting at `entry`.
Interval entry_span(const std::uint64_t* entry, int d) {
  const auto i = static_cast<std::size_t>(2 * d);
  return Interval{std::bit_cast<double>(entry[1 + i]),
                  std::bit_cast<double>(entry[2 + i])};
}

}  // namespace

// CAN's maintenance hooks: zone handovers keep all state fresh, so CAN
// repairs eagerly and every departure semantics funnels into the graceful
// takeover rule. Join repair is inseparable from the zone split itself
// (join_at splits and relinks in one motion), so on_join has nothing left
// to do; a refresh re-attempts coalescing of fragmented zones.

bool CanNetwork::repairs_eagerly() const { return true; }

void CanNetwork::on_join(NodeHandle) {}

void CanNetwork::on_graceful_leave(NodeHandle node) {
  depart_gracefully(node);
}

void CanNetwork::on_vanish(NodeHandle node) {
  // CAN has no stale-state model; even a "vanished" node's zones must go
  // somewhere, so this too runs the takeover rule. It is also the
  // per-victim step of a mass departure: sequential takeovers (CAN repairs
  // zone ownership as part of departure, so no state goes stale).
  depart_gracefully(node);
}

void CanNetwork::refresh(NodeHandle node) {
  // Zone handovers keep all state fresh; nothing to repair. Use the pass
  // to re-attempt coalescing of fragmented zones (node-local: coalesce
  // only merges the node's own zone list and never changes its grid
  // footprint, so the parallel pass stays race-free).
  if (CanNode* state = node_of(node)) coalesce(*state);
}

void CanNetwork::dirty(dht::MembershipEvent, NodeHandle node) {
  // Adjacency and zone ownership are repaired eagerly; refresh only
  // coalesces a node's own zone list. The only zone lists an event
  // changes are the subject's and its neighbours' (the split owner on a
  // join, the takeover heir on a departure are both adjacent), so mark
  // exactly that patch.
  const CanNode* state = node_of(node);
  CYCLOID_ASSERT(state != nullptr);  // pre-unlink / post-join contract
  mark_dirty(node);
  for (const NodeHandle n : neighbors_of(*state)) mark_dirty(n);
}

CanNetwork::CanNetwork(int dims) : dims_(dims), grid_(std::min(dims, 2)) {
  CYCLOID_EXPECTS(dims >= 1 && dims <= kMaxDims);
}

std::unique_ptr<CanNetwork> CanNetwork::build_random(std::size_t count,
                                                     util::Rng& rng,
                                                     int dims,
                                                     int threads) {
  auto net = std::make_unique<CanNetwork>(dims);
  CYCLOID_EXPECTS(count >= 1);
  // Bulk brackets for uniformity with the other builders; zone splits are
  // final state (nothing deferred), and the coalesce pass finds no buddy
  // pairs on a fresh build.
  net->begin_bulk();
  while (net->node_count() < count) {
    Point p{};
    for (int d = 0; d < dims; ++d) p[static_cast<std::size_t>(d)] = rng.uniform01();
    net->join_at(p);
  }
  net->finish_bulk(threads);
  return net;
}

Point CanNetwork::point_from_hash(dht::KeyHash key) const {
  // Slice the 64-bit hash into dims_ coordinates of 64/dims_ bits each.
  Point p{};
  const int slice = 64 / dims_;
  for (int d = 0; d < dims_; ++d) {
    const std::uint64_t chunk =
        (key >> (d * slice)) & ((slice == 64 ? ~0ULL : (1ULL << slice) - 1));
    p[static_cast<std::size_t>(d)] =
        static_cast<double>(chunk) / std::ldexp(1.0, slice);
  }
  return p;
}

double CanNetwork::volume_of(NodeHandle handle) const {
  const CanNode& node = node_state(handle);
  double volume = 0.0;
  for (const Zone& zone : node.zones) {
    double v = 1.0;
    for (int d = 0; d < dims_; ++d) {
      const Interval& iv = zone.span[static_cast<std::size_t>(d)];
      v *= iv.hi - iv.lo;
    }
    volume += v;
  }
  return volume;
}

bool CanNetwork::zone_contains(const Zone& zone, const Point& p) const {
  for (int d = 0; d < dims_; ++d) {
    const Interval& iv = zone.span[static_cast<std::size_t>(d)];
    const double x = p[static_cast<std::size_t>(d)];
    if (x < iv.lo || x >= iv.hi) return false;
  }
  return true;
}

double CanNetwork::zone_distance2(const Zone& zone, const Point& p) const {
  double total = 0.0;
  for (int d = 0; d < dims_; ++d) {
    const double axis = torus_axis_distance(p[static_cast<std::size_t>(d)],
                                            zone.span[static_cast<std::size_t>(d)]);
    total += axis * axis;
  }
  return total;
}

double CanNetwork::node_distance2(const CanNode& node, const Point& p) const {
  double best = 4.0;
  for (const Zone& zone : node.zones) {
    best = std::min(best, zone_distance2(zone, p));
  }
  return best;
}

double CanNetwork::entry_distance2(const std::uint64_t* entry,
                                   const Point& p) const {
  double total = 0.0;
  for (int d = 0; d < dims_; ++d) {
    const double axis = torus_axis_distance(p[static_cast<std::size_t>(d)],
                                            entry_span(entry, d));
    total += axis * axis;
  }
  return total;
}

std::vector<NodeHandle> CanNetwork::neighbors_of(const CanNode& node) const {
  std::vector<NodeHandle> handles;
  for (std::size_t at = 0; at < node.table.size(); at += entry_words()) {
    if (handles.empty() || handles.back() != node.table[at]) {
      handles.push_back(node.table[at]);
    }
  }
  return handles;
}

void CanNetwork::append_entries(std::vector<std::uint64_t>& table,
                                NodeHandle neighbor,
                                const CanNode& other) const {
  for (const Zone& zone : other.zones) {
    table.push_back(neighbor);
    for (int d = 0; d < dims_; ++d) {
      const Interval& iv = zone.span[static_cast<std::size_t>(d)];
      table.push_back(std::bit_cast<std::uint64_t>(iv.lo));
      table.push_back(std::bit_cast<std::uint64_t>(iv.hi));
    }
  }
}

void CanNetwork::insert_entries(CanNode& node, NodeHandle neighbor,
                                const CanNode& other) const {
  std::vector<std::uint64_t>& table = node.table;
  std::size_t at = 0;
  while (at < table.size() && table[at] < neighbor) at += entry_words();
  CYCLOID_ASSERT(at == table.size() || table[at] != neighbor);
  std::vector<std::uint64_t> entries;
  append_entries(entries, neighbor, other);
  // reserve() grows to exactly the requested size, where insert() alone
  // would double the capacity.
  table.reserve(table.size() + entries.size());
  table.insert(table.begin() + static_cast<std::ptrdiff_t>(at),
               entries.begin(), entries.end());
}

void CanNetwork::erase_entries(CanNode& node, NodeHandle neighbor) const {
  std::vector<std::uint64_t>& table = node.table;
  std::size_t first = 0;
  while (first < table.size() && table[first] < neighbor) {
    first += entry_words();
  }
  std::size_t last = first;
  while (last < table.size() && table[last] == neighbor) last += entry_words();
  table.erase(table.begin() + static_cast<std::ptrdiff_t>(first),
              table.begin() + static_cast<std::ptrdiff_t>(last));
}

bool CanNetwork::zones_adjacent(const Zone& a, const Zone& b) const {
  int overlapping = 0;
  int abutting = 0;
  for (int d = 0; d < dims_; ++d) {
    const Interval& x = a.span[static_cast<std::size_t>(d)];
    const Interval& y = b.span[static_cast<std::size_t>(d)];
    if (intervals_overlap(x, y)) {
      ++overlapping;
    } else if (intervals_abut_torus(x, y)) {
      ++abutting;
    } else {
      return false;  // separated in this dimension: not contiguous
    }
  }
  return overlapping == dims_ - 1 && abutting == 1;
}

bool CanNetwork::nodes_adjacent(const CanNode& a, const CanNode& b) const {
  for (const Zone& za : a.zones) {
    for (const Zone& zb : b.zones) {
      if (zones_adjacent(za, zb)) return true;
    }
  }
  return false;
}

NodeHandle CanNetwork::node_owning(const Point& p) const {
  for (const NodeHandle h : grid_.bucket(grid_.cell_of(p[0], p[1]))) {
    if (node_owns_point(node_state(h), p)) return h;
  }
  CYCLOID_ASSERT(node_count() == 0);  // zones tile the torus
  return kNoNode;
}

std::vector<std::size_t> CanNetwork::footprint(const CanNode& node) const {
  // Axis 1 of a one-dimensional network is the default [0, 1) interval,
  // which spans the grid's single row.
  std::vector<std::size_t> cells;
  for (const Zone& zone : node.zones) {
    const auto columns = grid_.column_span(zone.span[0].lo, zone.span[0].hi);
    const auto rows = grid_.row_span(zone.span[1].lo, zone.span[1].hi);
    for (std::uint32_t row = rows.first; row <= rows.last; ++row) {
      for (std::uint32_t column = columns.first; column <= columns.last;
           ++column) {
        cells.push_back(grid_.cell(column, row));
      }
    }
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

void CanNetwork::relist(NodeHandle handle,
                        const std::vector<std::size_t>& before,
                        const std::vector<std::size_t>& after) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < before.size() || j < after.size()) {
    if (j == after.size() || (i < before.size() && before[i] < after[j])) {
      grid_.remove(before[i++], handle);
    } else if (i == before.size() || after[j] < before[i]) {
      grid_.add(after[j++], handle);
    } else {
      ++i;
      ++j;
    }
  }
}

void CanNetwork::refit_grid() {
  // A zone's projection onto the two gridded axes covers about n^(-2/dims)
  // of the square, so n^(2/dims) projections tile it: fitting the grid to
  // that count keeps every zone in O(1) cells at any dimension.
  const double n = static_cast<double>(node_count());
  const auto members = static_cast<std::size_t>(
      dims_ <= 2 ? n : std::round(std::pow(n, 2.0 / dims_)));
  if (!grid_.fit(members)) return;
  for (std::size_t slot = 0; slot < node_count(); ++slot) {
    relist(handle_at(slot), {}, footprint(node_at(slot)));
  }
}

void CanNetwork::relink(NodeHandle handle,
                        const std::vector<NodeHandle>& candidates) {
  CanNode* node = node_of(handle);
  CYCLOID_ASSERT(node != nullptr);
  // Every candidate is probed for adjacency: one exchange per candidate.
  note_maintenance(candidates.size());
  // Drop this node's entries from its previous neighbours' tables, then
  // re-evaluate adjacency against the candidate set. Each adjacent pair
  // copies the other's current zones: the candidate's into this node's
  // table, this node's into the candidate's.
  for (const NodeHandle old : neighbors_of(*node)) {
    if (CanNode* other = node_of(old)) erase_entries(*other, handle);
  }
  std::vector<std::pair<NodeHandle, const CanNode*>> adjacent;
  std::size_t words = 0;
  for (const NodeHandle cand : candidates) {
    if (cand == handle) continue;
    CanNode* other = node_of(cand);
    if (other == nullptr) continue;
    if (nodes_adjacent(*node, *other)) {
      adjacent.emplace_back(cand, other);
      words += other->zones.size() * entry_words();
      insert_entries(*other, handle, *node);
    }
  }
  // One allocation of exactly the table's size: growing it by push_back
  // and shrinking it afterwards raised churn-2e11's peak RSS by 3.7%
  // (DESIGN.md §18). Candidates ascend, so appending keeps it sorted.
  std::vector<std::uint64_t> table;
  table.reserve(words);
  for (const auto& [neighbor, other] : adjacent) {
    append_entries(table, neighbor, *other);
  }
  node->table = std::move(table);
}

void CanNetwork::coalesce(CanNode& node) const {
  bool merged = true;
  while (merged && node.zones.size() > 1) {
    merged = false;
    for (std::size_t i = 0; i < node.zones.size() && !merged; ++i) {
      for (std::size_t j = i + 1; j < node.zones.size() && !merged; ++j) {
        // Perfect buddies: identical in all dimensions except one in which
        // they abut exactly (no torus wrap — the union must stay a box).
        int differing = -1;
        bool buddies = true;
        for (int d = 0; d < dims_ && buddies; ++d) {
          const Interval& x = node.zones[i].span[static_cast<std::size_t>(d)];
          const Interval& y = node.zones[j].span[static_cast<std::size_t>(d)];
          if (x == y) continue;
          if (differing != -1) {
            buddies = false;
          } else if (x.hi == y.lo || y.hi == x.lo) {
            differing = d;
          } else {
            buddies = false;
          }
        }
        if (!buddies || differing == -1) continue;
        Interval& x = node.zones[i].span[static_cast<std::size_t>(differing)];
        const Interval& y =
            node.zones[j].span[static_cast<std::size_t>(differing)];
        x = Interval{std::min(x.lo, y.lo), std::max(x.hi, y.hi)};
        node.zones.erase(node.zones.begin() + static_cast<std::ptrdiff_t>(j));
        merged = true;
      }
    }
  }
}

NodeHandle CanNetwork::join_at(const Point& point) {
  const NodeHandle handle = next_serial_++;

  if (node_count() == 0) {
    Zone all{};
    for (int d = 0; d < dims_; ++d) {
      all.span[static_cast<std::size_t>(d)] = Interval{0.0, 1.0};
    }
    CanNode& node = create_node(handle);
    node.zones.push_back(all);
    relist(handle, {}, footprint(node));
    refit_grid();
    notify_joined(handle);
    return handle;
  }

  // Split the zone containing the point along its longest side; the half
  // containing the point goes to the newcomer. All owner state is read and
  // mutated BEFORE create_node: the arena may reallocate on emplace, so no
  // pointer into it can be held across the insertion.
  const NodeHandle owner_handle = node_owning(point);
  CanNode* owner = node_of(owner_handle);
  CYCLOID_ASSERT(owner != nullptr);
  std::size_t zone_index = 0;
  for (std::size_t z = 0; z < owner->zones.size(); ++z) {
    if (zone_contains(owner->zones[z], point)) {
      zone_index = z;
      break;
    }
  }
  const std::vector<std::size_t> owner_cells = footprint(*owner);
  Zone& zone = owner->zones[zone_index];
  int split_dim = 0;
  double longest = -1.0;
  for (int d = 0; d < dims_; ++d) {
    const Interval& iv = zone.span[static_cast<std::size_t>(d)];
    if (iv.hi - iv.lo > longest) {
      longest = iv.hi - iv.lo;
      split_dim = d;
    }
  }
  Interval& iv = zone.span[static_cast<std::size_t>(split_dim)];
  const double mid = iv.lo + (iv.hi - iv.lo) / 2.0;
  Zone new_zone = zone;
  if (point[static_cast<std::size_t>(split_dim)] < mid) {
    new_zone.span[static_cast<std::size_t>(split_dim)] = Interval{iv.lo, mid};
    iv.lo = mid;
  } else {
    new_zone.span[static_cast<std::size_t>(split_dim)] = Interval{mid, iv.hi};
    iv.hi = mid;
  }

  relist(owner_handle, owner_cells, footprint(*owner));

  // Adjacency can only change among the owner's old neighbourhood. The
  // newcomer's serial exceeds every live handle, so it sorts last.
  std::vector<NodeHandle> candidates = neighbors_of(*owner);
  candidates.insert(
      std::lower_bound(candidates.begin(), candidates.end(), owner_handle),
      owner_handle);
  candidates.push_back(handle);
  owner = nullptr;  // invalidated by the emplace below

  CanNode& node = create_node(handle);
  node.zones.push_back(new_zone);
  relist(handle, {}, footprint(node));
  relink(handle, candidates);
  relink(owner_handle, candidates);
  refit_grid();
  notify_joined(handle);
  return handle;
}

void CanNetwork::unlink(NodeHandle handle) {
  CanNode* node = node_of(handle);
  CYCLOID_EXPECTS(node != nullptr);
  for (const NodeHandle n : neighbors_of(*node)) {
    if (CanNode* other = node_of(n)) erase_entries(*other, handle);
  }
  relist(handle, footprint(*node), {});
  destroy_node(handle);
  refit_grid();
}

std::vector<std::string> CanNetwork::phase_names() const { return {"greedy"}; }

NodeHandle CanNetwork::owner_of(dht::KeyHash key) const {
  return node_owning(point_from_hash(key));
}

bool CanNetwork::node_owns_point(NodeHandle handle, const Point& p) const {
  return node_owns_point(node_state(handle), p);
}

bool CanNetwork::node_owns_point(const CanNode& node, const Point& p) const {
  for (const Zone& zone : node.zones) {
    if (zone_contains(zone, p)) return true;
  }
  return false;
}

namespace {

/// CAN's step policy: greedily forward to the neighbour whose zone is
/// nearest the target point. Zones tile the torus, so the zone across the
/// face toward the target is a neighbour and is strictly nearer — greedy
/// routing converges. The engine's visited tracking only matters in the
/// measure-zero case where the geodesic exits exactly through a corner (the
/// diagonal zone is not a neighbour); an equal-distance sidestep then
/// restores progress. A hop reads the current record and its routing
/// table: a neighbour's distance is the minimum over its cached boxes,
/// which equals the distance to its zones even when the boxes are a finer
/// tiling (DESIGN.md §18).
class CanStepPolicy {
 public:
  CanStepPolicy(const CanNetwork& net, const Point& target)
      : net_(net), target_(target) {}

  std::size_t slot_of(NodeHandle node) const { return net_.slot_of(node); }
  /// Continuous identifier space: 8 * the 64 bits of the key hash.
  int default_max_hops() const { return 8 * 64; }
  bool track_visited() const { return true; }

  void prefetch_tables(std::size_t slot) const {
    // One hint (DESIGN.md §14): pull in the two blocks next_hop reads
    // behind the record, the routing table and the node's own zones. A
    // stage-1 record prefetch on top measured under 5%.
    const CanNode& cur = net_.node_at(slot);
    util::prefetch_lines(cur.table.data(),
                         cur.table.size() * sizeof(std::uint64_t));
    util::prefetch_lines(cur.zones.data(), cur.zones.size() * sizeof(Zone));
  }

  dht::HopDecision next_hop(const dht::RouteState& state) {
    const CanNode& cur = net_.node_at(state.current_slot());
    if (net_.node_owns_point(cur, target_)) {
      return dht::HopDecision::deliver();
    }

    NodeHandle best = kNoNode;
    const double cur_dist = net_.node_distance2(cur, target_);
    double best_dist = cur_dist;
    NodeHandle side = kNoNode;
    const std::size_t stride = net_.entry_words();
    const std::uint64_t* entry = cur.table.data();
    const std::uint64_t* const end = entry + cur.table.size();
    while (entry != end) {
      const NodeHandle n = *entry;
      double dist = 4.0;  // node_distance2's start value
      do {
        dist = std::min(dist, net_.entry_distance2(entry, target_));
        entry += stride;
      } while (entry != end && *entry == n);
      if (dist < best_dist) {
        best_dist = dist;
        best = n;
      } else if (dist == cur_dist && side == kNoNode &&
                 !state.was_visited(n)) {
        side = n;
      }
    }
    if (best == kNoNode && side != kNoNode) best = side;
    if (best == kNoNode) {
      return dht::HopDecision::fail();  // stuck (should not happen)
    }
    return dht::HopDecision::forward(best, CanNetwork::kGreedy, "neighbor");
  }

 private:
  const CanNetwork& net_;
  const Point target_;
};
static_assert(dht::StepPolicy<CanStepPolicy>);

}  // namespace

void CanNetwork::route_batch(const NodeHandle* froms,
                             const dht::KeyHash* keys, std::size_t count,
                             int width, dht::LookupMetrics& sink,
                             LookupResult* results,
                             dht::BatchScratch& lanes,
                             const dht::RouterOptions& options) const {
  dht::Router::route_batch(froms, keys, count, width, sink, results, lanes,
                           options, [this](NodeHandle from, dht::KeyHash key) {
                             CYCLOID_EXPECTS(contains(from));
                             return CanStepPolicy(*this, point_from_hash(key));
                           });
}

NodeHandle CanNetwork::join(std::uint64_t seed) {
  return join_at(point_from_hash(util::mix64(seed)));
}

void CanNetwork::depart_gracefully(NodeHandle node) {
  CanNode* leaver = node_of(node);
  CYCLOID_EXPECTS(leaver != nullptr);
  if (node_count() == 1) {
    unlink(node);
    return;
  }

  // Hand every zone to the smallest-volume neighbour (the CAN takeover
  // rule), then let it merge perfect buddies back together. Volumes come
  // from each neighbour's own record, not the leaver's cached boxes: a sum
  // over a finer copy need not be bit-identical.
  const std::vector<NodeHandle> leaver_neighbors = neighbors_of(*leaver);
  NodeHandle heir = kNoNode;
  double heir_volume = 2.0;
  for (const NodeHandle n : leaver_neighbors) {
    const double volume = volume_of(n);
    if (volume < heir_volume) {
      heir_volume = volume;
      heir = n;
    }
  }
  CYCLOID_ASSERT(heir != kNoNode);  // zones tile: every node has neighbours
  CanNode* recipient = node_of(heir);

  std::vector<NodeHandle> candidates = leaver_neighbors;
  for (const NodeHandle n : neighbors_of(*recipient)) candidates.push_back(n);
  candidates.push_back(heir);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  const std::vector<std::size_t> heir_cells = footprint(*recipient);
  for (const Zone& zone : leaver->zones) recipient->zones.push_back(zone);
  coalesce(*recipient);
  relist(heir, heir_cells, footprint(*recipient));
  unlink(node);
  std::erase(candidates, node);
  relink(heir, candidates);
}

bool CanNetwork::check_invariants() const {
  // 0. The grid lists each live node once in each cell of its footprint,
  //    and lists no departed node.
  std::vector<std::vector<std::size_t>> listed(node_count());
  for (std::size_t cell = 0; cell < grid_.cell_count(); ++cell) {
    for (const NodeHandle h : grid_.bucket(cell)) {
      const std::size_t slot = slot_of(h);
      if (slot == kNoSlot) return false;
      listed[slot].push_back(cell);
    }
  }
  for (std::size_t slot = 0; slot < node_count(); ++slot) {
    if (listed[slot] != footprint(node_at(slot))) return false;
  }

  // 1. Zone volumes sum to 1 (the zones tile the torus).
  double total = 0.0;
  for (std::size_t slot = 0; slot < node_count(); ++slot) {
    total += volume_of(handle_at(slot));
  }
  if (node_count() == 0) return true;
  if (std::fabs(total - 1.0) > 1e-9) return false;

  // 2. Each routing table lists exactly the node's geometric neighbours,
  //    in ascending handle order (so the tables are symmetric).
  const std::size_t stride = entry_words();
  for (std::size_t sa = 0; sa < node_count(); ++sa) {
    const CanNode& a = node_at(sa);
    if (a.table.size() % stride != 0) return false;
    for (std::size_t at = stride; at < a.table.size(); at += stride) {
      if (a.table[at] < a.table[at - stride]) return false;
    }
    std::vector<NodeHandle> geometric;
    for (std::size_t sb = 0; sb < node_count(); ++sb) {
      if (sa != sb && nodes_adjacent(a, node_at(sb))) {
        geometric.push_back(handle_at(sb));
      }
    }
    std::sort(geometric.begin(), geometric.end());
    if (neighbors_of(a) != geometric) return false;
  }

  // 3. Each neighbour's cached boxes tile its zones: every box lies inside
  //    one of them, no two overlap, and their volumes sum to the
  //    neighbour's. A coalesce leaves a finer copy, so the boxes need not
  //    equal the zones (DESIGN.md §18); all bounds are dyadic, so the
  //    volume sums are exact.
  const auto inside = [&](const std::uint64_t* box, const Zone& zone) {
    for (int d = 0; d < dims_; ++d) {
      const Interval iv = entry_span(box, d);
      const Interval& outer = zone.span[static_cast<std::size_t>(d)];
      if (iv.lo < outer.lo || iv.hi > outer.hi || !(iv.lo < iv.hi)) {
        return false;
      }
    }
    return true;
  };
  const auto overlap = [&](const std::uint64_t* x, const std::uint64_t* y) {
    for (int d = 0; d < dims_; ++d) {
      if (!intervals_overlap(entry_span(x, d), entry_span(y, d))) return false;
    }
    return true;
  };
  for (std::size_t sa = 0; sa < node_count(); ++sa) {
    const std::vector<std::uint64_t>& table = node_at(sa).table;
    for (std::size_t first = 0; first < table.size();) {
      const NodeHandle n = table[first];
      const CanNode& other = node_state(n);
      std::size_t last = first;
      double volume = 0.0;
      for (; last < table.size() && table[last] == n; last += stride) {
        const std::uint64_t* box = &table[last];
        if (std::none_of(other.zones.begin(), other.zones.end(),
                         [&](const Zone& z) { return inside(box, z); })) {
          return false;
        }
        for (std::size_t prior = first; prior < last; prior += stride) {
          if (overlap(&table[prior], box)) return false;
        }
        double v = 1.0;
        for (int d = 0; d < dims_; ++d) {
          const Interval iv = entry_span(box, d);
          v *= iv.hi - iv.lo;
        }
        volume += v;
      }
      if (volume != volume_of(n)) return false;
      first = last;
    }
  }
  return true;
}

}  // namespace cycloid::can
