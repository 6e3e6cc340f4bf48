// Fuzz-style property tests: long randomized operation sequences against
// every overlay, with correctness invariants checked continuously. These
// are the tests that shake out protocol-repair bugs the targeted suites
// miss (e.g. a leaf set not repaired after an unusual join/leave order).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "can/can.hpp"
#include "core/network.hpp"
#include "dht/store.hpp"
#include "exp/overlays.hpp"
#include "hash/keys.hpp"
#include "overlay_state_compare.hpp"
#include "pastry/pastry.hpp"
#include "util/rng.hpp"
#include "viceroy_reference.hpp"

namespace cycloid::exp {
namespace {

using dht::kNoNode;
using dht::NodeHandle;

class FuzzTest : public ::testing::TestWithParam<OverlayKind> {};

TEST_P(FuzzTest, RandomOperationSoup) {
  // Mix joins, leaves, graceful mass departures, stabilization, and
  // lookups in random order; after every operation a lookup must resolve
  // to the live owner (after stabilization where the protocol requires it).
  auto net = make_sparse_overlay(GetParam(), 7, 120, 0xf00d);
  util::Rng rng(0xfeed);
  int stale = 0;  // operations since the last full stabilization

  for (int op = 0; op < 400; ++op) {
    switch (rng.below(8)) {
      case 0:
      case 1:
        net->join(rng());
        ++stale;
        break;
      case 2:
        if (net->node_count() > 16) {
          net->leave(net->random_node(rng));
          ++stale;
        }
        break;
      case 3:
        if (op % 37 == 0 && net->node_count() > 64) {
          net->fail_simultaneously(0.1, rng);
          ++stale;
        }
        break;
      case 4:
        net->stabilize_one(net->random_node(rng));
        break;
      case 5:
        net->stabilize_all();
        stale = 0;
        break;
      default:
        break;
    }

    // Correctness invariant: lookups resolve to the ground-truth owner.
    // (Koorde needs fresh de Bruijn pointers for a hard guarantee, so it is
    // only held to it right after stabilization.)
    // Route through a fresh sink and absorb it, so Koorde's lookup-learned
    // promotions reach the network between ops.
    const dht::KeyHash key = rng();
    dht::LookupMetrics sink;
    const dht::LookupResult result =
        net->lookup(net->random_node(rng), key, sink);
    net->absorb(sink);
    if (GetParam() != OverlayKind::kKoorde || stale == 0) {
      ASSERT_TRUE(result.success) << "op " << op;
      ASSERT_EQ(result.destination, net->owner_of(key)) << "op " << op;
    }
    ASSERT_LE(result.hops, 512) << "runaway lookup at op " << op;
  }
}

TEST_P(FuzzTest, StoreModelCheck) {
  // DhtStore against a plain std::map reference model through churn.
  auto net = make_sparse_overlay(GetParam(), 6, 80, 0xcafe);
  dht::DhtStore store(*net, 2);
  std::map<std::string, std::string> model;
  util::Rng rng(0xbead);

  for (int op = 0; op < 300; ++op) {
    const std::string key = "k" + std::to_string(rng.below(64));
    switch (rng.below(4)) {
      case 0: {
        const std::string value = "v" + std::to_string(op);
        store.put(key, value);
        model[key] = value;
        break;
      }
      case 1: {
        EXPECT_EQ(store.erase(key), model.erase(key) > 0);
        break;
      }
      case 2: {
        if (rng.chance(0.3)) {
          if (rng.chance(0.5) && net->node_count() > 10) {
            net->leave(net->random_node(rng));
          } else {
            net->join(rng());
          }
          net->stabilize_all();
          store.rebalance();
        }
        break;
      }
      default: {
        const auto expected = model.find(key);
        const auto actual = store.get(key);
        if (expected == model.end()) {
          EXPECT_EQ(actual, std::nullopt) << "op " << op;
        } else {
          EXPECT_EQ(actual, expected->second) << "op " << op;
        }
        break;
      }
    }
  }
  EXPECT_EQ(store.key_count(), model.size());
}

// Owner of `key` by an O(n) scan of node_handles(): the answer each ring
// overlay's owner_of (a query on its dht::SortedRing) and CAN's (a query on
// its ownership grid) must agree with. Chord, Koorde and Pastry handles are
// their identifiers.
NodeHandle brute_force_owner(exp::OverlayKind kind, const dht::DhtNetwork& net,
                             dht::KeyHash key) {
  NodeHandle best = kNoNode;
  std::uint64_t best_rank = ~0ULL;  // unique per node: no ties
  const auto consider = [&](NodeHandle handle, std::uint64_t rank) {
    if (rank < best_rank) {
      best_rank = rank;
      best = handle;
    }
  };
  switch (kind) {
    case OverlayKind::kCycloid7:
    case OverlayKind::kCycloid11: {
      const auto& ccc_net = dynamic_cast<const ccc::CycloidNetwork&>(net);
      const ccc::CccId target = ccc_net.key_id(key);
      for (const NodeHandle h : net.node_handles()) {
        consider(h, ccc_net.space().closeness_rank(
                        target, ccc::CycloidNetwork::id_of(h)));
      }
      break;
    }
    case OverlayKind::kChord:
    case OverlayKind::kKoorde:
    case OverlayKind::kPastry: {
      const std::uint64_t space =
          kind == OverlayKind::kChord
              ? dynamic_cast<const chord::ChordNetwork&>(net).space_size()
          : kind == OverlayKind::kKoorde
              ? dynamic_cast<const koorde::KoordeNetwork&>(net).space_size()
              : dynamic_cast<const pastry::PastryNetwork&>(net).space_size();
      const std::uint64_t target = key % space;
      for (const NodeHandle h : net.node_handles()) {
        const std::uint64_t up = (h + space - target) % space;
        const std::uint64_t down = (target + space - h) % space;
        // Successor for Chord and Koorde; for Pastry the numerically
        // closest, a tie going clockwise (to the successor).
        consider(h, kind != OverlayKind::kPastry ? up
                    : up <= down                 ? 2 * up
                                                 : 2 * down + 1);
      }
      break;
    }
    case OverlayKind::kViceroy: {
      // Successor on the unit ring: the smallest id at or after the key,
      // else (wrapping) the smallest id overall.
      const auto& vnet = dynamic_cast<const viceroy::ViceroyNetwork&>(net);
      const double target = hash::reduce_unit(key);
      double best_id = 0.0;
      bool best_wraps = true;
      for (const NodeHandle h : net.node_handles()) {
        const double id = vnet.node_state(h).id;
        const bool wraps = id < target;
        if (best == kNoNode || wraps < best_wraps ||
            (wraps == best_wraps && id < best_id)) {
          best = h;
          best_id = id;
          best_wraps = wraps;
        }
      }
      break;
    }
    case OverlayKind::kCan: {
      // The one node whose zones contain the key's point.
      const auto& cnet = dynamic_cast<const can::CanNetwork&>(net);
      const can::Point p = cnet.point_from_hash(key);
      for (const NodeHandle h : net.node_handles()) {
        if (cnet.node_owns_point(h, p)) consider(h, 0);
      }
      break;
    }
  }
  return best;
}

// The storage plane's core agreement: the dense registry (handle_at /
// slot_of, backed by the SlotIndex) and the arena behind node_state must
// describe the same membership after any operation mix. slot_of must be
// the exact inverse of handle_at, every registered handle must resolve to
// live node state, and the overlay's own handle enumeration must be the
// same set the registry holds. The overlays' owner indexes (sorted rings,
// CAN's grid) must agree with that membership too: owner_of matches a
// brute-force scan.
void expect_registry_arena_agree(exp::OverlayKind kind,
                                 const dht::DhtNetwork& net) {
  auto listed = net.node_handles();
  ASSERT_EQ(listed.size(), net.node_count());
  std::vector<NodeHandle> registry;
  registry.reserve(net.node_count());
  for (std::size_t slot = 0; slot < net.node_count(); ++slot) {
    const NodeHandle handle = net.handle_at(slot);
    ASSERT_EQ(net.slot_of(handle), slot) << "slot " << slot;
    ASSERT_TRUE(net.contains(handle)) << "slot " << slot;
    registry.push_back(handle);
  }
  std::sort(listed.begin(), listed.end());
  std::sort(registry.begin(), registry.end());
  ASSERT_EQ(listed, registry);
  // expect_same_state's per-kind node_state walk already exercises the
  // arena for every live handle; here we only pin the set equality, and
  // (via the compare below) that the walk never traps on a live slot.
  expect_same_state(kind, net, net);

  util::Rng rng(0x0e11 ^ net.node_count());
  for (int i = 0; i < 32; ++i) {
    const dht::KeyHash key = rng();
    ASSERT_EQ(net.owner_of(key), brute_force_owner(kind, net, key))
        << "key " << key;
  }
}

// Random soup of joins, graceful/ungraceful leaves, mass failures, and
// lookups, driven IDENTICALLY into two networks: the primary tracks
// dirty neighborhoods and drains with stabilize_dirty (alternating
// thread counts), the shadow drains with a full stabilize_all at the
// same points. After every drain both must be at the same fixpoint —
// any under-enqueued dirty hook shows up as a field diff here.
void run_primary_shadow_soup(OverlayKind kind, dht::DhtNetwork& primary,
                             dht::DhtNetwork& shadow) {
  primary.set_dirty_tracking(true);
  util::Rng rng(0x5eed);

  for (int op = 0; op < 300; ++op) {
    switch (rng.below(8)) {
      case 0:
      case 1: {
        const std::uint64_t seed = rng();
        primary.join(seed);
        shadow.join(seed);
        break;
      }
      case 2:
        if (primary.node_count() > 16) {
          const auto idx =
              static_cast<std::size_t>(rng.below(primary.node_count()));
          const NodeHandle victim = primary.node_handles()[idx];
          primary.leave(victim);
          shadow.leave(victim);
        }
        break;
      case 3:
        if (op % 41 == 0 && primary.node_count() > 64) {
          const std::uint64_t seed = rng();
          util::Rng ra(seed);
          util::Rng rb(seed);
          primary.fail_ungraceful(0.1, ra);
          shadow.fail_ungraceful(0.1, rb);
        }
        break;
      case 4:
        if (op % 43 == 0 && primary.node_count() > 64) {
          const std::uint64_t seed = rng();
          util::Rng ra(seed);
          util::Rng rb(seed);
          primary.fail_simultaneously(0.1, ra);
          shadow.fail_simultaneously(0.1, rb);
        }
        break;
      case 5: {
        primary.stabilize_dirty(op % 2 == 0 ? 1 : 4);
        shadow.stabilize_all();
        expect_same_state(kind, primary, shadow);
        expect_registry_arena_agree(kind, primary);
        expect_registry_arena_agree(kind, shadow);
        break;
      }
      default: {
        // Identical absorbed lookup on both: the networks are in identical
        // states, so the routes — and Koorde's absorbed lookup-learned
        // promotions — match too.
        const auto idx =
            static_cast<std::size_t>(rng.below(primary.node_count()));
        const NodeHandle from = primary.node_handles()[idx];
        const dht::KeyHash key = rng();
        dht::LookupMetrics primary_sink;
        dht::LookupMetrics shadow_sink;
        primary.lookup(from, key, primary_sink);
        shadow.lookup(from, key, shadow_sink);
        primary.absorb(primary_sink);
        shadow.absorb(shadow_sink);
        break;
      }
    }
    // Every overlay's structural invariants hold after every op: the
    // registry, the arena and the overlay's indexes agree, and the rest of
    // what each overlay's check_invariants() states.
    ASSERT_TRUE(primary.check_invariants()) << "op " << op;
    ASSERT_TRUE(shadow.check_invariants()) << "op " << op;
    if (kind == OverlayKind::kViceroy) {
      // Viceroy stores its links: after every op, every node's links and
      // their ids must equal the brute-force reference.
      const std::string where = "op " + std::to_string(op);
      ASSERT_NO_FATAL_FAILURE(viceroy::expect_links_match_reference(
          dynamic_cast<const viceroy::ViceroyNetwork&>(primary), where));
      ASSERT_NO_FATAL_FAILURE(viceroy::expect_links_match_reference(
          dynamic_cast<const viceroy::ViceroyNetwork&>(shadow), where));
    }
  }
  primary.stabilize_dirty(2);
  shadow.stabilize_all();
  expect_same_state(kind, primary, shadow);
  expect_registry_arena_agree(kind, primary);
  expect_registry_arena_agree(kind, shadow);
  EXPECT_GT(primary.nodes_skipped_clean(), 0u);
}

TEST_P(FuzzTest, IncrementalDrainsMatchAFullPassShadow) {
  auto primary = make_sparse_overlay(GetParam(), 7, 120, 0xd117);
  auto shadow = make_sparse_overlay(GetParam(), 7, 120, 0xd117);
  run_primary_shadow_soup(GetParam(), *primary, *shadow);
}

// Same soup, with the Cycloid variants built under proximity neighbour
// selection: the policy changes which cubical candidate wins, not the
// maintenance semantics, so the incremental drains must still converge to
// the full-pass fixpoint.
class ProximityFuzzTest : public ::testing::TestWithParam<OverlayKind> {};

TEST_P(ProximityFuzzTest, IncrementalDrainsMatchAFullPassShadow) {
  auto primary = make_sparse_overlay(GetParam(), 7, 120, 0xd117, 1,
                                     dht::NeighborSelection::kProximity);
  auto shadow = make_sparse_overlay(GetParam(), 7, 120, 0xd117, 1,
                                    dht::NeighborSelection::kProximity);
  run_primary_shadow_soup(GetParam(), *primary, *shadow);
}

INSTANTIATE_TEST_SUITE_P(
    Cycloid, ProximityFuzzTest,
    ::testing::Values(OverlayKind::kCycloid7, OverlayKind::kCycloid11),
    [](const ::testing::TestParamInfo<OverlayKind>& info) {
      std::string name = overlay_label(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

INSTANTIATE_TEST_SUITE_P(AllOverlays, FuzzTest,
                         ::testing::ValuesIn(extended_overlays()),
                         [](const ::testing::TestParamInfo<OverlayKind>& info) {
                           std::string name = overlay_label(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(FuzzCycloid, LeafSetsExactThroughOperationSoup) {
  util::Rng rng(0xabcd);
  auto net = ccc::CycloidNetwork::build_random(7, 150, rng);
  for (int op = 0; op < 300; ++op) {
    if (rng.chance(0.5)) {
      net->join(rng());
    } else if (net->node_count() > 10) {
      net->leave(net->random_node(rng));
    }
    ASSERT_TRUE(net->check_invariants()) << "op " << op;
    // Spot-check one node: its stored leaf sets equal a fresh recompute.
    const NodeHandle probe = net->random_node(rng);
    const ccc::CycloidNode before = net->node_state(probe);
    net->stabilize_one(probe);
    const ccc::CycloidNode& after = net->node_state(probe);
    ASSERT_EQ(before.leaves, after.leaves) << "op " << op;
    // One lookup per op: the phase algorithm converges (no guard
    // fallback) and reaches the ground-truth owner.
    const NodeHandle from = net->random_node(rng);
    const dht::KeyHash key = rng();
    dht::LookupMetrics sink;
    const dht::LookupResult result = net->lookup(from, key, sink);
    ASSERT_EQ(result.destination, net->owner_of(key)) << "op " << op;
    ASSERT_EQ(sink.guard_fallbacks, 0u) << "op " << op;
  }
}

TEST(FuzzCan, InvariantsHoldThroughLongSoup) {
  util::Rng rng(0x9999);
  auto net = can::CanNetwork::build_random(60, rng);
  for (int op = 0; op < 250; ++op) {
    if (rng.chance(0.5)) {
      net->join(rng());
    } else if (net->node_count() > 4) {
      net->leave(net->random_node(rng));
    }
    ASSERT_TRUE(net->check_invariants()) << "op " << op;
    // owner_of reads the ownership grid; a scan of every zone is the truth.
    for (int i = 0; i < 8; ++i) {
      const dht::KeyHash key = rng();
      const can::Point p = net->point_from_hash(key);
      std::vector<NodeHandle> owners;
      for (const NodeHandle h : net->node_handles()) {
        if (net->node_owns_point(h, p)) owners.push_back(h);
      }
      ASSERT_EQ(owners.size(), 1u) << "op " << op;
      ASSERT_EQ(net->owner_of(key), owners.front()) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace cycloid::exp
