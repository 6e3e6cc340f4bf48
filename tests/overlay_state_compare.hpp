// Field-by-field comparison of every node's routing state, for the tests
// that pin "byte-identical at any thread count" contracts (bulk builds,
// parallel stabilize passes). Kept in one place so every such contract
// compares the same fields.
#pragma once

#include <gtest/gtest.h>

#include "can/can.hpp"
#include "chord/chord.hpp"
#include "core/network.hpp"
#include "dht/network.hpp"
#include "exp/overlays.hpp"
#include "koorde/koorde.hpp"
#include "pastry/pastry.hpp"
#include "viceroy/viceroy.hpp"

namespace cycloid {

/// Expect identical membership and identical per-node routing state.
inline void expect_same_state(exp::OverlayKind kind, const dht::DhtNetwork& a,
                              const dht::DhtNetwork& b) {
  const auto handles = a.node_handles();
  ASSERT_EQ(handles, b.node_handles()) << exp::overlay_label(kind);
  switch (kind) {
    case exp::OverlayKind::kCycloid7:
    case exp::OverlayKind::kCycloid11: {
      const auto& na = dynamic_cast<const ccc::CycloidNetwork&>(a);
      const auto& nb = dynamic_cast<const ccc::CycloidNetwork&>(b);
      for (const dht::NodeHandle h : handles) {
        // Whole records: id, routing table and every leaf slot.
        EXPECT_EQ(na.node_state(h), nb.node_state(h)) << h;
      }
      break;
    }
    case exp::OverlayKind::kViceroy: {
      const auto& na = dynamic_cast<const viceroy::ViceroyNetwork&>(a);
      const auto& nb = dynamic_cast<const viceroy::ViceroyNetwork&>(b);
      for (const dht::NodeHandle h : handles) {
        const viceroy::ViceroyNode& x = na.node_state(h);
        const viceroy::ViceroyNode& y = nb.node_state(h);
        EXPECT_EQ(x.id, y.id) << h;
        EXPECT_EQ(x.level, y.level) << h;
        for (std::size_t k = 0; k < viceroy::kLinkCount; ++k) {
          EXPECT_EQ(x.links[k].node, y.links[k].node) << h << " link " << k;
          EXPECT_EQ(x.links[k].id, y.links[k].id) << h << " link " << k;
        }
      }
      break;
    }
    case exp::OverlayKind::kChord: {
      const auto& na = dynamic_cast<const chord::ChordNetwork&>(a);
      const auto& nb = dynamic_cast<const chord::ChordNetwork&>(b);
      for (const dht::NodeHandle h : handles) {
        const chord::ChordNode& x = na.node_state(h);
        const chord::ChordNode& y = nb.node_state(h);
        EXPECT_EQ(x.predecessor, y.predecessor) << h;
        EXPECT_EQ(x.successors, y.successors) << h;
        EXPECT_EQ(x.fingers, y.fingers) << h;
      }
      break;
    }
    case exp::OverlayKind::kKoorde: {
      const auto& na = dynamic_cast<const koorde::KoordeNetwork&>(a);
      const auto& nb = dynamic_cast<const koorde::KoordeNetwork&>(b);
      for (const dht::NodeHandle h : handles) {
        const koorde::KoordeNode& x = na.node_state(h);
        const koorde::KoordeNode& y = nb.node_state(h);
        EXPECT_EQ(x.predecessor, y.predecessor) << h;
        EXPECT_EQ(x.successors, y.successors) << h;
        EXPECT_EQ(x.de_bruijn, y.de_bruijn) << h;
        EXPECT_EQ(x.db_backups, y.db_backups) << h;
        EXPECT_EQ(x.db_broken, y.db_broken) << h;
      }
      break;
    }
    case exp::OverlayKind::kPastry: {
      const auto& na = dynamic_cast<const pastry::PastryNetwork&>(a);
      const auto& nb = dynamic_cast<const pastry::PastryNetwork&>(b);
      for (const dht::NodeHandle h : handles) {
        const pastry::PastryNode& x = na.node_state(h);
        const pastry::PastryNode& y = nb.node_state(h);
        EXPECT_EQ(x.routing_table, y.routing_table) << h;
        EXPECT_EQ(x.leaf_smaller, y.leaf_smaller) << h;
        EXPECT_EQ(x.leaf_larger, y.leaf_larger) << h;
        EXPECT_EQ(x.neighborhood, y.neighborhood) << h;
        EXPECT_EQ(x.reach, y.reach) << h;
        EXPECT_EQ(x.x, y.x) << h;
        EXPECT_EQ(x.y, y.y) << h;
      }
      break;
    }
    case exp::OverlayKind::kCan: {
      const auto& na = dynamic_cast<const can::CanNetwork&>(a);
      const auto& nb = dynamic_cast<const can::CanNetwork&>(b);
      for (const dht::NodeHandle h : handles) {
        EXPECT_EQ(na.node_state(h).zones, nb.node_state(h).zones) << h;
        // Whole routing tables: handles and cached bounds both.
        EXPECT_EQ(na.node_state(h).table, nb.node_state(h).table) << h;
      }
      break;
    }
  }
}

}  // namespace cycloid
