// Protocol-fidelity tests for Cycloid's join procedure (paper Sec. 3.3.1).
//
// The library initializes a joining node's state from the live membership
// (the fixpoint the protocol converges to). These tests walk the *protocol*
// itself — route the join message to the numerically closest node Z, derive
// the newcomer's leaf sets from Z's state per the paper's two cases — and
// verify it produces exactly the state the library computes.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/network.hpp"
#include "util/rng.hpp"

namespace cycloid::ccc {
namespace {

using dht::kNoNode;
using dht::NodeHandle;

/// The paper's first join step: "the node A will route the joining message
/// to the existing node Z whose ID is numerically closest to the ID of X".
NodeHandle route_join(CycloidNetwork& net, NodeHandle contact,
                      const CccId& joiner) {
  dht::LookupMetrics sink;
  const dht::LookupResult result =
      net.lookup(contact, net.space().ring_position(joiner), sink);
  return result.destination;
}

TEST(JoinProtocol, JoinMessageReachesNumericallyClosestNode) {
  util::Rng rng(1);
  auto net = CycloidNetwork::build_random(6, 150, rng);
  for (int i = 0; i < 200; ++i) {
    // A free identifier for a hypothetical joiner.
    const CccId joiner = net->space().id_from_hash(rng());
    if (net->contains(CycloidNetwork::handle_of(joiner))) continue;
    const NodeHandle contact = net->random_node(rng);
    EXPECT_EQ(route_join(*net, contact, joiner), net->owner_of_id(joiner));
  }
}

TEST(JoinProtocol, SameCycleCaseDerivesInsideLeafSetFromZ) {
  // Paper case 1: "If X and Z are in the same cycle, Z's outside leaf set
  // becomes X's outside leaf set. X's inside leaf set is initiated
  // according to Z's inside leaf set. If Z is X's successor, Z's
  // predecessor and Z are the left and right node in X's inside leaf set.
  // Otherwise, Z and Z's successor are the left node and right node."
  util::Rng rng(2);
  auto net = CycloidNetwork::build_random(6, 120, rng);
  int checked = 0;
  for (int attempt = 0; attempt < 4000 && checked < 40; ++attempt) {
    const CccId joiner = net->space().id_from_hash(rng());
    const NodeHandle joiner_handle = CycloidNetwork::handle_of(joiner);
    if (net->contains(joiner_handle)) continue;
    const NodeHandle z_handle = net->owner_of_id(joiner);
    const CccId z = CycloidNetwork::id_of(z_handle);
    if (z.cubical != joiner.cubical) continue;  // case 2, tested below
    // Protocol prediction from Z's state BEFORE the join.
    const CycloidNode z_before = net->node_state(z_handle);
    const bool z_is_successor =
        // Z follows X on the local cycle: X slots in just before Z.
        (joiner.cyclic < z.cyclic &&
         // no member of the cycle lies strictly between X and Z
         [&] {
           for (std::uint32_t k = joiner.cyclic + 1; k < z.cyclic; ++k) {
             if (net->contains(CycloidNetwork::handle_of(CccId{k, z.cubical})))
               return false;
           }
           return true;
         }());

    ASSERT_TRUE(net->insert(joiner));
    const CycloidNode& x = net->node_state(joiner_handle);
    // Outside leaf set inherited from Z.
    EXPECT_TRUE(std::ranges::equal(x.outside_pred(), z_before.outside_pred()));
    EXPECT_TRUE(std::ranges::equal(x.outside_succ(), z_before.outside_succ()));
    if (z_is_successor) {
      EXPECT_EQ(x.inside_pred()[0], z_before.inside_pred()[0]);
      EXPECT_EQ(x.inside_succ()[0], z_handle);
    }
    ++checked;
    net->leave(joiner_handle);  // restore for the next attempt
  }
  EXPECT_GE(checked, 20);
}

TEST(JoinProtocol, NewCycleCaseSelfReferencesInsideLeafSet) {
  // Paper case 2: "If X is the only node in its local cycle ... two nodes
  // in X's inside leaf set are X itself. X's outside leaf set is initiated
  // according to Z's outside leaf set."
  util::Rng rng(3);
  auto net = CycloidNetwork::build_random(7, 100, rng);
  int checked = 0;
  for (int attempt = 0; attempt < 4000 && checked < 30; ++attempt) {
    const CccId joiner = net->space().id_from_hash(rng());
    const NodeHandle joiner_handle = CycloidNetwork::handle_of(joiner);
    if (net->contains(joiner_handle)) continue;
    // Require an empty cycle for the joiner.
    bool cycle_empty = true;
    for (std::uint32_t k = 0; k < 7; ++k) {
      cycle_empty &=
          !net->contains(CycloidNetwork::handle_of(CccId{k, joiner.cubical}));
    }
    if (!cycle_empty) continue;

    ASSERT_TRUE(net->insert(joiner));
    const CycloidNode& x = net->node_state(joiner_handle);
    EXPECT_EQ(x.inside_pred()[0], joiner_handle);
    EXPECT_EQ(x.inside_succ()[0], joiner_handle);
    // Outside leaf set points at the primaries of the adjacent cycles —
    // which the joiner becomes a new neighbour *between*.
    const CccId pred_primary = CycloidNetwork::id_of(x.outside_pred()[0]);
    const CccId succ_primary = CycloidNetwork::id_of(x.outside_succ()[0]);
    EXPECT_NE(pred_primary.cubical, joiner.cubical);
    EXPECT_NE(succ_primary.cubical, joiner.cubical);
    ++checked;
    net->leave(joiner_handle);
  }
  EXPECT_GE(checked, 15);
}

TEST(JoinProtocol, NotificationReachesAffectedNeighbours) {
  // "After a node joins the system, it needs to notify the nodes in its
  // inside leaf set" — i.e. after the join, the cycle neighbours' leaf sets
  // reference the newcomer.
  util::Rng rng(4);
  auto net = CycloidNetwork::build_random(6, 150, rng);
  int checked = 0;
  for (int attempt = 0; attempt < 3000 && checked < 40; ++attempt) {
    const CccId joiner = net->space().id_from_hash(rng());
    const NodeHandle joiner_handle = CycloidNetwork::handle_of(joiner);
    if (net->contains(joiner_handle)) continue;
    ASSERT_TRUE(net->insert(joiner));
    const CycloidNode& x = net->node_state(joiner_handle);
    const NodeHandle pred = x.inside_pred()[0];
    const NodeHandle succ = x.inside_succ()[0];
    if (pred != joiner_handle) {
      EXPECT_EQ(net->node_state(pred).inside_succ()[0], joiner_handle);
    }
    if (succ != joiner_handle) {
      EXPECT_EQ(net->node_state(succ).inside_pred()[0], joiner_handle);
    }
    ++checked;
  }
  EXPECT_GE(checked, 30);
}

TEST(JoinProtocol, PrimaryJoinUpdatesRemoteCycles) {
  // "It also needs to notify the nodes in its outside leaf set if it is the
  // primary node of its local cycle" — adjacent cycles' outside leaf sets
  // must point at the new primary.
  util::Rng rng(5);
  auto net = CycloidNetwork::build_random(6, 100, rng);
  int checked = 0;
  for (int attempt = 0; attempt < 4000 && checked < 25; ++attempt) {
    const CccId joiner = net->space().id_from_hash(rng());
    const NodeHandle joiner_handle = CycloidNetwork::handle_of(joiner);
    if (net->contains(joiner_handle)) continue;
    ASSERT_TRUE(net->insert(joiner));
    const CycloidNode& x = net->node_state(joiner_handle);
    // Is the newcomer now the primary (largest cyclic index) of its cycle?
    bool primary = true;
    for (std::uint32_t k = joiner.cyclic + 1; k < 6; ++k) {
      primary &=
          !net->contains(CycloidNetwork::handle_of(CccId{k, joiner.cubical}));
    }
    if (primary && x.outside_pred()[0] != joiner_handle) {
      // The preceding cycle's members must now name X as their succeeding
      // primary.
      const CccId pred_primary = CycloidNetwork::id_of(x.outside_pred()[0]);
      const CycloidNode& neighbour = net->node_state(x.outside_pred()[0]);
      if (CycloidNetwork::id_of(neighbour.outside_succ()[0]).cubical ==
          joiner.cubical) {
        EXPECT_EQ(neighbour.outside_succ()[0], joiner_handle)
            << "cycle " << pred_primary.cubical
            << " missed the new primary of cycle " << joiner.cubical;
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 10);
}

}  // namespace
}  // namespace cycloid::ccc
