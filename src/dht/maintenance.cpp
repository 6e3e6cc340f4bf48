// The mutation plane's shared bodies: DhtNetwork's maintenance members,
// each bracketing the overlay's hooks in their cause scope.
#include "dht/maintenance.hpp"

#include <algorithm>
#include <vector>

#include "dht/network.hpp"
#include "util/parallel.hpp"

namespace cycloid::dht {

std::string maintenance_cause_name(MaintenanceCause cause) {
  switch (cause) {
    case MaintenanceCause::kJoinRepair:
      return "join";
    case MaintenanceCause::kLeaveRepair:
      return "leave";
    case MaintenanceCause::kStabilizeRefresh:
      return "refresh";
    case MaintenanceCause::kLookupPromotion:
      return "promotion";
  }
  return "unknown";
}

void DhtNetwork::notify_joined(NodeHandle node) {
  if (bulk_building()) return;
  CauseScope scope(*this, MaintenanceCause::kJoinRepair);
  on_join(node);
  // After on_join: the newcomer is fully linked, so the hook can enumerate
  // the neighborhoods the arrival perturbed.
  note_event(MembershipEvent::kJoin, node);
}

void DhtNetwork::leave(NodeHandle node) {
  CauseScope scope(*this, MaintenanceCause::kLeaveRepair);
  // Before on_graceful_leave: the departing node is still a member, so the
  // hook can read its links to find who references it.
  note_event(MembershipEvent::kGracefulLeave, node);
  on_graceful_leave(node);
  // A graceful leave notifies the neighbours the protocol says to notify;
  // anything else referencing the node stays stale until stabilization —
  // unless this overlay repairs every affected link inline.
  stale_ = stale_ || !repairs_eagerly();
}

void DhtNetwork::fail_ungraceful(NodeHandle node) {
  CauseScope scope(*this, MaintenanceCause::kLeaveRepair);
  // Eager-repair overlays have no silent-vanish path — degrade to graceful
  // semantics and record the degradation, exactly like depart_sample.
  if (repairs_eagerly()) {
    note_event(MembershipEvent::kGracefulLeave, node);
    on_graceful_leave(node);
    last_semantics_ = DepartureSemantics::kGraceful;
  } else {
    note_event(MembershipEvent::kVanish, node);
    on_vanish(node);
    last_semantics_ = DepartureSemantics::kUngraceful;
  }
  stale_ = stale_ || !repairs_eagerly();
}

void DhtNetwork::depart_sample(double p, util::Rng& rng, bool ungraceful) {
  CYCLOID_EXPECTS(p >= 0.0 && p <= 1.0);
  // Overlays with no stale state repair ungraceful departures exactly like
  // graceful ones — record the degradation instead of pretending.
  const bool graceful = !ungraceful || repairs_eagerly();

  // One Bernoulli draw per node in ascending identifier order, not
  // registry-slot order, so the victims a fixed seed selects depend only on
  // the membership, not on the joins and leaves that placed each slot.
  std::vector<NodeHandle> victims;
  for (const NodeHandle handle : node_handles()) {
    if (rng.chance(p)) victims.push_back(handle);
  }
  if (victims.size() == node_count() && !victims.empty()) {
    victims.pop_back();  // keep the network non-empty
  }

  last_semantics_ = graceful ? DepartureSemantics::kGraceful
                             : DepartureSemantics::kUngraceful;
  if (victims.empty()) return;  // nothing departed, so nothing to repair

  CauseScope scope(*this, MaintenanceCause::kLeaveRepair);
  // Each victim's dirty hook runs just before its own departure hook, so the
  // mass departure decomposes into a sequence of single removals — exactly
  // the membership sequence the hooks' fan-in enumeration assumes. A
  // graceful mass departure unlinks each victim like a vanish and repairs
  // once, after all of them are gone.
  const MembershipEvent event = graceful ? MembershipEvent::kGracefulLeave
                                         : MembershipEvent::kVanish;
  for (const NodeHandle handle : victims) {
    note_event(event, handle);
    on_vanish(handle);
  }
  if (graceful) repair_after_mass_leave();
  stale_ = stale_ || !repairs_eagerly();
}

void DhtNetwork::stabilize_one(NodeHandle node) {
  // A late-armed stabilization timer must not refresh a node that departed
  // in the same tick: an overlay's refresh tolerates a dead handle, but the
  // caller-side bug would silently charge no one and mask the race.
  CYCLOID_EXPECTS(contains(node));
  CauseScope scope(*this, MaintenanceCause::kStabilizeRefresh);
  refresh(node);
}

void DhtNetwork::stabilize_all(int threads) {
  // Serial invariant-restore point (Chord's deferred ring sort) — before
  // any worker reads shared indexes.
  before_pass();
  CauseScope scope(*this, MaintenanceCause::kStabilizeRefresh);
  util::parallel_for(node_count(), threads, [this](std::size_t slot) {
    refresh(handle_at(slot));
  });
  stale_ = false;
  // A full pass refreshes everyone; nothing enqueued before it stays dirty.
  clear_dirty();
}

void DhtNetwork::stabilize_dirty(int threads) {
  // Draining without tracking would "complete" a pass that refreshed no one
  // while clearing the stale flag — always a caller bug.
  CYCLOID_EXPECTS(dirty_tracking_);
  before_pass();
  // Snapshot the dirty set against frozen membership: drop handles that
  // departed after being enqueued, dedupe is already structural, and sort
  // by slot so the drain order — and therefore the state — is identical at
  // any thread count (the stabilize_all contract, DESIGN.md §11).
  std::vector<std::size_t> slots;
  slots.reserve(dirty_queue_.size());
  for (const NodeHandle handle : dirty_queue_) {
    const std::size_t slot = slot_of(handle);
    if (slot != kNoSlot) slots.push_back(slot);
  }
  std::sort(slots.begin(), slots.end());
  clear_dirty();

  const std::size_t live = node_count();
  nodes_refreshed_dirty_ += slots.size();
  nodes_skipped_clean_ += live - slots.size();

  CauseScope scope(*this, MaintenanceCause::kStabilizeRefresh);
  util::parallel_for(slots.size(), threads, [this, &slots](std::size_t i) {
    refresh(handle_at(slots[i]));
  });
  stale_ = false;
}

}  // namespace cycloid::dht
