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

void Maintainer::joined(NodeHandle node) {
  if (net_.bulk_building()) return;
  CauseScope scope(*this, MaintenanceCause::kJoinRepair);
  policy().on_join(node);
  // After on_join: the newcomer is fully linked, so the hook can enumerate
  // the neighborhoods the arrival perturbed.
  note_event(MembershipEvent::kJoin, node);
}

void Maintainer::leave(NodeHandle node) {
  CauseScope scope(*this, MaintenanceCause::kLeaveRepair);
  // Before on_graceful_leave: the departing node is still a member, so the
  // hook can read its links to find who references it.
  note_event(MembershipEvent::kGracefulLeave, node);
  policy().on_graceful_leave(node);
  // A graceful leave notifies the neighbours the protocol says to notify;
  // anything else referencing the node stays stale until stabilization —
  // unless this overlay repairs every affected link inline.
  stale_ = stale_ || !policy().repairs_eagerly();
}

void Maintainer::vanish(NodeHandle node) {
  MaintenancePolicy& pol = policy();
  CauseScope scope(*this, MaintenanceCause::kLeaveRepair);
  // Eager-repair overlays have no silent-vanish path — degrade to graceful
  // semantics and record the degradation, exactly like depart_sample.
  if (pol.repairs_eagerly()) {
    note_event(MembershipEvent::kGracefulLeave, node);
    pol.on_graceful_leave(node);
    last_semantics_ = DepartureSemantics::kGraceful;
  } else {
    note_event(MembershipEvent::kVanish, node);
    pol.on_vanish(node);
    last_semantics_ = DepartureSemantics::kUngraceful;
  }
  stale_ = stale_ || !pol.repairs_eagerly();
}

void Maintainer::depart_sample(double p, util::Rng& rng, bool ungraceful) {
  CYCLOID_EXPECTS(p >= 0.0 && p <= 1.0);
  MaintenancePolicy& pol = policy();
  // Overlays with no stale state repair ungraceful departures exactly like
  // graceful ones — record the degradation instead of pretending.
  const bool graceful = !ungraceful || pol.repairs_eagerly();

  // One Bernoulli draw per node in ascending identifier order — the same
  // iteration (ring order) every pre-engine overlay loop used, so fixed
  // seeds select the same victims.
  std::vector<NodeHandle> victims;
  for (const NodeHandle handle : net_.node_handles()) {
    if (rng.chance(p)) victims.push_back(handle);
  }
  if (victims.size() == net_.node_count() && !victims.empty()) {
    victims.pop_back();  // keep the network non-empty
  }

  CauseScope scope(*this, MaintenanceCause::kLeaveRepair);
  // Each victim's dirty hook runs just before its own departure hook, so the
  // mass departure decomposes into a sequence of single removals — exactly
  // the membership sequence the hooks' fan-in enumeration assumes.
  if (graceful) {
    for (const NodeHandle handle : victims) {
      note_event(MembershipEvent::kMassLeave, handle);
      pol.on_mass_leave(handle);
    }
    pol.repair_after_mass_leave();
    last_semantics_ = DepartureSemantics::kGraceful;
  } else {
    for (const NodeHandle handle : victims) {
      note_event(MembershipEvent::kVanish, handle);
      pol.on_vanish(handle);
    }
    last_semantics_ = DepartureSemantics::kUngraceful;
  }
  stale_ = stale_ || !pol.repairs_eagerly();
}

void Maintainer::refresh_one(NodeHandle node) {
  // A late-armed stabilization timer must not refresh a node that departed
  // in the same tick: policies' refresh tolerates a dead handle, but the
  // caller-side bug would silently charge no one and mask the race.
  CYCLOID_EXPECTS(net_.contains(node));
  CauseScope scope(*this, MaintenanceCause::kStabilizeRefresh);
  policy().refresh(node);
}

void Maintainer::run_pass(int threads) {
  MaintenancePolicy& pol = policy();
  // Serial invariant-restore point (Chord's deferred ring sort) — before
  // any worker reads shared indexes.
  pol.before_pass();
  CauseScope scope(*this, MaintenanceCause::kStabilizeRefresh);
  util::parallel_for(net_.node_count(), threads,
                     [this, &pol](std::size_t slot) {
                       pol.refresh(net_.handle_at(slot));
                     });
  stale_ = false;
  // A full pass refreshes everyone; nothing enqueued before it stays dirty.
  clear_dirty();
}

void Maintainer::run_incremental(int threads) {
  // Draining without tracking would "complete" a pass that refreshed no one
  // while clearing the stale flag — always a caller bug.
  CYCLOID_EXPECTS(dirty_tracking_);
  MaintenancePolicy& pol = policy();
  pol.before_pass();
  // Snapshot the dirty set against frozen membership: drop handles that
  // departed after being enqueued, dedupe is already structural, and sort
  // by slot so the drain order — and therefore the state — is identical at
  // any thread count (the run_pass contract, DESIGN.md §11).
  std::vector<std::size_t> slots;
  slots.reserve(dirty_queue_.size());
  for (const NodeHandle handle : dirty_queue_) {
    const std::size_t slot = net_.slot_of(handle);
    if (slot != kNoSlot) slots.push_back(slot);
  }
  std::sort(slots.begin(), slots.end());
  clear_dirty();

  const std::size_t live = net_.node_count();
  nodes_refreshed_dirty_ += slots.size();
  nodes_skipped_clean_ += live - slots.size();

  CauseScope scope(*this, MaintenanceCause::kStabilizeRefresh);
  util::parallel_for(slots.size(), threads,
                     [this, &pol, &slots](std::size_t i) {
                       pol.refresh(net_.handle_at(slots[i]));
                     });
  stale_ = false;
}

}  // namespace cycloid::dht
