// The maintenance vocabulary shared by every overlay: the causes a
// maintenance update is charged to, the membership events a dirty() hook is
// asked about, the departure semantics a fail_* call ran, and the per-cause
// counters (paper Sec. 4's fifth metric).
//
// The mutation plane itself lives on dht::DhtNetwork (dht/network.hpp):
// its public calls (leave, fail_*, stabilize_*, absorb) sample victims,
// keep the stale flag and the dirty queue, and bracket each of the
// overlay's maintenance hooks in a cause scope, so `note_maintenance()`
// charges land on the right cause's counter without the hook naming the
// cause. A charge is a relaxed atomic add, and integer sums do not depend
// on order, so the per-cause totals of a parallel pass are identical at
// any thread count (DESIGN.md §9).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace cycloid::dht {

/// Why a maintenance update happened — one counter each (paper Sec. 4's
/// fifth metric, broken down by protocol activity).
enum class MaintenanceCause : std::size_t {
  /// Repairs triggered by an arrival: the newcomer's table build plus the
  /// neighbourhood refreshes around it.
  kJoinRepair = 0,
  /// Repairs triggered by departures, graceful or not (single leaves and
  /// the mass-departure experiments).
  kLeaveRepair = 1,
  /// Periodic stabilization refreshes (stabilize_one / stabilize_all /
  /// stabilize_dirty).
  kStabilizeRefresh = 2,
  /// Repair promotions learned by lookups and applied on absorb()
  /// (Koorde's backup promotion).
  kLookupPromotion = 3,
};
inline constexpr std::size_t kMaintenanceCauses = 4;

/// Stable short name for reports and JSON fields ("join", "leave",
/// "refresh", "promotion").
std::string maintenance_cause_name(MaintenanceCause cause);

/// Per-cause update counts (indexed by MaintenanceCause).
using MaintenanceBreakdown = std::array<std::uint64_t, kMaintenanceCauses>;

/// The membership event a dirty() hook is being asked about. Mirrors the
/// departure hooks so an overlay can distinguish "eagerly repaired" events
/// (whose dirty sets are small) from silent departures (whose stale fan-in
/// must be enumerated conservatively). A graceful mass departure asks about
/// each victim as a kGracefulLeave.
enum class MembershipEvent {
  kJoin = 0,          ///< on_join has just completed for this node
  kGracefulLeave = 1, ///< a graceful departure is about to run (node live)
  kVanish = 2,        ///< on_vanish is about to run (node still live)
};

/// Which departure semantics a fail_* call actually executed. Ungraceful
/// requests degrade to graceful on overlays whose maintenance model repairs
/// eagerly and keeps no stale state (Viceroy, CAN).
enum class DepartureSemantics {
  kNone = 0,       ///< no mass departure ran yet
  kGraceful = 1,   ///< victims notified their neighbours; repairs ran
  kUngraceful = 2, ///< victims vanished silently; state left stale
};

/// The maintenance counters: one total per cause. Charges are relaxed
/// atomic adds, so the workers of a parallel pass may charge at once;
/// nothing is kept per node.
class MaintenanceMetrics {
 public:
  /// Charge `updates` state changes under `cause`. Safe from any thread.
  void charge(MaintenanceCause cause, std::uint64_t updates) {
    by_cause_[static_cast<std::size_t>(cause)].fetch_add(
        updates, std::memory_order_relaxed);
  }

  /// Sum over all causes — the overlay's total maintenance overhead.
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : by_cause()) sum += v;
    return sum;
  }

  /// All four per-cause totals at once.
  MaintenanceBreakdown by_cause() const {
    MaintenanceBreakdown out{};
    for (std::size_t c = 0; c < kMaintenanceCauses; ++c) {
      out[c] = by_cause_[c].load(std::memory_order_relaxed);
    }
    return out;
  }

  void reset() {
    for (std::atomic<std::uint64_t>& count : by_cause_) {
      count.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::array<std::atomic<std::uint64_t>, kMaintenanceCauses> by_cause_{};
};

}  // namespace cycloid::dht
