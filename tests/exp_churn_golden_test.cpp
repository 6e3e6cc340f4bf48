// Golden rows of the churn driver (paper Sec. 4.4, Fig. 12 / Table 5):
// every overlay in both stabilization modes at d = 6, R = 0.2, 600 virtual
// seconds, seed 13. The Fig12Churn tests check the rows' shape; this pins
// every integer field exactly and every measured double bit for bit, so a
// change to the event order, the horizon rule or the RNG draw order of
// run_churn_experiment shows here and not only in the oracle's fig12 output.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>

#include "exp/experiments.hpp"

namespace cycloid::exp {
namespace {

struct GoldenChurnRow {
  OverlayKind kind;
  StabilizeMode mode;
  std::uint64_t lookups;
  std::uint64_t failures;
  std::size_t final_size;
  std::uint64_t maintenance_total;
  dht::MaintenanceBreakdown maintenance_by_cause;
  std::uint64_t nodes_refreshed_dirty;
  std::uint64_t nodes_skipped_clean;
  // mean_path, mean_timeouts, timeouts_p1, timeouts_p99, mean_route_latency,
  // route_latency_p99.
  std::array<double, 6> measured;
};

constexpr GoldenChurnRow kGoldenRows[] = {
    {OverlayKind::kCycloid7,
     StabilizeMode::kFull,
     612u, 0u, 338u, 971u, {327u, 373u, 271u, 0u}, 0u, 0u,
     {0x1.871c71c71c71cp+2, 0x1.76cc2176cc217p-6, 0x0p+0,
      0x1p+0, 0x1.2b80cda22072p+1, 0x1.00488a64514b5p+2}},
    {OverlayKind::kCycloid7,
     StabilizeMode::kIncremental,
     612u, 0u, 338u, 980u, {327u, 373u, 280u, 0u}, 297u, 6709u,
     {0x1.87bd1267bd126p+2, 0x1.ac5701ac5701bp-6, 0x0p+0,
      0x1p+0, 0x1.2c5c9389f00e1p+1, 0x1.0659561907c9fp+2}},
    {OverlayKind::kCycloid11,
     StabilizeMode::kFull,
     595u, 0u, 351u, 2408u, {955u, 1131u, 322u, 0u}, 0u, 0u,
     {0x1.54a6f014a6f01p+2, 0x1.0597e10597e1p-5, 0x0p+0,
      0x1p+0, 0x1.0527dbf238739p+1, 0x1.df211ac3bd9ddp+1}},
    {OverlayKind::kCycloid11,
     StabilizeMode::kIncremental,
     595u, 0u, 351u, 2418u, {955u, 1131u, 332u, 0u}, 350u, 6719u,
     {0x1.541d41d41d41dp+2, 0x1.efa681efa681fp-6, 0x0p+0,
      0x1p+0, 0x1.04ab2b4d26208p+1, 0x1.e70fe0c83bfb8p+1}},
    {OverlayKind::kViceroy,
     StabilizeMode::kFull,
     597u, 0u, 366u, 3187u, {1464u, 1723u, 0u, 0u}, 0u, 0u,
     {0x1.6b5d0d4b0ab86p+3, 0x0p+0, 0x0p+0,
      0x0p+0, 0x1.125ce04de2acp+2, 0x1.ec36784c0855ap+2}},
    {OverlayKind::kViceroy,
     StabilizeMode::kIncremental,
     597u, 0u, 366u, 3187u, {1464u, 1723u, 0u, 0u}, 0u, 7453u,
     {0x1.6b5d0d4b0ab86p+3, 0x0p+0, 0x0p+0,
      0x0p+0, 0x1.125ce04de2acp+2, 0x1.ec36784c0855ap+2}},
    {OverlayKind::kChord,
     StabilizeMode::kFull,
     548u, 0u, 377u, 2867u, {570u, 484u, 1813u, 0u}, 0u, 0u,
     {0x1.4b71fc4345238p+2, 0x1.75b8fe21a291cp-5, 0x0p+0,
      0x1p+0, 0x1.ef783a408c604p+0, 0x1.bddaa316e705ap+1}},
    {OverlayKind::kChord,
     StabilizeMode::kIncremental,
     548u, 0u, 377u, 2895u, {570u, 484u, 1841u, 0u}, 1879u, 5761u,
     {0x1.4b8fe21a291cp+2, 0x1.57d3273daa0b3p-5, 0x0p+0,
      0x1p+0, 0x1.ef2d9e7d3acb9p+0, 0x1.bddaa316e705ap+1}},
    {OverlayKind::kKoorde,
     StabilizeMode::kFull,
     655u, 0u, 389u, 815u, {460u, 330u, 0u, 25u}, 0u, 0u,
     {0x1.a8cb3c9484e2bp+3, 0x1.38abf82ee6987p-5, 0x0p+0,
      0x1p+0, 0x1.44842465c355ep+2, 0x1.0cca4e8d96a98p+3}},
    {OverlayKind::kKoorde,
     StabilizeMode::kIncremental,
     655u, 0u, 389u, 818u, {460u, 330u, 0u, 28u}, 804u, 6927u,
     {0x1.a8a5b74dc6fp+3, 0x1.5e313eecd94e9p-5, 0x0p+0,
      0x1p+0, 0x1.444d29be38363p+2, 0x1.0cca4e8d96a98p+3}},
    {OverlayKind::kPastry,
     StabilizeMode::kFull,
     584u, 0u, 398u, 9851u, {1200u, 848u, 7803u, 0u}, 0u, 0u,
     {0x1.d542a150a8543p+1, 0x1.50a8542a150a8p-6, 0x0p+0,
      0x1p+0, 0x1.66a313fbd6ffcp+0, 0x1.6eb06ade025d4p+1}},
    {OverlayKind::kPastry,
     StabilizeMode::kIncremental,
     584u, 0u, 398u, 5110u, {1200u, 848u, 3062u, 0u}, 3062u, 4710u,
     {0x1.d2d96cb65b2d9p+1, 0x1.dcee773b9dceep-6, 0x0p+0,
      0x1p+0, 0x1.651b1befd8674p+0, 0x1.6b92c5442d6fep+1}},
    {OverlayKind::kCan,
     StabilizeMode::kFull,
     608u, 0u, 379u, 2294u, {1522u, 772u, 0u, 0u}, 0u, 0u,
     {0x1.f6d79435e50d8p+2, 0x0p+0, 0x0p+0,
      0x0p+0, 0x1.7aa55700f1346p+1, 0x1.6b5b0ad8cf64bp+2}},
    {OverlayKind::kCan,
     StabilizeMode::kIncremental,
     608u, 0u, 379u, 2294u, {1522u, 772u, 0u, 0u}, 982u, 6567u,
     {0x1.f6d79435e50d8p+2, 0x0p+0, 0x0p+0,
      0x0p+0, 0x1.7aa55700f1346p+1, 0x1.6b5b0ad8cf64bp+2}},
};

TEST(ChurnGolden, RowsMatchSeedValues) {
  for (const GoldenChurnRow& golden : kGoldenRows) {
    SCOPED_TRACE(overlay_label(golden.kind) +
                 (golden.mode == StabilizeMode::kFull ? " full"
                                                      : " incremental"));
    const ChurnRow row =
        run_churn_experiment(golden.kind, 6, 0.2, 600.0, 13, golden.mode);
    EXPECT_EQ(row.lookups, golden.lookups);
    EXPECT_EQ(row.failures, golden.failures);
    EXPECT_EQ(row.final_size, golden.final_size);
    EXPECT_EQ(row.maintenance_total, golden.maintenance_total);
    EXPECT_EQ(row.maintenance_by_cause, golden.maintenance_by_cause);
    EXPECT_EQ(row.nodes_refreshed_dirty, golden.nodes_refreshed_dirty);
    EXPECT_EQ(row.nodes_skipped_clean, golden.nodes_skipped_clean);
    const std::array<double, 6> measured = {
        row.mean_path,    row.mean_timeouts,      row.timeouts_p1,
        row.timeouts_p99, row.mean_route_latency, row.route_latency_p99};
    for (std::size_t i = 0; i < measured.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(measured[i]),
                std::bit_cast<std::uint64_t>(golden.measured[i]))
          << "measured[" << i << "] = " << std::hexfloat << measured[i]
          << ", golden " << golden.measured[i];
    }
  }
}

}  // namespace
}  // namespace cycloid::exp
