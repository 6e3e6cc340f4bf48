// Fig. 7 — breakdown of the lookup path by routing phase:
//   (a) Cycloid: ascending / descending / traverse-cycle
//   (b) Viceroy: ascending / descending / traverse-ring
//   (c) Koorde:  de Bruijn hops / successor hops
// in complete networks of d = 3..8.
#include <iostream>

#include "bench_common.hpp"
#include "exp/experiments.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cycloid;
  bench::Report report(argc, argv, "fig7_breakdown",
                       "Fig. 7: breakdown of the lookup path by routing "
                       "phase");
  if (report.done()) return report.exit_code();

  const auto run_kind = [&](exp::OverlayKind kind) {
    std::vector<exp::PathLengthRow> rows;
    for (const int d : {3, 4, 5, 6, 7, 8}) {
      const std::uint64_t n = static_cast<std::uint64_t>(d) << d;
      auto r = exp::run_dense_path_lengths(
          {kind}, {d}, bench::lookup_scale_for(n), bench::kBenchSeed + 7,
          bench::threads());
      rows.push_back(r.front());
    }
    return rows;
  };

  const auto breakdown = [&](const char* title,
                             const std::vector<exp::PathLengthRow>& rows) {
    std::vector<std::string> headers = {"n", "mean path"};
    for (const auto& name : rows.front().phase_names) {
      headers.push_back(name + " %");
    }
    util::Table table(headers);
    for (const auto& row : rows) {
      table.row().add(row.nodes).add(row.mean_path, 2);
      for (std::size_t p = 0; p < row.phase_names.size(); ++p) {
        table.add(100.0 * row.phase_fractions[p], 1);
      }
    }
    report.section(title, table);
  };

  breakdown("Fig. 7(a): path length breakdown in Cycloid",
            run_kind(exp::OverlayKind::kCycloid7));
  breakdown("Fig. 7(b): path length breakdown in Viceroy",
            run_kind(exp::OverlayKind::kViceroy));
  breakdown("Fig. 7(c): path length breakdown in Koorde",
            run_kind(exp::OverlayKind::kKoorde));

  report.note("\n(paper shape: Cycloid's ascending <= ~15% vs ~30% in\n"
              " Viceroy; Viceroy spends >half in the traverse-ring phase;\n"
              " Koorde's successor hops are ~30% when dense)\n");
  // Engine-level per-hop traces (bench::Knob::kTraceRoutes).
  report.route_traces({exp::OverlayKind::kCycloid7, exp::OverlayKind::kViceroy,
                       exp::OverlayKind::kKoorde},
                      5);
  return 0;
}
