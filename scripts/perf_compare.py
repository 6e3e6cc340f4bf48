#!/usr/bin/env python3
"""Compare a BENCH_lookups.json run against the committed baseline.

Wall-clock lookups/sec depends on the machine, so absolute numbers are not
comparable across hosts. Instead, within each compared table (same n),
every overlay's throughput is divided by its baseline value, and that
ratio is divided by the median ratio over the table's overlays. Machine
speed scales every ratio alike, so it cancels; the median is the typical
overlay's change, which one or a few overlays moving cannot shift. A code
change that slows one overlay's hop loop shows up at its full size as that
overlay falling behind the median, and a speedup of one overlay reads as a
gain for that overlay only. (Dividing each side by its own geometric mean
instead would spread one overlay's speedup over every other overlay as a
false slowdown, and shrink a slowdown shared by a minority of overlays:
three of seven regressing 30% would read as -18%.)

Two tables are compared per n: the single-thread column of the main
table, which routes one lookup at a time (W = 1), and, for n >= 2^14, the
W = 8 rows of the interleave sweep (see SWEEP_* below).

Usage:
  scripts/perf_compare.py BENCH_lookups.json                # compare
  scripts/perf_compare.py BENCH_lookups.json --update       # refresh baseline
  scripts/perf_compare.py BENCH_lookups.json \
      --baseline bench/baselines/BENCH_lookups.json \
      --tolerance 0.20

Exit status: 0 on pass (including "no baseline yet" and "no overlapping
sections"), 1 when any overlay's throughput change fell more than
--tolerance below the median overlay's change, 2 on malformed input.

A slowdown shared by most overlays (every overlay slower by the same factor)
is invisible to this check by construction: that is the price of being
machine-independent. The absolute numbers stay in the JSON artifacts for
eyeballing trends on a fixed CI host.
"""

import argparse
import json
import shutil
import statistics
import sys

# The main tables: per-overlay single-thread runs at interleave width 1.
SECTION_PREFIX = "Lookup throughput, n = "
OVERLAY_COLUMN = "overlay"
VALUE_COLUMN = "1-thread lookups/s"
# The interleave sweep's W = 8 rows are the only runs whose speed depends on
# the batch router's prefetch hints (DESIGN.md §14), so they are compared
# too. Not below n = 2^14: at 2^11 the state is cache-resident, every width
# reads about 1.0x of W = 1, and a run lasts 25-210 ms, so those rows would
# gate noise.
SWEEP_PREFIX = "Interleave sweep (1 thread), n = "
SWEEP_VALUE_COLUMN = "lookups/s"
SWEEP_WIDTH = 8
SWEEP_MIN_NODES = 1 << 14


def load_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"perf_compare: cannot read {path}: {err}")


def throughput_by_section(report, path):
    """{table title: {overlay: lookups/s}} for every compared table in the
    report: each main table, and the W = 8 rows of each sweep section with
    n >= SWEEP_MIN_NODES."""
    sections = {}
    for section in report.get("sections", []):
        title = section.get("title", "")
        if title.startswith(SECTION_PREFIX):
            sweep = False
            value_column = VALUE_COLUMN
            needed = [OVERLAY_COLUMN, value_column]
        elif title.startswith(SWEEP_PREFIX):
            sweep = True
            value_column = SWEEP_VALUE_COLUMN
            needed = [OVERLAY_COLUMN, value_column, "nodes", "W"]
            title = f"{title}, W = {SWEEP_WIDTH}"
        else:
            continue
        columns = section.get("columns", [])
        try:
            # index() finds the single-thread column, not the N-thread one,
            # because the single-thread column is emitted first.
            col = {name: columns.index(name) for name in needed}
        except ValueError:
            sys.exit(f"perf_compare: {path}: section '{title}' lacks one of "
                     f"the columns {needed}")
        rows = {}
        for row in section.get("rows", []):
            try:
                value = float(row[col[value_column]])
                if sweep and (int(row[col["W"]]) != SWEEP_WIDTH or
                              int(row[col["nodes"]]) < SWEEP_MIN_NODES):
                    continue
            except (IndexError, TypeError, ValueError):
                sys.exit(f"perf_compare: {path}: non-numeric cell in "
                         f"section '{title}': {row!r}")
            if value <= 0.0:
                sys.exit(f"perf_compare: {path}: non-positive throughput in "
                         f"section '{title}': {row!r}")
            rows[str(row[col[OVERLAY_COLUMN]])] = value
        if rows:
            sections[title] = rows
    return sections


def relative_change(cand_rows, base_rows, overlays):
    """{overlay: (candidate / baseline) / median of that ratio over the
    overlays}, and the median itself."""
    ratios = {o: cand_rows[o] / base_rows[o] for o in overlays}
    median = statistics.median(ratios.values())
    return {o: r / median for o, r in ratios.items()}, median


def main():
    parser = argparse.ArgumentParser(
        description="Diff BENCH_lookups.json against the committed baseline "
                    "(per-overlay throughput change relative to the median "
                    "overlay's change).")
    parser.add_argument("candidate", help="freshly generated BENCH_lookups.json")
    parser.add_argument("--baseline",
                        default="bench/baselines/BENCH_lookups.json",
                        help="committed baseline document (default: "
                             "%(default)s)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="maximum allowed regression of an overlay's "
                             "throughput change relative to the median "
                             "change (default: %(default)s)")
    parser.add_argument("--update", action="store_true",
                        help="copy the candidate over the baseline instead "
                             "of comparing")
    args = parser.parse_args()
    if not 0.0 < args.tolerance < 1.0:
        parser.error("--tolerance must be in (0, 1)")

    candidate = load_report(args.candidate)
    if candidate is None:
        sys.exit(f"perf_compare: candidate {args.candidate} does not exist")
    candidate_sections = throughput_by_section(candidate, args.candidate)
    if not candidate_sections:
        sys.exit(f"perf_compare: {args.candidate}: no '{SECTION_PREFIX}...' "
                 "sections found")

    if args.update:
        shutil.copyfile(args.candidate, args.baseline)
        print(f"perf_compare: baseline {args.baseline} updated from "
              f"{args.candidate}")
        return 0

    baseline = load_report(args.baseline)
    if baseline is None:
        print(f"perf_compare: no baseline at {args.baseline} — nothing to "
              "compare (run with --update to create one). PASS")
        return 0
    baseline_sections = throughput_by_section(baseline, args.baseline)

    compared = 0
    regressions = []
    for title, cand_rows in sorted(candidate_sections.items()):
        base_rows = baseline_sections.get(title)
        if base_rows is None:
            print(f"perf_compare: skipping '{title}' (not in baseline)")
            continue
        overlays = sorted(set(cand_rows) & set(base_rows))
        if not overlays:
            continue
        relative, median = relative_change(cand_rows, base_rows, overlays)
        print(f"  {title}: median overlay throughput x{median:.3f} "
              "vs baseline")
        for overlay in overlays:
            compared += 1
            ratio = relative[overlay]
            marker = "OK  "
            if ratio < 1.0 - args.tolerance:
                marker = "FAIL"
                regressions.append((title, overlay, ratio))
            print(f"  {marker} {title} | {overlay:<12} "
                  f"{base_rows[overlay]:11.0f} -> {cand_rows[overlay]:11.0f} "
                  f"lookups/s  ({(ratio - 1.0) * 100:+6.1f}% vs median)")

    if compared == 0:
        print("perf_compare: no overlapping sections between candidate and "
              "baseline — nothing to compare. PASS")
        return 0
    if regressions:
        print(f"perf_compare: {len(regressions)} overlay(s) regressed more "
              f"than {args.tolerance:.0%} relative to the median overlay:")
        for title, overlay, ratio in regressions:
            print(f"  {overlay} in '{title}': {(1.0 - ratio) * 100:.1f}% "
                  "below the median change")
        return 1
    print(f"perf_compare: {compared} overlay measurements within "
          f"{args.tolerance:.0%} of the median change. PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
