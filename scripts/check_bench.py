#!/usr/bin/env python3
"""Perf-regression gate over BENCH_batch_lookup.json.

Compares a freshly emitted benchmark JSON (``bench_micro_ops
--batch-json``) against the committed baseline and fails (exit 1) when
any batch panel regresses by more than the threshold.

``BENCH_sharded_emulator.json`` files (``bench_sharded_throughput``)
are *accepted but never gated*: thread scheduling on shared CI runners
is too noisy to fail a job over, so when either input identifies
itself as the sharded benchmark the script prints a report-only
comparison (per-series aggregate speedups, placement scaling, the
recorded topology, the clean/churn wall-rate ratio per shard count)
and exits 0.  This lets CI run one check step over both trajectory
files and upload both as artifacts.

``BENCH_net_frontend.json`` files (``bench_net_frontend``) are handled
the same way: report-only (loopback TCP throughput is even noisier
than in-process threading), printing delivered req/s and the reply
latency percentiles.  ``BENCH_channel.json`` files (``bench_channel``)
are likewise report-only, printing the ring-vs-mutex hand-off speedup
per scenario, and ``BENCH_scenarios.json`` files (``bench_scenarios``)
print per-cell disruption / load-balance / recovery drift — the matrix
is deterministic, so drift means the workload or an algorithm changed,
but robustness characterisation is never a perf gate.
``BENCH_allocator.json`` files (``bench_alloc``) are report-only too:
they print the arena-vs-heap panels and the backing mode each run
landed on (huge/thp/page), which decides whether the numbers are even
comparable.  Pass
``--sharded-ref <BENCH_sharded_emulator
.json>`` to also print the delivered-vs-service comparison line — how
much of the in-process shard pipeline's service rate the socket path
delivers end to end.

Two comparison modes:

* ``speedup`` (default) — compares the *ratios* recorded in the JSON:
  the scalar-loop-vs-batch ``speedup`` of each results panel, and the
  per-kernel ``speedup_vs_scalar`` of the kernel panel.  Ratios divide
  out the absolute speed of the machine, so a baseline committed from
  one host remains comparable on a CI runner.  This is the mode the CI
  gate runs.

* ``absolute`` — compares ``batch_ns_per_lookup`` directly.  Only
  meaningful when baseline and fresh run on the same machine (the
  per-PR perf-trajectory workflow); results panels are skipped with a
  warning when the two files record different dispatched kernels.

The dispatched kernel name is recorded at the top level of the JSON and
per entry in the kernel panel, so runs are only ever compared
like-for-like.
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_bench: cannot read {path}: {err}")


def results_by_key(doc: dict) -> dict:
    return {
        (r["algorithm"], r["servers"]): r for r in doc.get("results", [])
    }


def panel_by_key(doc: dict) -> dict:
    panel = doc.get("kernel_panel", {})
    return {
        (e["kernel"], e.get("dimension", 0)): e
        for e in panel.get("entries", [])
    }


SHARDED_BENCHMARK = "sharded_emulator_throughput"


def is_sharded(doc: dict) -> bool:
    return doc.get("benchmark") == SHARDED_BENCHMARK


def report_sharded(base: dict, fresh: dict) -> int:
    """Report-only comparison of two sharded-emulator JSONs (exit 0)."""
    print("check_bench: sharded-emulator trajectory — report only, "
          "never gated (scheduling noise on shared runners)")
    topo = fresh.get("topology", {})
    if topo:
        print(
            "  fresh topology: "
            f"{topo.get('packages', '?')} package(s), "
            f"{topo.get('numa_nodes', '?')} NUMA node(s), "
            f"{topo.get('physical_cores', '?')} physical core(s), "
            f"{topo.get('allowed_cpus', '?')} allowed CPU(s), "
            f"placement {fresh.get('placement_policy', '?')}"
        )
    for key in sorted(set(base) | set(fresh)):
        base_series = base.get(key)
        fresh_series = fresh.get(key)
        if not (isinstance(base_series, list) and base_series
                and isinstance(base_series[0], dict)
                and "aggregate_speedup" in base_series[0]):
            continue
        if not isinstance(fresh_series, list):
            print(f"  note: fresh run lacks series {key}")
            continue
        fresh_by_shards = {e.get("shards"): e for e in fresh_series}
        for base_entry in base_series:
            fresh_entry = fresh_by_shards.get(base_entry.get("shards"))
            if fresh_entry is None:
                continue
            b = base_entry.get("aggregate_speedup", 0.0)
            f = fresh_entry.get("aggregate_speedup", 0.0)
            delta = (f - b) / b if b else 0.0
            pinned = fresh_entry.get("pinned_workers")
            pinned_note = (
                f", {pinned} pinned" if pinned is not None else ""
            )
            print(
                f"  [info] {key} shards={base_entry.get('shards')}: "
                f"speedup {b:.2f} -> {f:.2f} ({delta:+.1%}{pinned_note})"
            )
    print_churn_gap(base, fresh)
    for entry in fresh.get("placement_scaling", []):
        print(
            f"  [info] placement {entry.get('policy', '?')}: "
            f"service x{entry.get('service_speedup', 0.0):.2f}, "
            f"delivered x{entry.get('delivered_speedup', 0.0):.2f} "
            f"at {entry.get('shards', '?')} shards"
        )
    print("check_bench: sharded trajectory accepted (not gated)")
    return 0


def churn_gaps(doc: dict) -> dict:
    """Clean/churn ``wall_rps`` ratio per shard count present in both
    ``results`` and ``results_churn`` — the churn-gap number the
    ROADMAP's "close the churn gap" item is judged on."""
    churn = {e.get("shards"): e.get("wall_rps", 0.0)
             for e in doc.get("results_churn", [])}
    gaps = {}
    for entry in doc.get("results", []):
        shards = entry.get("shards")
        if churn.get(shards):
            gaps[shards] = entry.get("wall_rps", 0.0) / churn[shards]
    return gaps


def print_churn_gap(base: dict, fresh: dict) -> None:
    """Prints the clean/churn wall-rate ratio per shard count, base ->
    fresh.  Report only: no threshold."""
    base_gaps = churn_gaps(base)
    fresh_gaps = churn_gaps(fresh)
    for shards in sorted(set(base_gaps) & set(fresh_gaps)):
        print(
            f"  [info] churn gap shards={shards}: clean/churn wall_rps "
            f"{base_gaps[shards]:.2f} -> {fresh_gaps[shards]:.2f}"
        )


CHANNEL_BENCHMARK = "channel"


def is_channel(doc: dict) -> bool:
    return doc.get("benchmark") == CHANNEL_BENCHMARK


def report_channel(base: dict, fresh: dict) -> int:
    """Report-only comparison of two channel JSONs (exit 0): per-scenario
    ring-vs-mutex speedup, baseline vs fresh."""
    print("check_bench: channel hand-off trajectory — report only, never "
          "gated (thread hand-off latency on shared runners)")
    topo = fresh.get("topology", {})
    if topo:
        print(
            "  fresh topology: "
            f"{topo.get('physical_cores', '?')} physical core(s), "
            f"{topo.get('allowed_cpus', '?')} allowed CPU(s), "
            f"{topo.get('numa_nodes', '?')} NUMA node(s)"
        )

    def speedups(doc: dict) -> dict:
        rates: dict = {}
        for entry in doc.get("results", []):
            if not isinstance(entry, dict):
                continue
            key = (entry.get("scenario"), entry.get("kind"))
            rates[key] = entry.get("items_per_second", 0.0)
        out = {}
        for (scenario, kind), rate in rates.items():
            if kind != "ring":
                continue
            mutex_rate = rates.get((scenario, "mutex"), 0.0)
            out[scenario] = rate / mutex_rate if mutex_rate else 0.0
        return out

    base_speedups = speedups(base)
    fresh_speedups = speedups(fresh)
    for scenario in sorted(set(base_speedups) | set(fresh_speedups)):
        b = base_speedups.get(scenario)
        f = fresh_speedups.get(scenario)
        if f is None:
            print(f"  note: fresh run lacks scenario {scenario}")
            continue
        base_note = f"baseline x{b:.2f} -> " if b is not None else ""
        marker = "ok" if f >= 1.0 else "note"
        print(
            f"  [{marker:4s}] {scenario}: {base_note}ring is x{f:.2f} "
            f"the mutex rate"
        )
    print("check_bench: channel trajectory accepted (not gated)")
    return 0


SCENARIOS_BENCHMARK = "scenarios"


def is_scenarios(doc: dict) -> bool:
    return doc.get("benchmark") == SCENARIOS_BENCHMARK


def report_scenarios(base: dict, fresh: dict) -> int:
    """Report-only comparison of two scenario-matrix JSONs (exit 0):
    per-cell disruption / load-balance / recovery deltas.  The metrics
    are deterministic for a fixed seed, so any delta means the workload
    or an algorithm changed — worth a look, never a gate (the matrix is
    a robustness characterisation, not a perf baseline)."""
    print("check_bench: scenario-matrix trajectory — report only, never "
          "gated (robustness characterisation, not a perf baseline)")
    if base.get("quick") != fresh.get("quick"):
        print(
            f"  note: quick flags differ (baseline "
            f"{base.get('quick')}, fresh {fresh.get('quick')}); "
            "cells are not like-for-like"
        )

    def cells_by_key(doc: dict) -> dict:
        return {
            (c.get("playbook"), c.get("algorithm")): c
            for c in doc.get("cells", [])
            if isinstance(c, dict)
        }

    base_cells = cells_by_key(base)
    fresh_cells = cells_by_key(fresh)
    drifted = 0
    for key in sorted(set(base_cells) | set(fresh_cells)):
        b = base_cells.get(key)
        f = fresh_cells.get(key)
        if b is None or f is None:
            print(f"  note: cell {key} present in only one run")
            continue
        deltas = []
        for field, digits in (("disruption", 4), ("load_chi_over_dof", 2),
                              ("recovery_ticks", 1)):
            bv = b.get(field, 0.0)
            fv = f.get(field, 0.0)
            if round(bv - fv, digits) != 0.0:
                deltas.append(f"{field} {bv:.{digits}f} -> {fv:.{digits}f}")
        if b.get("recovered") != f.get("recovered"):
            deltas.append(
                f"recovered {b.get('recovered')} -> {f.get('recovered')}"
            )
        if deltas:
            drifted += 1
            print(f"  [note] {key[0]}/{key[1]}: " + ", ".join(deltas))
    print(
        f"check_bench: scenario matrix accepted (not gated); "
        f"{drifted} cell(s) drifted out of "
        f"{len(set(base_cells) | set(fresh_cells))}"
    )
    return 0


ALLOCATOR_BENCHMARK = "allocator"


def is_allocator(doc: dict) -> bool:
    return doc.get("benchmark") == ALLOCATOR_BENCHMARK


def report_allocator(base: dict, fresh: dict) -> int:
    """Report-only comparison of two allocator JSONs (exit 0): the
    arena-vs-heap batch-lookup speedup and the snapshot-churn cycle
    cost.  Never gated — the numbers hinge on which backing the arenas
    landed on (huge/thp/page), and a CI runner without a hugepage pool
    is not comparable to a tuned host.  The recorded ``memory_backing``
    says which regime each file measured."""
    print("check_bench: allocator trajectory — report only, never gated "
          "(TLB behaviour depends on the runner's hugepage config)")
    base_backing = base.get("memory_backing", "?")
    fresh_backing = fresh.get("memory_backing", "?")
    if base_backing != fresh_backing:
        print(
            f"  note: memory backing differs (baseline {base_backing}, "
            f"fresh {fresh_backing}); numbers are not like-for-like"
        )
    else:
        print(f"  backing: {fresh_backing} (both runs)")

    def by_rows(doc: dict, panel: str) -> dict:
        return {
            e.get("rows"): e
            for e in doc.get(panel, [])
            if isinstance(e, dict)
        }

    for panel, field, unit in (
        ("batch_lookup", "batch_ns_per_lookup", "ns/lookup"),
        ("snapshot_churn", "publish_us", "us/cycle"),
    ):
        base_rows = by_rows(base, panel)
        fresh_rows = by_rows(fresh, panel)
        for rows in ("heap", "arena"):
            b = base_rows.get(rows, {}).get(field)
            f = fresh_rows.get(rows, {}).get(field)
            if f is None:
                print(f"  note: fresh run lacks {panel} rows={rows}")
                continue
            base_note = f"baseline {b:.1f} -> " if b is not None else ""
            print(f"  [info] {panel} rows={rows}: {base_note}{f:.1f} {unit}")
        fresh_arena = fresh_rows.get("arena", {})
        if panel == "batch_lookup" and "speedup_vs_heap" in fresh_arena:
            print(
                f"  [info] {panel}: arena is "
                f"x{fresh_arena['speedup_vs_heap']:.2f} the heap rate"
            )
        if panel == "snapshot_churn" and "recycled" in fresh_arena:
            print(
                f"  [info] {panel}: {fresh_arena['recycled']} arena "
                "free-list hits during the fresh run"
            )
    print("check_bench: allocator trajectory accepted (not gated)")
    return 0


NET_BENCHMARK = "net_frontend"


def is_net(doc: dict) -> bool:
    return doc.get("benchmark") == NET_BENCHMARK


def report_net(base: dict, fresh: dict, sharded_ref: dict | None) -> int:
    """Report-only comparison of two net-frontend JSONs (exit 0)."""
    print("check_bench: net front-end trajectory — report only, never "
          "gated (loopback TCP on shared runners)")
    topo = fresh.get("topology", {})
    if topo:
        print(
            "  fresh topology: "
            f"{topo.get('physical_cores', '?')} physical core(s), "
            f"{topo.get('allowed_cpus', '?')} allowed CPU(s), "
            f"io_threads {fresh.get('io_threads', '?')}, "
            f"shards {fresh.get('shards', '?')}, "
            f"backend {fresh.get('io_backend', '?')} "
            f"(io_uring {'available' if fresh.get('io_uring_supported') else 'unavailable'})"
        )
    base_results = base.get("results", {})
    fresh_results = fresh.get("results", {})
    if isinstance(base_results, dict) and isinstance(fresh_results, dict):
        b = base_results.get("requests_per_second", 0.0)
        f = fresh_results.get("requests_per_second", 0.0)
        delta = (f - b) / b if b else 0.0
        print(
            f"  [info] delivered: baseline {b:,.0f} req/s -> "
            f"fresh {f:,.0f} req/s ({delta:+.1%})"
        )
        print(
            "  [info] fresh latency: "
            f"p50 {fresh_results.get('p50_us', '?')} us, "
            f"p99 {fresh_results.get('p99_us', '?')} us, "
            f"p99.9 {fresh_results.get('p999_us', '?')} us "
            f"({fresh_results.get('errors', '?')} error(s) over "
            f"{fresh_results.get('requests', '?')} request(s))"
        )
    if sharded_ref is not None:
        print_delivered_vs_service(fresh, sharded_ref)
    print("check_bench: net front-end trajectory accepted (not gated)")
    return 0


def print_delivered_vs_service(net: dict, sharded: dict) -> None:
    """The delivered-vs-service line: socket-path throughput against the
    in-process shard pipeline's rates from the sharded benchmark."""
    series = sharded.get("results", [])
    if not (isinstance(series, list) and series):
        print("  note: sharded reference lacks a results series")
        return
    by_shards = {e.get("shards"): e for e in series if isinstance(e, dict)}
    point = by_shards.get(net.get("shards")) or series[-1]
    delivered = net.get("results", {}).get("requests_per_second", 0.0)
    service = point.get("aggregate_rps", 0.0)
    wall = point.get("wall_rps", 0.0)
    ratio = delivered / service if service else 0.0
    print(
        f"  [info] delivered vs service: socket path {delivered:,.0f} "
        f"req/s vs in-process service {service:,.0f} req/s "
        f"(wall {wall:,.0f}) at {point.get('shards', '?')} shard(s) "
        f"-> {ratio:.0%} of service capacity delivered end-to-end"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_batch_lookup.json")
    parser.add_argument("fresh", help="freshly emitted benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum tolerated fractional regression (default 0.20)",
    )
    parser.add_argument(
        "--mode",
        choices=("speedup", "absolute"),
        default="speedup",
        help="compare machine-portable speedup ratios (default) or raw ns",
    )
    parser.add_argument(
        "--sharded-ref",
        default=None,
        metavar="JSON",
        help="BENCH_sharded_emulator.json to print the delivered-vs-"
             "service comparison against (net-frontend inputs only)",
    )
    args = parser.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)
    if is_channel(base) or is_channel(fresh):
        if is_channel(base) != is_channel(fresh):
            sys.exit(
                "check_bench: cannot compare a channel JSON against a "
                "different benchmark's JSON"
            )
        return report_channel(base, fresh)
    if is_allocator(base) or is_allocator(fresh):
        if is_allocator(base) != is_allocator(fresh):
            sys.exit(
                "check_bench: cannot compare an allocator JSON against "
                "a different benchmark's JSON"
            )
        return report_allocator(base, fresh)
    if is_scenarios(base) or is_scenarios(fresh):
        if is_scenarios(base) != is_scenarios(fresh):
            sys.exit(
                "check_bench: cannot compare a scenario-matrix JSON "
                "against a different benchmark's JSON"
            )
        return report_scenarios(base, fresh)
    if is_net(base) or is_net(fresh):
        if is_net(base) != is_net(fresh):
            sys.exit(
                "check_bench: cannot compare a net-frontend JSON "
                "against a different benchmark's JSON"
            )
        sharded_ref = load(args.sharded_ref) if args.sharded_ref else None
        if sharded_ref is not None and not is_sharded(sharded_ref):
            sys.exit("check_bench: --sharded-ref is not a sharded-emulator "
                     "JSON")
        return report_net(base, fresh, sharded_ref)
    if is_sharded(base) or is_sharded(fresh):
        if is_sharded(base) != is_sharded(fresh):
            sys.exit(
                "check_bench: cannot compare a sharded-emulator JSON "
                "against a batch-lookup JSON"
            )
        return report_sharded(base, fresh)
    base_kernel = base.get("kernel", "?")
    fresh_kernel = fresh.get("kernel", "?")
    print(
        f"check_bench: baseline kernel={base_kernel}, "
        f"fresh kernel={fresh_kernel}, mode={args.mode}, "
        f"threshold={args.threshold:.0%}"
    )

    failures: list[str] = []
    compared = 0

    def check(label: str, base_value: float, fresh_value: float,
              higher_is_better: bool) -> None:
        nonlocal compared
        compared += 1
        if base_value <= 0:
            return
        if higher_is_better:
            regression = (base_value - fresh_value) / base_value
        else:
            regression = (fresh_value - base_value) / base_value
        marker = "FAIL" if regression > args.threshold else "ok"
        print(
            f"  [{marker:4s}] {label}: baseline {base_value:.2f} -> "
            f"fresh {fresh_value:.2f} ({regression:+.1%} regression)"
        )
        if regression > args.threshold:
            failures.append(label)

    # --- batch panels (scalar-loop vs batch, one per algorithm) -------
    # These panels are measured under the dispatched kernel, and both
    # their absolute ns and their batching speedup legitimately shift
    # between kernel tiers (a runner without AVX-512 dispatches avx2),
    # so they are only compared like-for-like.  The per-kernel panel
    # below is always comparable: entries carry their own kernel name.
    skip_results = base_kernel != fresh_kernel
    if skip_results:
        print(
            "  warning: dispatched kernels differ "
            f"({base_kernel} vs {fresh_kernel}); skipping results "
            "comparison (kernel panel still gated)"
        )
    else:
        fresh_results = results_by_key(fresh)
        for key, base_entry in sorted(results_by_key(base).items()):
            fresh_entry = fresh_results.get(key)
            if fresh_entry is None:
                print(f"  warning: fresh run lacks results panel {key}")
                continue
            label = f"results {key[0]} k={key[1]}"
            if args.mode == "speedup":
                check(
                    label + " speedup",
                    base_entry["speedup"],
                    fresh_entry["speedup"],
                    higher_is_better=True,
                )
            else:
                check(
                    label + " batch_ns",
                    base_entry["batch_ns_per_lookup"],
                    fresh_entry["batch_ns_per_lookup"],
                    higher_is_better=False,
                )

    # --- per-kernel panel (matched by kernel name + dimension) --------
    fresh_panel = panel_by_key(fresh)
    for key, base_entry in sorted(panel_by_key(base).items()):
        fresh_entry = fresh_panel.get(key)
        if fresh_entry is None:
            # A kernel compiled into the baseline build may be missing
            # on this runner (e.g. no AVX-512): not a regression.
            print(f"  note: fresh run lacks kernel panel entry {key}")
            continue
        label = f"kernel {key[0]} d={key[1]}"
        if args.mode == "speedup":
            if key[0] == "scalar":
                continue  # speedup_vs_scalar is 1.0 by construction
            check(
                label + " speedup_vs_scalar",
                base_entry["speedup_vs_scalar"],
                fresh_entry["speedup_vs_scalar"],
                higher_is_better=True,
            )
        else:
            check(
                label + " batch_ns",
                base_entry["batch_ns_per_lookup"],
                fresh_entry["batch_ns_per_lookup"],
                higher_is_better=False,
            )

    if compared == 0:
        sys.exit("check_bench: nothing compared — incompatible files?")
    if failures:
        print(f"check_bench: {len(failures)} regression(s) beyond "
              f"{args.threshold:.0%}:")
        for label in failures:
            print(f"  - {label}")
        return 1
    print(f"check_bench: {compared} panel(s) compared, no regression "
          f"beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
