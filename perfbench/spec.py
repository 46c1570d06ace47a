"""What the benchmark measures: workloads, metrics, and what moves what.

Names, units, directions, bounds and each workload's reason come from
BENCHMARK.json. This module adds only what that file has no room for: the
length of a run, the clock of each end-to-end metric, and, recorded before
any measurement, which end-to-end metric each per-layer metric should move
and on which workload.

Modeled metrics come from the simulator's cost model (Xeon Gold 6130
profile, 2.1 GHz). The model has not been validated against real hardware,
so the benchmark reports no error figure against one.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _BENCH = json.load(_f)

WORKLOAD_NAMES = [w["name"] for w in _BENCH["workloads"]]
END_TO_END = _BENCH["end_to_end"]
PER_LAYER = _BENCH["per_layer"]

_GEN = "sor-gen"
_CONC = "lru-conc-far"
_FLEET = "fleet-open"
FLEET = _FLEET  # the one workload run through RunFleet

# Fixed-length runs, in ops over all tenants (the fleet's four tenants run
# 1900 each). Each run is sized so at least ten pause samples lie beyond p99.
OPS = {
    _GEN: 1600,
    _CONC: 1200,
    _FLEET: 7600,
}

CLOCK = {
    "setup_s": "host",
    "host_ops_per_s": "host",
    "peak_rss_mib": "host",
    "gc_pause_p50_ms": "modeled",
    "gc_pause_p99_ms": "modeled",
    "gc_total_ms": "modeled",
    "modeled_ops_per_s": "modeled",
}

_ALL = [_GEN, _CONC, _FLEET]

# per-layer metric -> (the metric it should move, the workloads it moves on)
MOVES = {
    # workloads: host-clock spans around each Workload::Iterate.
    "workloads.op_host_us_p50": ("host_ops_per_s", [_CONC]),
    "workloads.op_host_us_p99": ("host_ops_per_s", [_CONC]),
    "workloads.mutator_ms": ("modeled_ops_per_s", [_CONC]),
    "workloads.disturbance_ms": ("modeled_ops_per_s", [_FLEET]),
    # gc
    "gc.collections": ("gc_total_ms", [_GEN]),
    "gc.pauses": ("gc_total_ms", [_CONC]),
    "gc.host_us_per_collection": ("host_ops_per_s", [_GEN]),
    "gc.collect_op_host_share": ("host_ops_per_s", [_GEN]),
    "gc.mark_ms": ("gc_total_ms", [_GEN, _FLEET]),
    "gc.forward_ms": ("gc_total_ms", [_FLEET]),
    "gc.adjust_ms": ("gc_total_ms", [_FLEET]),
    "gc.compact_ms": ("gc_pause_p99_ms", [_CONC, _FLEET]),
    "gc.other_ms": ("gc_total_ms", [_GEN]),
    "gc.swapped_mib": ("gc.compact_ms", [_FLEET]),
    "gc.copied_mib": ("gc.compact_ms", [_FLEET]),
    "gc.swap_byte_ratio": ("gc.compact_ms", [_FLEET]),
    "gc.objects_moved": ("gc.compact_ms", [_FLEET]),
    "gc.swap_calls": ("gc.compact_ms", [_FLEET]),
    "gc.concurrent_ms": ("modeled_ops_per_s", [_CONC]),
    "gc.window_flush_fallbacks": ("gc_pause_p99_ms", [_CONC]),
    # core: the generational front end (zero on the other workloads).
    "core.minor_collections": ("gc_pause_p50_ms", [_GEN]),
    "core.full_collections": ("gc_total_ms", [_GEN]),
    "core.promoted_mib": ("gc_total_ms", [_GEN]),
    "core.premature_tenures": ("gc_total_ms", [_GEN]),
    # runtime
    "runtime.heap_mib": ("peak_rss_mib", _ALL),
    "runtime.alignment_waste_ratio": ("peak_rss_mib", [_CONC]),
    "runtime.phys_written_mib": ("host_ops_per_s", [_FLEET]),
    # simkernel
    "simkernel.swapva_calls": ("gc.compact_ms", [_FLEET]),
    "simkernel.pte_swaps": ("gc.compact_ms", [_FLEET]),
    "simkernel.pmd_swaps": ("gc.compact_ms", [_FLEET]),
    "simkernel.pmd_hit_ratio": ("gc.compact_ms", [_FLEET]),
    "simkernel.tlb_hit_ratio": ("workloads.mutator_ms", [_CONC]),
    "simkernel.tlb_misses": ("workloads.mutator_ms", [_CONC]),
    "simkernel.tlb_page_flushes": ("workloads.op_host_us_p50", [_CONC]),
    "simkernel.page_walks": ("workloads.op_host_us_p50", [_CONC]),
    "simkernel.ipis": ("workloads.disturbance_ms", [_FLEET]),
    "simkernel.ipis_per_collection": ("gc_pause_p99_ms", [_FLEET]),
    "simkernel.tier_faults": ("modeled_ops_per_s", [_CONC]),
    "simkernel.tier_evictions": ("host_ops_per_s", [_CONC]),
    "simkernel.tier_relinks_swapped": ("modeled_ops_per_s", [_CONC]),
    "simkernel.far_written_mib": ("modeled_ops_per_s", [_CONC]),
    # fleet: the arbiter (zero on the single-JVM workloads).
    "fleet.epochs": ("gc_pause_p99_ms", [_FLEET]),
    "fleet.solo_epochs": ("gc_pause_p99_ms", [_FLEET]),
    "fleet.max_epoch_size": ("gc_pause_p99_ms", [_FLEET]),
    "fleet.members_per_epoch": ("gc_pause_p99_ms", [_FLEET]),
    "fleet.epoch_broadcasts": ("modeled_ops_per_s", [_FLEET]),
    "fleet.broadcast_fallbacks": ("gc_pause_p99_ms", [_FLEET]),
    "fleet.flushes_coalesced": ("gc_pause_p99_ms", [_FLEET]),
    "fleet.emergency_gcs": ("gc_pause_p99_ms", [_FLEET]),
    "fleet.wait_ms_per_gc": ("modeled_ops_per_s", [_FLEET]),
    "fleet.wait_max_ms": ("gc_pause_p99_ms", [_FLEET]),
    "fleet.observed_pause_max_ms": ("gc_pause_p99_ms", [_FLEET]),
    "fleet.arbiter_ms": ("modeled_ops_per_s", [_FLEET]),
    "fleet.worst_tenant_p99_ms": ("gc_pause_p99_ms", [_FLEET]),
    # harness: the simulator and the benchmark itself.
    "sim.modeled_mcycles_per_host_s": ("host_ops_per_s", _ALL),
    # Verification and tracing are excluded from the end-to-end timings.
    "bench.verify_host_s": (None, []),
    "bench.trace_overhead_ratio": (None, []),
}
