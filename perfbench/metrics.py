"""Turns driver records into benchmark metrics, and checks them.

A record is the JSON object perfbench_driver prints for one child run; a
trace is the span file a traced run writes. Everything here is a pure
function of those, so test_perfbench.py can exercise it directly.
"""

import json
import statistics

MIB = float(1 << 20)


def percentile(values, p):
    """Linear interpolation between closest ranks, as LatencyRecorder does."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def cycles_to_ms(cycles, ghz):
    return cycles / (ghz * 1e6)


def ratio(num, den):
    return num / den if den else 0.0


def modeled_signature(record):
    """Everything a run computes on the modeled clock, plus its digests.

    Two runs of the same seed and thread count must agree on it exactly;
    a mismatch is a benchmark error, not noise.
    """
    return json.dumps([record["modeled"], record["check"]], sort_keys=True)


def totals(modeled):
    """The run's tenants folded into one: sums, worst case for *_max_*
    fields, mean for throughput (RunResult::throughput_ops averaged over
    tenants, as the paper's Fig. 15 reports it)."""
    tenants = modeled["tenants"]
    out = {"gc_counters": {}}
    for t in tenants:
        for key, value in t.items():
            if key == "gc_counters":
                for name, count in value.items():
                    out["gc_counters"][name] = (
                        out["gc_counters"].get(name, 0) + count)
            elif "_max_" in key or key == "gc_p99_cycles":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    out["throughput_ops"] /= len(tenants)
    return out


# --- identities ------------------------------------------------------------

def phase_identity_error(modeled):
    """The gc.*_ms phases must sum to gc_total_ms within one cycle per pause.

    Each pause sample is truncated to whole cycles, while the phase records
    keep fractions, so the two totals may differ by < 1 cycle per sample.
    """
    t = totals(modeled)
    phases = sum(t[k] for k in ("mark_cycles", "forward_cycles",
                                "adjust_cycles", "compact_cycles",
                                "other_cycles"))
    total = t["gc_total_cycles"]
    slack = max(1, modeled["pauses"])
    if abs(phases - total) > slack:
        return (f"phase sum {phases:.1f} cycles differs from the pause total "
                f"{total:.1f} by more than one cycle per pause ({slack})")
    if modeled["pause_total_cycles"] != total:
        return (f"pooled pause samples sum to {modeled['pause_total_cycles']} "
                f"cycles, the collectors' logs to {total}")
    return None


def throughput_identity_error(modeled):
    """modeled_ops_per_s = ops / ((mutator + gc + disturbance) / GHz).

    Checked per tenant; the reported value is their mean.
    """
    hz = modeled["ghz"] * 1e9
    for t in modeled["tenants"]:
        cycles = (t["mutator_cycles"] + t["gc_total_cycles"]
                  + t["disturbance_cycles"])
        value = t["ops"] / (cycles / hz)
        if abs(value - t["throughput_ops"]) > 1e-9 * value:
            return (f"tenant throughput {t['throughput_ops']} != ops / app "
                    f"seconds = {value}")
    return None


def check_record(record, expected_ops, reference_digest=None):
    """All correctness checks on one run; returns a list of failures."""
    errors = []
    modeled = record["modeled"]
    t = totals(modeled)
    check = record["check"]
    if t["ops"] != expected_ops:
        errors.append(f"ran {t['ops']} ops, expected {expected_ops}")
    if not check.get("verify_ok", True):
        errors.append("heap verification failed: " + check["verify_error"])
    if reference_digest is not None and check["graph_digest"] != reference_digest:
        errors.append(f"graph digest {check['graph_digest']} != memmove "
                      f"reference {reference_digest}")
    if "heap_digests" in check and "0" in check["heap_digests"].split(","):
        errors.append("fleet tenant heap digest missing")
    if modeled["pauses"] < t["collections"]:
        errors.append(f"{modeled['pauses']} pause samples for "
                      f"{t['collections']} collections")
    if modeled["pauses_beyond_p99"] < 10:
        errors.append(f"only {modeled['pauses_beyond_p99']} of "
                      f"{modeled['pauses']} pause samples lie beyond p99")
    for error in (phase_identity_error(modeled),
                  throughput_identity_error(modeled)):
        if error:
            errors.append(error)
    return errors


# --- end-to-end ------------------------------------------------------------

def end_to_end(runs, setups):
    """End-to-end metrics from the untraced runs of one invocation.

    `runs` are (record, ru_maxrss_kib) pairs of identical modeled content;
    `setups` are set-up times in seconds.
    """
    modeled = runs[0][0]["modeled"]
    t = totals(modeled)
    ghz = modeled["ghz"]
    return {
        "setup_s": statistics.median(setups),
        "host_ops_per_s": statistics.median(
            t["ops"] / r["host"]["ops_s"] for r, _ in runs),
        "peak_rss_mib": statistics.median(rss / 1024.0 for _, rss in runs),
        "gc_pause_p50_ms": cycles_to_ms(modeled["pause_p50_cycles"], ghz),
        "gc_pause_p99_ms": cycles_to_ms(modeled["pause_p99_cycles"], ghz),
        "gc_total_ms": cycles_to_ms(t["gc_total_cycles"], ghz),
        "modeled_ops_per_s": t["throughput_ops"],
    }


# --- per-layer -------------------------------------------------------------

def span_metrics(trace):
    """Host-clock layer numbers from one traced run's spans.

    Returns None for a run without per-op spans (the fleet is one RunFleet
    call).
    """
    ops = [s for s in trace["spans"] if s["name"] == "op"]
    if not ops:
        return None
    quiet = [s["dur_ns"] / 1e3 for s in ops if s["pauses"] == 0]
    collecting = [s for s in ops if s["pauses"] > 0]
    drain = [s for s in trace["spans"] if s["name"] == "drain"]
    op_p50 = percentile(quiet, 50)
    collect_us = sum(s["dur_ns"] for s in collecting) / 1e3
    gc_us = (collect_us - len(collecting) * op_p50
             + sum(s["dur_ns"] for s in drain) / 1e3)
    collections = sum(s["collections"] for s in ops + drain)
    return {
        "workloads.op_host_us_p50": op_p50,
        "workloads.op_host_us_p99": percentile(quiet, 99),
        "gc.host_us_per_collection": ratio(gc_us, collections),
        "gc.collect_op_host_share": ratio(
            collect_us, sum(s["dur_ns"] for s in ops) / 1e3),
    }


def per_layer(record, traced_runs, overhead_ratio):
    """Per-layer metrics: modeled ones from `record`, host ones as medians
    over `traced_runs` ((record, trace) pairs)."""
    modeled = record["modeled"]
    ghz = modeled["ghz"]
    m = totals(modeled)
    machine = modeled["machine_counters"]
    fleet = modeled.get("fleet", {})
    gc = m["gc_counters"]
    generational = record["generational"]

    def ms(cycles):
        return cycles_to_ms(cycles, ghz)

    out = {
        "workloads.mutator_ms": ms(m["mutator_cycles"]),
        "workloads.disturbance_ms": ms(m["disturbance_cycles"]),
        "gc.collections": m["collections"],
        "gc.pauses": modeled["pauses"],
        "gc.mark_ms": ms(m["mark_cycles"]),
        "gc.forward_ms": ms(m["forward_cycles"]),
        "gc.adjust_ms": ms(m["adjust_cycles"]),
        "gc.compact_ms": ms(m["compact_cycles"]),
        "gc.other_ms": ms(m["other_cycles"]),
        "gc.swapped_mib": m["bytes_swapped"] / MIB,
        "gc.copied_mib": m["bytes_copied"] / MIB,
        "gc.swap_byte_ratio": ratio(m["bytes_swapped"],
                                    m["bytes_swapped"] + m["bytes_copied"]),
        "gc.objects_moved": gc.get("gc.objects_moved", 0),
        "gc.swap_calls": m["swap_calls"],
        "gc.concurrent_ms": ms(gc.get("gc.concurrent_cycles", 0)),
        "gc.window_flush_fallbacks": gc.get("gc.window_flush_fallbacks", 0),
        # Without the front end HarvestTenant counts every GC as full; the
        # core layer's own counts are zero there.
        "core.minor_collections": m["minor_collections"],
        "core.full_collections": m["full_collections"] if generational else 0,
        "core.promoted_mib": m["promoted_bytes"] / MIB,
        "core.premature_tenures": m["premature_tenures"],
        "runtime.heap_mib": m["heap_bytes"] / MIB,
        # Waste accrues per allocation (the paper's < 5 % bound); the fleet
        # does not expose its tenants' allocated bytes and reads 0.
        "runtime.alignment_waste_ratio": ratio(
            m["alignment_waste_bytes"], modeled.get("allocated_bytes", 0)),
        "runtime.phys_written_mib": m["phys_written_bytes"] / MIB,
        "simkernel.swapva_calls": machine.get("swapva.calls", 0),
        "simkernel.pte_swaps": machine.get("swapva.pte_swaps", 0),
        "simkernel.pmd_swaps": machine.get("swapva.pmd_swaps", 0),
        "simkernel.pmd_hit_ratio": ratio(
            machine.get("pmd.hits", 0),
            machine.get("pmd.hits", 0) + machine.get("pmd.misses", 0)),
        "simkernel.tlb_hit_ratio": ratio(
            machine.get("tlb.hits", 0),
            machine.get("tlb.hits", 0) + machine.get("tlb.misses", 0)),
        "simkernel.tlb_misses": machine.get("tlb.misses", 0),
        "simkernel.tlb_page_flushes": machine.get("tlb.page_flushes", 0),
        "simkernel.page_walks": machine.get("kernel.translation.walks", 0),
        "simkernel.ipis": machine.get("ipi.sent", 0),
        "simkernel.ipis_per_collection": ratio(machine.get("ipi.sent", 0),
                                               m["collections"]),
        "simkernel.tier_faults": m["tier_faults"],
        "simkernel.tier_evictions": m["tier_evictions"],
        "simkernel.tier_relinks_swapped": m["tier_relinks_swapped"],
        "simkernel.far_written_mib": m["tier_far_bytes_written"] / MIB,
        "fleet.epochs": fleet.get("epochs", 0),
        "fleet.solo_epochs": fleet.get("solo_epochs", 0),
        "fleet.max_epoch_size": fleet.get("max_epoch_size", 0),
        "fleet.members_per_epoch": ratio(machine.get("fleet.gc_admitted", 0),
                                         fleet.get("epochs", 0)),
        "fleet.epoch_broadcasts": fleet.get("epoch_broadcasts", 0),
        "fleet.broadcast_fallbacks": fleet.get("broadcast_fallbacks", 0),
        "fleet.flushes_coalesced": machine.get("fleet.flushes_coalesced", 0),
        "fleet.emergency_gcs": m["emergency_gcs"],
        "fleet.wait_ms_per_gc": ms(ratio(m["wait_cycles"], m["collections"])),
        "fleet.wait_max_ms": ms(m["wait_max_cycles"]),
        "fleet.observed_pause_max_ms": ms(m["observed_pause_max_cycles"]),
        "fleet.arbiter_ms": ms(fleet.get("arbiter_cycles", 0)),
        "fleet.worst_tenant_p99_ms": ms(m["gc_p99_cycles"]) if fleet else 0.0,
        "bench.trace_overhead_ratio": overhead_ratio,
    }

    host = [span_metrics(trace) for _, trace in traced_runs]
    host = [h for h in host if h is not None]
    for name in ("workloads.op_host_us_p50", "workloads.op_host_us_p99",
                 "gc.host_us_per_collection", "gc.collect_op_host_share"):
        out[name] = statistics.median(h[name] for h in host) if host else 0.0
    out["sim.modeled_mcycles_per_host_s"] = statistics.median(
        m["app_cycles"] / 1e6 / r["host"]["ops_s"] for r, _ in traced_runs)
    out["bench.verify_host_s"] = statistics.median(
        r["host"]["verify_s"] for r, _ in traced_runs)
    return out
