#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Checks that spec.py's tables name exactly the workloads and metrics of
BENCHMARK.json, that the metric functions emit exactly those metrics, and
that the two identities every run is checked against hold on short real
runs of each workload (and that the checks catch a record that breaks
them). Builds perfbench_driver first if needed.
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

# Short runs: enough ops for several collections on every workload.
SHORT_OPS = {"sor-gen": 100, "lru-conc-far": 60, "fleet-open": 400}


class SpecTest(unittest.TestCase):
    def test_tables_cover_exactly_the_declared_names(self):
        self.assertEqual(sorted(spec.OPS), sorted(spec.WORKLOAD_NAMES))
        self.assertEqual(sorted(SHORT_OPS), sorted(spec.WORKLOAD_NAMES))
        self.assertEqual(sorted(spec.CLOCK),
                         sorted(m["name"] for m in spec.END_TO_END))
        self.assertEqual(sorted(spec.MOVES),
                         sorted(m["name"] for m in spec.PER_LAYER))

    def test_each_layer_metric_names_what_it_moves_and_where(self):
        known = ({m["name"] for m in spec.END_TO_END}
                 | {m["name"] for m in spec.PER_LAYER})
        for name, (moves, on) in spec.MOVES.items():
            self.assertTrue(moves is None or moves in known, name)
            self.assertTrue(set(on) <= set(spec.WORKLOAD_NAMES), name)


class RealRunTest(unittest.TestCase):
    """Short driver runs of every workload, traced."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.records = {}
        for workload, ops in SHORT_OPS.items():
            trace_out = os.path.join(run.BUILD_DIR, f"test-{workload}.json")
            record, rss, _ = run.run_child(
                run.driver_args(workload, 7, ops, "run", trace_out))
            assert record is not None, workload
            with open(trace_out, encoding="utf-8") as f:
                trace = json.load(f)
            cls.records[workload] = (record, rss, trace)

    def test_phases_sum_to_gc_total(self):
        for workload, (record, _, _) in self.records.items():
            self.assertIsNone(metrics.phase_identity_error(record["modeled"]),
                              workload)

    def test_modeled_ops_per_s_is_ops_over_app_seconds(self):
        for workload, (record, _, _) in self.records.items():
            self.assertIsNone(
                metrics.throughput_identity_error(record["modeled"]),
                workload)

    def test_checks_catch_broken_identities(self):
        record = self.records["lru-conc-far"][0]
        broken = copy.deepcopy(record["modeled"])
        broken["tenants"][0]["compact_cycles"] += broken["pauses"] + 1
        self.assertIsNotNone(metrics.phase_identity_error(broken))
        broken = copy.deepcopy(record["modeled"])
        broken["tenants"][0]["throughput_ops"] *= 1.001
        self.assertIsNotNone(metrics.throughput_identity_error(broken))

    def test_short_runs_pass_every_other_check(self):
        for workload, (record, _, _) in self.records.items():
            errors = metrics.check_record(record, SHORT_OPS[workload])
            # Short runs are too short for ten samples beyond p99.
            errors = [e for e in errors if "beyond p99" not in e]
            self.assertEqual(errors, [], workload)

    def test_metric_functions_emit_exactly_the_declared_metrics(self):
        for workload, (record, rss, trace) in self.records.items():
            e2e = metrics.end_to_end([(record, rss)], [0.1])
            self.assertEqual(list(e2e), [m["name"] for m in spec.END_TO_END])
            layer = metrics.per_layer(record, [(record, trace)], 1.0)
            self.assertEqual(sorted(layer),
                             sorted(m["name"] for m in spec.PER_LAYER))
            for name in ("host_ops_per_s", "peak_rss_mib", "gc_pause_p50_ms",
                         "gc_pause_p99_ms", "gc_total_ms",
                         "modeled_ops_per_s"):
                self.assertGreater(e2e[name], 0, f"{workload} {name}")


if __name__ == "__main__":
    unittest.main()
