#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench_driver from source (perfbench/CMakeLists.txt, into
.bench_build/perfbench), then runs the workload in child processes:

  1. single-JVM workloads: one memmove reference run, whose reachable-graph
     digest every measured run must reproduce;
  2. measured runs, one fresh child each, until --seconds have passed since
     the reference run started (at least two, so the determinism guard has
     a pair to compare); with --trace 1 they alternate untraced and traced;
  3. set-up-only children, so set-up time is a median of several.

Every run is checked: heap verification, graph digest against the
reference (fleet: tenant heap digests repeat), the phase and throughput
identities, and bit-identical modeled numbers across runs of the seed.
A failed check or a crashed child counts every op of that run as failed.

Prints every metric by name and unit, the host fingerprint host metrics
must be compared under, and as the last line a JSON object with keys
correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import metrics
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = spec.ROOT
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

BUILD_TIMEOUT_S = 850
CHILD_TIMEOUT_S = 120
SETUP_SAMPLES = 9
MIN_RUNS = 2


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        _run_build_step(configure)
    _run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                     "perfbench_driver", "-j", str(os.cpu_count() or 1)])


def _run_build_step(cmd):
    # Build chatter goes to stderr: stdout carries only results. Its own
    # session lets a timeout stop the compilers under cmake too.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"build step timed out: {' '.join(cmd)}") from None
    if code != 0:
        raise BenchError(f"build step failed ({code}): {' '.join(cmd)}")


def run_child(args):
    """Runs the driver; returns (record or None, ru_maxrss KiB, wall s)."""
    # Each child gets its own output file, so invocations can run side by
    # side without reading each other's results.
    with tempfile.TemporaryFile(dir=BUILD_DIR) as out:
        start = time.monotonic()
        proc = subprocess.Popen([DRIVER] + args, stdout=out,
                                stdin=subprocess.DEVNULL)
        usage, status = _reap(proc, start + CHILD_TIMEOUT_S)
        wall = time.monotonic() - start
        out.seek(0)
        lines = out.read().decode("utf-8", "replace").strip().splitlines()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        log(f"perfbench: driver {' '.join(args)} exited {code}")
        return None, usage.ru_maxrss, wall
    try:
        return json.loads(lines[-1]), usage.ru_maxrss, wall
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: driver {' '.join(args)} printed no result")
        return None, usage.ru_maxrss, wall


def _reap(proc, deadline):
    """Waits for `proc` (killing it past `deadline`); returns its rusage and
    wait status."""
    # wait4 rather than Popen.wait: it returns the child's own rusage.
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, status


def driver_args(workload, seed, ops, role, trace_out=None):
    args = ["--workload", workload, "--seed", str(seed), "--ops", str(ops),
            "--role", role]
    if trace_out:
        args += ["--trace-out", trace_out]
    return args


def measure(workload, seed, seconds, trace):
    """Runs one invocation; returns (correct, attempted, failed, metrics,
    notes)."""
    fleet = workload == spec.FLEET
    ops = spec.OPS[workload]
    notes = []
    errors = []

    # The window opens before the reference run, so one invocation takes
    # about --seconds whatever the workload.
    start = time.monotonic()
    reference_digest = None
    if not fleet:
        ref, _, _ = run_child(driver_args(workload, seed, ops, "reference"))
        if ref is None or not ref["check"]["verify_ok"]:
            errors.append("memmove reference run failed")
        else:
            reference_digest = ref["check"]["graph_digest"]
            notes.append(f"reference: SVAGC(memmove) digest "
                         f"{reference_digest}")
    else:
        notes.append("reference: none; RunFleet exposes no graph digest or "
                     "verifier hook, and a memmove fleet admits its cycles "
                     "differently, so tenant heap digests are checked for "
                     "repeatability only")

    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    runs = []  # (record, rss_kib, traced, trace)
    attempted = failed = 0
    longest = 0.0
    while True:
        traced = trace and len(runs) % 2 == 1
        trace_out = (os.path.join(trace_dir, f"{workload}-seed{seed}-"
                                  f"pid{os.getpid()}-run{len(runs)}.json")
                     if traced else None)
        record, rss, wall = run_child(
            driver_args(workload, seed, ops, "run", trace_out))
        longest = max(longest, wall)
        attempted += ops
        problems = (["driver crashed or printed no result"] if record is None
                    else metrics.check_record(record, ops,
                                              reference_digest))
        if problems or errors:
            failed += ops
            errors.extend(problems)
        else:
            loaded = None
            if traced:
                with open(trace_out, encoding="utf-8") as f:
                    loaded = json.load(f)
            runs.append((record, rss, traced, loaded))
        elapsed = time.monotonic() - start
        if (attempted >= MIN_RUNS * ops
                and elapsed + longest > seconds) or failed > 0:
            break

    signatures = {metrics.modeled_signature(r) for r, *_ in runs}
    if len(signatures) > 1:
        errors.append("determinism guard: runs of one seed disagree on "
                      "modeled numbers or digests")
        failed = attempted
    if errors or not runs:
        return False, attempted, failed, {}, notes + errors

    record = runs[0][0]
    modeled = record["modeled"]
    setups = [r["host"]["setup_s"] for r, *_ in runs
              if "setup_s" in r["host"]]
    while len(setups) < SETUP_SAMPLES:
        s, _, _ = run_child(driver_args(workload, seed, 1, "setup"))
        if s is None:
            return False, attempted, attempted, {}, notes + ["set-up failed"]
        setups.append(s["host"]["setup_s"])

    fp = dict(record["fingerprint"])
    fp["gc_threads"] = record["gc_threads"]
    notes.append("fingerprint: " + json.dumps(fp, sort_keys=True))
    tenants = len(modeled["tenants"])
    notes.append(f"runs: {len(runs)} x {ops} ops"
                 + (f" over {tenants} tenants" if fleet else "")
                 + f", {len(setups)} set-ups; modeled numbers and digests "
                 "identical across runs")
    notes.append(f"pause samples: {modeled['pauses']} "
                 f"({modeled['pauses_beyond_p99']} beyond p99)"
                 + ("; pooled over tenants from modeled-clock cycle spans"
                    if fleet else ""))
    notes.append("model: unvalidated against hardware; no error figure")

    if not trace:
        untraced = [(r, rss) for r, rss, _, _ in runs]
        values = metrics.end_to_end(untraced, setups)
        table = spec.END_TO_END
    else:
        plain = [r["host"]["ops_s"] for r, _, t, _ in runs if not t]
        traced_runs = [(r, tr) for r, _, t, tr in runs if t]
        overhead = statistics.median(
            r["host"]["ops_s"] for r, _ in traced_runs) / statistics.median(
                plain)
        values = metrics.per_layer(record, traced_runs, overhead)
        table = spec.PER_LAYER
        if fleet:
            notes.append("fleet: RunFleet is one call, so the per-op span "
                         "metrics read 0, bench.verify_host_s reads 0 "
                         "(digests are taken inside RunFleet), and "
                         "runtime.alignment_waste_ratio reads 0 (tenants' "
                         "allocated bytes are not exposed)")
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
           for m in table}
    return True, attempted, failed, out, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must be in [0, 2^32)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        build()
        correct, attempted, failed, values, notes = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for note in notes:
        print("  " + note)
    clocks = {name: f" ({clock})" for name, clock in spec.CLOCK.items()}
    for name, metric in values.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}"
              + clocks.get(name, ""))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
