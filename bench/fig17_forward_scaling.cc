// Fig. 17 (extension): scaling of the phase II/IV parallelization on the
// mixed small/large LRU-cache heap. One run per GC-thread count; at one
// thread phase II is the serial forwarding walk and phase IV the in-order
// compaction, above that the region-summary forwarding pipeline and the
// dependency-aware work-stealing compaction. Speedups are against the
// one-thread run. Expected: forwarding >= 2x at 8 threads.
#include "bench/bench_util.h"

using namespace svagc;
using namespace svagc::workloads;

namespace {

workloads::RunResult RunArm(const sim::CostProfile& profile,
                            unsigned threads) {
  RunConfig config;
  config.workload = "lrucache";
  config.collector = CollectorKind::kSvagc;
  config.profile = &profile;
  // Smoke mode runs the full sweep too: fewer ops trigger no GC, and the
  // five runs take well under a second.
  config.iterations = 20;
  config.gc_threads = threads;
  return RunWorkload(config);
}

}  // namespace

int main() {
  const sim::CostProfile& profile = sim::ProfileXeonGold6130();
  std::printf("== Fig. 17: forwarding & compaction scaling (LRUCache) ==\n");
  bench::PrintProfileHeader(profile);

  TablePrinter table({"threads", "forward(ms)", "forward speedup",
                      "compact(ms)", "compact speedup", "GC total(ms)"});
  RunResult one_thread;
  double speedup_at_8 = 0;
  for (const unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
    const RunResult run = RunArm(profile, threads);
    if (threads == 1) one_thread = run;
    const double fwd_speedup =
        one_thread.phase_sum.forward / run.phase_sum.forward;
    if (threads == 8) speedup_at_8 = fwd_speedup;
    table.AddRow({Format("%u", threads),
                  bench::Ms(run.phase_sum.forward, profile),
                  Format("%.2fx", fwd_speedup),
                  bench::Ms(run.phase_sum.compact, profile),
                  Format("%.2fx", one_thread.phase_sum.compact /
                                      run.phase_sum.compact),
                  bench::Ms(run.gc_total_cycles, profile)});
  }
  bench::Emit("fig17", table);
  std::printf(
      "\ntarget: forwarding >= 2x the one-thread serial walk at 8 threads "
      "(measured %.2fx).\n",
      speedup_at_8);
  return 0;
}
