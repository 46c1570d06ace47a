// perfbench child: runs one benchmark workload through the public API and
// prints one JSON object on stdout. perfbench/run.py starts one child per
// repetition, so every repetition gets a fresh process (clean ru_maxrss,
// no allocator state carried over).
//
//   perfbench_driver --workload <name> --seed <n> --ops <n>
//                    [--role run|setup|reference] [--trace-out <path>]
//
// --ops counts the ops of all tenants; the fleet splits them evenly.
//
// Roles:
//   run        the measured run: host-clock timings of set-up (single-JVM),
//              the op loop and verification, plus every modeled number and
//              the correctness-check outputs.
//   setup      set-up only: Machine construction through Workload::Setup,
//              or for the fleet a RunFleet call with one op per tenant.
//   reference  single-JVM only: the same workload, seed and op count under
//              the memmove-only mover (SVAGC(memmove), near memory, no
//              generational front end); its reachable-graph digest is the
//              one every run must reproduce.
//
// With --trace-out the run records benchmark-side host-clock spans
// (run -> setup / op / drain / harvest / verify, with parent ids and each
// op's pause and collection deltas) in memory and writes them to the path
// when the run ends.
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet_runner.h"
#include "gc/phase_engine.h"
#include "runtime/heap_verifier.h"
#include "support/stats.h"
#include "telemetry/trace_recorder.h"
#include "verify/graph_digest.h"
#include "workloads/runner.h"

namespace {

using svagc::workloads::CollectorKind;
using svagc::workloads::RunConfig;
using svagc::workloads::RunResult;
using Clock = std::chrono::steady_clock;

// --- workload table ---------------------------------------------------------
// Why each workload is in the set is recorded in BENCHMARK.json; run lengths
// come from perfbench/spec.py.

constexpr unsigned kMachineCores = 32;
constexpr double kHeapFactor = 1.2;
constexpr unsigned kSingleJvmGcThreads = 2;
constexpr unsigned kFleetTenants = 4;
constexpr unsigned kFleetGcThreads = 1;
constexpr double kFleetArrivalGapMs = 0.5;
constexpr unsigned kFleetAdmissionK = 2;
constexpr double kFleetPauseBudgetMs = 2.5;

struct WorkloadSpec {
  const char* name;
  const char* app;
  CollectorKind collector;
  bool generational;
  double far_residency;
  bool fleet;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"sor-gen", "sor.large.x10", CollectorKind::kSvagc, true, 1.0, false},
    {"lru-conc-far", "lrucache", CollectorKind::kConcurrentSvagc, false, 0.5,
     false},
    {"fleet-open", "lrucache", CollectorKind::kSvagc, false, 1.0, true},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

RunConfig SingleJvmConfig(const WorkloadSpec& spec, unsigned ops) {
  RunConfig config;
  config.workload = spec.app;
  config.collector = spec.collector;
  config.heap_factor = kHeapFactor;
  config.gc_threads = kSingleJvmGcThreads;
  config.machine_cores = kMachineCores;
  config.iterations = ops;
  config.far_residency = spec.far_residency;
  config.generational.enabled = spec.generational;
  return config;
}

// Memmove-only mover on the same layout, near memory, no nursery: the
// digest every single-JVM arm must reproduce.
RunConfig ReferenceConfig(const WorkloadSpec& spec, unsigned ops) {
  RunConfig config = SingleJvmConfig(spec, ops);
  config.collector = CollectorKind::kSvagcNoSwap;
  config.far_residency = 1.0;
  config.generational.enabled = false;
  return config;
}

svagc::fleet::FleetConfig FleetConfigFor(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         unsigned ops_per_tenant) {
  svagc::fleet::FleetConfig config;
  config.run.workload = spec.app;
  config.run.collector = spec.collector;
  config.run.heap_factor = kHeapFactor;
  config.run.gc_threads = kFleetGcThreads;
  config.run.machine_cores = kMachineCores;
  config.run.iterations = ops_per_tenant;
  config.tenants = kFleetTenants;
  const double ghz = svagc::sim::ProfileXeonGold6130().ghz;
  config.arbiter = svagc::fleet::ArbiterBatchAdmission(
      kFleetAdmissionK, kFleetPauseBudgetMs * ghz * 1e6);
  config.arrival_interval_ms = kFleetArrivalGapMs;
  config.arrival_seed = seed;
  config.digest_heaps = true;
  return config;
}

// --- output -----------------------------------------------------------------

// Flat name -> value JSON object; doubles keep all 17 significant digits so
// the determinism guard can compare modeled values bit for bit.
class JsonFields {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void Int(const std::string& key, std::uint64_t value) {
    Raw(key, std::to_string(value));
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    Raw(key, quoted + "\"");
  }
  void Bool(const std::string& key, bool value) {
    Raw(key, value ? "true" : "false");
  }
  void Obj(const std::string& key, const JsonFields& fields) {
    Raw(key, fields.str());
  }
  std::string str() const { return "{" + body_ + "}"; }
  void Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }

 private:
  std::string body_;
};

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One tenant's RunResult, every field the benchmark reads. run.py sums the
// tenants (the fleet has four, single-JVM workloads one).
std::string TenantJson(const RunResult& r) {
  JsonFields t;
  t.Int("ops", r.iterations);
  t.Int("collections", r.gc_count);
  t.Int("minor_collections", r.gc_minor_count);
  t.Int("full_collections", r.gc_full_count);
  t.Int("promoted_bytes", r.promoted_bytes);
  t.Int("premature_tenures", r.premature_tenures);
  t.Num("gc_total_cycles", r.gc_total_cycles);
  t.Num("gc_p99_cycles", r.gc_p99_cycles);
  t.Num("mark_cycles", r.phase_sum.mark);
  t.Num("forward_cycles", r.phase_sum.forward);
  t.Num("adjust_cycles", r.phase_sum.adjust);
  t.Num("compact_cycles", r.phase_sum.compact);
  t.Num("other_cycles", r.phase_sum.other);
  t.Num("mutator_cycles", r.mutator_cycles);
  t.Num("disturbance_cycles", r.disturbance_cycles);
  t.Num("app_cycles", r.app_cycles);
  t.Num("throughput_ops", r.throughput_ops);
  t.Int("heap_bytes", r.heap_bytes);
  t.Int("alignment_waste_bytes", r.alignment_waste_bytes);
  t.Int("phys_written_bytes", r.physical_bytes_written);
  t.Int("bytes_copied", r.bytes_copied);
  t.Int("bytes_swapped", r.bytes_swapped);
  t.Int("swap_calls", r.swap_calls);
  t.Int("tier_faults", r.tier_faults);
  t.Int("tier_evictions", r.tier_evictions);
  t.Int("tier_relinks_swapped", r.tier_relinks_swapped);
  t.Int("tier_far_bytes_written", r.tier_far_bytes_written);
  t.Num("wait_cycles", r.gc_wait_cycles);
  t.Num("wait_max_cycles", r.gc_wait_max_cycles);
  t.Num("observed_pause_max_cycles", r.observed_pause_max_cycles);
  t.Int("emergency_gcs", r.emergency_gcs);
  JsonFields gc;
  for (const auto& [name, value] : r.gc_counters) gc.Int(name, value);
  t.Obj("gc_counters", gc);
  return t.str();
}

// Modeled numbers every role reports: one entry per tenant, the machine's
// counters (one registry, shared by all tenants) and the pooled pauses.
void AddModeled(JsonFields& modeled, const std::vector<RunResult>& tenants,
                std::vector<std::uint64_t> pause_samples) {
  modeled.Num("ghz", svagc::sim::ProfileXeonGold6130().ghz);
  std::string list;
  for (const RunResult& r : tenants) {
    list += (list.empty() ? "" : ", ") + TenantJson(r);
  }
  modeled.Raw("tenants", "[" + list + "]");
  JsonFields machine;
  for (const auto& [name, value] : tenants.front().machine_counters) {
    machine.Int(name, value);
  }
  modeled.Obj("machine_counters", machine);

  svagc::LatencyRecorder pooled;
  for (const std::uint64_t s : pause_samples) pooled.Record(s);
  const double p99 = pooled.Percentile(99);
  std::uint64_t beyond = 0;
  for (const std::uint64_t s : pause_samples) {
    beyond += static_cast<double>(s) > p99;
  }
  modeled.Int("pauses", pooled.count());
  modeled.Num("pause_p50_cycles", pooled.Percentile(50));
  modeled.Num("pause_p99_cycles", p99);
  modeled.Int("pauses_beyond_p99", beyond);
  modeled.Num("pause_total_cycles", pooled.total());
}

// --- host-clock spans -------------------------------------------------------

struct Span {
  int id;
  int parent;
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint64_t pauses;       // GcLog pause samples added inside the span
  std::uint64_t collections;  // GcLog collections completed inside the span
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int Open(int parent, const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{static_cast<int>(spans_.size()), parent, name,
                          Now(), 0, 0, 0});
    return spans_.back().id;
  }
  void Close(int id, std::uint64_t pauses = 0, std::uint64_t collections = 0) {
    if (!enabled_) return;
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.dur_ns = Now() - span.start_ns;
    span.pauses = pauses;
    span.collections = collections;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                   "\"start_ns\": %" PRId64 ", \"dur_ns\": %" PRId64
                   ", \"pauses\": %" PRIu64 ", \"collections\": %" PRIu64
                   "}%s\n",
                   s.id, s.parent, s.name, s.start_ns, s.dur_ns, s.pauses,
                   s.collections, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- roles ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::string role = "run";
  std::uint64_t seed = 0;
  unsigned ops = 0;
  std::string trace_out;
};

void Fingerprint(JsonFields& out) {
  JsonFields fp;
  fp.Int("nproc", std::thread::hardware_concurrency());
  fp.Str("compiler", PERFBENCH_COMPILER);
  fp.Str("build_type", PERFBENCH_BUILD_TYPE);
  fp.Bool("telemetry", svagc::telemetry::kEnabled);
  out.Obj("fingerprint", fp);
}

// Prints the set-up-only result shared by both workload kinds.
int PrintSetup(const WorkloadSpec& spec, const Args& args, double setup_s) {
  JsonFields out;
  out.Str("workload", spec.name);
  out.Str("role", args.role);
  out.Int("seed", args.seed);
  JsonFields host;
  host.Num("setup_s", setup_s);
  out.Obj("host", host);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// Single-JVM run, following RunWorkload's construction order so the run is
// the one every figure harness measures.
int RunSingleJvm(const WorkloadSpec& spec, const Args& args) {
  const bool reference = args.role == "reference";
  const RunConfig config = reference ? ReferenceConfig(spec, args.ops)
                                     : SingleJvmConfig(spec, args.ops);
  SpanLog spans(!args.trace_out.empty());
  const int run_span = spans.Open(-1, "run");

  const int setup_span = spans.Open(run_span, "setup");
  const Clock::time_point t_setup = Clock::now();
  const svagc::sim::CostProfile& profile = svagc::sim::ProfileXeonGold6130();
  svagc::sim::Machine machine(config.machine_cores, profile);
  svagc::sim::Kernel kernel(machine);
  auto probe = svagc::workloads::MakeWorkload(config.workload);
  SVAGC_CHECK(probe != nullptr);
  const auto heap_bytes = static_cast<std::uint64_t>(
      static_cast<double>(probe->info().min_heap_bytes) * config.heap_factor);
  svagc::sim::PhysicalMemory phys(heap_bytes + (8ULL << 20));
  // The seed is the tenant slot: SeedTenant derives the workload's stream.
  svagc::workloads::TenantBundle bundle = svagc::workloads::MakeTenant(
      config, machine, phys, kernel, static_cast<unsigned>(args.seed),
      /*mutator_core=*/0, /*gc_first_core=*/0, /*heap_base=*/1ULL << 32);
  bundle.workload->Setup(*bundle.jvm);
  const Clock::time_point t_ops = Clock::now();
  spans.Close(setup_span);
  if (args.role == "setup") {
    return PrintSetup(spec, args, Seconds(t_setup, t_ops));
  }

  svagc::rt::GcLog& log = bundle.jvm->collector().log();
  if (spans.enabled()) {
    for (unsigned i = 0; i < args.ops; ++i) {
      const std::uint64_t pauses = log.pauses.count();
      const std::uint64_t collections = log.collections;
      const int op = spans.Open(run_span, "op");
      bundle.workload->Iterate(*bundle.jvm);
      spans.Close(op, log.pauses.count() - pauses,
                  log.collections - collections);
    }
  } else {
    for (unsigned i = 0; i < args.ops; ++i) {
      bundle.workload->Iterate(*bundle.jvm);
    }
  }
  // A concurrent cycle may be mid-flight after the last op. The run ends at
  // a quiescent collector, so every pause window belongs to a logged cycle
  // (phase sums cover the pause total) and the heap can be digested.
  const std::uint64_t drain_pauses = log.pauses.count();
  const std::uint64_t drain_collections = log.collections;
  const int drain_span = spans.Open(run_span, "drain");
  if (auto* engine =
          dynamic_cast<svagc::gc::PhaseEngine*>(&bundle.jvm->collector())) {
    engine->FinishCycle();
  }
  spans.Close(drain_span, log.pauses.count() - drain_pauses,
              log.collections - drain_collections);
  const Clock::time_point t_harvest = Clock::now();

  const int harvest_span = spans.Open(run_span, "harvest");
  const RunResult result =
      svagc::workloads::HarvestTenant(config, machine, bundle, args.ops);
  spans.Close(harvest_span);

  const int verify_span = spans.Open(run_span, "verify");
  const Clock::time_point t_verify = Clock::now();
  const svagc::rt::VerifyResult verify = svagc::rt::VerifyHeap(*bundle.jvm);
  const std::uint64_t digest = svagc::verify::DigestReachableGraph(*bundle.jvm);
  const Clock::time_point t_end = Clock::now();
  spans.Close(verify_span);
  spans.Close(run_span, log.pauses.count(), log.collections);

  JsonFields out;
  out.Str("workload", spec.name);
  out.Str("role", args.role);
  out.Int("seed", args.seed);
  out.Int("gc_threads", config.gc_threads);
  out.Bool("generational", config.generational.enabled);
  Fingerprint(out);

  JsonFields host;
  host.Num("setup_s", Seconds(t_setup, t_ops));
  host.Num("ops_s", Seconds(t_ops, t_harvest));
  host.Num("verify_s", Seconds(t_verify, t_end));
  out.Obj("host", host);

  JsonFields modeled;
  AddModeled(modeled, {result}, log.pauses.samples());
  // RunResult keeps the alignment waste but not the bytes it accrued over.
  modeled.Int("allocated_bytes", bundle.jvm->heap().allocated_bytes());
  out.Obj("modeled", modeled);

  JsonFields check;
  check.Bool("verify_ok", verify.ok);
  check.Str("verify_error", verify.error);
  check.Str("graph_digest", std::to_string(digest));
  out.Obj("check", check);

  bool trace_ok = true;
  if (spans.enabled()) trace_ok = spans.Write(args.trace_out);
  out.Bool("trace_written", trace_ok);
  std::printf("%s\n", out.str().c_str());
  return trace_ok ? 0 : 1;
}

// The fleet always runs with a modeled-clock TraceRecorder attached: each GC
// cycle's pause is one "gc"/"cycle" span, which is the only way to pool the
// tenants' per-cycle pauses (FleetResult keeps per-tenant summaries only).
// Attaching it leaves every modeled number unchanged.
int RunFleetWorkload(const WorkloadSpec& spec, const Args& args) {
  if (args.role == "reference") {
    std::fprintf(stderr,
                 "perfbench: %s has no memmove reference (RunFleet exposes no "
                 "graph digest or verifier hook)\n",
                 spec.name);
    return 2;
  }
  if (args.role == "setup") {
    // Set-up cost of a fleet: a RunFleet call with one op per tenant.
    const Clock::time_point t0 = Clock::now();
    svagc::fleet::RunFleet(FleetConfigFor(spec, args.seed, 1));
    return PrintSetup(spec, args, Seconds(t0, Clock::now()));
  }
  SpanLog spans(!args.trace_out.empty());
  const int run_span = spans.Open(-1, "run");
  svagc::fleet::FleetConfig config =
      FleetConfigFor(spec, args.seed, args.ops / kFleetTenants);
  svagc::telemetry::TraceRecorder recorder;
  config.run.trace_recorder = &recorder;
  const int fleet_span = spans.Open(run_span, "fleet");
  const Clock::time_point t_ops = Clock::now();
  const svagc::fleet::FleetResult result = svagc::fleet::RunFleet(config);
  const Clock::time_point t_end = Clock::now();
  std::uint64_t collections = 0;
  for (const RunResult& r : result.tenants) collections += r.gc_count;
  spans.Close(fleet_span, 0, collections);
  spans.Close(run_span, 0, collections);

  JsonFields out;
  out.Str("workload", spec.name);
  out.Str("role", args.role);
  out.Int("seed", args.seed);
  out.Int("gc_threads", config.run.gc_threads * config.tenants);
  out.Bool("generational", config.run.generational.enabled);
  Fingerprint(out);

  // Heap digests are computed inside RunFleet, so verification time is part
  // of ops_s here and reported as 0.
  JsonFields host;
  host.Num("ops_s", Seconds(t_ops, t_end));
  host.Num("verify_s", 0);
  out.Obj("host", host);

  std::vector<std::uint64_t> samples;
  for (const svagc::telemetry::TraceEvent& e : recorder.Snapshot()) {
    if (e.cat == "gc" && e.name == "cycle") {
      // GcLog truncates each cycle's pause to whole cycles the same way.
      samples.push_back(static_cast<std::uint64_t>(e.dur));
    }
  }
  JsonFields modeled;
  AddModeled(modeled, result.tenants, samples);
  JsonFields arbiter;
  arbiter.Num("arbiter_cycles", result.arbiter_cycles);
  arbiter.Int("epochs", result.epochs);
  arbiter.Int("solo_epochs", result.solo_epochs);
  arbiter.Int("max_epoch_size", result.max_epoch_size);
  arbiter.Int("epoch_broadcasts", result.epoch_broadcasts);
  arbiter.Int("broadcast_fallbacks", result.broadcast_fallbacks);
  modeled.Obj("fleet", arbiter);
  out.Obj("modeled", modeled);

  std::string digests;
  for (const RunResult& r : result.tenants) {
    if (!digests.empty()) digests += ",";
    digests += std::to_string(r.heap_digest);
  }
  JsonFields check;
  check.Str("heap_digests", digests);
  out.Obj("check", check);

  bool trace_ok = true;
  if (spans.enabled()) trace_ok = spans.Write(args.trace_out);
  out.Bool("trace_written", trace_ok);
  std::printf("%s\n", out.str().c_str());
  return trace_ok ? 0 : 1;
}

bool ParseUnsigned(const char* text, std::uint64_t max, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-' ||
      value > max) {
    return false;
  }
  *out = value;
  return true;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<name> --seed <n> --ops <n> [--role run|setup|reference] "
               "[--trace-out <path>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--role") {
      args.role = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--seed") {
      // The seed becomes a tenant slot (unsigned) for single-JVM workloads.
      if (!ParseUnsigned(value, 0xFFFFFFFFu, &number)) {
        return Usage("--seed must be an integer in [0, 2^32)");
      }
      args.seed = number;
      have_seed = true;
    } else if (flag == "--ops") {
      if (!ParseUnsigned(value, 1u << 24, &number) || number == 0) {
        return Usage("--ops must be an integer in [1, 2^24]");
      }
      args.ops = static_cast<unsigned>(number);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) return Usage("unknown --workload");
  if (!have_seed || args.ops == 0) return Usage("--seed and --ops are required");
  if (spec->fleet && args.role == "run" && args.ops % kFleetTenants != 0) {
    return Usage("--ops must split evenly over the fleet's tenants");
  }
  if (args.role != "run" && args.role != "reference" && args.role != "setup") {
    return Usage("unknown --role");
  }
  return spec->fleet ? RunFleetWorkload(*spec, args)
                     : RunSingleJvm(*spec, args);
}
