// The repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--toy] [--trace-out <file>]
//   perfbench --selftest
//
// Runs one seeded workload against the library's public API, checks its
// outputs against an oracle, and prints as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. An untraced run
// (--trace 0) reports every end-to-end metric, a traced run every
// per-layer metric; both tables are below and match BENCHMARK.json. A
// traced run reports, for every layer, a value on every workload: 0 where
// the workload never enters that layer. Lines before the JSON give the
// host fingerprint and the run's other measured values.
//
// The run refuses to start (exit 2) when an environment knob would change
// the code under measurement, or when the library is not a Release build.
// Any oracle mismatch makes it exit 1 after printing its result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <string_view>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  /// Workload that measures it; "" for every workload.
  const char* owner;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"peak_rss_mib", "MiB", ""},
    {"job_s", "s", ""},
};

constexpr MetricDef kPerLayer[] = {
    {"failed_frac", "frac", ""},
    {"trace.job_s.untraced", "s", ""},
    {"trace.job_s.traced", "s", ""},
    {"trace.job_s.overhead", "s", ""},
    // paper_sweep
    {"fig4_s", "s", "paper_sweep"},
    {"fig5_s", "s", "paper_sweep"},
    {"data.shuffle_ns", "ns", "paper_sweep"},
    {"core.threshold_ns", "ns", "paper_sweep"},
    {"eval.metrics_ns", "ns", "paper_sweep"},
    {"eval.sweep.self_ns", "ns", "paper_sweep"},
    {"core.svt_s.ns_per_query", "ns", "paper_sweep"},
    {"core.svt_s.queries", "count", "paper_sweep"},
    {"core.dpbook.ns_per_query", "ns", "paper_sweep"},
    {"core.dpbook.queries", "count", "paper_sweep"},
    {"core.retr.ns_per_comparison", "ns", "paper_sweep"},
    {"core.retr.comparisons", "count", "paper_sweep"},
    {"core.retr.passes", "count", "paper_sweep"},
    {"core.retr.selected_per_comparison", "frac", "paper_sweep"},
    {"core.em.ns_per_item", "ns", "paper_sweep"},
    // batch_scan; bytes_per_query is computed from the array sizes, not
    // measured.
    {"scan_common_qps", "1/s", "batch_scan"},
    {"scan_perquery_qps", "1/s", "batch_scan"},
    {"scan_resample_qps", "1/s", "batch_scan"},
#define PERFBENCH_PHASE(phase)                                             \
  {"core.batch." phase ".tier1_skip_frac", "frac", "batch_scan"},          \
      {"core.batch." phase ".span_skip_frac", "frac", "batch_scan"},       \
      {"core.batch." phase ".words_skipped_frac", "frac", "batch_scan"},   \
      {"core.batch." phase ".rederivations_per_mq", "count", "batch_scan"}, \
      {"core.batch." phase ".positives_per_mq", "count", "batch_scan"},    \
      {"core.batch." phase ".bound_bytes_per_query", "B", "batch_scan"},   \
      {"core.batch." phase ".bytes_per_query", "B", "batch_scan"},         \
      {"core.batch." phase ".bw_frac", "frac", "batch_scan"}
    PERFBENCH_PHASE("common"),
    PERFBENCH_PHASE("perquery"),
    PERFBENCH_PHASE("resample"),
#undef PERFBENCH_PHASE
    {"host.mem_read_gbs", "GB/s", "batch_scan"},
    {"common.rng.fill_ns_per_word", "ns", "batch_scan"},
    {"data.prefilter_build_ns", "ns", "batch_scan"},
    // serve_open
    {"serve_p50_us", "us", "serve_open"},
    {"serve_p99_us", "us", "serve_open"},
    {"serve_sat_qps", "1/s", "serve_open"},
    {"serving.submit_ns.p50", "ns", "serve_open"},
    {"serving.submit_ns.p99", "ns", "serve_open"},
    {"serving.queue_wait_us.p50", "us", "serve_open"},
    {"serving.queue_wait_us.p99", "us", "serve_open"},
    {"serving.drain_ns.p50", "ns", "serve_open"},
    {"serving.drain_ns.p99", "ns", "serve_open"},
    {"serving.drain_reqs", "count", "serve_open"},
    {"serving.exec_p50_ns", "ns", "serve_open"},
    {"serving.exec_p99_ns", "ns", "serve_open"},
    {"serving.shard_imbalance", "x", "serve_open"},
    {"serving.shed_frac", "frac", "serve_open"},
    {"serving.queue_high_water", "count", "serve_open"},
    {"loadgen.lag_p99_us", "us", "serve_open"},
    // mc_audit
    {"mc_1w_trials_per_s", "1/s", "mc_audit"},
    {"mc_par_trials_per_s", "1/s", "mc_audit"},
    {"audit.mc.ns_per_trial_fixed", "ns", "mc_audit"},
    {"audit.mc.ns_per_query", "ns", "mc_audit"},
    {"audit.mc.scaling_eff", "frac", "mc_audit"},
    {"audit.mc.workers", "count", "mc_audit"},
};

struct Workload {
  const char* name;
  Outcome (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"paper_sweep", RunPaperSweep},
    {"batch_scan", RunBatchScan},
    {"serve_open", RunServeOpen},
    {"mc_audit", RunMcAudit},
};

int Usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--toy] [--trace-out <file>]\n"
               "       perfbench --selftest\n";
  return 2;
}

/// Refuses configurations that would change what is measured.
bool ConfigurationPinned() {
  bool ok = true;
  for (const char* knob : {"SVT_BATCH_KERNELS", "SVT_BOUND_PREFILTER",
                           "SVT_FORCE_SCALAR", "SVT_MAX_DISPATCH"}) {
    if (std::getenv(knob) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << knob
                << " set; unset it to measure the default configuration\n";
      ok = false;
    }
  }
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to run a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    ok = false;
  }
  return ok;
}

std::string Number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int SelfTest() {
  struct Test {
    const char* name;
    int (*run)();
  };
  const Test tests[] = {{"paper_sweep", SelfTestPaperSweep},
                        {"batch_scan", SelfTestBatchScan},
                        {"serve_open", SelfTestServeOpen},
                        {"mc_audit", SelfTestMcAudit}};
  int problems = 0;
  for (const Test& test : tests) {
    const int p = test.run();
    std::cout << "selftest " << test.name << ": "
              << (p == 0 ? "oracle accepts the clean output and rejects the "
                           "corrupted one"
                         : std::to_string(p) + " problem(s)")
              << "\n";
    problems += p;
  }
  return problems == 0 ? 0 : 1;
}

}  // namespace

int Main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      return ConfigurationPinned() ? SelfTest() : 2;
    } else if (arg == "--toy") {
      options.toy = true;
    } else if (!has_value) {
      return Usage("missing value");
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(argv[++i]);
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      const std::string_view v = argv[++i];
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      options.trace = v == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      options.trace_path = argv[++i];
    } else {
      return Usage("unknown argument");
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (> 0) and --trace are required");
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) return Usage("unknown --workload");
  if (!ConfigurationPinned()) return 2;

  std::cout << "# " << HostFingerprint() << "\n";
  Outcome outcome = chosen->run(options);
  outcome.Set("failed_frac",
              outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                          static_cast<double>(outcome.attempted)
                                    : 0.0);
  if (options.trace) {
    outcome.Set("trace.job_s.overhead",
                outcome.metrics["trace.job_s.traced"] -
                    outcome.metrics["trace.job_s.untraced"]);
  }
  for (const std::string& failure : outcome.failures) {
    std::cout << "# FAILED: " << failure << "\n";
  }

  std::string json = "{\"correct\": ";
  json += outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const std::span<const MetricDef> table =
      options.trace ? std::span<const MetricDef>(kPerLayer)
                    : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& def : table) {
    double value = 0.0;
    const bool owned =
        def.owner[0] == '\0' || std::string_view(def.owner) == chosen->name;
    const auto it = outcome.metrics.find(def.name);
    if (it != outcome.metrics.end()) {
      value = it->second;
      outcome.metrics.erase(it);
    } else if (owned) {
      std::cerr << "perfbench: workload did not measure " << def.name << "\n";
      return 1;
    }
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: " << def.name << " is not finite\n";
      return 1;
    }
    json += first ? "" : ", ";
    json += "\"" + std::string(def.name) + "\": {\"value\": " + Number(value) +
            ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  }
  json += "}}";
  for (const auto& [name, value] : outcome.metrics) {
    std::cout << "# " << name << " = " << Number(value) << "\n";
  }
  std::cout << json << std::endl;
  return outcome.failed == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
