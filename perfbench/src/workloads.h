// The benchmark workloads; BENCHMARK.json lists all but paper_sweep,
// which runs by name only (see paper_sweep.cc). Each generates its inputs
// from the seed, times calls into the library for RunOptions::seconds,
// checks every output against an oracle, and fills the metrics it owns
// (see the metric table in main.cc).
//
// Every workload reports `job_s`, a robust wall time of one repetition of
// its fixed job (a median, or a sum of per-unit medians); what the job is
// differs per workload and is stated at each Run* function. In a traced run a workload alternates untraced and
// traced repetitions of the same job, so the tracing overhead is reported
// next to the untraced value.
//
// Each SelfTest* runs the workload's oracle on toy inputs twice — once as
// produced, once with one output deliberately corrupted — and returns the
// number of problems (an oracle that rejects a correct output or accepts
// the corrupted one).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Job: the Figure 4 lineup sweep, then the Figure 5 lineup sweep, over
/// the four Table 1 score vectors.
Outcome RunPaperSweep(const RunOptions& options);
int SelfTestPaperSweep();

/// Job: the common, per-query and resample 1M-query scans back to back.
Outcome RunBatchScan(const RunOptions& options);
int SelfTestBatchScan();

/// Job: one closed-loop window of a fixed request list (after the
/// open-loop phase that yields the latency metrics).
Outcome RunServeOpen(const RunOptions& options);
int SelfTestServeOpen();

/// Job: every Fig. 2 instance estimated on D and D' with one worker, then
/// with one worker per hardware thread.
Outcome RunMcAudit(const RunOptions& options);
int SelfTestMcAudit();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
