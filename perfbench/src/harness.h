// Shared plumbing of the benchmark binary: run options, metric and oracle
// bookkeeping, in-memory spans for traced runs, and small statistics.
//
// Every workload is measured from the outside: the benchmark times its own
// calls into the library's public API and reads the library's public
// counters. Nothing here reaches into src/.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Parameters every workload receives.
struct RunOptions {
  /// Seeds every generated input; the library sees only the inputs.
  uint64_t seed = 1;
  /// Measurement budget of the run.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Self-test sizes: every loop shrunk so a whole run takes well under a
  /// second. Metric names and oracles are unchanged.
  bool toy = false;
  /// Traced runs write their spans here ("" = keep them in memory only).
  std::string trace_path;
};

/// What a workload returns: its metric values and its oracle tally.
struct Outcome {
  std::map<std::string, double, std::less<>> metrics;
  /// Operations checked against an oracle (or offered, for serving).
  int64_t attempted = 0;
  /// Operations that failed, were refused, or disagreed with the oracle.
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void Set(std::string_view name, double value) {
    metrics[std::string(name)] = value;
  }
  /// Counts one checked operation; records a failure when !ok.
  void Check(bool ok, const std::string& what);
  /// Counts `n` operations of which `bad` failed.
  void Count(int64_t n, int64_t bad, const std::string& what);
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval around a call into a layer.
struct Span {
  const char* name;  ///< a string literal: "<layer>.<call>"
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;    ///< index in the same buffer, -1 for a root
  int64_t request;   ///< serving request id, -1 elsewhere
};

/// Spans of one thread. Nested Begin/End pairs form the parent links.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::string thread_name)
      : thread_name_(std::move(thread_name)) {}

  int32_t Begin(const char* name, int64_t request = -1);
  void End(int32_t index);
  /// Records an interval measured elsewhere (e.g. a request's wait from
  /// its due time), as a child of the innermost open span.
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           int64_t request = -1);

  const std::string& thread_name() const { return thread_name_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string thread_name_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null buffer (untraced code path) records nothing.
class SpanScope {
 public:
  SpanScope(TraceBuffer* buffer, const char* name, int64_t request = -1)
      : buffer_(buffer),
        index_(buffer != nullptr ? buffer->Begin(name, request) : -1) {}
  ~SpanScope() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceBuffer* buffer_;
  int32_t index_;
};

/// Per-name totals over one or more buffers. Self time is a span's
/// duration minus the part of it its children cover.
struct SpanTotals {
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::map<std::string, SpanTotals, std::less<>> Summarize(
    const std::vector<const TraceBuffer*>& buffers);

/// Writes every span as one tab-separated line (thread, index, parent,
/// name, request, start, end, self); returns false if the file cannot be
/// written.
bool DumpSpans(const std::string& path,
               const std::vector<const TraceBuffer*>& buffers);

// ---------------------------------------------------------------------------
// Statistics and host facts
// ---------------------------------------------------------------------------

/// Seconds of the repeated units of one job: a run repeats the same job,
/// and each unit's repetitions are kept apart. The job's robust wall
/// time is the sum over units of each unit's median: with only a few jobs
/// per run, that filters the host's repetition-to-repetition noise far
/// better than the median of whole-job times.
class UnitTimes {
 public:
  void Add(size_t unit, double seconds);
  /// Sum of unit medians over units [begin, end).
  double SumOfMedians(size_t begin, size_t end) const;
  double SumOfMedians() const { return SumOfMedians(0, times_.size()); }

 private:
  std::vector<std::vector<double>> times_;
};

/// Median of the values (0 for none).
double Median(std::vector<double> values);

/// Nearest-rank q-quantile, q in [0, 1] (0 for none).
double Quantile(std::vector<double> values, double q);

/// Median wall time of one `setup` call, in seconds, over five samples
/// after one untimed call; a sample repeats the call enough times to span
/// at least 20 ms.
double MedianSetupSeconds(const std::function<void()>& setup);

/// Peak resident set size of this process, MiB.
double PeakRssMib();

/// Last-level cache size in bytes from sysfs (0 when unknown).
int64_t LastLevelCacheBytes();

/// One line naming the host and build the numbers come from.
std::string HostFingerprint();

/// 64-bit FNV-1a over raw bytes, chained through `state`.
uint64_t Fnv1a(const void* data, size_t size, uint64_t state);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
