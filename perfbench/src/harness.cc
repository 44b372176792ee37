#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/vecmath.h"

namespace perfbench {

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
}

void Outcome::Count(int64_t n, int64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && failures.size() < 8) {
    failures.push_back(what + ": " + std::to_string(bad) + " of " +
                       std::to_string(n));
  }
}

int32_t TraceBuffer::Begin(const char* name, int64_t request) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), 0, parent, request});
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void TraceBuffer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order on one thread.
  open_.pop_back();
}

void TraceBuffer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                      int64_t request) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, start_ns, end_ns, parent, request});
}

namespace {

/// Self time of every span in one buffer: duration minus the union of its
/// children's intervals clipped to it.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (const auto& [lo, hi] : kids) {
      const int64_t a = std::max(lo, cursor);
      const int64_t b = std::min(hi, spans[i].end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

}  // namespace

std::map<std::string, SpanTotals, std::less<>> Summarize(
    const std::vector<const TraceBuffer*>& buffers) {
  std::map<std::string, SpanTotals, std::less<>> totals;
  for (const TraceBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals[spans[i].name];
      t.total_ns += spans[i].end_ns - spans[i].start_ns;
      t.self_ns += self[i];
    }
  }
  return totals;
}

bool DumpSpans(const std::string& path,
               const std::vector<const TraceBuffer*>& buffers) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tindex\tparent\tname\trequest\tstart_ns\tend_ns\tself_ns\n";
  for (const TraceBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << buffer->thread_name() << '\t' << i << '\t' << s.parent << '\t'
          << s.name << '\t' << s.request << '\t' << s.start_ns << '\t'
          << s.end_ns << '\t' << self[i] << '\n';
    }
  }
  return static_cast<bool>(out.flush());
}

void UnitTimes::Add(size_t unit, double seconds) {
  if (times_.size() <= unit) times_.resize(unit + 1);
  times_[unit].push_back(seconds);
}

double UnitTimes::SumOfMedians(size_t begin, size_t end) const {
  double sum = 0.0;
  for (size_t u = begin; u < end && u < times_.size(); ++u) {
    sum += Median(times_[u]);
  }
  return sum;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t k = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

double MedianSetupSeconds(const std::function<void()>& setup) {
  // The first call also sizes the samples: a sample repeats the set-up
  // until it spans at least 20 ms, so short set-ups are not read off
  // single clock intervals.
  int64_t start = NowNs();
  setup();
  const int64_t first_ns = std::max<int64_t>(NowNs() - start, 1);
  const int64_t calls = std::max<int64_t>(1, 20'000'000 / first_ns);
  std::vector<double> seconds;
  for (int sample = 0; sample < 5; ++sample) {
    start = NowNs();
    for (int64_t i = 0; i < calls; ++i) setup();
    seconds.push_back(SecondsBetween(start, NowNs()) /
                      static_cast<double>(calls));
  }
  return Median(seconds);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t LastLevelCacheBytes() {
  int64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    int64_t value = std::atoll(text.c_str());
    if (text.back() == 'K') value <<= 10;
    if (text.back() == 'M') value <<= 20;
    best = std::max(best, value);
  }
  return best;
}

std::string HostFingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::ostringstream out;
  out << "host: nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " cpu=\"" << cpu
      << "\" llc_kib=" << LastLevelCacheBytes() / 1024 << " dispatch="
      << svt::vec::DispatchLevelName(svt::vec::ActiveDispatchLevel())
      << " compiler=" << PERFBENCH_COMPILER
      << " build=" << PERFBENCH_BUILD_TYPE;
  return out.str();
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t state) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= 0x100000001b3ULL;
  }
  return state;
}

}  // namespace perfbench
