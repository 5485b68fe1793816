// Measurement plumbing shared by the perfbench workloads: seeded input
// generation, order statistics, process counters, the in-memory span
// tracer, and the one-line JSON result.
//
// Everything here observes the engine from outside: spans wrap calls into
// the public cej API and never reach inside src/.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// splitmix64: the benchmark's own generator, so inputs depend only on the
/// seed and not on the library's generators.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      std::swap((*values)[i - 1], (*values)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// `n` distinct lowercase strings with lengths in [len_lo, len_hi].
std::vector<std::string> DistinctWords(size_t n, size_t len_lo, size_t len_hi,
                                       Rng* rng);

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 if empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}
double Mean(const std::vector<double>& values);

/// getrusage(RUSAGE_SELF) snapshot: every thread of the process.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minflt = 0;
  double maxrss_mb = 0.0;
};
Usage ReadUsage();

/// Returns the heap's free pages to the system (glibc's malloc_trim), so
/// memory the harness freed (inputs generated for the oracle, engines of
/// earlier set-ups) does not stay in the resident set behind ru_maxrss.
/// It leaves the allocator's settings as they are.
void ReleaseFreedMemory();

/// One recorded span: a call into a layer, or a wait derived from a
/// layer's own timestamps. `parent` indexes the enclosing span (-1 = root);
/// spans of one request share `request`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t request = 0;
};

/// In-memory span recorder. Spans are kept until Write(); self time is a
/// span's duration minus the part of it that its children cover.
class Tracer {
 public:
  /// Opens a span now and returns its index.
  int Begin(std::string name, int parent, int64_t request);
  void End(int index, int64_t end_ns = NowNs()) {
    spans_[index].end_ns = end_ns;
  }
  /// Records a span with known bounds (e.g. from a response's timings).
  int Add(std::string name, int64_t start_ns, int64_t end_ns, int parent,
          int64_t request);

  const std::vector<Span>& spans() const { return spans_; }
  int64_t DurationNs(int index) const {
    return spans_[index].end_ns - spans_[index].start_ns;
  }
  /// Self time of every span, indexed like spans().
  std::vector<int64_t> SelfTimes() const;
  /// Self times in ms of every span called `name`.
  std::vector<double> SelfMs(const std::string& name) const;
  /// Writes one tab-separated line per span (with its self time).
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Prints the final result line on stdout.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
