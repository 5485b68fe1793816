#include "harness.h"

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace perfbench {

std::vector<std::string> DistinctWords(size_t n, size_t len_lo, size_t len_hi,
                                       Rng* rng) {
  std::unordered_set<std::string> seen;
  std::vector<std::string> words;
  words.reserve(n);
  while (words.size() < n) {
    const size_t len = len_lo + rng->Below(len_hi - len_lo + 1);
    std::string word(len, 'a');
    for (char& c : word) c = static_cast<char>('a' + rng->Below(26));
    if (seen.insert(word).second) words.push_back(std::move(word));
  }
  return words;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
                 static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  usage.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  usage.minflt = ru.ru_minflt;
  usage.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB.
  return usage;
}

void ReleaseFreedMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

int Tracer::Begin(std::string name, int parent, int64_t request) {
  const int64_t now = NowNs();
  return Add(std::move(name), now, now, parent, request);
}

int Tracer::Add(std::string name, int64_t start_ns, int64_t end_ns,
                int parent, int64_t request) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[span.parent].push_back({span.start_ns, span.end_ns});
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t lo = spans_[i].start_ns, hi = spans_[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to this span.
    int64_t covered = 0, cursor = lo;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<double> Tracer::SelfMs(const std::string& name) const {
  const std::vector<int64_t> self = SelfTimes();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(NsToMs(self[i]));
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "index\tname\trequest\tparent\tstart_ns\tend_ns\tself_ns\n");
  const std::vector<int64_t> self = SelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%zu\t%s\t%lld\t%d\t%lld\t%lld\t%lld\n", i,
                 s.name.c_str(), static_cast<long long>(s.request), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(file) == 0;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    // JSON has no NaN/Inf; a metric that could not be formed prints 0.
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
