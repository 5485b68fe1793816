#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <thread>
#include <unordered_set>
#include <utility>

namespace perfbench {
namespace {

double Dot(const float* a, const float* b, size_t dim) {
  double sum = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    sum += static_cast<double>(a[d]) * static_cast<double>(b[d]);
  }
  return sum;
}

}  // namespace

Vectors::Vectors(cej::la::Matrix matrix)
    : matrix_(std::move(matrix)), norms_(matrix_.rows()) {
  for (size_t i = 0; i < norms_.size(); ++i) {
    norms_[i] = std::sqrt(Dot(matrix_.Row(i), matrix_.Row(i), matrix_.cols()));
  }
}

double Vectors::Cosine(size_t i, const Vectors& other, size_t j) const {
  const double denom = norms_[i] * other.norms_[j];
  return denom > 0.0
             ? Dot(matrix_.Row(i), other.matrix_.Row(j), matrix_.cols()) /
                   denom
             : 0.0;
}

TopKReference::TopKReference(const Vectors& probes,
                             const std::vector<std::string>& corpus,
                             const cej::model::EmbeddingModel& model,
                             cej::ThreadPool* pool, size_t k, int threads)
    : expect_(std::min(k, corpus.size())), candidates_(probes.rows()) {
  if (expect_ == 0) return;
  // Per probe row, a min-heap of the best `expect_` cosines so far. Its top
  // only rises, so a row scored below top - tolerance can never become a
  // candidate; the rest are kept and pruned against the final k-th best.
  using MinHeap =
      std::priority_queue<double, std::vector<double>, std::greater<double>>;
  std::vector<MinHeap> best(probes.rows());
  const size_t n = probes.rows();
  const size_t parts = static_cast<size_t>(std::max(1, threads));
  for (size_t first = 0; first < corpus.size(); first += kChunkRows) {
    const Vectors chunk(model.EmbedRange(
        corpus, first, std::min(corpus.size(), first + kChunkRows), pool));
    auto work = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        for (size_t j = 0; j < chunk.rows(); ++j) {
          const double cos = probes.Cosine(i, chunk, j);
          if (best[i].size() < expect_) {
            best[i].push(cos);
          } else if (cos > best[i].top()) {
            best[i].pop();
            best[i].push(cos);
          }
          if (cos >= best[i].top() - kSimTolerance) {
            candidates_[i].push_back({static_cast<uint32_t>(first + j), cos});
          }
        }
      }
    };
    std::vector<std::thread> workers;
    for (size_t t = 0; t < parts; ++t) {
      workers.emplace_back(work, n * t / parts, n * (t + 1) / parts);
    }
    for (std::thread& worker : workers) worker.join();
  }
  for (size_t i = 0; i < n; ++i) {
    const double floor = best[i].top() - kSimTolerance;
    std::vector<Candidate>& row = candidates_[i];
    row.erase(std::remove_if(
                  row.begin(), row.end(),
                  [floor](const Candidate& c) { return c.cosine < floor; }),
              row.end());
    row.shrink_to_fit();
  }
}

bool TopKReference::Check(const std::vector<Match>& got,
                          const std::vector<uint32_t>& queried,
                          std::string* why) const {
  std::unordered_map<uint32_t, std::unordered_set<uint32_t>> by_left;
  for (uint32_t left : queried) by_left[left];
  for (const Match& m : got) {
    auto it = by_left.find(m.left);
    if (it == by_left.end() || m.left >= candidates_.size()) {
      *why = "pair for a probe row that was not queried";
      return false;
    }
    if (!it->second.insert(m.right).second) {
      *why = "duplicate neighbour";
      return false;
    }
    const std::vector<Candidate>& row = candidates_[m.left];
    auto c = std::lower_bound(
        row.begin(), row.end(), m.right,
        [](const Candidate& x, uint32_t right) { return x.right < right; });
    if (c == row.end() || c->right != m.right) {
      *why = "neighbour below the reference k-th best";
      return false;
    }
    if (std::fabs(c->cosine - m.sim) > kSimTolerance) {
      *why = "similarity differs from the reference cosine";
      return false;
    }
  }
  for (const auto& [left, rights] : by_left) {
    if (rights.size() != expect_) {
      *why = "wrong neighbour count for a probe row";
      return false;
    }
  }
  return true;
}

uint64_t GraphReference::RowHash(uint32_t a, uint32_t b, uint32_t c) {
  uint64_t z = (static_cast<uint64_t>(a) * 0x9E3779B97F4A7C15ull) ^
               (static_cast<uint64_t>(b) * 0xC2B2AE3D27D4EB4Full) ^
               (static_cast<uint64_t>(c) * 0x165667B19E3779F9ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

GraphReference::GraphReference(const Vectors& a, const Vectors& b,
                               const Vectors& c, double threshold) {
  auto edge = [&](const Vectors& x, const Vectors& y, PairMap* map) {
    for (uint32_t i = 0; i < x.rows(); ++i) {
      for (uint32_t j = 0; j < y.rows(); ++j) {
        const double cos = x.Cosine(i, y, j);
        if (std::fabs(cos - threshold) <= kSimTolerance) unambiguous_ = false;
        if (cos >= threshold) (*map)[Key(i, j)] = cos;
      }
    }
  };
  edge(a, b, &ab_);
  edge(b, c, &bc_);
  std::unordered_map<uint32_t, std::vector<uint32_t>> c_of_b;
  for (const auto& [key, cos] : bc_) {
    c_of_b[static_cast<uint32_t>(key >> 32)].push_back(
        static_cast<uint32_t>(key));
  }
  for (const auto& [key, cos] : ab_) {
    auto it = c_of_b.find(static_cast<uint32_t>(key));
    if (it == c_of_b.end()) continue;
    for (uint32_t ci : it->second) {
      ++rows_;
      checksum_ += RowHash(static_cast<uint32_t>(key >> 32),
                           static_cast<uint32_t>(key), ci);
    }
  }
}

bool GraphReference::CheckRow(const GraphRow& row, std::string* why) const {
  auto ab = ab_.find(Key(row.a, row.b));
  auto bc = bc_.find(Key(row.b, row.c));
  if (ab == ab_.end() || bc == bc_.end()) {
    *why = "graph row joins a pair below the threshold";
    return false;
  }
  if (std::fabs(ab->second - row.sim_ab) > kSimTolerance ||
      std::fabs(bc->second - row.sim_bc) > kSimTolerance) {
    *why = "graph similarity differs from the reference cosine";
    return false;
  }
  return true;
}

}  // namespace perfbench
