// The benchmark's own reference for result checking: a scalar,
// double-precision brute-force cosine over the model's embeddings,
// independent of the engine's SIMD kernels and operators.
//
// Engine similarities are float sums whose last bits depend on the kernel
// (1-dot vs 8-dot reductions, tile position), so comparisons allow
// kSimTolerance. A top-k answer is accepted when every returned neighbour
// is within the tolerance of the reference k-th best cosine, which admits
// either side of a near-tie and nothing else.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cej/common/thread_pool.h"
#include "cej/la/matrix.h"
#include "cej/model/embedding_model.h"

namespace perfbench {

inline constexpr double kSimTolerance = 1e-5;

/// An embedding matrix with the double-precision norms of its rows.
class Vectors {
 public:
  explicit Vectors(cej::la::Matrix matrix);

  size_t rows() const { return norms_.size(); }

  /// Cosine of row i of *this and row j of `other`, in double.
  double Cosine(size_t i, const Vectors& other, size_t j) const;

 private:
  cej::la::Matrix matrix_;
  std::vector<double> norms_;
};

/// One result pair: probe row (in the probe universe), corpus row, and the
/// engine's similarity.
struct Match {
  uint32_t left = 0;
  uint32_t right = 0;
  float sim = 0.0f;
};

/// Reference answer of a top-k join. For every probe row it keeps only the
/// corpus rows whose cosine is within tolerance of the row's k-th best or
/// above, with their cosines: no other row can be in a correct answer, so
/// no embedding stays resident.
class TopKReference {
 public:
  /// Embeds `corpus` with `model` a chunk of kChunkRows at a time, so its
  /// whole matrix is never resident either, and scores each chunk against
  /// `probes` over `threads` threads.
  TopKReference(const Vectors& probes, const std::vector<std::string>& corpus,
                const cej::model::EmbeddingModel& model,
                cej::ThreadPool* pool, size_t k, int threads);

  /// Checks a top-k answer for the probe rows `queried` (universe ids):
  /// exactly min(k, |corpus|) distinct neighbours per queried row, none for
  /// other rows, every neighbour a candidate of its row, and every
  /// similarity within tolerance of the candidate's cosine. `why` gets the
  /// first failure.
  bool Check(const std::vector<Match>& got,
             const std::vector<uint32_t>& queried, std::string* why) const;

 private:
  static constexpr size_t kChunkRows = 4096;

  struct Candidate {
    uint32_t right = 0;
    double cosine = 0.0;
  };

  size_t expect_ = 0;
  /// Per probe row, sorted by corpus row.
  std::vector<std::vector<Candidate>> candidates_;
};

/// One row of the chained graph A–B–C: row ids per table and the two edge
/// similarities.
struct GraphRow {
  uint32_t a = 0, b = 0, c = 0;
  float sim_ab = 0.0f, sim_bc = 0.0f;
};

/// Reference answer of the threshold chain A.x ~ B.y ~ C.z: cardinality,
/// an order-independent checksum over (a, b, c), and the matching pairs
/// of each edge with their cosines.
class GraphReference {
 public:
  GraphReference(const Vectors& a, const Vectors& b, const Vectors& c,
                 double threshold);

  /// False when some pair's cosine lies within tolerance of the threshold,
  /// so the reference could not tell the engine's answer apart.
  bool unambiguous() const { return unambiguous_; }

  /// Checks an answer of `n` rows, where row(i) returns row i as a
  /// GraphRow. Reading the rows in place keeps the check from allocating
  /// beside the engine's result.
  template <typename RowFn>
  bool Check(size_t n, RowFn row, std::string* why) const {
    if (n != rows_) {
      *why = "graph cardinality differs from the reference";
      return false;
    }
    uint64_t checksum = 0;
    for (size_t i = 0; i < n; ++i) {
      const GraphRow r = row(i);
      if (!CheckRow(r, why)) return false;
      checksum += RowHash(r.a, r.b, r.c);
    }
    if (checksum != checksum_) {
      *why = "graph content checksum differs from the reference";
      return false;
    }
    return true;
  }

 private:
  static uint64_t RowHash(uint32_t a, uint32_t b, uint32_t c);
  /// Both of the row's pairs are reference pairs, with their cosines.
  bool CheckRow(const GraphRow& row, std::string* why) const;
  using PairMap = std::unordered_map<uint64_t, double>;
  static uint64_t Key(uint32_t x, uint32_t y) {
    return (static_cast<uint64_t>(x) << 32) | y;
  }

  bool unambiguous_ = true;
  uint64_t rows_ = 0;
  uint64_t checksum_ = 0;
  PairMap ab_, bc_;
};

/// The oracle's self-test: a correct answer passes, and the same answer
/// with one pair dropped, or with the right ids of two pairs swapped,
/// fails. Returns the ok fraction over those three answers (1/3 when the
/// oracle is sensitive).
template <typename Row, typename CheckFn, typename SwapFn>
double SelfTestOkFrac(const std::vector<Row>& good, CheckFn check,
                      SwapFn swap) {
  if (good.size() < 2) return 0.0;
  std::vector<Row> dropped(good.begin() + 1, good.end());
  std::vector<Row> swapped = good;
  if (!swap(&swapped)) return 0.0;
  std::string why;
  int ok = 0;
  const std::vector<Row>* answers[] = {&good, &dropped, &swapped};
  for (const std::vector<Row>* answer : answers) {
    if (check(*answer, &why)) ++ok;
  }
  return ok / 3.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
