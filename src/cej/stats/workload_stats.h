// Adaptive workload statistics: the observation store behind the cost
// calibrator (cej/stats/cost_calibrator.h).
//
// Every executed join produces one Observation — the workload shape the
// planner priced, the quote it priced it at, the operator it chose (and
// the runner-up it rejected), and the seconds the operator actually took.
// WorkloadStats keeps a bounded ring of them per operator so the engine
// can (a) refit the cost model against execution reality and (b) show the
// per-join misprediction history in Explain().
//
// The store is deliberately dumb: it never interprets the features — the
// CostCalibrator owns the regression. Thread-safe; recording is O(1).

#ifndef CEJ_STATS_WORKLOAD_STATS_H_
#define CEJ_STATS_WORKLOAD_STATS_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cej/join/join_cost.h"

namespace cej::stats {

/// One executed join, as the calibrator sees it: the cost decomposition
/// the planner priced (join::CostFeatures), the quote, and reality.
struct Observation {
  std::string op;         ///< Chosen physical operator.
  std::string runner_up;  ///< Second-cheapest eligible ("" = none).
  double estimated_ns = 0.0;   ///< The chosen operator's quote at plan time.
  double runner_up_ns = 0.0;   ///< The runner-up's quote.
  double measured_ns = 0.0;    ///< embed + join wall time actually spent.
  join::CostFeatures features; ///< Calibration features at plan time.
  /// Workload shape, kept for Explain() and the family-aware build policy.
  size_t left_rows = 0;
  size_t right_rows = 0;
  size_t dim = 0;
  bool topk = false;
  /// Realized parallelism min(shards, workers) — feeds the pool-scaling
  /// efficiency estimate (1 = serial).
  size_t parallel_workers = 1;
  /// The speedup the plan-time quote divided parallel work by
  /// (join::ParallelSpeedup under the plan's params; 1 = serial). Lets the
  /// calibrator reconstruct the serial work behind a parallel observation.
  double speedup_estimated = 1.0;
  /// True when the scan chose this operator to gather a first timing for
  /// it (see CostCalibrator exploration) rather than because it quoted
  /// cheapest.
  bool explored = false;
  /// Client queries the serving layer fused into this single batched run
  /// (1 = solo). A fused batch is recorded ONCE — this field carries the
  /// per-query attribution.
  size_t fused_queries = 1;
  /// Join-graph edge this join executed (submission index; -1 = a plain
  /// binary query outside a graph). Multi-join pipelines record one
  /// Observation per edge.
  int graph_edge = -1;
  /// The enumerator's output-cardinality estimate for the edge and the
  /// rows the edge actually produced — the feed for the learned-
  /// cardinality (AQO-style) direction. 0 / 0 outside a graph.
  double edge_card_est = 0.0;
  uint64_t edge_card_obs = 0;
  /// Monotonic record number, assigned by WorkloadStats::Record.
  uint64_t sequence = 0;
};

/// Bounded per-operator observation rings. Owned by the CostCalibrator;
/// exposed read-only through Engine::calibrator()->workload_stats().
class WorkloadStats {
 public:
  /// Observations retained per operator (history/Explain depth).
  static constexpr size_t kRingCapacity = 64;

  WorkloadStats() = default;
  WorkloadStats(const WorkloadStats&) = delete;
  WorkloadStats& operator=(const WorkloadStats&) = delete;

  /// Appends `obs` to its operator's ring (evicting the oldest past the
  /// capacity) and stamps `obs.sequence`. Returns the stamped sequence.
  uint64_t Record(Observation obs);

  /// The retained observations for `op`, oldest first.
  std::vector<Observation> History(std::string_view op) const;

  /// Every retained observation across operators, ordered by sequence.
  std::vector<Observation> AllObservations() const;

  /// Total observations EVER recorded for `op` (monotonic — unlike the
  /// ring, never forgets). The exploration policy keys off zero.
  uint64_t RecordedCount(std::string_view op) const;

  /// Total observations ever recorded across all operators.
  uint64_t TotalRecorded() const;

  void Clear();

 private:
  struct OperatorRing {
    std::vector<Observation> ring;  // Circular once full.
    size_t next = 0;                // Insertion cursor.
    uint64_t recorded = 0;          // Monotonic count.
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, OperatorRing> rings_;
  uint64_t sequence_ = 0;
};

}  // namespace cej::stats

#endif  // CEJ_STATS_WORKLOAD_STATS_H_
