// Tensor-join formulation (paper Section IV.C, Figures 6 and 7).
//
// The E-join over unit vectors is a dense similarity matrix D = R · Sᵀ
// followed by a condition scan. The block-matrix decomposition partitions
// both relations along *tuple* boundaries into mini-batches: a pair of
// tiles produces a bounded |part(R)| x |part(S)| intermediate buffer that
// is scanned for qualifying pairs and immediately reused — this is how the
// operator trades repeated kernel invocations for a constrained memory
// footprint (Figure 13) instead of materializing the full |R| x |S| matrix.
//
// The pool parallelism picks one of two schedules from the shape alone
// (ResolveShardCount in sweep_kernel.h: a pinned JoinOptions::shard_count,
// else clamp(|S| / kMinShardRows, 1, pool width + 1)):
//
//   * one shard — left-tile split: workers own disjoint left row tiles,
//     each swept against the whole right relation;
//   * several shards — right-row split: each worker owns one contiguous
//     right shard's full |R| x |S|/shards sweep, so parallelism does not
//     starve when |R| is below one tile height. Threshold pairs stream
//     straight into the sink (early termination bites mid-shard); top-k
//     keeps one collector per left row per shard and a merge pass
//     re-collects the k best per left row across shards.
//
// Both schedules run the shared sweep kernel, so per-pair similarities,
// and therefore results, are byte-identical across shard counts.

#ifndef CEJ_JOIN_TENSOR_JOIN_H_
#define CEJ_JOIN_TENSOR_JOIN_H_

#include <string>
#include <vector>

#include "cej/common/status.h"
#include "cej/join/join_common.h"
#include "cej/join/join_sink.h"
#include "cej/la/half.h"
#include "cej/model/embedding_model.h"

namespace cej::join {

/// Tensor-join execution knobs.
struct TensorJoinOptions : JoinOptions {
  /// Mini-batch height over the left relation (0 = auto). Setting this to 1
  /// reproduces the "Non-Batched" configuration of Figure 12 (one side
  /// streamed vector-by-vector).
  size_t batch_rows_left = 0;
  /// Mini-batch height over the right relation (0 = auto).
  size_t batch_rows_right = 0;
  /// Upper bound on one intermediate tile buffer, in bytes (0 = none).
  /// When set, batch sizes are shrunk to respect it.
  size_t memory_budget_bytes = 0;
};

/// Joins two embedded batches with the blocked-GEMM formulation.
Result<JoinResult> TensorJoinMatrices(const la::Matrix& left,
                                      const la::Matrix& right,
                                      const JoinCondition& condition,
                                      const TensorJoinOptions& options = {});

/// Streaming form of TensorJoinMatrices: emits pair chunks into `sink`
/// (unordered; honours early termination at tile granularity) instead of
/// materializing, and returns counters for the work actually performed.
/// JoinStats::shards_used reports the resolved shard count.
Result<JoinStats> TensorJoinMatricesToSink(
    const la::Matrix& left, const la::Matrix& right,
    const JoinCondition& condition, const TensorJoinOptions& options,
    JoinSink* sink);

/// Half-precision variant (paper Section V.A.2): embeddings stored FP16,
/// similarity arithmetic widened to FP32 in registers. Halves the memory
/// traffic of the bandwidth-bound sweep at a bounded (~2^-11 relative)
/// similarity quantization error.
Result<JoinResult> TensorJoinMatricesHalf(const la::HalfMatrix& left,
                                          const la::HalfMatrix& right,
                                          const JoinCondition& condition,
                                          const TensorJoinOptions& options =
                                              {});

/// End-to-end variant: prefetch-embeds the string keys, then joins.
Result<JoinResult> TensorJoin(const std::vector<std::string>& left,
                              const std::vector<std::string>& right,
                              const model::EmbeddingModel& model,
                              const JoinCondition& condition,
                              const TensorJoinOptions& options = {});

/// The concrete tile shape the operator will use for the given inputs and
/// options (exposed for tests and the Figure 13 bench). `dim` informs the
/// auto default: the right tile is sized to keep one B tile L1-resident
/// (the block-size ablation shows ~40% at dim=100 over L2-sized tiles).
struct TileShape {
  size_t rows_left;
  size_t rows_right;
  /// Bytes of one intermediate buffer (rows_left * rows_right * 4).
  size_t buffer_bytes() const {
    return rows_left * rows_right * sizeof(float);
  }
};
TileShape ResolveTileShape(size_t left_rows, size_t right_rows, size_t dim,
                           const TensorJoinOptions& options);

}  // namespace cej::join

#endif  // CEJ_JOIN_TENSOR_JOIN_H_
