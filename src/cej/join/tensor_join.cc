#include "cej/join/tensor_join.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "cej/common/timer.h"
#include "cej/join/join_sink.h"
#include "cej/join/sweep_kernel.h"
#include "cej/la/gemm.h"
#include "cej/la/topk.h"

namespace cej::join {
namespace {

// Default mini-batch targets: the right (inner) tile is sized so its
// vectors fit in half the L1 data cache — it is swept once per left row
// and must stay resident; the left block amortizes that sweep.
constexpr size_t kDefaultLeftBatch = 256;
constexpr size_t kL1BudgetFloats = 4096;  // 16 KB of B-tile per sweep.

size_t DefaultRightBatch(size_t dim) {
  const size_t rows = kL1BudgetFloats / std::max<size_t>(dim, 1);
  return std::clamp<size_t>(rows, 16, 2048);
}

// Merge grain: left rows re-collected per worker chunk in the top-k merge
// pass of the right-row schedule. Coarse enough to amortize scheduling,
// fine enough to balance.
constexpr size_t kMergeGrainRows = 64;

// Left-tile schedule: the shared sweep kernel over the full m x n frame
// with sweep-owned top-k collectors, left tiles split across the pool.
Result<JoinStats> RunTiledToSink(size_t m, size_t n,
                                 const TileShape& tile,
                                 const JoinCondition& condition,
                                 const TensorJoinOptions& options,
                                 const TileKernel& kernel, JoinSink* sink) {
  JoinStats stats;
  stats.shards_used = 1;
  if (m == 0 || n == 0) {
    sink->Finish();
    return stats;
  }
  WallTimer timer;
  SinkFeed feed(sink);
  std::atomic<uint64_t> sims{0};
  SweepSpec spec;
  spec.left_end = m;
  spec.right_end = n;
  spec.tile = tile;
  spec.condition = condition;
  spec.kernel = &kernel;
  spec.feed = &feed;
  spec.sims = &sims;
  const size_t used_buffers = RunSweep(spec, options.pool);
  stats.join_seconds = timer.ElapsedSeconds();
  stats.similarity_computations = sims.load(std::memory_order_relaxed);
  stats.peak_buffer_bytes = tile.buffer_bytes() * used_buffers;
  sink->Finish();
  return stats;
}

// Right-row schedule: `shards` contiguous right shards, one worker owning
// each shard's whole sweep, merged through the one sink (see header).
Result<JoinStats> RunShardedToSink(size_t m, size_t n, size_t dim,
                                   size_t shards,
                                   const JoinCondition& condition,
                                   const TensorJoinOptions& options,
                                   const TileKernel& kernel, JoinSink* sink) {
  JoinStats stats;
  const size_t max_shard_rows = (n + shards - 1) / shards;
  // Inner blocking is sized for ONE shard's sweep: the whole left side
  // against a right slice of at most max_shard_rows rows.
  const TileShape tile = ResolveTileShape(m, max_shard_rows, dim, options);
  const bool topk = condition.kind == JoinCondition::Kind::kTopK;

  WallTimer timer;
  SinkFeed feed(sink);
  std::atomic<uint64_t> sims{0};
  // Top-k is a property of the whole right relation: shard s keeps one
  // collector per LEFT ROW over its slice, and the merge pass below
  // re-collects the k best per left row across shards.
  std::vector<std::vector<la::TopKCollector>> shard_collectors(
      topk ? shards : 0);

  auto run_shard = [&](size_t s) {
    if (feed.stopped()) return;
    const size_t s0 = n * s / shards;
    const size_t s1 = n * (s + 1) / shards;
    if (s0 >= s1) return;
    if (topk) {
      auto& collectors = shard_collectors[s];
      collectors.reserve(m);
      for (size_t i = 0; i < m; ++i) collectors.emplace_back(condition.k);
    }
    SweepSpec spec;
    spec.left_end = m;
    spec.right_begin = s0;
    spec.right_end = s1;
    spec.tile = tile;
    spec.condition = condition;
    spec.kernel = &kernel;
    spec.feed = &feed;
    spec.sims = &sims;
    spec.collectors = topk ? &shard_collectors[s] : nullptr;
    SweepLeftRows(spec, 0, m);
  };

  if (options.pool != nullptr) {
    options.pool->ParallelForRange(
        0, shards,
        [&run_shard](size_t begin, size_t end) {
          for (size_t s = begin; s < end; ++s) run_shard(s);
        },
        1);
  } else {
    for (size_t s = 0; s < shards; ++s) run_shard(s);
  }

  if (topk && !feed.stopped()) {
    // Workers own disjoint left-row ranges, so collector access stays
    // synchronization-free.
    auto merge_rows = [&](size_t begin, size_t end) {
      std::vector<JoinPair> local;
      for (size_t i = begin; i < end && !feed.stopped(); ++i) {
        la::TopKCollector merged(condition.k);
        for (auto& collectors : shard_collectors) {
          if (collectors.empty()) continue;  // Shard never ran.
          for (const auto& scored : collectors[i].TakeSorted()) {
            merged.Push(scored.score, scored.id);
          }
        }
        for (const auto& scored : merged.TakeSorted()) {
          local.push_back({static_cast<uint32_t>(i),
                           static_cast<uint32_t>(scored.id), scored.score});
        }
        feed.MaybeDeliver(&local);
      }
      feed.Deliver(&local);
    };
    if (options.pool != nullptr && m > kMergeGrainRows) {
      options.pool->ParallelForRange(0, m, merge_rows, kMergeGrainRows);
    } else {
      merge_rows(0, m);
    }
  }

  stats.join_seconds = timer.ElapsedSeconds();
  stats.similarity_computations = sims.load(std::memory_order_relaxed);
  stats.shards_used = shards;
  stats.peak_buffer_bytes =
      tile.buffer_bytes() * std::min(PoolWorkers(options.pool), shards) +
      (topk ? shards * m * condition.k * sizeof(la::ScoredId) : 0);
  sink->Finish();
  return stats;
}

}  // namespace

TileShape ResolveTileShape(size_t left_rows, size_t right_rows, size_t dim,
                           const TensorJoinOptions& options) {
  TileShape shape;
  shape.rows_left = options.batch_rows_left == 0
                        ? std::min(left_rows, kDefaultLeftBatch)
                        : std::min(left_rows, options.batch_rows_left);
  shape.rows_right =
      options.batch_rows_right == 0
          ? std::min(right_rows, DefaultRightBatch(dim))
          : std::min(right_rows, options.batch_rows_right);
  shape.rows_left = std::max<size_t>(shape.rows_left, 1);
  shape.rows_right = std::max<size_t>(shape.rows_right, 1);
  if (options.memory_budget_bytes > 0) {
    // Shrink the right block first (it is the streamed side), then the
    // left, until the tile fits the budget.
    while (shape.buffer_bytes() > options.memory_budget_bytes &&
           shape.rows_right > 1) {
      shape.rows_right = (shape.rows_right + 1) / 2;
    }
    while (shape.buffer_bytes() > options.memory_budget_bytes &&
           shape.rows_left > 1) {
      shape.rows_left = (shape.rows_left + 1) / 2;
    }
  }
  return shape;
}

Result<JoinStats> TensorJoinMatricesToSink(const la::Matrix& left,
                                           const la::Matrix& right,
                                           const JoinCondition& condition,
                                           const TensorJoinOptions& options,
                                           JoinSink* sink) {
  CEJ_RETURN_IF_ERROR(ValidateJoinInputs(left, right));
  CEJ_RETURN_IF_ERROR(ValidateJoinCondition(condition));
  const size_t m = left.rows();
  const size_t n = right.rows();
  TileKernel kernel = [&](size_t i0, size_t i1, size_t j0, size_t j1,
                          float* buffer) {
    la::GemmTile(left, right, i0, i1, j0, j1, buffer, options.simd);
  };
  const size_t shards = ResolveShardCount(n, PoolWorkers(options.pool),
                                          options.shard_count, kMinShardRows);
  if (m > 0 && shards > 1) {
    return RunShardedToSink(m, n, left.cols(), shards, condition, options,
                            kernel, sink);
  }
  const TileShape tile = ResolveTileShape(m, n, left.cols(), options);
  return RunTiledToSink(m, n, tile, condition, options, kernel, sink);
}

Result<JoinResult> TensorJoinMatrices(const la::Matrix& left,
                                      const la::Matrix& right,
                                      const JoinCondition& condition,
                                      const TensorJoinOptions& options) {
  MaterializingSink sink;
  CEJ_ASSIGN_OR_RETURN(
      JoinStats stats,
      TensorJoinMatricesToSink(left, right, condition, options, &sink));
  JoinResult result;
  result.pairs = sink.TakePairs();
  result.stats = stats;
  return result;
}

Result<JoinResult> TensorJoinMatricesHalf(const la::HalfMatrix& left,
                                          const la::HalfMatrix& right,
                                          const JoinCondition& condition,
                                          const TensorJoinOptions& options) {
  CEJ_RETURN_IF_ERROR(ValidateJoinDims(left.cols(), right.cols()));
  CEJ_RETURN_IF_ERROR(ValidateJoinCondition(condition));
  const size_t m = left.rows();
  const size_t n = right.rows();
  const size_t dim = left.cols();

  // FP16 rows are half-width: the same L1 budget fits twice the tile.
  TensorJoinOptions half_options = options;
  if (half_options.batch_rows_right == 0) {
    half_options.batch_rows_right =
        ResolveTileShape(m, n, std::max<size_t>(dim / 2, 1), options)
            .rows_right;
  }
  const TileShape tile = ResolveTileShape(m, n, dim, half_options);
  TileKernel kernel = [&](size_t i0, size_t i1, size_t j0, size_t j1,
                          float* buffer) {
    const size_t tile_cols = j1 - j0;
    for (size_t i = i0; i < i1; ++i) {
      la::DotHalfOneToMany(left.Row(i), right.Row(j0), tile_cols, dim,
                           buffer + (i - i0) * tile_cols, options.simd);
    }
  };
  MaterializingSink sink;
  CEJ_ASSIGN_OR_RETURN(
      JoinStats stats,
      RunTiledToSink(m, n, tile, condition, options, kernel, &sink));
  JoinResult result;
  result.pairs = sink.TakePairs();
  result.stats = stats;
  return result;
}

Result<JoinResult> TensorJoin(const std::vector<std::string>& left,
                              const std::vector<std::string>& right,
                              const model::EmbeddingModel& model,
                              const JoinCondition& condition,
                              const TensorJoinOptions& options) {
  if (model.dim() == 0) {
    return Status::InvalidArgument("tensor join: model has dim 0");
  }
  JoinStats embed_stats;
  const uint64_t model_calls_before = model.embed_calls();
  WallTimer embed_timer;
  la::Matrix left_emb = model.EmbedBatch(left, options.pool);
  la::Matrix right_emb = model.EmbedBatch(right, options.pool);
  embed_stats.embed_seconds = embed_timer.ElapsedSeconds();
  embed_stats.model_calls = model.embed_calls() - model_calls_before;

  CEJ_ASSIGN_OR_RETURN(JoinResult result,
                       TensorJoinMatrices(left_emb, right_emb, condition,
                                          options));
  result.stats += embed_stats;
  return result;
}

}  // namespace cej::join
