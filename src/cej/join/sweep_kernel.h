// The shared blocked similarity sweep (paper Figure 6 step 2): produce a
// bounded dense tile of the similarity matrix, scan it for qualifying
// pairs, stream them out, reuse the buffer.
//
// Exactly ONE copy of this loop exists. The `tensor` operator runs it under
// one of two schedules (tensor_join.h), so byte-identity across schedules
// and shard counts holds by construction rather than only by
// cross-validation tests. The schedules differ in two ways the spec
// parameterizes:
//
//   * the right-side range — the left-tile schedule sweeps the whole right
//     matrix [0, n), a right-row shard sweeps a sub-range [s0, s1) of it
//     (ids stay global either way) — and
//   * collector ownership for top-k — whole-range sweeps finalize
//     per-left-tile collectors themselves once the tile has seen every
//     right row, while shard sweeps push into externally-owned collectors
//     that survive across shards, because a per-shard top-k alone would be
//     wrong.
//
// Threshold conditions stream row by row (early termination bites inside a
// tile); the cooperative stop flag is polled at tile and row granularity.

#ifndef CEJ_JOIN_SWEEP_KERNEL_H_
#define CEJ_JOIN_SWEEP_KERNEL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "cej/common/thread_pool.h"
#include "cej/join/join_common.h"
#include "cej/join/join_sink.h"
#include "cej/join/tensor_join.h"
#include "cej/la/topk.h"

namespace cej::join {

/// One intermediate-tile kernel: fills buffer[(i-i0)*(j1-j0) + (j-j0)]
/// with sim(left i, right j). FP32 uses the blocked GEMM; FP16 widens in
/// registers row by row. Coordinates are in the kernel's own frame
/// (whatever matrices the caller closed over).
using TileKernel = std::function<void(size_t i0, size_t i1, size_t j0,
                                      size_t j1, float* buffer)>;

/// Everything one sweep needs. All pointers are borrowed and must outlive
/// the call.
struct SweepSpec {
  /// Left rows covered by the whole sweep (kernel frame).
  size_t left_begin = 0;
  size_t left_end = 0;
  /// Right rows covered: the full matrix for the left-tile schedule,
  /// [s0, s1) for a shard.
  size_t right_begin = 0;
  size_t right_end = 0;
  /// Inner (L1-resident) blocking of the dense tile buffer.
  TileShape tile;
  JoinCondition condition;
  const TileKernel* kernel = nullptr;
  SinkFeed* feed = nullptr;
  std::atomic<uint64_t>* sims = nullptr;
  /// Top-k only. Non-null: externally-owned collectors indexed by LEFT row
  /// id, shared across sweeps over right-relation shards — the sweep only
  /// pushes; finalizing them is the caller's job once every slice is done.
  /// Null: the sweep covers the whole right range, owns per-left-tile
  /// collectors, and emits each left tile's top-k itself.
  std::vector<la::TopKCollector>* collectors = nullptr;
};

/// Sweeps left rows [i_begin, i_end) against the spec's right range on the
/// calling thread, delivering through spec.feed. Concurrent calls over
/// disjoint left ranges are race-free: workers own their rows' collectors
/// and worker-local pair buffers fan in through the (locked) feed.
void SweepLeftRows(const SweepSpec& spec, size_t i_begin, size_t i_end);

/// Runs the whole sweep, partitioned over left tiles across `pool` when
/// one is supplied and there is more than one tile. Returns the worker
/// concurrency actually used (= concurrently live tile buffers, for
/// peak-memory accounting); the caller-runs pool wait means up to
/// num_threads() + 1 buffers can be live.
size_t RunSweep(const SweepSpec& spec, ThreadPool* pool);

/// Worker threads a caller-runs pool supplies: its workers plus the
/// calling thread (1 without a pool).
size_t PoolWorkers(const ThreadPool* pool);

/// Right rows per shard below which the tensor operator does not split
/// the right relation (amortizes per-shard scheduling and the top-k
/// merge pass).
constexpr size_t kMinShardRows = 1024;

/// The ONE shard-resolution rule, shared by execution and pricing of the
/// tensor operator (right-row shards) and the index join (left probe
/// shards): a pinned count wins (clamped to the row count), otherwise
/// clamp(rows / min_shard_rows, 1, workers). `workers` counts the caller
/// too (see PoolWorkers).
size_t ResolveShardCount(size_t rows, size_t workers,
                         size_t pinned_shard_count, size_t min_shard_rows);

}  // namespace cej::join

#endif  // CEJ_JOIN_SWEEP_KERNEL_H_
