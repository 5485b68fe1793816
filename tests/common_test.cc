// Tests for cej/common: Status/Result, RNG, thread pool, aligned buffers,
// CPU detection.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cej/common/aligned_buffer.h"
#include "cej/common/cpu_info.h"
#include "cej/common/rng.h"
#include "cej/common/status.h"
#include "cej/common/thread_pool.h"
#include "cej/common/timer.h"

namespace cej {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad dim");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::OutOfRange("").code(),
      Status::NotFound("").code(),        Status::AlreadyExists("").code(),
      Status::ResourceExhausted("").code(),
      Status::Unimplemented("").code(),   Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  CEJ_ASSIGN_OR_RETURN(int h, Half(x));
  CEJ_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3, odd.
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status CheckAll(const std::vector<int>& xs) {
  for (int x : xs) CEJ_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(CheckAll({1, 2, 3}).ok());
  EXPECT_EQ(CheckAll({1, -2, 3}).code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedRespectsBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  constexpr int kDraws = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / kDraws;
  const double var = sumsq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, SplitMix64AdvancesState) {
  uint64_t state = 42;
  const uint64_t a = SplitMix64(state);
  const uint64_t b = SplitMix64(state);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// AlignedBuffer
// ---------------------------------------------------------------------------

TEST(AlignedBufferTest, AlignmentIs64Bytes) {
  for (size_t n : {1u, 7u, 16u, 100u, 1000u}) {
    AlignedBuffer buf(n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 64, 0u);
    EXPECT_EQ(buf.size(), n);
  }
}

TEST(AlignedBufferTest, ZeroInitialized) {
  AlignedBuffer buf(257);
  for (size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0f);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer a(10);
  a[3] = 1.5f;
  float* raw = a.data();
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.data(), raw);
  EXPECT_EQ(b[3], 1.5f);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBufferTest, CopyFromIsDeep) {
  AlignedBuffer a(4);
  a[0] = 2.0f;
  AlignedBuffer b;
  b.CopyFrom(a);
  b[0] = 3.0f;
  EXPECT_EQ(a[0], 2.0f);
  EXPECT_EQ(b[0], 3.0f);
}

TEST(AlignedBufferTest, EmptyBufferIsSafe) {
  AlignedBuffer buf;
  EXPECT_TRUE(buf.empty());
  AlignedBuffer moved(std::move(buf));
  EXPECT_TRUE(moved.empty());
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool pool2(-5);
  EXPECT_EQ(pool2.num_threads(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(),
                   [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(5, 5, [&counter](size_t) { counter.fetch_add(1); });
  pool.ParallelFor(7, 3, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPoolTest, ParallelForRangeChunksAreDisjointAndComplete) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelForRange(10, 1010, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back({b, e});
  });
  std::sort(chunks.begin(), chunks.end());
  size_t expected_begin = 10;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expected_begin);
    EXPECT_LT(b, e);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, 1010u);
}

TEST(ThreadPoolTest, NestedParallelForRangeDoesNotDeadlockASmallPool) {
  // Regression: ParallelForRange used to park the calling thread on a
  // condition variable, so a nested call from inside a pool task on a
  // 1-thread pool deadlocked — the only worker waited for chunks nobody
  // could run. The caller-runs loop executes the queued chunks itself.
  ThreadPool pool(1);
  std::atomic<int> inner_hits{0};
  std::atomic<bool> outer_ran{false};
  pool.Submit([&] {
    pool.ParallelForRange(0, 8, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) inner_hits.fetch_add(1);
    });
    outer_ran.store(true);
  });
  pool.Wait();
  EXPECT_TRUE(outer_ran.load());
  EXPECT_EQ(inner_hits.load(), 8);
}

TEST(ThreadPoolTest, CallerRunsChunksWhileWaiting) {
  // With every worker pinned by a blocking task, ParallelForRange can only
  // finish if the calling thread executes the queued chunks itself.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  for (int w = 0; w < 2; ++w) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  }
  const auto caller = std::this_thread::get_id();
  std::atomic<int> ran_on_caller{0};
  std::atomic<int> hits{0};
  pool.ParallelForRange(0, 64, [&](size_t begin, size_t end) {
    if (std::this_thread::get_id() == caller) ran_on_caller.fetch_add(1);
    hits.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(hits.load(), 64);
  EXPECT_GT(ran_on_caller.load(), 0);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
}

TEST(ThreadPoolTest, ParallelForRangeRespectsMinChunk) {
  ThreadPool pool(8);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelForRange(
      0, 100,
      [&](size_t b, size_t e) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(b, e);
      },
      /*min_chunk=*/64);
  // Workers finish in any order; check the chunks by position.
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().first, 0u);
  EXPECT_EQ(chunks.back().second, 100u);
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].second, chunks[i + 1].first) << "gap or overlap";
  }
  // With min_chunk 64 over 100 items there can be at most 2 chunks, and
  // only the last one may be short.
  EXPECT_LE(chunks.size(), 2u);
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].second - chunks[i].first, 64u);
  }
}

TEST(ThreadPoolTest, SequentialUseAcrossMultipleParallelFors) {
  ThreadPool pool(4);
  std::vector<int> data(500, 0);
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(0, data.size(), [&data](size_t i) { data[i] += 1; });
  }
  for (int v : data) EXPECT_EQ(v, 5);
}

TEST(ThreadPoolTest, DefaultPoolSingleton) {
  ThreadPool& a = ThreadPool::Default();
  ThreadPool& b = ThreadPool::Default();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1);
}

// ---------------------------------------------------------------------------
// CpuInfo / timer
// ---------------------------------------------------------------------------

TEST(CpuInfoTest, ReportsAtLeastScalar) {
  const SimdLevel level = CpuInfo::MaxSimdLevel();
  EXPECT_GE(static_cast<int>(level), static_cast<int>(SimdLevel::kScalar));
  EXPECT_GE(CpuInfo::HardwareThreads(), 1);
}

TEST(CpuInfoTest, SimdLevelNamesAreStable) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx512), "avx512");
}

TEST(WallTimerTest, MeasuresForwardTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GT(timer.ElapsedNanos(), 0);
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  const double before = timer.ElapsedSeconds();
  timer.Restart();
  EXPECT_LE(timer.ElapsedSeconds(), before + 1.0);
}

}  // namespace
}  // namespace cej
