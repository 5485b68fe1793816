#include "cej/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "cej/common/cpu_info.h"

namespace cej {

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body,
                             size_t grain) {
  ParallelForRange(
      begin, end,
      [&body](size_t chunk_begin, size_t chunk_end) {
        for (size_t i = chunk_begin; i < chunk_end; ++i) body(i);
      },
      grain);
}

namespace {

// Per-call state of one ParallelForRange: chunks are CLAIMED through the
// atomic cursor (by workers and the calling thread alike), not bound to
// queue entries. Heap-allocated and shared with every submitted task so
// late-arriving no-op tasks (whose chunks were already claimed) stay safe
// after the call returns.
struct RangeRun {
  size_t begin = 0, end = 0, chunk = 0, num_chunks = 0;
  const std::function<void(size_t, size_t)>* body = nullptr;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t chunks_done = 0;

  // Claims and runs one chunk; false once every chunk has been claimed.
  // `body` is guaranteed alive here: the caller cannot return (and drop
  // it) before chunks_done reaches num_chunks, which includes this one.
  bool RunOneChunk() {
    const size_t c = next.fetch_add(1, std::memory_order_relaxed);
    if (c >= num_chunks) return false;
    const size_t chunk_begin = begin + c * chunk;
    const size_t chunk_end = std::min(end, chunk_begin + chunk);
    (*body)(chunk_begin, chunk_end);
    std::lock_guard<std::mutex> lock(mu);
    if (++chunks_done == num_chunks) done_cv.notify_all();
    return true;
  }
};

}  // namespace

void ThreadPool::ParallelForRange(
    size_t begin, size_t end, const std::function<void(size_t, size_t)>& body,
    size_t min_chunk) {
  if (begin >= end) return;
  const size_t n = end - begin;
  min_chunk = std::max<size_t>(min_chunk, 1);
  const size_t num_workers = workers_.size();
  // Aim for ~4 chunks per worker for load balance, but respect min_chunk.
  size_t chunk = std::max(min_chunk, n / (4 * num_workers + 1) + 1);
  const size_t num_chunks = (n + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    body(begin, end);
    return;
  }
  // Completion is tracked per call, NOT via the pool-global in-flight
  // counter: concurrent ParallelForRange calls sharing the pool (e.g. two
  // queries on one engine, one embedding while the other sweeps) must not
  // serialize on each other's chunks.
  auto state = std::make_shared<RangeRun>();
  state->begin = begin;
  state->end = end;
  state->chunk = chunk;
  state->num_chunks = num_chunks;
  state->body = &body;
  // One helper task per chunk workers COULD take (the caller covers the
  // rest): each claims whatever chunk is next unclaimed, so a task that
  // arrives after the caller has swept the range is a cheap no-op.
  for (size_t c = 0; c + 1 < num_chunks; ++c) {
    Submit([state] { state->RunOneChunk(); });
  }
  // Caller-runs loop: this thread claims chunks alongside the workers
  // instead of parking on a condition variable. Besides contributing a
  // worker's worth of throughput, this is what makes nested calls safe —
  // a ParallelForRange issued from inside a pool task executes its own
  // chunks even when every worker is blocked in outer calls (the caller
  // never executes OTHER calls' queued tasks, so it cannot get stuck
  // inside foreign work either).
  while (state->RunOneChunk()) {
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&state] {
    return state->chunks_done == state->num_chunks;
  });
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool(CpuInfo::HardwareThreads());
  return *pool;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace cej
