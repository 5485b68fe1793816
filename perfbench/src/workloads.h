// The perfbench workloads and the pieces they share.
//
// Each workload generates its inputs from the seed, sets the engine up
// several times (setup_s is the median), measures for the requested
// seconds with tracing off, and, in a traced run, measures again with
// spans around every layer call it makes. Results are checked against
// the benchmark's own oracle (oracle.h), outside every timed window.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cej/cej.h"
#include "harness.h"
#include "oracle.h"

namespace perfbench {

/// Engine worker threads. The calling thread also runs pool chunks, so
/// two threads work on a query. Fixed, so it does not follow the
/// machine's core count. In five-seed trials on the shared 4-core host
/// the bounds were measured on, scan_topk's per-run medians spread 8% and
/// 17% with three workers, and 5-7% with one.
inline constexpr int kPoolThreads = 1;
/// Fresh set-ups per run, in two rounds: one before the timed phase and one
/// after it, so that setup_s samples the host across the run and not only
/// in its first second. A round does at least kMinSetups, then more until
/// they took kSetupSeconds in all (at most kMaxSetups); setup_s is the
/// median over both rounds, so a cheap set-up gets more samples.
inline constexpr size_t kMinSetups = 5;
inline constexpr size_t kMaxSetups = 200;
inline constexpr double kSetupSeconds = 2.0;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;  ///< Span file of a traced run ("" = none).
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
};

/// Rows and seconds of every EmbedBatch call the harness timed.
struct EmbedTally {
  double rows = 0.0;
  double seconds = 0.0;
};

/// An engine with the benchmark's fixed pool width, the seed cost
/// parameters and adaptive statistics off, with `model` registered as its
/// default model.
std::unique_ptr<cej::Engine> NewEngine(
    const cej::model::EmbeddingModel& model);

/// Builds a relation from named columns.
cej::storage::Relation MakeTable(
    std::vector<std::pair<std::string, cej::storage::Column>> columns);

/// Embeds `strings` with the engine's pool, counting the time in `tally`.
cej::la::Matrix TimedEmbed(const cej::model::EmbeddingModel& model,
                           const std::vector<std::string>& strings,
                           cej::ThreadPool* pool, EmbedTally* tally);

/// Warms `table`.`column` the way a first query would: embeds the column
/// and parks the matrix in the engine's embedding cache.
void WarmColumn(cej::Engine* engine, const cej::model::EmbeddingModel& model,
                const std::string& table, const std::string& column,
                const std::vector<std::string>& strings, EmbedTally* tally);

/// The engine's cached embedding of `table`.`column` (side-effect free).
std::shared_ptr<const cej::la::Matrix> CachedColumn(
    const cej::Engine& engine, const cej::model::EmbeddingModel& model,
    const std::string& table, const std::string& column);

/// The int64 column `name` of `relation`, or nullptr.
const std::vector<int64_t>* IntColumn(const cej::storage::Relation& relation,
                                      const std::string& name);

/// Top-k result pairs of a single join: probe id ("pid"), corpus id
/// ("cid") and "similarity" per output row. False if a column is missing.
bool ExtractMatches(const cej::QueryResult& result,
                    std::vector<Match>* matches);

/// Self-test corruption: swaps the corpus ids of the first pair and the
/// first later pair of another probe row with another neighbour.
bool SwapRights(std::vector<Match>* matches);

/// Bytes of `relation` from its schema and row count (strings count as
/// their in-row object).
double RelationBytes(const cej::storage::Relation& relation);

/// Times the plan's chosen operator from the global registry on
/// prefetched matrices, as a "join.run" span under `parent`. Pairs go to
/// `sink` (nullptr = counted only).
struct JoinReplay {
  bool ok = false;
  double ms = 0.0;
  uint64_t sims = 0;
  /// Planning done to find the operators (a graph's join-order search).
  double plan_ms = 0.0;
};
JoinReplay ReplayOperator(const cej::Engine& engine,
                          const std::string& operator_name,
                          const cej::la::Matrix& left,
                          const cej::la::Matrix& right,
                          const cej::join::JoinCondition& condition,
                          Tracer* tracer, int parent, int64_t request,
                          cej::join::JoinSink* sink = nullptr);

/// A closed-loop workload with one client: the next query is sent when the
/// previous one has returned.
class ClosedLoop {
 public:
  virtual ~ClosedLoop() = default;

  /// Generates the seeded inputs and the oracle's reference answers
  /// (not timed).
  virtual void Generate(uint64_t seed) = 0;
  /// One fresh set-up: engine, model, tables, warmed right-side columns.
  virtual std::unique_ptr<cej::Engine> Setup(EmbedTally* tally) = 0;

  /// Work done before query `q` that is not part of its latency (a write).
  virtual void BeforeQuery(cej::Engine* /*engine*/, uint64_t /*q*/) {}
  virtual cej::QueryBuilder Query(const cej::Engine& engine,
                                  uint64_t q) const = 0;
  /// Checks query q's result against the oracle.
  virtual bool Verify(uint64_t q, const cej::QueryResult& result,
                      std::string* why) const = 0;
  /// Oracle self-test on a correct result: ok fraction over the correct
  /// answer, one with a dropped pair and one with two pairs swapped.
  virtual double SelfTest(uint64_t q,
                          const cej::QueryResult& result) const = 0;
  /// Per-query latency limit behind slo_met_frac.
  virtual double latency_limit_ms() const = 0;
  /// Percentile reported as latency_tail_ms.
  virtual double tail_percentile() const = 0;

  // --- Traced decomposition --------------------------------------------
  /// Strings query q had to embed (its model work).
  virtual std::vector<std::string> EmbedInputs(uint64_t q) const = 0;
  /// Re-runs q's join operator(s) on prefetched matrices; `plan` is q's
  /// optimized plan and `embedded` the matrix EmbedBatch produced for
  /// EmbedInputs(q).
  virtual JoinReplay ReplayJoin(const cej::Engine& engine, uint64_t q,
                                const cej::plan::ExecStats& stats,
                                const cej::plan::NodePtr& plan,
                                const cej::la::Matrix& embedded,
                                Tracer* tracer, int parent) const = 0;
  /// The same join (for a graph: its first edge) as a serving request.
  virtual cej::serve::ServeQuery ServeEquivalent(uint64_t q) const = 0;
  virtual const cej::model::EmbeddingModel& model() const = 0;
};

/// One round of fresh set-ups (see kMinSetups), each replacing the previous
/// engine; returns the last engine and appends each set-up's time to
/// `seconds`.
std::unique_ptr<cej::Engine> RepeatSetup(
    const std::function<std::unique_ptr<cej::Engine>()>& setup,
    std::vector<double>* seconds);

/// What an untraced timed phase saw.
struct PhaseStats {
  std::vector<double> latency_ms;
  /// How late each query was issued after it was due: after the previous
  /// one returned and the workload's write was applied.
  std::vector<double> late_ms;
  int64_t attempted = 0, ok = 0, slo_met = 0;
  /// Wall time of the workload itself (oracle checks excluded), and of
  /// the whole phase.
  double wall_s = 0.0, elapsed_s = 0.0;
};

/// The end-to-end metrics of an untraced phase; `peak_rss_mb` is read
/// when the phase ends.
void AddEndToEndMetrics(const PhaseStats& phase, double tail_percentile,
                        double setup_s, double peak_rss_mb, Metrics* metrics);

/// Cache and process counters, read around the untraced phase.
struct Counters {
  cej::EmbeddingCache::Stats cache;
  Usage usage;
  static Counters Read(const cej::Engine& engine);
};

/// The api, proc and generator metrics of a traced run, from the
/// untraced phase and the counters read around it.
void AddCounterMetrics(const Counters& before, const Counters& after,
                       const PhaseStats& phase, Metrics* metrics);

/// The serve-counter metrics between two ServeStats snapshots.
void AddServeMetrics(const cej::serve::ServeStats& before,
                     const cej::serve::ServeStats& after, Metrics* metrics);

/// Counts queries whose chosen operator or join-graph edge order differs
/// from the first query's.
class PlanTracker {
 public:
  void Note(const cej::plan::ExecStats& stats);
  int64_t changes() const { return changes_; }

 private:
  bool seen_ = false;
  std::string op_;
  std::vector<size_t> order_;
  int64_t changes_ = 0;
};

/// Per-query layer numbers of a traced phase.
struct LayerSamples {
  std::vector<double> execute_ms, optimize_ms, embed_ms, run_ms;
  std::vector<double> materialize_ms, exec_other_ms;
  std::vector<double> intermediate_rows, model_calls, sims, peak_buffer_mb;
  std::vector<double> output_mb, minflt;
  std::vector<double> batch_queries;
  double replay_sims = 0.0, replay_ms = 0.0;
  int64_t ok = 0, failed = 0;
};

/// Runs query `q` of `w` once more with a span around each layer call:
/// Execute, Stream, OptimizedPlan, EmbedBatch over the strings it had to
/// embed, the chosen operator on prefetched matrices, and the same join
/// through the serving layer. Adds the query's numbers to `samples`; a
/// failure counts in samples->failed.
void DecomposeQuery(ClosedLoop* w, cej::Engine* engine, uint64_t q,
                    Tracer* tracer, PlanTracker* plans, EmbedTally* tally,
                    LayerSamples* samples);

/// The plan/model/join/storage metrics of a traced phase.
void AddLayerMetrics(const LayerSamples& samples, const Tracer& tracer,
                     const EmbedTally& tally, Metrics* metrics);

/// Median of the layer self-times along a closed-loop query's blocking
/// path: embed + run + exec_other + materialize.
double BlockingPathMs(const LayerSamples& samples);

std::unique_ptr<ClosedLoop> MakeScanTopK();
std::unique_ptr<ClosedLoop> MakeGraph3Way();
std::unique_ptr<ClosedLoop> MakeRefreshCold();

RunResult RunClosedLoop(ClosedLoop* workload, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
