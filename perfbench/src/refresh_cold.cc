// refresh_cold: writes beside reads. Each cycle replaces the corpus with
// the next of a few seeded versions (ReplaceTable drops its cached
// embedding) and then issues one top-k query, which must re-embed the
// whole new column. Every read is the first after a write, so the median
// is the cold path; scan_topk covers warm reads.
//
// The re-embedded column (90,000 x 100 floats) is larger than glibc's
// 32 MiB mmap ceiling, so it is always mapped fresh and unmapped when the
// next write drops it. A 20,000-row column (8 MB) came from the heap
// instead, and peak RSS read one or two columns' worth depending on how
// small allocations had split the freed one.

#include "workloads.h"

namespace perfbench {
namespace {

using cej::storage::Column;

constexpr size_t kCorpusRows = 90000;
constexpr size_t kVersions = 4;
constexpr size_t kProbeRows = 64;
constexpr size_t kTopK = 4;

class RefreshCold final : public ClosedLoop {
 public:
  void Generate(uint64_t seed) override {
    Rng rng(seed);
    probes_ = DistinctWords(kProbeRows, 4, 12, &rng);
    cej::ThreadPool pool(kPoolThreads);
    const Vectors probe_vectors(model_.EmbedBatch(probes_, &pool));
    for (size_t v = 0; v < kVersions; ++v) {
      std::vector<std::string> words =
          DistinctWords(kCorpusRows, 4, 12, &rng);
      std::vector<int64_t> cid(kCorpusRows);
      for (size_t i = 0; i < kCorpusRows; ++i) cid[i] = static_cast<int64_t>(i);
      references_.emplace_back(probe_vectors, words, model_, &pool, kTopK,
                               kPoolThreads + 1);
      std::vector<std::pair<std::string, Column>> columns;
      columns.emplace_back("cid", Column::Int64(std::move(cid)));
      columns.emplace_back("word", Column::String(std::move(words)));
      versions_.push_back(std::make_shared<const cej::storage::Relation>(
          MakeTable(std::move(columns))));
    }
    for (uint32_t i = 0; i < kProbeRows; ++i) all_probes_.push_back(i);
  }

  std::unique_ptr<cej::Engine> Setup(EmbedTally* tally) override {
    auto engine = NewEngine(model_);
    std::vector<int64_t> pid(kProbeRows);
    for (size_t i = 0; i < kProbeRows; ++i) pid[i] = static_cast<int64_t>(i);
    std::vector<std::pair<std::string, Column>> columns;
    columns.emplace_back("pid", Column::Int64(std::move(pid)));
    columns.emplace_back("word", Column::String(probes_));
    CEJ_CHECK(
        engine->RegisterTable("probes", MakeTable(std::move(columns))).ok());
    CEJ_CHECK(engine->RegisterTable("corpus", versions_[0]).ok());
    WarmColumn(engine.get(), model_, "probes", "word", probes_, tally);
    WarmColumn(engine.get(), model_, "corpus", "word", Words(0), tally);
    return engine;
  }

  void BeforeQuery(cej::Engine* engine, uint64_t q) override {
    CEJ_CHECK(engine->ReplaceTable("corpus", versions_[q % kVersions]).ok());
  }

  cej::QueryBuilder Query(const cej::Engine& engine,
                          uint64_t /*q*/) const override {
    cej::QueryBuilder builder = engine.Query("probes");
    builder.EJoin("corpus", "word", cej::join::JoinCondition::TopK(kTopK));
    return builder;
  }

  bool Verify(uint64_t q, const cej::QueryResult& result,
              std::string* why) const override {
    std::vector<Match> matches;
    if (!ExtractMatches(result, &matches)) {
      *why = "result lacks pid/cid/similarity columns";
      return false;
    }
    return references_[q % kVersions].Check(matches, all_probes_, why);
  }

  double SelfTest(uint64_t q, const cej::QueryResult& result) const override {
    std::vector<Match> matches;
    if (!ExtractMatches(result, &matches)) return 0.0;
    const TopKReference& reference = references_[q % kVersions];
    return SelfTestOkFrac(
        matches,
        [&](const std::vector<Match>& got, std::string* why) {
          return reference.Check(got, all_probes_, why);
        },
        SwapRights);
  }

  std::vector<std::string> EmbedInputs(uint64_t q) const override {
    return Words(q % kVersions);  // The whole replaced column.
  }

  JoinReplay ReplayJoin(const cej::Engine& engine, uint64_t q,
                        const cej::plan::ExecStats& stats,
                        const cej::plan::NodePtr& /*plan*/,
                        const cej::la::Matrix& embedded, Tracer* tracer,
                        int parent) const override {
    auto probes = CachedColumn(engine, model_, "probes", "word");
    if (probes == nullptr) return {};
    return ReplayOperator(engine, stats.join_operator, *probes, embedded,
                          cej::join::JoinCondition::TopK(kTopK), tracer,
                          parent, static_cast<int64_t>(q));
  }

  cej::serve::ServeQuery ServeEquivalent(uint64_t /*q*/) const override {
    cej::serve::ServeQuery query;
    query.table = "corpus";
    query.column = "word";
    query.condition = cej::join::JoinCondition::TopK(kTopK);
    query.probe_strings = probes_;
    return query;
  }

  const cej::model::EmbeddingModel& model() const override { return model_; }
  double latency_limit_ms() const override { return 500.0; }
  double tail_percentile() const override { return 80.0; }

 private:
  /// The strings of corpus version `v`.
  const std::vector<std::string>& Words(size_t v) const {
    return (*versions_[v]->ColumnByName("word"))->string_values();
  }

  cej::model::SubwordHashModel model_;
  std::vector<std::string> probes_;
  std::vector<uint32_t> all_probes_;
  std::vector<std::shared_ptr<const cej::storage::Relation>> versions_;
  std::vector<TopKReference> references_;  // Per version.
};

}  // namespace

std::unique_ptr<ClosedLoop> MakeRefreshCold() {
  return std::make_unique<RefreshCold>();
}

}  // namespace perfbench
