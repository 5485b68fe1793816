// scan_topk: each query selects half of one of a few registered probe
// tables and runs a top-k E-join against a large corpus whose embeddings
// were cached at set-up. The sweep over the corpus does most of the work;
// the probe rows are embedded per query (a filtered pipeline does not
// populate the cache) and the output is small.

#include "workloads.h"

namespace perfbench {
namespace {

using cej::storage::Column;

constexpr size_t kCorpusRows = 50000;
constexpr size_t kProbeTables = 4;
constexpr size_t kProbeRows = 256;  // Each query selects half.
constexpr size_t kTopK = 4;

class ScanTopK final : public ClosedLoop {
 public:
  void Generate(uint64_t seed) override {
    Rng rng(seed);
    std::vector<std::string> words =
        DistinctWords(kCorpusRows + kProbeTables * kProbeRows, 4, 12, &rng);
    probes_.assign(words.begin() + kCorpusRows, words.end());
    words.resize(kCorpusRows);
    corpus_ = std::move(words);
    groups_.resize(kProbeTables);
    selected_.assign(kProbeTables * 2, {});
    selected_words_.assign(kProbeTables * 2, {});
    for (size_t t = 0; t < kProbeTables; ++t) {
      std::vector<int64_t>& group = groups_[t];
      for (size_t r = 0; r < kProbeRows; ++r) group.push_back(r % 2);
      rng.Shuffle(&group);
      for (size_t r = 0; r < kProbeRows; ++r) {
        const size_t slot = t * 2 + static_cast<size_t>(group[r]);
        const uint32_t id = static_cast<uint32_t>(t * kProbeRows + r);
        selected_[slot].push_back(id);
        selected_words_[slot].push_back(probes_[id]);
      }
    }
    cej::ThreadPool pool(kPoolThreads);
    reference_ = std::make_unique<TopKReference>(
        Vectors(model_.EmbedBatch(probes_, &pool)), corpus_, model_, &pool,
        kTopK, kPoolThreads + 1);
  }

  std::unique_ptr<cej::Engine> Setup(EmbedTally* tally) override {
    auto engine = NewEngine(model_);
    std::vector<int64_t> cid(kCorpusRows);
    for (size_t i = 0; i < kCorpusRows; ++i) cid[i] = static_cast<int64_t>(i);
    std::vector<std::pair<std::string, Column>> corpus;
    corpus.emplace_back("cid", Column::Int64(std::move(cid)));
    corpus.emplace_back("word", Column::String(corpus_));
    CEJ_CHECK(
        engine->RegisterTable("corpus", MakeTable(std::move(corpus))).ok());
    for (size_t t = 0; t < kProbeTables; ++t) {
      std::vector<int64_t> pid(kProbeRows);
      for (size_t r = 0; r < kProbeRows; ++r) {
        pid[r] = static_cast<int64_t>(t * kProbeRows + r);
      }
      std::vector<std::pair<std::string, Column>> probe;
      probe.emplace_back("pid", Column::Int64(std::move(pid)));
      probe.emplace_back("grp", Column::Int64(groups_[t]));
      probe.emplace_back(
          "word", Column::String(std::vector<std::string>(
                      probes_.begin() + t * kProbeRows,
                      probes_.begin() + (t + 1) * kProbeRows)));
      CEJ_CHECK(engine
                    ->RegisterTable("probe" + std::to_string(t),
                                    MakeTable(std::move(probe)))
                    .ok());
    }
    WarmColumn(engine.get(), model_, "corpus", "word", corpus_, tally);
    return engine;
  }

  cej::QueryBuilder Query(const cej::Engine& engine,
                          uint64_t q) const override {
    const size_t t = q % kProbeTables;
    const int64_t group = static_cast<int64_t>((q / kProbeTables) % 2);
    cej::QueryBuilder builder = engine.Query("probe" + std::to_string(t));
    builder.Select(cej::expr::Cmp("grp", cej::expr::CmpOp::kEq, group))
        .EJoin("corpus", "word", cej::join::JoinCondition::TopK(kTopK));
    return builder;
  }

  bool Verify(uint64_t q, const cej::QueryResult& result,
              std::string* why) const override {
    std::vector<Match> matches;
    if (!ExtractMatches(result, &matches)) {
      *why = "result lacks pid/cid/similarity columns";
      return false;
    }
    return reference_->Check(matches, selected_[Slot(q)], why);
  }

  double SelfTest(uint64_t q, const cej::QueryResult& result) const override {
    std::vector<Match> matches;
    if (!ExtractMatches(result, &matches)) return 0.0;
    return SelfTestOkFrac(
        matches,
        [&](const std::vector<Match>& got, std::string* why) {
          return reference_->Check(got, selected_[Slot(q)], why);
        },
        SwapRights);
  }

  std::vector<std::string> EmbedInputs(uint64_t q) const override {
    return selected_words_[Slot(q)];
  }

  JoinReplay ReplayJoin(const cej::Engine& engine, uint64_t q,
                        const cej::plan::ExecStats& stats,
                        const cej::plan::NodePtr& /*plan*/,
                        const cej::la::Matrix& embedded, Tracer* tracer,
                        int parent) const override {
    auto corpus = CachedColumn(engine, model_, "corpus", "word");
    if (corpus == nullptr) return {};
    return ReplayOperator(engine, stats.join_operator, embedded, *corpus,
                          cej::join::JoinCondition::TopK(kTopK), tracer,
                          parent, static_cast<int64_t>(q));
  }

  cej::serve::ServeQuery ServeEquivalent(uint64_t q) const override {
    cej::serve::ServeQuery query;
    query.table = "corpus";
    query.column = "word";
    query.condition = cej::join::JoinCondition::TopK(kTopK);
    query.probe_strings = selected_words_[Slot(q)];
    return query;
  }

  const cej::model::EmbeddingModel& model() const override { return model_; }
  double latency_limit_ms() const override { return 80.0; }
  double tail_percentile() const override { return 95.0; }

 private:
  static size_t Slot(uint64_t q) {
    return (q % kProbeTables) * 2 + (q / kProbeTables) % 2;
  }

  cej::model::SubwordHashModel model_;
  std::vector<std::string> corpus_, probes_;
  std::vector<std::vector<int64_t>> groups_;
  // Per (table, group) slot: probe-universe ids and words, in row order.
  std::vector<std::vector<uint32_t>> selected_;
  std::vector<std::vector<std::string>> selected_words_;
  std::unique_ptr<TopKReference> reference_;
};

}  // namespace

std::unique_ptr<ClosedLoop> MakeScanTopK() {
  return std::make_unique<ScanTopK>();
}

}  // namespace perfbench
