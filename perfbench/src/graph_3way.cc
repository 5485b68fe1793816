// graph_3way: a 3-relation chained threshold graph A.x ~ B.y ~ C.z,
// ordered by the DP enumerator, run warm (zero model calls) through
// Execute(). Every word of a small vocabulary appears the same number of
// times in each table, so the output size does not depend on the seed,
// and each hoisted embedding column of the output is larger than glibc's
// 32 MiB mmap threshold: every query faults in fresh pages, instead of
// sometimes reusing heap memory, which made smaller outputs bimodal.

#include <array>

#include "cej/plan/join_order.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cej::storage::Column;

constexpr size_t kVocabulary = 125;
constexpr size_t kCopies = 10;  // Of each word, per table.
constexpr size_t kRows = kVocabulary * kCopies;
constexpr float kThreshold = 0.9f;

class Graph3Way final : public ClosedLoop {
 public:
  void Generate(uint64_t seed) override {
    Rng rng(seed);
    const std::vector<std::string> vocabulary =
        DistinctWords(kVocabulary, 6, 12, &rng);
    cej::ThreadPool pool(kPoolThreads);
    std::vector<Vectors> vectors;
    for (std::vector<std::string>* words : {&a_, &b_, &c_}) {
      for (size_t i = 0; i < kRows; ++i) {
        words->push_back(vocabulary[i % kVocabulary]);
      }
      rng.Shuffle(words);
      vectors.emplace_back(model_.EmbedBatch(*words, &pool));
    }
    reference_ = std::make_unique<GraphReference>(vectors[0], vectors[1],
                                                  vectors[2], kThreshold);
  }

  std::unique_ptr<cej::Engine> Setup(EmbedTally* tally) override {
    auto engine = NewEngine(model_);
    const struct {
      const char* table;
      const char* id;
      const char* key;
      const std::vector<std::string>* words;
    } tables[] = {{"A", "aid", "x", &a_}, {"B", "bid", "y", &b_},
                  {"C", "cid", "z", &c_}};
    for (const auto& t : tables) {
      std::vector<int64_t> ids(kRows);
      for (size_t i = 0; i < kRows; ++i) ids[i] = static_cast<int64_t>(i);
      std::vector<std::pair<std::string, Column>> columns;
      columns.emplace_back(t.id, Column::Int64(std::move(ids)));
      columns.emplace_back(t.key, Column::String(*t.words));
      CEJ_CHECK(
          engine->RegisterTable(t.table, MakeTable(std::move(columns))).ok());
    }
    for (const auto& t : tables) {
      WarmColumn(engine.get(), model_, t.table, t.key, *t.words, tally);
    }
    return engine;
  }

  cej::QueryBuilder Query(const cej::Engine& engine,
                          uint64_t /*q*/) const override {
    cej::JoinGraphSpec spec;
    spec.tables = {"A", "B", "C"};
    spec.edges = {{"A.x", "B.y", Condition(), ""},
                  {"B.y", "C.z", Condition(), ""}};
    return engine.QueryGraph(std::move(spec));
  }

  bool Verify(uint64_t /*q*/, const cej::QueryResult& result,
              std::string* why) const override {
    if (!reference_->unambiguous()) {
      *why = "a reference cosine lies at the threshold";
      return false;
    }
    Columns columns;
    if (!columns.Read(result)) {
      *why = "result lacks id/similarity columns";
      return false;
    }
    return reference_->Check(
        columns.rows(), [&](size_t i) { return columns.Row(i); }, why);
  }

  double SelfTest(uint64_t /*q*/,
                  const cej::QueryResult& result) const override {
    Columns columns;
    if (!columns.Read(result)) return 0.0;
    std::vector<GraphRow> rows;
    for (size_t i = 0; i < columns.rows(); ++i) {
      rows.push_back(columns.Row(i));
    }
    return SelfTestOkFrac(
        rows,
        [&](const std::vector<GraphRow>& got, std::string* why) {
          return reference_->Check(
              got.size(), [&](size_t i) { return got[i]; }, why);
        },
        [](std::vector<GraphRow>* got) {
          for (size_t j = 1; j < got->size(); ++j) {
            if ((*got)[j].c != (*got)[0].c) {
              std::swap((*got)[0].c, (*got)[j].c);
              return true;
            }
          }
          return false;
        });
  }

  std::vector<std::string> EmbedInputs(uint64_t /*q*/) const override {
    return {};  // Warm: the query embeds nothing.
  }

  /// Asks the plan layer for the join order (the DP search the executor
  /// runs), then runs every edge's chosen operator, in the chosen
  /// orientation, on the cached key columns gathered to the rows of the
  /// edge's inputs.
  JoinReplay ReplayJoin(const cej::Engine& engine, uint64_t q,
                        const cej::plan::ExecStats& /*stats*/,
                        const cej::plan::NodePtr& plan,
                        const cej::la::Matrix& /*embedded*/, Tracer* tracer,
                        int parent) const override {
    JoinReplay replay;
    const int64_t request = static_cast<int64_t>(q);
    const cej::plan::ExecContext context = engine.MakeExecContext();
    cej::plan::JoinOrderOptions order_options;
    order_options.cost_params = context.cost_params;
    order_options.pool_threads =
        static_cast<size_t>(context.pool->num_threads()) + 1;
    order_options.shard_count = context.shard_count;
    const int order_span = tracer->Begin("plan.join_order", parent, request);
    auto order = cej::plan::EnumerateJoinOrder(plan, order_options);
    tracer->End(order_span);
    if (!order.ok()) return replay;
    replay.plan_ms = NsToMs(tracer->DurationNs(order_span));
    std::vector<std::shared_ptr<const cej::la::Matrix>> keys;
    for (const char* table : {"A", "B", "C"}) {
      keys.push_back(CachedColumn(engine, model_, table,
                                  std::string(1, 'x' + (table[0] - 'A'))));
      if (keys.back() == nullptr) return replay;
    }
    replay.ok = true;
    Replay(engine, *order->best, /*root=*/true, keys, tracer, parent, request,
           &replay);
    return replay;
  }

  cej::serve::ServeQuery ServeEquivalent(uint64_t /*q*/) const override {
    cej::serve::ServeQuery query;
    query.table = "B";
    query.column = "y";
    query.condition = Condition();
    query.probe_strings = a_;
    return query;
  }

  const cej::model::EmbeddingModel& model() const override { return model_; }
  double latency_limit_ms() const override { return 500.0; }
  double tail_percentile() const override { return 80.0; }

 private:
  /// Rows of a replayed (sub)plan: for each input table joined in so far,
  /// the base row behind every output row. `leaf` names the table of a
  /// leaf, whose key column is used as cached, without a gather.
  struct Rows {
    std::array<std::vector<uint32_t>, 3> ids;
    int leaf = -1;
  };

  /// The key column of input `table` at the rows of `rows`.
  static cej::la::Matrix KeyMatrix(
      const Rows& rows, size_t table,
      const std::vector<std::shared_ptr<const cej::la::Matrix>>& keys) {
    const cej::la::Matrix& base = *keys[table];
    const std::vector<uint32_t>& ids = rows.ids[table];
    cej::la::Matrix out(ids.size(), base.cols());
    for (size_t i = 0; i < ids.size(); ++i) {
      std::copy(base.Row(ids[i]), base.Row(ids[i]) + base.cols(), out.Row(i));
    }
    return out;
  }

  /// Runs `entry`'s subtree bottom-up. Inner joins collect their pairs
  /// (as the executor materializes intermediates); the root only counts.
  Rows Replay(const cej::Engine& engine, const cej::plan::DPJoinEntry& entry,
              bool root,
              const std::vector<std::shared_ptr<const cej::la::Matrix>>& keys,
              Tracer* tracer, int parent, int64_t request,
              JoinReplay* replay) const {
    Rows out;
    if (entry.IsLeaf()) {
      out.leaf = entry.relation_id;
      out.ids[entry.relation_id].resize(kRows);
      for (uint32_t i = 0; i < kRows; ++i) out.ids[entry.relation_id][i] = i;
      return out;
    }
    const Rows left = Replay(engine, *entry.left, false, keys, tracer,
                             parent, request, replay);
    const Rows right = Replay(engine, *entry.right, false, keys, tracer,
                              parent, request, replay);
    // Edge e joins input e with input e + 1 (A.x ~ B.y, B.y ~ C.z).
    const size_t left_table = entry.swapped ? entry.edge + 1 : entry.edge;
    const size_t right_table = entry.swapped ? entry.edge : entry.edge + 1;
    cej::la::Matrix left_owned, right_owned;
    const cej::la::Matrix* left_keys = keys[left_table].get();
    const cej::la::Matrix* right_keys = keys[right_table].get();
    if (left.leaf < 0) {
      left_owned = KeyMatrix(left, left_table, keys);
      left_keys = &left_owned;
    }
    if (right.leaf < 0) {
      right_owned = KeyMatrix(right, right_table, keys);
      right_keys = &right_owned;
    }
    cej::join::MaterializingSink sink;
    const JoinReplay step =
        ReplayOperator(engine, entry.op, *left_keys, *right_keys, Condition(),
                       tracer, parent, request, root ? nullptr : &sink);
    replay->ok = replay->ok && step.ok;
    replay->ms += step.ms;
    replay->sims += step.sims;
    for (const cej::join::JoinPair& pair : sink.pairs()) {
      for (size_t t = 0; t < 3; ++t) {
        if (!left.ids[t].empty()) {
          out.ids[t].push_back(left.ids[t][pair.left]);
        } else if (!right.ids[t].empty()) {
          out.ids[t].push_back(right.ids[t][pair.right]);
        }
      }
    }
    return out;
  }

  static cej::join::JoinCondition Condition() {
    return cej::join::JoinCondition::Threshold(kThreshold);
  }

  /// The id and similarity columns of a graph result, read in place.
  struct Columns {
    const std::vector<int64_t>* aid = nullptr;
    const std::vector<int64_t>* bid = nullptr;
    const std::vector<int64_t>* cid = nullptr;
    const std::vector<double>* sim_ab = nullptr;
    const std::vector<double>* sim_bc = nullptr;

    bool Read(const cej::QueryResult& result) {
      aid = IntColumn(result.relation, "aid");
      bid = IntColumn(result.relation, "bid");
      cid = IntColumn(result.relation, "cid");
      auto ab = result.relation.ColumnByName("similarity");
      auto bc = result.relation.ColumnByName("similarity2");
      if (aid == nullptr || bid == nullptr || cid == nullptr || !ab.ok() ||
          !bc.ok()) {
        return false;
      }
      sim_ab = &(*ab)->double_values();
      sim_bc = &(*bc)->double_values();
      return true;
    }
    size_t rows() const { return aid->size(); }
    GraphRow Row(size_t i) const {
      return {static_cast<uint32_t>((*aid)[i]),
              static_cast<uint32_t>((*bid)[i]),
              static_cast<uint32_t>((*cid)[i]),
              static_cast<float>((*sim_ab)[i]),
              static_cast<float>((*sim_bc)[i])};
    }
  };

  cej::model::SubwordHashModel model_;
  std::vector<std::string> a_, b_, c_;
  std::unique_ptr<GraphReference> reference_;
};

}  // namespace

std::unique_ptr<ClosedLoop> MakeGraph3Way() {
  return std::make_unique<Graph3Way>();
}

}  // namespace perfbench
