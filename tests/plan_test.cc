// Tests for cej/plan: logical algebra typing, rewrite-rule semantics
// preservation, the cost model's ordering properties, access-path
// selection crossovers, and executor correctness on all paths.

#include <gtest/gtest.h>

#include "cej/index/flat_index.h"
#include "cej/index/hnsw_index.h"
#include "cej/index/ivf_index.h"
#include "cej/index/index_manager.h"
#include "cej/join/join_operator.h"
#include "cej/model/subword_hash_model.h"
#include "cej/plan/cost_model.h"
#include "cej/plan/executor.h"
#include "cej/plan/logical_plan.h"
#include "cej/plan/rewrite.h"
#include "cej/workload/generators.h"

namespace cej::plan {
namespace {

using storage::Column;
using storage::DataType;
using storage::Relation;
using storage::Schema;

std::shared_ptr<const Relation> WordsTable(
    const std::vector<std::string>& words, uint64_t date_seed) {
  auto schema = Schema::Create({{"word", DataType::kString, 0},
                                {"when", DataType::kDate, 0}});
  CEJ_CHECK(schema.ok());
  std::vector<Column> columns;
  columns.push_back(Column::String(words));
  columns.push_back(Column::Date(workload::UniformDates(
      words.size(), 0, 99, date_seed)));
  auto rel = Relation::Create(std::move(schema).value(), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

// ---------------------------------------------------------------------------
// Logical plan typing
// ---------------------------------------------------------------------------

TEST(LogicalPlanTest, ScanSchemaIsTableSchema) {
  auto table = WordsTable({"a", "b"}, 1);
  auto schema = OutputSchema(Scan("t", table));
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_fields(), 2u);
}

TEST(LogicalPlanTest, EmbedAppendsVectorField) {
  model::SubwordHashModel model;
  auto table = WordsTable({"a", "b"}, 1);
  auto schema = OutputSchema(Embed(Scan("t", table), "word", &model, "emb"));
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_fields(), 3u);
  EXPECT_EQ(schema->field(2).type, DataType::kVector);
  EXPECT_EQ(schema->field(2).vector_dim, model.dim());
}

TEST(LogicalPlanTest, EmbedRejectsNonStringInput) {
  model::SubwordHashModel model;
  auto table = WordsTable({"a"}, 1);
  EXPECT_FALSE(
      OutputSchema(Embed(Scan("t", table), "when", &model, "emb")).ok());
  EXPECT_FALSE(
      OutputSchema(Embed(Scan("t", table), "missing", &model, "e")).ok());
}

TEST(LogicalPlanTest, SelectValidatesPredicate) {
  auto table = WordsTable({"a"}, 1);
  auto good = Select(Scan("t", table),
                     expr::Cmp("when", expr::CmpOp::kLt, int64_t{50}));
  EXPECT_TRUE(OutputSchema(good).ok());
  auto bad = Select(Scan("t", table),
                    expr::Cmp("nope", expr::CmpOp::kLt, int64_t{50}));
  EXPECT_FALSE(OutputSchema(bad).ok());
}

TEST(LogicalPlanTest, EJoinSchemaRenamesCollisions) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto join = EJoin(Scan("l", l), Scan("r", r), "word", "word", &model,
                    join::JoinCondition::Threshold(0.5f));
  auto schema = OutputSchema(join);
  ASSERT_TRUE(schema.ok());
  // word, when, right_word, right_when, similarity.
  EXPECT_EQ(schema->num_fields(), 5u);
  EXPECT_TRUE(schema->FieldIndex("right_word").ok());
  EXPECT_TRUE(schema->FieldIndex("similarity").ok());
}

TEST(LogicalPlanTest, EJoinRejectsMixedKeyTypes) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto join =
      EJoin(Embed(Scan("l", l), "word", &model, "emb"), Scan("r", r), "emb",
            "word", nullptr, join::JoinCondition::Threshold(0.5f));
  EXPECT_FALSE(OutputSchema(join).ok());
}

TEST(LogicalPlanTest, EJoinStringKeysRequireModel) {
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto join = EJoin(Scan("l", l), Scan("r", r), "word", "word", nullptr,
                    join::JoinCondition::Threshold(0.5f));
  EXPECT_FALSE(OutputSchema(join).ok());
}

TEST(LogicalPlanTest, PlanToStringShowsStructure) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto plan = EJoin(Scan("left", l), Scan("right", r), "word", "word",
                    &model, join::JoinCondition::Threshold(0.5f));
  const std::string s = PlanToString(plan);
  EXPECT_NE(s.find("EJoin"), std::string::npos);
  EXPECT_NE(s.find("Scan(left)"), std::string::npos);
  EXPECT_NE(s.find("Scan(right)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rewrites
// ---------------------------------------------------------------------------

TEST(RewriteTest, PrefetchInsertsEmbedNodes) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto naive = EJoin(Scan("l", l), Scan("r", r), "word", "word", &model,
                     join::JoinCondition::Threshold(0.5f));
  auto optimized = ApplyPrefetchEmbeddings(naive);
  ASSERT_EQ(optimized->kind, NodeKind::kEJoin);
  EXPECT_EQ(optimized->model, nullptr);
  EXPECT_EQ(optimized->left->kind, NodeKind::kEmbed);
  EXPECT_EQ(optimized->right->kind, NodeKind::kEmbed);
  EXPECT_EQ(optimized->left_key, "word_emb");
  // Schema still valid.
  EXPECT_TRUE(OutputSchema(optimized).ok());
}

TEST(RewriteTest, PrefetchIsIdempotent) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto plan = ApplyPrefetchEmbeddings(
      EJoin(Scan("l", l), Scan("r", r), "word", "word", &model,
            join::JoinCondition::Threshold(0.5f)));
  auto again = ApplyPrefetchEmbeddings(plan);
  EXPECT_EQ(plan.get(), again.get());  // No structural change.
}

TEST(RewriteTest, SelectionPushesBelowEmbed) {
  model::SubwordHashModel model;
  auto table = WordsTable({"a", "b"}, 1);
  auto plan = Select(Embed(Scan("t", table), "word", &model, "emb"),
                     expr::Cmp("when", expr::CmpOp::kLt, int64_t{50}));
  auto optimized = ApplySelectionPushdown(plan);
  ASSERT_EQ(optimized->kind, NodeKind::kEmbed);
  EXPECT_EQ(optimized->child->kind, NodeKind::kSelect);
  EXPECT_EQ(optimized->child->child->kind, NodeKind::kScan);
}

TEST(RewriteTest, SelectionOnEmbedOutputStaysPut) {
  // A predicate that mentions the vector column cannot exist (vector
  // predicates are rejected), but one referencing a column only present
  // above the Embed must not be pushed. Use an unknown-below column.
  model::SubwordHashModel model;
  auto table = WordsTable({"a"}, 1);
  auto embedded = Embed(Scan("t", table), "word", &model, "emb");
  // "emb" is a vector column: predicate is invalid below AND above; the
  // pushdown must not crash and must keep the Select on top.
  auto plan = Select(embedded, expr::Cmp("emb", expr::CmpOp::kEq, int64_t{0}));
  auto optimized = ApplySelectionPushdown(plan);
  EXPECT_EQ(optimized->kind, NodeKind::kSelect);
}

TEST(RewriteTest, OptimizedPlanProducesSameResultAsNaive) {
  // Semantics preservation: naive vs Optimize()d plan, same output pairs.
  model::SubwordHashModel model;
  auto left_words = workload::RandomStrings(20, 4, 8, 3);
  auto right_words = workload::RandomStrings(30, 4, 8, 4);
  auto l = WordsTable(left_words, 5);
  auto r = WordsTable(right_words, 6);
  auto naive = EJoin(
      Select(Scan("l", l), expr::Cmp("when", expr::CmpOp::kLt, int64_t{70})),
      Select(Scan("r", r), expr::Cmp("when", expr::CmpOp::kLt, int64_t{70})),
      "word", "word", &model, join::JoinCondition::Threshold(0.4f));
  auto optimized = Optimize(naive);

  ExecContext context;
  auto naive_result = Execute(naive, context);
  auto optimized_result = Execute(optimized, context);
  ASSERT_TRUE(naive_result.ok()) << naive_result.status().ToString();
  ASSERT_TRUE(optimized_result.ok());
  ASSERT_EQ(naive_result->num_rows(), optimized_result->num_rows());
  // Compare (word, right_word) pair multisets via sorted render.
  auto render = [](const Relation& rel) {
    std::vector<std::string> out;
    const auto& lw = rel.ColumnByName("word").value()->string_values();
    const auto& rw = rel.ColumnByName("right_word").value()->string_values();
    for (size_t i = 0; i < rel.num_rows(); ++i) {
      out.push_back(lw[i] + "|" + rw[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(render(*naive_result), render(*optimized_result));
}

TEST(RewriteTest, OptimizeReducesModelCalls) {
  // The headline claim of Figure 8, at plan level: quadratic vs linear
  // model invocations.
  model::SubwordHashModel model;
  auto l = WordsTable(workload::RandomStrings(10, 4, 6, 7), 8);
  auto r = WordsTable(workload::RandomStrings(12, 4, 6, 9), 10);
  auto naive = EJoin(Scan("l", l), Scan("r", r), "word", "word", &model,
                     join::JoinCondition::Threshold(0.5f));
  ExecContext context;

  model.ResetStats();
  ASSERT_TRUE(Execute(naive, context).ok());
  const uint64_t naive_calls = model.embed_calls();

  model.ResetStats();
  ASSERT_TRUE(Execute(Optimize(naive), context).ok());
  const uint64_t optimized_calls = model.embed_calls();

  EXPECT_EQ(naive_calls, 2u * 10u * 12u);
  EXPECT_EQ(optimized_calls, 10u + 12u);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModelTest, PrefetchBeatsNaive) {
  join::CostParams p;
  for (size_t n : {10u, 100u, 1000u, 100000u}) {
    EXPECT_LT(join::PrefetchENljCost(n, n, p), join::NaiveENljCost(n, n, p)) << n;
  }
}

TEST(CostModelTest, NaiveGapGrowsQuadratically) {
  join::CostParams p;
  const double gap_small =
      join::NaiveENljCost(100, 100, p) / join::PrefetchENljCost(100, 100, p);
  const double gap_large =
      join::NaiveENljCost(10000, 10000, p) / join::PrefetchENljCost(10000, 10000, p);
  EXPECT_GT(gap_large, gap_small);
}

TEST(CostModelTest, TensorBeatsPrefetchNlj) {
  join::CostParams p;
  EXPECT_LT(join::TensorJoinCost(10000, 10000, p),
            join::PrefetchENljCost(10000, 10000, p));
}

TEST(CostModelTest, SelectionCostIsLinear) {
  join::CostParams p;
  EXPECT_DOUBLE_EQ(join::ESelectionCost(2000, p), 2 * join::ESelectionCost(1000, p));
}

TEST(CostModelTest, ProbeCostGrowsLogarithmically) {
  join::CostParams p;
  const double c1k = join::IndexProbeCost(1000, p);
  const double c1m = join::IndexProbeCost(1000000, p);
  EXPECT_GT(c1m, c1k);
  EXPECT_LT(c1m, 3.0 * c1k);  // log(1e6)/log(1e3) = 2.
}

TEST(CostModelTest, CalibrationProducesPositiveParams) {
  model::SubwordHashModel model;
  join::CostParams p = Calibrate(model, 64);
  EXPECT_GT(p.model, 0.0);
  EXPECT_GT(p.compute, 0.0);
  EXPECT_GT(p.access, 0.0);
  // Subword embedding is much more expensive than one 100-D dot product.
  EXPECT_GT(p.model, p.compute);
}

// ---------------------------------------------------------------------------
// Access-path selection
// ---------------------------------------------------------------------------

// Scan vs probe as the executor's cost scan compares them: the registry's
// "tensor" and "index" quotes for one workload at pool_threads = 1; the
// winner's name (ties go to the scan).
struct ScanProbeQuotes {
  double scan;
  double probe;
  std::string op() const { return scan <= probe ? "tensor" : "index"; }
};

ScanProbeQuotes QuoteScanAndProbe(const join::JoinWorkload& workload,
                                  const join::CostParams& params) {
  const auto& registry = join::JoinOperatorRegistry::Global();
  return {(*registry.Find("tensor"))->EstimateCost(workload, params),
          (*registry.Find("index"))->EstimateCost(workload, params)};
}

// A left_rows x right_rows workload with an index available.
join::JoinWorkload IndexedWorkload(size_t left_rows, size_t right_rows,
                                   join::JoinCondition condition) {
  join::JoinWorkload w;
  w.left_rows = left_rows;
  w.right_rows = right_rows;
  w.condition = condition;
  w.index_available = true;
  return w;
}

TEST(AccessPathTest, NoIndexMeansScan) {
  join::JoinWorkload w = IndexedWorkload(100, 100000, join::JoinCondition{});
  w.index_available = false;
  EXPECT_EQ(QuoteScanAndProbe(w, join::CostParams{}).op(), "tensor");
}

TEST(AccessPathTest, LowSelectivityFavoursScan) {
  // Few right tuples survive the relational filter: scanning the survivors
  // is cheaper than full-index probes (Figure 15's left region).
  join::JoinWorkload w =
      IndexedWorkload(10000, 1000000, join::JoinCondition::TopK(1));
  w.right_selectivity = 0.001;
  EXPECT_EQ(QuoteScanAndProbe(w, join::CostParams{}).op(), "tensor");
}

TEST(AccessPathTest, HighSelectivityTopK1FavoursProbe) {
  // At ~100% selectivity with top-1 probes, the index wins (Figure 15's
  // right region).
  join::JoinWorkload w =
      IndexedWorkload(10000, 1000000, join::JoinCondition::TopK(1));
  w.right_selectivity = 1.0;
  EXPECT_EQ(QuoteScanAndProbe(w, join::CostParams{}).op(), "index");
}

TEST(AccessPathTest, CrossoverSelectivityIsMonotone) {
  // Scanning must win below the crossover and probing above it; the
  // decision flips exactly once as selectivity rises.
  join::JoinWorkload w =
      IndexedWorkload(10000, 1000000, join::JoinCondition::TopK(1));
  join::CostParams p;
  int flips = 0;
  std::string last = "tensor";
  for (double sel = 0.0; sel <= 1.0; sel += 0.01) {
    w.right_selectivity = sel;
    const std::string op = QuoteScanAndProbe(w, p).op();
    if (op != last) {
      ++flips;
      last = op;
    }
  }
  EXPECT_LE(flips, 1);
  EXPECT_EQ(last, "index");
}

TEST(AccessPathTest, RangeConditionShiftsCrossoverRight) {
  // Range probes are costlier (Figure 17): the scan region must grow.
  const join::JoinWorkload topk =
      IndexedWorkload(10000, 1000000, join::JoinCondition::TopK(1));
  join::JoinWorkload range = topk;
  range.condition = join::JoinCondition::Threshold(0.9f);
  join::CostParams p;
  auto crossover = [&](join::JoinWorkload w) {
    for (double sel = 0.0; sel <= 1.0; sel += 0.01) {
      w.right_selectivity = sel;
      if (QuoteScanAndProbe(w, p).op() == "index") return sel;
    }
    return 2.0;  // Never probes.
  };
  EXPECT_GE(crossover(range), crossover(topk));
}

TEST(AccessPathTest, DecisionExposesBothCosts) {
  const ScanProbeQuotes quotes = QuoteScanAndProbe(
      IndexedWorkload(100, 10000, join::JoinCondition::TopK(1)),
      join::CostParams{});
  EXPECT_GT(quotes.scan, 0.0);
  EXPECT_GT(quotes.probe, 0.0);
}

// ---------------------------------------------------------------------------
// Executor: scan path, probe path, forced paths.
// ---------------------------------------------------------------------------

class ExecutorJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_words_ = workload::RandomStrings(15, 4, 8, 11);
    right_words_ = workload::RandomStrings(200, 4, 8, 12);
    left_table_ = WordsTable(left_words_, 13);
    right_table_ = WordsTable(right_words_, 14);
    right_emb_ = model_.EmbedBatch(right_words_);
  }

  model::SubwordHashModel model_;
  std::vector<std::string> left_words_, right_words_;
  std::shared_ptr<const Relation> left_table_, right_table_;
  la::Matrix right_emb_;
};

// Publishes a caller-owned index over r's `column` (by default its hoisted
// embedding column) as an external catalog entry — how plan-layer callers
// hand indexes to the executor.
std::shared_ptr<const index::IndexCatalogSnapshot> CatalogWith(
    const index::VectorIndex* idx, const std::string& column = "word_emb") {
  index::IndexManager manager(nullptr, nullptr, la::SimdMode::kAuto);
  CEJ_CHECK(manager.RegisterExternal("r", column, idx).ok());
  return manager.Snapshot();
}

TEST_F(ExecutorJoinTest, ScanPathTopKProducesKRowsPerLeftTuple) {
  auto plan = Optimize(EJoin(Scan("l", left_table_),
                             Scan("r", right_table_), "word", "word",
                             &model_, join::JoinCondition::TopK(3)));
  ExecContext context;
  ExecStats stats;
  auto result = Execute(plan, context, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 15u * 3u);
  EXPECT_EQ(stats.join_operator, "tensor");
}

TEST_F(ExecutorJoinTest, ProbePathMatchesScanPath) {
  index::FlatIndex flat(right_emb_.Clone());
  auto plan = Optimize(EJoin(Scan("l", left_table_),
                             Scan("r", right_table_), "word", "word",
                             &model_, join::JoinCondition::TopK(2)));
  ExecContext scan_context;
  scan_context.force_operator = "tensor";
  ExecContext probe_context;
  probe_context.index_catalog = CatalogWith(&flat);
  probe_context.force_operator = "index";

  ExecStats scan_stats, probe_stats;
  auto scan_result = Execute(plan, scan_context, &scan_stats);
  auto probe_result = Execute(plan, probe_context, &probe_stats);
  ASSERT_TRUE(scan_result.ok() && probe_result.ok());
  EXPECT_EQ(scan_stats.join_operator, "tensor");
  EXPECT_EQ(probe_stats.join_operator, "index");
  ASSERT_EQ(scan_result->num_rows(), probe_result->num_rows());

  auto render = [](const Relation& rel) {
    std::vector<std::string> out;
    const auto& lw = rel.ColumnByName("word").value()->string_values();
    const auto& rw = rel.ColumnByName("right_word").value()->string_values();
    for (size_t i = 0; i < rel.num_rows(); ++i) {
      out.push_back(lw[i] + "|" + rw[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(render(*scan_result), render(*probe_result));
}

TEST_F(ExecutorJoinTest, ProbePathRespectsRelationalPreFilter) {
  index::FlatIndex flat(right_emb_.Clone());
  auto filtered_right = Select(
      Scan("r", right_table_),
      expr::Cmp("when", expr::CmpOp::kLt, int64_t{30}));
  auto plan = Optimize(EJoin(Scan("l", left_table_), filtered_right, "word",
                             "word", &model_, join::JoinCondition::TopK(1)));
  ExecContext context;
  context.index_catalog = CatalogWith(&flat);
  context.force_operator = "index";
  auto result = Execute(plan, context);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every matched right row satisfies the predicate.
  const auto& when =
      result->ColumnByName("right_when").value()->date_values();
  for (int32_t w : when) EXPECT_LT(w, 30);
  EXPECT_EQ(result->num_rows(), 15u);
}

TEST_F(ExecutorJoinTest, ProbePathWorksWithAnyIndexFamily) {
  // The executor is index-family agnostic: register an IVF index instead
  // of HNSW and force the probe path; at full nprobe the results must
  // equal the scan path exactly.
  auto ivf = index::IvfFlatIndex::Build(right_emb_.Clone());
  ASSERT_TRUE(ivf.ok());
  (*ivf)->set_nprobe((*ivf)->nlist());
  auto plan = Optimize(EJoin(Scan("l", left_table_),
                             Scan("r", right_table_), "word", "word",
                             &model_, join::JoinCondition::TopK(2)));
  ExecContext scan_context;
  scan_context.force_operator = "tensor";
  ExecContext probe_context;
  probe_context.index_catalog = CatalogWith(ivf->get());
  probe_context.force_operator = "index";
  auto scan_result = Execute(plan, scan_context);
  auto probe_result = Execute(plan, probe_context);
  ASSERT_TRUE(scan_result.ok() && probe_result.ok());
  ASSERT_EQ(scan_result->num_rows(), probe_result->num_rows());
  const auto& a =
      scan_result->ColumnByName("right_word").value()->string_values();
  const auto& b =
      probe_result->ColumnByName("right_word").value()->string_values();
  auto sorted = [](std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(a), sorted(b));
}

TEST_F(ExecutorJoinTest, SelectAboveJoinFiltersOutput) {
  auto plan = Optimize(EJoin(Scan("l", left_table_),
                             Scan("r", right_table_), "word", "word",
                             &model_, join::JoinCondition::TopK(1)));
  // similarity is always <= 1.
  auto filtered = Select(plan, expr::Cmp("similarity", expr::CmpOp::kGt, 1.5));
  ExecContext context;
  auto result = Execute(filtered, context);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(ExecutorJoinTest, StatsExposeCostEstimates) {
  index::FlatIndex flat(right_emb_.Clone());
  auto plan = Optimize(EJoin(Scan("l", left_table_),
                             Scan("r", right_table_), "word", "word",
                             &model_, join::JoinCondition::TopK(1)));
  ExecContext context;
  context.index_catalog = CatalogWith(&flat);
  ExecStats stats;
  ASSERT_TRUE(Execute(plan, context, &stats).ok());
  EXPECT_GT(stats.estimated_cost_ns, 0.0);
  EXPECT_GT(stats.measured_cost_ns, 0.0);
}

// `table` plus a stored "emb" vector column holding `words`' embeddings.
std::shared_ptr<const Relation> WithEmbeddings(
    const std::shared_ptr<const Relation>& table, const la::Matrix& emb) {
  auto rel = table->WithColumn(
      storage::Field{"emb", DataType::kVector, emb.cols()},
      Column::Vector(emb.Clone()));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

// One EJoin run both ways: materialized by Execute, and streamed by
// ExecuteToSink with the pair ids resolved through the relations they
// address.
struct BothWays {
  ExecStats execute_stats, stream_stats;
  std::vector<std::string> executed, streamed;  // Sorted "lw|rw|sim".
};

BothWays RunBothWays(const NodePtr& plan, const ExecContext& context,
                     const Relation& stream_right) {
  BothWays out;
  auto executed = Execute(plan, context, &out.execute_stats);
  CEJ_CHECK(executed.ok());
  auto left = Execute(plan->left, context);
  CEJ_CHECK(left.ok());
  const size_t left_word = left->schema().FieldIndex("word").value();
  const size_t right_word =
      left->num_columns() + stream_right.schema().FieldIndex("word").value();
  auto render = [](const std::string& l, const std::string& r, double sim) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", sim);
    return l + "|" + r + "|" + buf;
  };
  // The join's own similarity is the last column (a right subtree's keeps
  // the name "similarity").
  const auto& sims =
      executed->column(executed->num_columns() - 1).double_values();
  for (size_t i = 0; i < executed->num_rows(); ++i) {
    out.executed.push_back(
        render(executed->column(left_word).string_values()[i],
               executed->column(right_word).string_values()[i], sims[i]));
  }
  join::MaterializingSink sink;
  CEJ_CHECK(ExecuteToSink(plan, context, &sink, &out.stream_stats).ok());
  const auto& lw = left->column(left_word).string_values();
  const auto& rw = stream_right.ColumnByName("word").value()->string_values();
  for (const join::JoinPair& p : sink.pairs()) {
    out.streamed.push_back(render(lw[p.left], rw[p.right],
                                  static_cast<double>(p.similarity)));
  }
  std::sort(out.executed.begin(), out.executed.end());
  std::sort(out.streamed.begin(), out.streamed.end());
  return out;
}

TEST_F(ExecutorJoinTest, ExecuteAndStreamAgreeOnEveryRightSideShape) {
  const la::Matrix left_emb = model_.EmbedBatch(left_words_);
  const auto left_vec = WithEmbeddings(left_table_, left_emb);
  const auto right_vec = WithEmbeddings(right_table_, right_emb_);
  const auto when_lt_30 = expr::Cmp("when", expr::CmpOp::kLt, int64_t{30});
  index::FlatIndex flat(right_emb_.Clone());

  struct Shape {
    std::string name;
    NodePtr plan;
    std::string op;
    ExecContext context;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"un-optimized string key",
                    EJoin(Scan("l", left_table_), Scan("r", right_table_),
                          "word", "word", &model_,
                          join::JoinCondition::Threshold(0.3f)),
                    "naive_nlj",
                    {}});
  shapes.push_back({"stored-vector scan",
                    EJoin(Scan("l", left_vec), Scan("r", right_vec), "emb",
                          "emb", nullptr, join::JoinCondition::TopK(2)),
                    "tensor",
                    {}});
  shapes.push_back(
      {"embed pipeline under a select",
       Optimize(EJoin(Scan("l", left_table_),
                      Select(Scan("r", right_table_), when_lt_30), "word",
                      "word", &model_, join::JoinCondition::TopK(2))),
       "tensor",
       {}});
  shapes.push_back({"catalog-indexed probe with a select",
                    EJoin(Scan("l", left_vec),
                          Select(Scan("r", right_vec), when_lt_30), "emb",
                          "emb", nullptr, join::JoinCondition::TopK(2)),
                    "index",
                    {}});
  shapes.back().context.index_catalog = CatalogWith(&flat, "emb");
  shapes.back().context.force_operator = "index";
  shapes.push_back(
      {"ejoin as the right subtree",
       EJoin(Scan("l", left_vec),
             EJoin(Scan("r", right_vec), Scan("l2", left_vec), "emb", "emb",
                   nullptr, join::JoinCondition::TopK(1)),
             "emb", "emb", nullptr, join::JoinCondition::TopK(2)),
       "tensor",
       {}});

  for (const Shape& shape : shapes) {
    // Probe ids address base-table rows; every other path's ids address
    // the right subtree's output.
    std::shared_ptr<const Relation> stream_right = right_vec;
    if (shape.op != "index") {
      auto right = Execute(shape.plan->right, shape.context);
      ASSERT_TRUE(right.ok()) << shape.name;
      stream_right = std::make_shared<const Relation>(std::move(*right));
    }
    const BothWays run = RunBothWays(shape.plan, shape.context, *stream_right);
    EXPECT_EQ(run.execute_stats.join_operator, shape.op) << shape.name;
    EXPECT_EQ(run.stream_stats.join_operator, shape.op) << shape.name;
    EXPECT_FALSE(run.executed.empty()) << shape.name;
    EXPECT_EQ(run.executed, run.streamed) << shape.name;
    EXPECT_EQ(run.execute_stats.model_calls, run.stream_stats.model_calls)
        << shape.name;
  }
}

TEST_F(ExecutorJoinTest, StreamedProbeNeverEmbedsTheRightBaseTable) {
  index::FlatIndex flat(right_emb_.Clone());
  auto plan = Optimize(EJoin(
      Scan("l", left_table_),
      Select(Scan("r", right_table_),
             expr::Cmp("when", expr::CmpOp::kLt, int64_t{30})),
      "word", "word", &model_, join::JoinCondition::TopK(2)));
  ExecContext context;
  context.index_catalog = CatalogWith(&flat);
  context.force_operator = "index";
  const BothWays run = RunBothWays(plan, context, *right_table_);
  EXPECT_EQ(run.stream_stats.join_operator, "index");
  EXPECT_EQ(run.executed, run.streamed);
  // The stream embeds the left side only; materializing the output also
  // embeds the right base table the probe ids address.
  EXPECT_EQ(run.stream_stats.model_calls, left_words_.size());
  EXPECT_EQ(run.execute_stats.model_calls,
            left_words_.size() + right_words_.size());
}

TEST_F(ExecutorJoinTest, DemuxSlicesMustCoverTheLeftInput) {
  auto plan = Optimize(EJoin(Scan("l", left_table_),
                             Scan("r", right_table_), "word", "word",
                             &model_, join::JoinCondition::TopK(2)));
  ExecContext context;
  join::MaterializingSink first, second;
  auto short_batch = ExecuteToDemuxSinks(plan, context, {{0, 5, &first}});
  EXPECT_EQ(short_batch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(first.pairs().empty());

  auto covered = ExecuteToDemuxSinks(
      plan, context, {{0, 5, &first}, {5, left_words_.size(), &second}});
  ASSERT_TRUE(covered.ok()) << covered.status().ToString();
  EXPECT_EQ(first.pairs().size(), 5u * 2u);
  EXPECT_EQ(second.pairs().size(), (left_words_.size() - 5) * 2u);
  for (const join::JoinPair& p : first.pairs()) EXPECT_LT(p.left, 5u);
}

TEST(ExecutorTest, SelectExecutesPredicates) {
  auto table = WordsTable(workload::RandomStrings(100, 4, 6, 15), 16);
  auto plan = Select(Scan("t", table),
                     expr::Cmp("when", expr::CmpOp::kLt, int64_t{50}));
  ExecContext context;
  auto result = Execute(plan, context);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->num_rows(), 100u);
  for (int32_t w : result->ColumnByName("when").value()->date_values()) {
    EXPECT_LT(w, 50);
  }
}

TEST(ExecutorTest, EmbedMaterializesVectorColumn) {
  model::SubwordHashModel model;
  auto table = WordsTable({"alpha", "beta"}, 17);
  auto plan = Embed(Scan("t", table), "word", &model, "emb");
  ExecContext context;
  auto result = Execute(plan, context);
  ASSERT_TRUE(result.ok());
  const auto* col = result->ColumnByName("emb").value();
  EXPECT_EQ(col->vector_dim(), model.dim());
  auto direct = model.EmbedToVector("alpha");
  for (size_t c = 0; c < model.dim(); ++c) {
    EXPECT_EQ(col->VectorAt(0)[c], direct[c]);
  }
}

TEST(ExecutorTest, NaiveTopKIsUnimplemented) {
  model::SubwordHashModel model;
  auto l = WordsTable({"a"}, 1);
  auto r = WordsTable({"b"}, 2);
  auto naive = EJoin(Scan("l", l), Scan("r", r), "word", "word", &model,
                     join::JoinCondition::TopK(1));
  ExecContext context;
  auto result = Execute(naive, context);
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace cej::plan
