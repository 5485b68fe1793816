#include "cej/plan/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "cej/api/embedding_cache.h"
#include "cej/common/macros.h"
#include "cej/common/timer.h"
#include "cej/join/sweep_kernel.h"
#include "cej/stats/cost_calibrator.h"

namespace cej::plan {

namespace {

using join::JoinInputs;
using join::JoinOperator;
using join::JoinOperatorRegistry;
using join::JoinStats;
using storage::Column;
using storage::DataType;
using storage::Field;
using storage::Relation;
using storage::Schema;

// The probe-eligible right-subtree pattern: either the rewritten pipeline
// Embed -> [Select ->] Scan, or a bare [Select ->] Scan whose join key is
// a stored vector column of the base table.
struct ProbePattern {
  bool matches = false;
  const LogicalNode* embed = nullptr;   // Null for stored-vector scans.
  const LogicalNode* select = nullptr;  // May be null.
  const LogicalNode* scan = nullptr;
};

ProbePattern MatchProbePattern(const NodePtr& node,
                               const std::string& right_key) {
  ProbePattern p;
  const LogicalNode* below = node.get();
  if (below->kind == NodeKind::kEmbed) {
    p.embed = below;
    below = below->child.get();
  }
  if (below->kind == NodeKind::kSelect) {
    p.select = below;
    below = below->child.get();
  }
  if (below->kind != NodeKind::kScan) return p;
  p.scan = below;
  if (p.embed == nullptr) {
    // Bare pattern: the join key must be a stored vector column.
    auto field = p.scan->relation->schema().FieldIndex(right_key);
    if (!field.ok() || p.scan->relation->schema().field(*field).type !=
                           DataType::kVector) {
      return p;
    }
  }
  p.matches = true;
  return p;
}

// The cost scan's verdict: the operator to run, its quote, the rejected
// runner-up, and whether calibration exploration (not price) chose it.
struct Selection {
  const JoinOperator* op = nullptr;
  double cost = std::numeric_limits<double>::infinity();
  std::string runner_up;
  double runner_up_cost = std::numeric_limits<double>::infinity();
  bool explored = false;
};

// The physical join chosen for one EJoin (Section VI.E): the operator and
// the workload it was priced on, plus everything running it needs.
struct ChosenJoin {
  Selection selection;
  join::JoinWorkload workload;  // As priced.
  // The cost scope the observation's measured window covers.
  join::JoinWorkload observed;
  // String keys run in the context domain (strings + model).
  bool string_domain = false;
  ProbePattern pattern;
  const index::IndexCatalogEntry* catalog_entry = nullptr;
  index::FilterBitmap bitmap;
  // Base-table row ids surviving the pushed-down Select, evaluated at most
  // ONCE (for the probe bitmap) and reused by the scan side.
  std::optional<std::vector<uint32_t>> selected_rows;
  // The right input relation; set by the chooser when pricing needed it
  // (string keys, arbitrary subtrees), else by the scan-side preparation.
  std::optional<Relation> right;

  const JoinOperator* op() const { return selection.op; }
  const index::VectorIndex* index() const {
    return catalog_entry != nullptr ? catalog_entry->index.get() : nullptr;
  }
  bool probes() const { return !string_domain && op()->Traits().needs_index; }
};

// Assembles the EJoin output relation from matched pairs.
Result<Relation> MaterializeJoinOutput(const Schema& output_schema,
                                       const Relation& left,
                                       const Relation& right,
                                       const std::vector<join::JoinPair>& pairs) {
  std::vector<uint32_t> left_rows, right_rows;
  std::vector<double> sims;
  left_rows.reserve(pairs.size());
  right_rows.reserve(pairs.size());
  sims.reserve(pairs.size());
  for (const auto& p : pairs) {
    left_rows.push_back(p.left);
    right_rows.push_back(p.right);
    sims.push_back(static_cast<double>(p.similarity));
  }
  std::vector<Column> columns;
  columns.reserve(output_schema.num_fields());
  for (size_t i = 0; i < left.num_columns(); ++i) {
    columns.push_back(left.column(i).Gather(left_rows));
  }
  for (size_t i = 0; i < right.num_columns(); ++i) {
    columns.push_back(right.column(i).Gather(right_rows));
  }
  columns.push_back(Column::Double(std::move(sims)));
  return Relation::Create(output_schema, std::move(columns));
}

// Routes a fused batch's pair stream back to its member queries: each
// pair's left row is looked up in the sorted slice ranges (binary search),
// re-based to the slice, and forwarded to the slice's sink in contiguous
// runs. Thread-safe to the JoinSink contract — routing is lock-free (the
// slice table is immutable; per-slice stop flags are atomic) and the
// member sinks are themselves required to be thread-safe.
class DemuxSink : public join::JoinSink {
 public:
  explicit DemuxSink(const std::vector<ProbeSlice>& slices)
      : slices_(slices),
        stopped_(std::make_unique<std::atomic<bool>[]>(slices.size())),
        live_(slices.size()) {
    for (size_t i = 0; i < slices_.size(); ++i) stopped_[i] = false;
  }

  bool Consume(const join::JoinPair* pairs, size_t count) override {
    std::vector<join::JoinPair> run;  // Re-based pairs for one slice.
    size_t i = 0;
    while (i < count) {
      const size_t slice = SliceFor(pairs[i].left);
      size_t j = i;
      while (j < count && SliceFor(pairs[j].left) == slice) ++j;
      if (!stopped_[slice].load(std::memory_order_relaxed)) {
        run.assign(pairs + i, pairs + j);
        const uint32_t base = static_cast<uint32_t>(slices_[slice].begin);
        for (auto& p : run) p.left -= base;
        if (!slices_[slice].sink->Consume(run.data(), run.size())) {
          // Latch once; the last slice to stop stops the operator.
          if (!stopped_[slice].exchange(true, std::memory_order_relaxed)) {
            live_.fetch_sub(1, std::memory_order_acq_rel);
          }
        }
      }
      i = j;
    }
    return live_.load(std::memory_order_relaxed) > 0;
  }

  void Finish() override {
    for (const ProbeSlice& slice : slices_) slice.sink->Finish();
  }

 private:
  size_t SliceFor(uint32_t left) const {
    // Last slice whose begin <= left. Slices are contiguous from 0, so
    // every valid left row maps to exactly one.
    size_t lo = 0, hi = slices_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi + 1) / 2;
      if (slices_[mid].begin <= left) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  }

  const std::vector<ProbeSlice>& slices_;
  std::unique_ptr<std::atomic<bool>[]> stopped_;
  std::atomic<size_t> live_;
};

// Pass-through sink counting the pairs a graph-lowered join emits — the
// per-edge OBSERVED cardinality. Atomic because parallel operators feed one
// sink from several workers.
class EdgeCountingSink : public join::JoinSink {
 public:
  explicit EdgeCountingSink(join::JoinSink* inner) : inner_(inner) {}

  bool Consume(const join::JoinPair* pairs, size_t count) override {
    count_.fetch_add(count, std::memory_order_relaxed);
    return inner_->Consume(pairs, count);
  }

  void Finish() override { inner_->Finish(); }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  join::JoinSink* inner_;
  std::atomic<uint64_t> count_{0};
};

class PlanExecutor {
 public:
  PlanExecutor(const ExecContext& context, ExecStats* stats,
               size_t fused_queries = 1)
      : context_(context),
        registry_(context.operators != nullptr
                      ? *context.operators
                      : JoinOperatorRegistry::Global()),
        stats_(stats),
        fused_queries_(fused_queries < 1 ? 1 : fused_queries) {}

  Result<Relation> Run(const NodePtr& node) {
    switch (node->kind) {
      case NodeKind::kScan:
        return *node->relation;
      case NodeKind::kSelect: {
        CEJ_ASSIGN_OR_RETURN(Relation input, Run(node->child));
        CEJ_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                             expr::Filter(input, node->predicate));
        return input.Take(rows);
      }
      case NodeKind::kEmbed:
        return RunEmbed(node);
      case NodeKind::kEJoin:
        return RunEJoin(node);
      case NodeKind::kJoinGraph:
        return RunJoinGraph(node);
    }
    return Status::Internal("unreachable");
  }

  // Streaming entry point: the final join feeds `sink` directly. A
  // JoinGraph root lowers to its chosen order first; the stream carries
  // the LAST executed edge's pairs. `left_rows`, when set, is the row count
  // the final join's left input must have (a fused batch's stacked probes).
  Result<JoinStats> RunToSink(const NodePtr& node, join::JoinSink* sink,
                              std::optional<size_t> left_rows = {}) {
    NodePtr ejoin = node;
    if (node->kind == NodeKind::kJoinGraph) {
      CEJ_ASSIGN_OR_RETURN(JoinOrderPlan plan, EnumerateGraph(node));
      ejoin = plan.root;
    } else if (node->kind != NodeKind::kEJoin) {
      return Status::InvalidArgument(
          "ExecuteToSink: plan root must be an EJoin or a JoinGraph");
    }
    CEJ_ASSIGN_OR_RETURN(Relation left, Run(ejoin->left));
    if (left_rows.has_value() && left.num_rows() != *left_rows) {
      return Status::InvalidArgument(
          "ExecuteToDemuxSinks: slices cover " + std::to_string(*left_rows) +
          " left rows but the join's left input has " +
          std::to_string(left.num_rows()));
    }
    CEJ_ASSIGN_OR_RETURN(const Column* left_key,
                         left.ColumnByName(ejoin->left_key));
    CEJ_ASSIGN_OR_RETURN(ChosenJoin chosen, ChooseJoin(ejoin, *left_key));
    return RunChosen(ejoin, &chosen, *left_key, sink);
  }

 private:
  // Embeds `input`'s embed-input column per `embed`, serving from — and
  // populating — the engine embedding cache when `base_table` names the
  // base table the rows came from. `base_rows` are the base-table row ids
  // behind `input`'s rows (nullptr = `input` IS the full base table; only
  // full-table embeddings are cached, but filtered pipelines gather their
  // survivors out of a cached full-table matrix on a hit).
  Result<Relation> ApplyEmbed(const Relation& input, const LogicalNode& embed,
                              const std::string& base_table,
                              const std::vector<uint32_t>* base_rows) {
    CEJ_ASSIGN_OR_RETURN(const Column* col,
                         input.ColumnByName(embed.input_column));
    if (col->type() != DataType::kString) {
      return Status::InvalidArgument("Embed: column '" + embed.input_column +
                                     "' is not a string column");
    }
    // Shared straight into the result column: a full-table cache hit is
    // zero-copy, and a miss shares the freshly embedded matrix between
    // the cache and the column without cloning either way.
    std::shared_ptr<const la::Matrix> embedded;
    EmbeddingCache* cache = context_.embedding_cache;
    const bool cacheable = cache != nullptr && !base_table.empty();
    if (cacheable) {
      std::shared_ptr<const la::Matrix> hit =
          cache->Get(base_table, embed.input_column, embed.model);
      if (hit != nullptr && hit->cols() == embed.model->dim()) {
        if (base_rows == nullptr) {
          if (hit->rows() == input.num_rows()) embedded = hit;
        } else {
          la::Matrix gathered(base_rows->size(), hit->cols());
          bool ok = true;
          for (size_t i = 0; i < base_rows->size(); ++i) {
            const uint32_t r = (*base_rows)[i];
            if (r >= hit->rows()) {
              ok = false;
              break;
            }
            std::memcpy(gathered.Row(i), hit->Row(r),
                        hit->cols() * sizeof(float));
          }
          if (ok) {
            embedded =
                std::make_shared<const la::Matrix>(std::move(gathered));
          }
        }
      }
      if (stats_ != nullptr) {
        if (embedded != nullptr) {
          ++stats_->embedding_cache_hits;
        } else {
          ++stats_->embedding_cache_misses;
        }
      }
    }
    if (embedded == nullptr) {
      la::Matrix fresh =
          embed.model->EmbedBatch(col->string_values(), context_.pool);
      if (stats_ != nullptr) stats_->model_calls += fresh.rows();
      embedded = std::make_shared<const la::Matrix>(std::move(fresh));
      if (cacheable && base_rows == nullptr) {
        cache->Put(base_table, embed.input_column, embed.model, embedded);
      }
    }
    return input.WithColumn(
        Field{embed.output_column, DataType::kVector, embed.model->dim()},
        Column::Vector(std::move(embedded)));
  }

  Result<Relation> RunEmbed(const NodePtr& node) {
    const LogicalNode* below = node->child.get();
    // Stacked hoisted embeddings (the graph lowering emits Embed over
    // Embed over [Select(]Scan[)] for an input with several string join
    // keys) only append columns — the rows are still the base table's, so
    // every level of the stack keys the cache by the scan underneath.
    const LogicalNode* base = below;
    while (base->kind == NodeKind::kEmbed) base = base->child.get();
    // Full base table: the cacheable shape.
    if (base->kind == NodeKind::kScan) {
      if (below->kind == NodeKind::kScan) {
        return ApplyEmbed(*base->relation, *node, base->table_name, nullptr);
      }
      CEJ_ASSIGN_OR_RETURN(Relation input, Run(node->child));
      return ApplyEmbed(input, *node, base->table_name, nullptr);
    }
    // Filtered base table: evaluate the predicate once, then embed only
    // the survivors (or gather them from a cached full-table matrix).
    if (base->kind == NodeKind::kSelect &&
        base->child->kind == NodeKind::kScan) {
      const LogicalNode* scan = base->child.get();
      CEJ_ASSIGN_OR_RETURN(
          std::vector<uint32_t> rows,
          expr::Filter(*scan->relation, base->predicate));
      if (below == base) {
        const Relation filtered = scan->relation->Take(rows);
        return ApplyEmbed(filtered, *node, scan->table_name, &rows);
      }
      CEJ_ASSIGN_OR_RETURN(Relation input, Run(node->child));
      return ApplyEmbed(input, *node, scan->table_name, &rows);
    }
    // Arbitrary subtree: embed whatever it produced, uncached.
    CEJ_ASSIGN_OR_RETURN(Relation input, Run(node->child));
    return ApplyEmbed(input, *node, "", nullptr);
  }

  // Materialized EJoin: choose, run into a MaterializingSink, then gather
  // the output rows from both inputs. Pair ids address `left` and the
  // chosen join's right relation.
  Result<Relation> RunEJoin(const NodePtr& node) {
    CEJ_ASSIGN_OR_RETURN(Schema output_schema, OutputSchema(node));
    CEJ_ASSIGN_OR_RETURN(Relation left, Run(node->left));
    CEJ_ASSIGN_OR_RETURN(const Column* left_key,
                         left.ColumnByName(node->left_key));
    CEJ_ASSIGN_OR_RETURN(ChosenJoin chosen, ChooseJoin(node, *left_key));
    join::MaterializingSink sink;
    CEJ_RETURN_IF_ERROR(RunChosen(node, &chosen, *left_key, &sink).status());
    CEJ_ASSIGN_OR_RETURN(Relation right, RightRelation(&chosen));
    return MaterializeJoinOutput(output_schema, left, right, sink.pairs());
  }

  // Orders the graph's edges (DP unless forced/pinned), publishes the
  // decision into ExecStats, and returns the lowered binary tree.
  Result<JoinOrderPlan> EnumerateGraph(const NodePtr& node) {
    CEJ_ASSIGN_OR_RETURN(
        JoinOrderPlan plan,
        EnumerateJoinOrder(node, JoinOrderOptionsFor(context_)));
    if (stats_ != nullptr) {
      stats_->join_edge_order = plan.edge_order;
      switch (plan.source) {
        case JoinOrderSource::kDp:
          stats_->join_order_source = "dp";
          break;
        case JoinOrderSource::kForced:
          stats_->join_order_source = "forced";
          break;
        case JoinOrderSource::kSubmission:
          stats_->join_order_source = "submission";
          break;
      }
      stats_->edge_card_est = plan.edge_est_rows;
      stats_->edge_card_obs.assign(plan.edge_est_rows.size(), 0);
    }
    return plan;
  }

  // Chained execution: run the lowered tree, then project its output back
  // onto the graph's canonical schema (zero-copy — the intermediate
  // relations already share their columns, embedding columns included).
  Result<Relation> RunJoinGraph(const NodePtr& node) {
    CEJ_ASSIGN_OR_RETURN(Schema canonical, OutputSchema(node));
    CEJ_ASSIGN_OR_RETURN(JoinOrderPlan plan, EnumerateGraph(node));
    CEJ_ASSIGN_OR_RETURN(Relation executed, Run(plan.root));
    return executed.Project(std::move(canonical),
                            plan.canonical_projection);
  }

  // Access-path selection for one EJoin: prices the eligible operators on
  // the join's workload and returns the winner with what running it needs.
  //
  // String key (an un-rewritten plan): `force_operator`, else — with an
  // adaptive calibrator attached — the registry scan over every
  // string-capable operator (naive natively; the prefetched family embeds
  // on demand), else the naive NLJ, deliberately: un-optimized plans keep
  // behaving like Figure 8's baseline. Both sides' model terms fall inside
  // the measured window.
  //
  // Vector key: the index operator is eligible when the right subtree is a
  // probe pattern the catalog holds an index for; the scan family competes
  // otherwise. A side is priced with a model term only when it is a
  // matched Embed pipeline over a cold column (EmbedsCold). The left side
  // always arrives embedded; the right side is embedded inside the
  // measured window only by such a pipeline on the scan path.
  Result<ChosenJoin> ChooseJoin(const NodePtr& node, const Column& left_key) {
    ChosenJoin chosen;
    join::JoinWorkload& workload = chosen.workload;
    workload.left_rows = left_key.size();
    workload.condition = node->condition;
    // Caller-runs pool: the calling thread works alongside the workers.
    workload.pool_threads = join::PoolWorkers(context_.pool);
    workload.shard_count = context_.shard_count;
    workload.fused_queries = fused_queries_;

    if (left_key.type() == DataType::kString) {
      chosen.string_domain = true;
      CEJ_ASSIGN_OR_RETURN(chosen.right, Run(node->right));
      workload.right_rows = chosen.right->num_rows();
      workload.dim = node->model != nullptr ? node->model->dim() : 0;
      chosen.observed = workload;
      if (context_.force_operator.empty() &&
          (context_.calibrator == nullptr || workload.dim == 0)) {
        CEJ_ASSIGN_OR_RETURN(chosen.selection.op,
                             registry_.Find("naive_nlj"));
        return chosen;
      }
      CEJ_ASSIGN_OR_RETURN(chosen.selection,
                           SelectOperator(workload, /*string_domain=*/true));
      return chosen;
    }
    if (left_key.type() != DataType::kVector) {
      return Status::InvalidArgument("EJoin: left key is not a vector");
    }

    chosen.pattern = MatchProbePattern(node->right, node->right_key);
    CEJ_RETURN_IF_ERROR(FindProbeIndex(node, &chosen));
    if (chosen.pattern.matches) {
      workload.right_rows = chosen.pattern.scan->relation->num_rows();
    } else {
      // Arbitrary right subtree: no probe possibility; materialize it now
      // so the scan-family operators can be priced on the true size.
      CEJ_ASSIGN_OR_RETURN(chosen.right, Run(node->right));
      workload.right_rows = chosen.right->num_rows();
    }
    workload.dim = left_key.vector_dim();
    workload.index_available = chosen.index() != nullptr;
    // Exactness-aware probe traits: a served FLAT catalog entry is exact
    // despite the index operator's conservative trait — RequireExact()
    // scans may admit it. External registrations stay opaque (unknown
    // family), hence conservatively approximate.
    workload.index_exact =
        chosen.catalog_entry != nullptr &&
        chosen.catalog_entry->family == index::IndexFamily::kFlat;
    // Chained (graph-lowered) joins: an intermediate side carries its
    // embedding column zero-copy from the join that built it — no model
    // term — but its materialization gather was not free.
    workload.left_intermediate = node->left->kind == NodeKind::kEJoin;
    workload.right_intermediate = node->right->kind == NodeKind::kEJoin;
    // Cache-aware costing, asymmetric per side (a warm left and cold right
    // still pays |S| * M).
    const ProbePattern left_pattern =
        MatchProbePattern(node->left, node->left_key);
    const bool left_embeds =
        EmbedsCold(left_pattern) &&
        left_pattern.embed->output_column == node->left_key;
    const bool right_embeds = EmbedsCold(chosen.pattern);
    workload.left_embed_cached = !left_embeds;
    workload.right_embed_cached = !right_embeds;

    CEJ_ASSIGN_OR_RETURN(chosen.selection,
                         SelectOperator(workload, /*string_domain=*/false));
    chosen.observed = workload;
    chosen.observed.left_embed_cached = true;
    // Probes never embed the right side.
    chosen.observed.right_embed_cached = chosen.probes() || !right_embeds;
    return chosen;
  }

  // Index discovery over the probe-eligible right-subtree patterns in the
  // catalog snapshot (shared_ptr-pinned for the whole query — a concurrent
  // ReplaceTable cannot free a probed index). With an index in hand, the
  // pushed-down Select is evaluated up front: probe pre-filtering needs the
  // row set as a bitmap, and its selectivity steers scan-vs-probe.
  // Otherwise it would scale every eligible (scan-family) operator
  // identically, so the Select is applied once, downstream.
  Status FindProbeIndex(const NodePtr& node, ChosenJoin* chosen) {
    const ProbePattern& pattern = chosen->pattern;
    if (!pattern.matches || context_.index_catalog == nullptr) {
      return Status::OK();
    }
    chosen->catalog_entry = context_.index_catalog->Find(
        pattern.scan->table_name,
        pattern.embed != nullptr ? pattern.embed->output_column
                                 : node->right_key,
        pattern.embed != nullptr ? pattern.embed->model : nullptr);
    if (stats_ != nullptr) {
      if (chosen->catalog_entry != nullptr) {
        ++stats_->index_catalog_hits;
      } else {
        ++stats_->index_catalog_misses;
      }
    }
    const index::VectorIndex* idx = chosen->index();
    if (idx == nullptr) return Status::OK();
    const Relation& base = *pattern.scan->relation;
    const size_t base_rows = base.num_rows();
    if (idx->size() != base_rows) {
      return Status::InvalidArgument(
          "EJoin: registered index size does not match base table '" +
          pattern.scan->table_name + "'");
    }
    chosen->bitmap.assign(base_rows, 1);
    if (pattern.select == nullptr) return Status::OK();
    CEJ_RETURN_IF_ERROR(pattern.select->predicate->Validate(base.schema()));
    std::vector<uint32_t> rows;
    pattern.select->predicate->Eval(base, &rows);
    std::fill(chosen->bitmap.begin(), chosen->bitmap.end(), 0);
    for (uint32_t r : rows) chosen->bitmap[r] = 1;
    chosen->workload.right_selectivity =
        base_rows == 0 ? 0.0
                       : static_cast<double>(rows.size()) /
                             static_cast<double>(base_rows);
    chosen->selected_rows = std::move(rows);
    return Status::OK();
  }

  // Runs the chosen join into `sink`, timing the right-side preparation
  // and the operator run as the observation's measured window, and folds
  // the run into ExecStats (graph-lowered joins also record their edge's
  // observed cardinality against the enumerator's estimate).
  Result<JoinStats> RunChosen(const NodePtr& node, ChosenJoin* chosen,
                              const Column& left_key, join::JoinSink* sink) {
    const JoinOperator* op = chosen->op();
    if (stats_ != nullptr) stats_->join_operator = std::string(op->Name());
    EdgeCountingSink counting(sink);
    const bool graph_edge = node->graph_edge >= 0;

    // The right-side preparation (predicate Take, cache gather, or a full
    // embedding on a cold cache, which fills the cache) is part of the
    // cost the quote priced, so it belongs to the measured window.
    WallTimer timer;
    JoinInputs inputs;
    CEJ_RETURN_IF_ERROR(PrepareInputs(node, left_key, chosen, &inputs));
    const double prep_seconds = timer.ElapsedSeconds();
    CEJ_ASSIGN_OR_RETURN(
        JoinStats run,
        op->Run(inputs, node->condition, BaseOptions(),
                graph_edge ? &counting : sink));
    RecordJoinObservation(*chosen,
                          prep_seconds + run.embed_seconds + run.join_seconds,
                          run, *node, counting.count());
    if (stats_ != nullptr) {
      stats_->model_calls += run.model_calls;
      stats_->join_stats += run;
      if (graph_edge) {
        const size_t edge = static_cast<size_t>(node->graph_edge);
        if (stats_->edge_card_est.size() <= edge) {
          stats_->edge_card_est.resize(edge + 1, 0.0);
          stats_->edge_card_obs.resize(edge + 1, 0);
        }
        stats_->edge_card_est[edge] = node->estimated_rows;
        stats_->edge_card_obs[edge] = counting.count();
      }
    }
    return run;
  }

  // The one right-side preparation. A probe reads the catalog index under
  // the pre-filter bitmap. Every other operator consumes the right
  // relation: the chooser's when it already holds one, else the
  // pushed-down Select's row set when the probe bitmap already evaluated
  // it, else the subtree's output.
  Status PrepareInputs(const NodePtr& node, const Column& left_key,
                       ChosenJoin* chosen, JoinInputs* inputs) {
    if (chosen->probes()) {
      if (stats_ != nullptr && chosen->catalog_entry != nullptr) {
        stats_->index_build_seconds += chosen->catalog_entry->build_seconds;
      }
      inputs->left_vectors = &left_key.vector_values();
      inputs->right_index = chosen->index();
      inputs->right_filter = &chosen->bitmap;
      return Status::OK();
    }
    const ProbePattern& pattern = chosen->pattern;
    if (chosen->selected_rows.has_value()) {
      const Relation filtered =
          pattern.scan->relation->Take(*chosen->selected_rows);
      if (pattern.embed != nullptr) {
        CEJ_ASSIGN_OR_RETURN(
            chosen->right,
            ApplyEmbed(filtered, *pattern.embed, pattern.scan->table_name,
                       &*chosen->selected_rows));
      } else {
        chosen->right = filtered;
      }
    } else if (!chosen->right.has_value()) {
      CEJ_ASSIGN_OR_RETURN(chosen->right, Run(node->right));
    }
    CEJ_ASSIGN_OR_RETURN(const Column* right_key,
                         chosen->right->ColumnByName(node->right_key));
    if (chosen->string_domain) {
      if (right_key->type() != DataType::kString) {
        return Status::InvalidArgument("EJoin: right key is not a string");
      }
      inputs->left_strings = &left_key.string_values();
      inputs->right_strings = &right_key->string_values();
      inputs->model = node->model;
      return Status::OK();
    }
    if (right_key->type() != DataType::kVector) {
      return Status::InvalidArgument("EJoin: right key is not a vector");
    }
    inputs->left_vectors = &left_key.vector_values();
    inputs->right_vectors = &right_key->vector_values();
    return Status::OK();
  }

  // The relation the chosen join's right pair ids address, for output
  // materialization: probe ids are base-table positions, so a probe
  // materializes the base relation (+ the Embed output column for
  // rewritten plans, no Select) to match the scan path's output schema.
  // Only the materializing caller asks, so a streamed probe never embeds
  // the right base table; with an embedding cache configured the embedding
  // costs no model calls once warm.
  Result<Relation> RightRelation(ChosenJoin* chosen) {
    if (!chosen->probes()) return std::move(*chosen->right);
    const ProbePattern& pattern = chosen->pattern;
    const Relation& base = *pattern.scan->relation;
    if (pattern.embed == nullptr) return base;
    return ApplyEmbed(base, *pattern.embed, pattern.scan->table_name,
                      nullptr);
  }

  // Registry-wide pricing: every eligible operator quotes a cost, the
  // cheapest runs. The force_operator override bypasses pricing (its
  // quote stays +infinity) but not the operator's own input checks at
  // Run() time. `string_domain` scans the string-capable operator set
  // (adaptive string-key joins) instead of the vector-domain set.
  //
  // Exploration (calibrated scans only): an eligible EXACT operator that
  // has never produced an observation is chosen once — earliest
  // registration first — when its quote lands within the calibrator's
  // explore ratio of the best quote. Without this, an operator whose seed
  // coefficients OVER-price it would never run, never be observed, and
  // never be repriced: the chosen operator's own observations cannot
  // correct a rival's distinct coefficients.
  Result<Selection> SelectOperator(const join::JoinWorkload& workload,
                                   bool string_domain) {
    Selection selection;
    if (!context_.force_operator.empty()) {
      CEJ_ASSIGN_OR_RETURN(selection.op,
                           registry_.Find(context_.force_operator));
      return selection;
    }

    struct Quote {
      const JoinOperator* op;
      double cost;
      bool exact;
    };
    std::vector<Quote> eligible;
    for (const JoinOperator* op : registry_.operators()) {
      const join::JoinOperatorTraits traits = op->Traits();
      if (string_domain) {
        // String domain: every non-index operator competes — the naive
        // NLJ natively, the prefetched family by embedding on demand.
        if (traits.needs_index) continue;
      } else {
        if (traits.needs_strings) continue;  // Vector domain here.
        if (traits.needs_index && !workload.index_available) continue;
      }
      // Exactness-aware probe traits: the index operator's static trait is
      // conservatively approximate, but a served FLAT entry is exact —
      // RequireExact() admits it (ROADMAP "exactness-aware probe traits").
      const bool exact =
          traits.exact || (traits.needs_index && workload.index_exact);
      if (context_.require_exact && !exact) continue;
      if (!join::SupportsCondition(traits, workload.condition)) continue;
      eligible.push_back(
          {op, op->EstimateCost(workload, context_.cost_params), exact});
    }

    const Quote* best = nullptr;
    const Quote* second = nullptr;
    for (const Quote& quote : eligible) {
      if (best == nullptr || quote.cost < best->cost) {
        second = best;
        best = &quote;
      } else if (second == nullptr || quote.cost < second->cost) {
        second = &quote;
      }
    }
    if (best == nullptr) {
      return Status::Internal(
          "EJoin: no eligible physical operator registered for this "
          "workload");
    }

    selection.op = best->op;
    selection.cost = best->cost;
    if (second != nullptr && std::isfinite(second->cost)) {
      selection.runner_up = std::string(second->op->Name());
      selection.runner_up_cost = second->cost;
    }

    // Exploration respects the engine's overhead budget: once cumulative
    // exploration overrun exhausts it, the scan prices only.
    const double ratio = context_.calibrator != nullptr &&
                                 context_.calibrator->ExplorationAllowed()
                             ? context_.calibrator->explore_cost_ratio()
                             : 0.0;
    if (ratio > 0.0 && std::isfinite(best->cost)) {
      for (const Quote& quote : eligible) {
        if (!quote.exact || !std::isfinite(quote.cost)) continue;
        if (quote.cost > ratio * best->cost) continue;
        if (context_.calibrator->ObservationCount(quote.op->Name()) > 0) {
          continue;
        }
        if (quote.op != best->op) {
          selection.op = quote.op;
          selection.cost = quote.cost;
          selection.runner_up = std::string(best->op->Name());
          selection.runner_up_cost = best->cost;
          selection.explored = true;
        }
        break;  // First unobserved in registration order wins.
      }
    }
    return selection;
  }

  // Feeds the adaptive calibrator — and the estimated-vs-actual ExecStats
  // fields — after a join ran. `measured_seconds` covers the cost scope
  // `chosen.observed` describes; `edge_rows` are the pairs a graph-lowered
  // join emitted.
  void RecordJoinObservation(const ChosenJoin& chosen,
                             double measured_seconds,
                             const JoinStats& run_stats,
                             const LogicalNode& node, uint64_t edge_rows) {
    const JoinOperator* op = chosen.op();
    const Selection& selection = chosen.selection;
    const join::JoinWorkload& workload = chosen.observed;
    const double measured_ns = measured_seconds * 1e9;
    const double estimated_ns =
        op->EstimateCost(workload, context_.cost_params);
    // Re-quote the runner-up under the SAME cost scope as the chosen
    // estimate, so the two ExecStats numbers (and the observation pair)
    // are comparable — the scan-time quotes both carried terms the
    // measured window never covers (e.g. the already-paid left embed).
    double runner_up_ns = 0.0;
    if (!selection.runner_up.empty()) {
      auto runner_up_op = registry_.Find(selection.runner_up);
      if (runner_up_op.ok()) {
        const double quote =
            (*runner_up_op)->EstimateCost(workload, context_.cost_params);
        if (std::isfinite(quote)) runner_up_ns = quote;
      }
    }
    const bool comparable = std::isfinite(estimated_ns) &&
                            estimated_ns > 0.0 && measured_ns > 0.0;
    if (stats_ != nullptr) {
      stats_->estimated_cost_ns =
          std::isfinite(estimated_ns) ? estimated_ns : 0.0;
      stats_->measured_cost_ns = measured_ns;
      stats_->runner_up_operator = selection.runner_up;
      stats_->runner_up_cost_ns = runner_up_ns;
      stats_->explored_operator = selection.explored;
    }
    if (context_.calibrator == nullptr || !comparable) return;
    stats::Observation obs;
    obs.op = std::string(op->Name());
    obs.runner_up = selection.runner_up;
    obs.estimated_ns = estimated_ns;
    obs.runner_up_ns = runner_up_ns;
    obs.measured_ns = measured_ns;
    obs.features =
        join::FeaturesForOperator(op->Name(), workload, context_.cost_params);
    obs.left_rows = workload.left_rows;
    obs.right_rows = workload.right_rows;
    obs.dim = workload.dim;
    obs.topk =
        workload.condition.kind == join::JoinCondition::Kind::kTopK;
    const size_t shards = std::max<size_t>(run_stats.shards_used, 1);
    obs.parallel_workers = std::min(shards, workload.pool_threads);
    obs.speedup_estimated =
        join::ParallelSpeedup(shards, workload.pool_threads,
                              context_.cost_params);
    obs.explored = selection.explored;
    // Fused batches are recorded ONCE, with the member-query count as the
    // per-query attribution.
    obs.fused_queries = workload.fused_queries;
    // Graph-lowered joins: one observation per EDGE, carrying the
    // estimated-vs-observed cardinality pair for the learned-cardinality
    // feed.
    obs.graph_edge = node.graph_edge;
    if (node.graph_edge >= 0) {
      obs.edge_card_est = node.estimated_rows;
      obs.edge_card_obs = edge_rows;
    }
    context_.calibrator->Record(std::move(obs));
  }

  // True when running `pattern` calls the model: a matched Embed pipeline
  // over a column the engine embedding cache does not hold at the matching
  // shape. Stored-vector scans, intermediates and unmatched subtrees (run
  // before pricing) never do. Side-effect-free (Peek moves neither the LRU
  // order nor the hit/miss counters).
  bool EmbedsCold(const ProbePattern& pattern) const {
    if (!pattern.matches || pattern.embed == nullptr) return false;
    if (pattern.embed->model == nullptr ||
        context_.embedding_cache == nullptr) {
      return true;
    }
    const std::shared_ptr<const la::Matrix> warm =
        context_.embedding_cache->Peek(pattern.scan->table_name,
                                       pattern.embed->input_column,
                                       pattern.embed->model);
    return warm == nullptr ||
           warm->rows() != pattern.scan->relation->num_rows() ||
           warm->cols() != pattern.embed->model->dim();
  }

  join::JoinOptions BaseOptions() const {
    join::JoinOptions options;
    options.pool = context_.pool;
    options.simd = context_.simd;
    options.shard_count = context_.shard_count;
    return options;
  }

  const ExecContext& context_;
  const JoinOperatorRegistry& registry_;
  ExecStats* stats_;
  // Client queries stacked into the probe batch (ExecuteToDemuxSinks);
  // priced into every workload so the cost scan sees the fused shape.
  const size_t fused_queries_;
};

}  // namespace

JoinOrderOptions JoinOrderOptionsFor(const ExecContext& context) {
  JoinOrderOptions options;
  options.cost_params = context.cost_params;
  options.registry = context.operators;
  options.pool_threads = join::PoolWorkers(context.pool);
  options.shard_count = context.shard_count;
  options.force_edge_order = context.force_join_order;
  return options;
}

Result<Relation> Execute(const NodePtr& plan, const ExecContext& context,
                         ExecStats* stats) {
  CEJ_CHECK(plan != nullptr);
  PlanExecutor executor(context, stats);
  return executor.Run(plan);
}

Result<join::JoinStats> ExecuteToSink(const NodePtr& plan,
                                      const ExecContext& context,
                                      join::JoinSink* sink,
                                      ExecStats* stats) {
  CEJ_CHECK(plan != nullptr);
  CEJ_CHECK(sink != nullptr);
  PlanExecutor executor(context, stats);
  return executor.RunToSink(plan, sink);
}

Result<join::JoinStats> ExecuteToDemuxSinks(
    const NodePtr& plan, const ExecContext& context,
    const std::vector<ProbeSlice>& slices, ExecStats* stats) {
  CEJ_CHECK(plan != nullptr);
  if (slices.empty()) {
    return Status::InvalidArgument("ExecuteToDemuxSinks: no slices");
  }
  size_t expected_begin = 0;
  for (const ProbeSlice& slice : slices) {
    if (slice.sink == nullptr) {
      return Status::InvalidArgument("ExecuteToDemuxSinks: null slice sink");
    }
    if (slice.begin != expected_begin || slice.end <= slice.begin) {
      return Status::InvalidArgument(
          "ExecuteToDemuxSinks: slices must be non-empty, contiguous from "
          "0, and ascending");
    }
    expected_begin = slice.end;
  }
  if (stats != nullptr) stats->fused_queries = slices.size();
  DemuxSink demux(slices);
  PlanExecutor executor(context, stats, slices.size());
  return executor.RunToSink(plan, &demux, slices.back().end);
}

}  // namespace cej::plan
