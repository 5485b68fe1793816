#include <cstdio>

#include "workloads.h"

namespace perfbench {

using cej::storage::Column;
using cej::storage::DataType;
using cej::storage::Field;
using cej::storage::Relation;

std::unique_ptr<cej::Engine> NewEngine(
    const cej::model::EmbeddingModel& model) {
  cej::Engine::Options options;
  options.num_threads = kPoolThreads;
  auto engine = std::make_unique<cej::Engine>(options);
  CEJ_CHECK(engine->RegisterModel("subword", &model).ok());
  return engine;
}

Relation MakeTable(std::vector<std::pair<std::string, Column>> columns) {
  std::vector<Field> fields;
  std::vector<Column> data;
  for (auto& [name, column] : columns) {
    fields.push_back({name, column.type(), 0});  // No vector columns here.
    data.push_back(std::move(column));
  }
  auto schema = cej::storage::Schema::Create(std::move(fields));
  CEJ_CHECK(schema.ok());
  auto relation = Relation::Create(std::move(schema).value(), std::move(data));
  CEJ_CHECK(relation.ok());
  return std::move(relation).value();
}

cej::la::Matrix TimedEmbed(const cej::model::EmbeddingModel& model,
                           const std::vector<std::string>& strings,
                           cej::ThreadPool* pool, EmbedTally* tally) {
  const int64_t start = NowNs();
  cej::la::Matrix out = model.EmbedBatch(strings, pool);
  tally->seconds += static_cast<double>(NowNs() - start) * 1e-9;
  tally->rows += static_cast<double>(strings.size());
  return out;
}

void WarmColumn(cej::Engine* engine, const cej::model::EmbeddingModel& model,
                const std::string& table, const std::string& column,
                const std::vector<std::string>& strings, EmbedTally* tally) {
  engine->embedding_cache()->Put(
      table, column, &model, TimedEmbed(model, strings, engine->pool(), tally));
}

std::shared_ptr<const cej::la::Matrix> CachedColumn(
    const cej::Engine& engine, const cej::model::EmbeddingModel& model,
    const std::string& table, const std::string& column) {
  return engine.embedding_cache()->Peek(table, column, &model);
}

const std::vector<int64_t>* IntColumn(const Relation& relation,
                                      const std::string& name) {
  auto column = relation.ColumnByName(name);
  if (!column.ok() || (*column)->type() != DataType::kInt64) return nullptr;
  return &(*column)->int64_values();
}

bool ExtractMatches(const cej::QueryResult& result,
                    std::vector<Match>* matches) {
  const auto* pid = IntColumn(result.relation, "pid");
  const auto* cid = IntColumn(result.relation, "cid");
  auto sim = result.relation.ColumnByName("similarity");
  if (pid == nullptr || cid == nullptr || !sim.ok()) return false;
  const std::vector<double>& sims = (*sim)->double_values();
  for (size_t i = 0; i < pid->size(); ++i) {
    matches->push_back({static_cast<uint32_t>((*pid)[i]),
                        static_cast<uint32_t>((*cid)[i]),
                        static_cast<float>(sims[i])});
  }
  return true;
}

bool SwapRights(std::vector<Match>* matches) {
  for (size_t j = 1; j < matches->size(); ++j) {
    Match& a = (*matches)[0];
    Match& b = (*matches)[j];
    if (a.left != b.left && a.right != b.right) {
      std::swap(a.right, b.right);
      return true;
    }
  }
  return false;
}

double RelationBytes(const Relation& relation) {
  double row_bytes = 0.0;
  for (const Field& field : relation.schema().fields()) {
    switch (field.type) {
      case DataType::kInt64:
      case DataType::kDouble:
        row_bytes += 8.0;
        break;
      case DataType::kDate:
        row_bytes += 4.0;
        break;
      case DataType::kString:
        row_bytes += sizeof(std::string);
        break;
      case DataType::kVector:
        row_bytes += 4.0 * static_cast<double>(field.vector_dim);
        break;
    }
  }
  return row_bytes * static_cast<double>(relation.num_rows());
}

JoinReplay ReplayOperator(const cej::Engine& engine,
                          const std::string& operator_name,
                          const cej::la::Matrix& left,
                          const cej::la::Matrix& right,
                          const cej::join::JoinCondition& condition,
                          Tracer* tracer, int parent, int64_t request,
                          cej::join::JoinSink* sink) {
  JoinReplay replay;
  auto op = cej::join::JoinOperatorRegistry::Global().Find(operator_name);
  if (!op.ok()) return replay;
  const cej::join::JoinOperatorTraits traits = (*op)->Traits();
  if (traits.needs_strings || traits.needs_index) {
    std::fprintf(stderr, "perfbench: operator '%s' cannot be replayed on "
                 "prefetched matrices\n", operator_name.c_str());
    return replay;
  }
  const cej::plan::ExecContext context = engine.MakeExecContext();
  cej::join::JoinInputs inputs;
  inputs.left_vectors = &left;
  inputs.right_vectors = &right;
  cej::join::JoinOptions options;
  options.simd = context.simd;
  options.pool = context.pool;
  options.shard_count = context.shard_count;
  cej::join::CountingSink counter;
  if (sink == nullptr) sink = &counter;
  const int span = tracer->Begin("join.run", parent, request);
  auto stats = (*op)->Run(inputs, condition, options, sink);
  tracer->End(span);
  if (!stats.ok()) return replay;
  replay.ok = true;
  replay.ms = NsToMs(tracer->DurationNs(span));
  replay.sims = stats->similarity_computations;
  return replay;
}

std::unique_ptr<cej::Engine> RepeatSetup(
    const std::function<std::unique_ptr<cej::Engine>()>& setup,
    std::vector<double>* seconds) {
  size_t count = 0;
  double total = 0.0;
  std::unique_ptr<cej::Engine> engine;
  while (count < kMinSetups ||
         (total < kSetupSeconds && count < kMaxSetups)) {
    engine.reset();
    ReleaseFreedMemory();
    const int64_t start = NowNs();
    engine = setup();
    seconds->push_back(static_cast<double>(NowNs() - start) * 1e-9);
    total += seconds->back();
    ++count;
  }
  return engine;
}

void AddEndToEndMetrics(const PhaseStats& phase, double tail_percentile,
                        double setup_s, double peak_rss_mb, Metrics* m) {
  const double attempted = static_cast<double>(phase.attempted);
  (*m)["throughput_qps"] = {static_cast<double>(phase.ok) / phase.wall_s,
                            "1/s"};
  (*m)["latency_p50_ms"] = {Median(phase.latency_ms), "ms"};
  (*m)["latency_tail_ms"] = {Percentile(phase.latency_ms, tail_percentile),
                             "ms"};
  (*m)["ok_frac"] = {static_cast<double>(phase.ok) / attempted, "frac"};
  (*m)["slo_met_frac"] = {static_cast<double>(phase.slo_met) / attempted,
                          "frac"};
  (*m)["setup_s"] = {setup_s, "s"};
  (*m)["peak_rss_mb"] = {peak_rss_mb, "MB"};
  std::fprintf(stderr, "perfbench: %lld queries, tail = p%g\n",
               static_cast<long long>(phase.attempted), tail_percentile);
}

Counters Counters::Read(const cej::Engine& engine) {
  return {engine.embedding_cache()->stats(), ReadUsage()};
}

void AddCounterMetrics(const Counters& before, const Counters& after,
                       const PhaseStats& phase, Metrics* m) {
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  const double sys_s = after.usage.sys_s - before.usage.sys_s;
  const double cpu_s = (after.usage.user_s - before.usage.user_s) + sys_s;
  (*m)["api.cache_hit_frac"] = {hits / (hits + misses), "frac"};
  (*m)["api.cache_evictions"] = {
      static_cast<double>(after.cache.evictions - before.cache.evictions),
      "count"};
  (*m)["proc.cpu_util"] = {cpu_s / phase.elapsed_s, "frac"};
  (*m)["proc.sys_frac"] = {sys_s / cpu_s, "frac"};
  (*m)["harness.gen_late_p99_ms"] = {Percentile(phase.late_ms, 99.0), "ms"};
}

void AddServeMetrics(const cej::serve::ServeStats& before,
                     const cej::serve::ServeStats& after, Metrics* m) {
  const double submitted =
      static_cast<double>(after.submitted - before.submitted);
  const double completed =
      static_cast<double>(after.completed - before.completed);
  (*m)["serve.fusion_ratio"] = {
      static_cast<double>(after.queries_fused - before.queries_fused) /
          completed,
      "frac"};
  (*m)["serve.shed_frac"] = {
      static_cast<double>(after.shed_count - before.shed_count) / submitted,
      "frac"};
  (*m)["serve.expired_frac"] = {
      static_cast<double>(after.expired_count - before.expired_count) /
          submitted,
      "frac"};
}

}  // namespace perfbench
