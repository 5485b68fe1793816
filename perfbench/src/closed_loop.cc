// The closed-loop runner: set-ups, warm-up with the oracle self-test, the
// untraced timed phase, and (traced runs) a second phase that splits each
// query into its layers.

#include <cstdio>

#include "workloads.h"

namespace perfbench {

void PlanTracker::Note(const cej::plan::ExecStats& stats) {
  if (!seen_) {
    seen_ = true;
    op_ = stats.join_operator;
    order_ = stats.join_edge_order;
    std::string order;
    for (size_t edge : order_) order += " e" + std::to_string(edge);
    std::fprintf(stderr, "perfbench: plan: operator %s, edge order:%s\n",
                 op_.c_str(), order.empty() ? " -" : order.c_str());
  } else if (stats.join_operator != op_ || stats.join_edge_order != order_) {
    ++changes_;
  }
}

void DecomposeQuery(ClosedLoop* w, cej::Engine* engine, uint64_t q,
                    Tracer* tracer, PlanTracker* plans, EmbedTally* tally,
                    LayerSamples* s) {
  const int64_t request = static_cast<int64_t>(q);
  const int root = tracer->Begin("request", -1, request);
  w->BeforeQuery(engine, q);
  const cej::QueryBuilder builder = w->Query(*engine, q);

  const int64_t faults0 = ReadUsage().minflt;
  const int exec_span = tracer->Begin("api.execute", root, request);
  auto result = builder.Execute();
  tracer->End(exec_span);
  const int64_t faults1 = ReadUsage().minflt;
  std::string why;
  if (!result.ok() || !w->Verify(q, *result, &why)) {
    std::fprintf(stderr, "perfbench: traced query %lld failed: %s\n",
                 static_cast<long long>(request),
                 result.ok() ? why.c_str()
                             : result.status().ToString().c_str());
    tracer->End(root);
    ++s->failed;
    return;
  }
  const cej::plan::ExecStats& stats = result->stats;
  plans->Note(stats);

  // The same query streamed, after re-applying the write so that a cold
  // query stays cold.
  w->BeforeQuery(engine, q);
  cej::join::MaterializingSink sink;
  const int stream_span = tracer->Begin("api.stream", root, request);
  auto streamed = builder.Stream(&sink);
  tracer->End(stream_span);

  const int optimize_span = tracer->Begin("plan.optimize", root, request);
  auto plan = builder.OptimizedPlan();
  tracer->End(optimize_span);

  const std::vector<std::string> inputs = w->EmbedInputs(q);
  const int embed_span = tracer->Begin("model.embed", root, request);
  const cej::la::Matrix embedded =
      TimedEmbed(w->model(), inputs, engine->pool(), tally);
  tracer->End(embed_span);

  const JoinReplay replay =
      plan.ok() ? w->ReplayJoin(*engine, q, stats, *plan, embedded, tracer,
                                root)
                : JoinReplay{};

  const int serve_span = tracer->Begin("serve.request", root, request);
  auto ticket = engine->serve()->Submit(w->ServeEquivalent(q));
  const bool served = ticket.ok() && ticket->Get().status.ok();
  tracer->End(serve_span);
  if (served) {
    const cej::serve::QueryResponse& response = ticket->Get();
    const int64_t sub = tracer->spans()[serve_span].start_ns;
    const auto wait = static_cast<int64_t>(response.queue_wait_seconds * 1e9);
    const auto lat = static_cast<int64_t>(response.latency_seconds * 1e9);
    tracer->Add("serve.queue_wait", sub, sub + wait, serve_span, request);
    tracer->Add("serve.exec", sub + wait, sub + lat, serve_span, request);
    s->batch_queries.push_back(static_cast<double>(response.batch_queries));
  }
  tracer->End(root);
  if (!streamed.ok() || !plan.ok() || !served || !replay.ok) {
    std::fprintf(stderr, "perfbench: traced decomposition of query %lld "
                 "failed\n", static_cast<long long>(request));
    ++s->failed;
    return;
  }
  ++s->ok;

  const double execute_ms = NsToMs(tracer->DurationNs(exec_span));
  const double stream_ms = NsToMs(tracer->DurationNs(stream_span));
  const double embed_ms = NsToMs(tracer->DurationNs(embed_span));
  s->execute_ms.push_back(execute_ms);
  s->optimize_ms.push_back(NsToMs(tracer->DurationNs(optimize_span)) +
                           replay.plan_ms);
  s->embed_ms.push_back(embed_ms);
  s->run_ms.push_back(replay.ms);
  s->materialize_ms.push_back(execute_ms - stream_ms);
  s->exec_other_ms.push_back(stream_ms - embed_ms - replay.ms);
  double edge_rows = 0.0;
  for (uint64_t rows : stats.edge_card_obs) edge_rows += rows;
  s->intermediate_rows.push_back(
      stats.edge_card_obs.empty()
          ? 0.0
          : edge_rows - static_cast<double>(result->relation.num_rows()));
  s->model_calls.push_back(static_cast<double>(stats.model_calls));
  s->sims.push_back(
      static_cast<double>(stats.join_stats.similarity_computations));
  s->peak_buffer_mb.push_back(
      static_cast<double>(stats.join_stats.peak_buffer_bytes) / 1048576.0);
  s->output_mb.push_back(RelationBytes(result->relation) / 1048576.0);
  s->minflt.push_back(static_cast<double>(faults1 - faults0));
  s->replay_sims += static_cast<double>(replay.sims);
  s->replay_ms += replay.ms;
}

void AddLayerMetrics(const LayerSamples& s, const Tracer& tracer,
                     const EmbedTally& tally, Metrics* m) {
  (*m)["plan.optimize_ms"] = {Median(s.optimize_ms), "ms"};
  (*m)["plan.intermediate_rows"] = {Median(s.intermediate_rows), "rows"};
  (*m)["plan.exec_other_ms"] = {Median(s.exec_other_ms), "ms"};
  (*m)["model.embed_ms"] = {Median(tracer.SelfMs("model.embed")), "ms"};
  (*m)["model.calls_per_query"] = {Median(s.model_calls), "count"};
  (*m)["model.rows_per_s"] = {tally.rows / tally.seconds, "1/s"};
  (*m)["join.run_ms"] = {Median(s.run_ms), "ms"};
  (*m)["join.sim_per_s"] = {s.replay_sims / (s.replay_ms * 1e-3), "1/s"};
  (*m)["join.sims_per_query"] = {Median(s.sims), "count"};
  (*m)["join.peak_buffer_mb"] = {Median(s.peak_buffer_mb), "MB"};
  (*m)["storage.materialize_ms"] = {Median(s.materialize_ms), "ms"};
  (*m)["storage.output_mb"] = {Median(s.output_mb), "MB"};
  (*m)["storage.minflt_per_query"] = {Median(s.minflt), "count"};
}

double BlockingPathMs(const LayerSamples& s) {
  return Median(s.embed_ms) + Median(s.run_ms) + Median(s.exec_other_ms) +
         Median(s.materialize_ms);
}

namespace {

constexpr int kWarmupQueries = 3;

}  // namespace

RunResult RunClosedLoop(ClosedLoop* w, const RunOptions& options) {
  RunResult out;
  w->Generate(options.seed);
  ReleaseFreedMemory();
  EmbedTally tally;
  std::vector<double> setup_seconds;
  const auto setup = [&] { return w->Setup(&tally); };
  std::unique_ptr<cej::Engine> engine = RepeatSetup(setup, &setup_seconds);

  uint64_t q = 0;
  std::string why;
  PlanTracker plans;
  // Warm-up (not measured); the first result also drives the self-test.
  for (int i = 0; i < kWarmupQueries; ++i, ++q) {
    w->BeforeQuery(engine.get(), q);
    auto result = w->Query(*engine, q).Execute();
    if (!result.ok() || !w->Verify(q, *result, &why)) {
      std::fprintf(stderr, "perfbench: warm-up query failed: %s\n",
                   result.ok() ? why.c_str()
                               : result.status().ToString().c_str());
      out.correct = false;
      continue;
    }
    if (i == 0) {
      const double frac = w->SelfTest(q, *result);
      std::fprintf(stderr, "perfbench: oracle self-test ok_frac = %.4f over "
                   "(correct, dropped pair, swapped pair)\n", frac);
      if (frac * 3.0 < 0.5 || frac * 3.0 > 1.5) out.correct = false;
    }
  }

  // --- Timed phase, tracing off ------------------------------------------
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  PhaseStats a;
  int64_t excluded_ns = 0;
  const Counters before = Counters::Read(*engine);
  const int64_t phase_start = NowNs();
  while (NowNs() - phase_start < static_cast<int64_t>(phase_s * 1e9)) {
    w->BeforeQuery(engine.get(), q);
    const int64_t due = NowNs();
    const cej::QueryBuilder builder = w->Query(*engine, q);
    const int64_t t0 = NowNs();
    auto result = builder.Execute();
    const int64_t t1 = NowNs();
    a.late_ms.push_back(NsToMs(t0 - due));
    const double ms = NsToMs(t1 - t0);
    a.latency_ms.push_back(ms);
    ++a.attempted;
    if (result.ok()) plans.Note(result->stats);
    if (result.ok() && w->Verify(q, *result, &why)) {
      ++a.ok;
      if (ms <= w->latency_limit_ms()) ++a.slo_met;
    } else {
      std::fprintf(stderr, "perfbench: query %llu failed: %s\n",
                   static_cast<unsigned long long>(q),
                   result.ok() ? why.c_str()
                               : result.status().ToString().c_str());
    }
    excluded_ns += NowNs() - t1;  // Checking is not part of the workload.
    ++q;
  }
  const int64_t phase_ns = NowNs() - phase_start;
  a.elapsed_s = static_cast<double>(phase_ns) * 1e-9;
  a.wall_s = static_cast<double>(phase_ns - excluded_ns) * 1e-9;
  const Counters after = Counters::Read(*engine);

  out.attempted = a.attempted;
  out.failed = a.attempted - a.ok;
  out.correct = out.correct && out.failed == 0;
  Metrics& m = out.metrics;
  if (!options.trace) {
    engine.reset();
    RepeatSetup(setup, &setup_seconds);  // The second round.
    AddEndToEndMetrics(a, w->tail_percentile(), Median(setup_seconds),
                       after.usage.maxrss_mb, &m);
    out.correct = out.correct && plans.changes() == 0;
    return out;
  }

  // --- Traced phase: each query split into its layers ---------------------
  Tracer tracer;
  LayerSamples s;
  cej::serve::Server* server = engine->serve();
  const cej::serve::ServeStats serve0 = server->stats();
  const int64_t traced_start = NowNs();
  while (NowNs() - traced_start < static_cast<int64_t>(phase_s * 1e9)) {
    DecomposeQuery(w, engine.get(), q++, &tracer, &plans, &tally, &s);
  }
  out.attempted += s.ok + s.failed;
  out.failed += s.failed;
  out.correct = out.correct && s.failed == 0 && s.ok > 0 &&
                plans.changes() == 0;

  AddCounterMetrics(before, after, a, &m);
  AddServeMetrics(serve0, server->stats(), &m);
  AddLayerMetrics(s, tracer, tally, &m);
  const double p50 = Median(a.latency_ms);
  m["plan.plan_changes"] = {static_cast<double>(plans.changes()), "count"};
  m["serve.queue_wait_ms"] = {Median(tracer.SelfMs("serve.queue_wait")),
                              "ms"};
  m["serve.exec_ms"] = {Median(tracer.SelfMs("serve.exec")), "ms"};
  m["serve.batch_queries_mean"] = {Mean(s.batch_queries), "count"};
  m["harness.trace_overhead_frac"] = {(Median(s.execute_ms) - p50) / p50,
                                      "frac"};
  m["harness.residual_ms"] = {p50 - BlockingPathMs(s), "ms"};
  if (!options.trace_out.empty() && !tracer.Write(options.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 options.trace_out.c_str());
  }
  return out;
}

}  // namespace perfbench
