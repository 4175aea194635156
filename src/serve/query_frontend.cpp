#include "serve/query_frontend.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <stdexcept>

#include "effres/engine.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/result_cache.hpp"
#include "util/timer.hpp"

namespace er {

namespace {

constexpr real_t kNaN = std::numeric_limits<real_t>::quiet_NaN();

/// Front-end registry handles, resolved once per batch (registration is
/// get-or-create, so repeated batches hit the same series). Recording
/// through them is lock-free.
struct ServeMetrics {
  obs::Counter& batches;
  obs::Counter& queries;
  obs::Counter& invalid;
  obs::Counter& reach_columns;
  obs::Histogram& query_latency;
  obs::Histogram& batch_seconds;
};

ServeMetrics serve_metrics(obs::MetricsRegistry& reg) {
  return ServeMetrics{
      reg.counter("er_serve_batches_total", {}, "Query batches answered"),
      reg.counter("er_serve_queries_total", {}, "Queries answered"),
      reg.counter("er_serve_invalid_queries_total", {},
                  "Queries with unmapped/eliminated endpoints (answer NaN)"),
      reg.counter("er_serve_reach_columns_total", {},
                  "Factor columns touched by query solves (elimination-tree "
                  "reach); divide by er_serve_queries_total for the mean"),
      reg.histogram("er_query_latency_seconds", {},
                    "Per-query wall-clock latency (compute only; queue "
                    "wait is er_pool_task_queue_wait_seconds)"),
      reg.histogram("er_query_batch_seconds", {},
                    "Whole-batch wall-clock latency"),
  };
}

/// er_policy_* registry handles (DESIGN.md §4.3). Resolved once per batch
/// like ServeMetrics, so the families register — and therefore export —
/// even for batches where every query carries the default policy.
struct PolicyMetrics {
  obs::Counter* served[3];     ///< queries answered, by accuracy tier
  obs::Histogram* latency[3];  ///< per-query compute latency, by tier
  obs::Counter& deadline_miss;
};

PolicyMetrics policy_metrics(obs::MetricsRegistry& reg) {
  PolicyMetrics m{
      {nullptr, nullptr, nullptr},
      {nullptr, nullptr, nullptr},
      reg.counter("er_policy_deadline_miss_total", {},
                  "Queries whose deadline expired before evaluation"),
  };
  for (int t = 0; t < 3; ++t) {
    const auto tier = static_cast<AccuracyTier>(t);
    const obs::Labels labels{{"tier", to_string(tier)}};
    m.served[t] = &reg.counter("er_policy_served_total", labels,
                               "Queries answered, by accuracy tier");
    m.latency[t] = &reg.histogram("er_policy_latency_seconds", labels,
                                  "Per-query compute latency, by tier");
  }
  return m;
}

}  // namespace

const char* to_string(RouteMode m) {
  switch (m) {
    case RouteMode::kSharded:
      return "sharded";
    case RouteMode::kMonolithic:
      return "monolithic";
    case RouteMode::kLocalApprox:
      return "local-approx";
  }
  return "?";
}

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kResponse:
      return "response";
    case QueryKind::kResistance:
      return "resistance";
  }
  return "?";
}

const char* to_string(AccuracyTier tier) {
  switch (tier) {
    case AccuracyTier::kExact:
      return "exact";
    case AccuracyTier::kApprox:
      return "approx";
    case AccuracyTier::kFast:
      return "fast";
  }
  return "?";
}

const char* to_string(BackendPref pref) {
  switch (pref) {
    case BackendPref::kAuto:
      return "auto";
    case BackendPref::kSharded:
      return "sharded";
    case BackendPref::kMonolithic:
      return "monolithic";
    case BackendPref::kLocalApprox:
      return "local-approx";
  }
  return "?";
}

const char* to_string(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kInvalid:
      return "invalid";
    case QueryStatus::kDeadlineMiss:
      return "deadline-miss";
  }
  return "?";
}

QueryFrontEnd::QueryFrontEnd(const ModelStore* store,
                             obs::MetricsRegistry* registry)
    : store_(store), registry_(&obs::registry_or_global(registry)) {
  if (!store_)
    throw std::invalid_argument("QueryFrontEnd: null ModelStore");
}

std::vector<real_t> QueryFrontEnd::answer(const std::vector<PortQuery>& batch,
                                          ThreadPool* pool, RouteMode mode,
                                          BatchStats* stats) const {
  AnswerContext ctx;
  ctx.pool = pool;
  ctx.mode = mode;
  ctx.stats = stats;
  return answer(batch, ctx);
}

std::vector<real_t> QueryFrontEnd::answer(const std::vector<PortQuery>& batch,
                                          const AnswerContext& ctx) const {
  // Pin the snapshot once: the whole batch is answered against one model
  // version, however many publishes race with it. The cache handle is
  // pinned the same way (shared ownership for the batch's duration).
  const SnapshotPtr snap = store_->acquire();
  if (!snap)
    throw std::runtime_error("QueryFrontEnd::answer: nothing published yet");
  const ResultCachePtr cache = store_->cache();
  AnswerContext resolved = ctx;
  if (!resolved.registry) resolved.registry = registry_;
  if (!resolved.cache) resolved.cache = cache.get();
  return answer_on(*snap, batch, resolved);
}

std::vector<real_t> QueryFrontEnd::answer_on(const ModelSnapshot& snap,
                                             const std::vector<PortQuery>& batch,
                                             const AnswerContext& ctx) {
  Timer timer;
  obs::MetricsRegistry& reg = obs::registry_or_global(ctx.registry);
  ServeMetrics metrics = serve_metrics(reg);
  PolicyMetrics policy = policy_metrics(reg);
  ResultCache* cache = ctx.cache;
  const auto n = static_cast<index_t>(batch.size());
  std::vector<real_t> out(batch.size(), 0.0);
  std::atomic<std::size_t> invalid{0}, deadline_miss{0}, cache_hits{0},
      cache_misses{0}, reach_columns{0};
  std::atomic<std::size_t> served[3] = {{0}, {0}, {0}};

  // Resolve the snapshot version's cache scope once per batch. An
  // unresolvable version — cache detached, or the version aged past the
  // cache's version_cap — degrades to the plain compute path; answers are
  // bitwise identical either way because every cached value is a pure
  // per-query function of the snapshot (DESIGN.md §4.2).
  std::optional<std::uint64_t> scope;
  if (cache) scope = cache->scope_for(snap.version());
  if (ctx.statuses) ctx.statuses->assign(batch.size(), QueryStatus::kOk);

  // Chunked across the pool with one workspace per chunk; every write
  // lands in the query's own slot, so the batch is bit-identical at any
  // thread count. The route, backend, tier and hedge bits select nothing:
  // every query is solved exactly on the snapshot's one factor, by a
  // forward-only solve over its elimination-tree reach.
  parallel_for(ctx.pool, 0, n, kBatchQueryGrain, [&](index_t lo, index_t hi) {
    ModelSnapshot::Workspace ws;
    std::size_t inv = 0, missed_deadline = 0, hits = 0, missed = 0, reach = 0;
    std::size_t answered[3] = {0, 0, 0};
    for (index_t i = lo; i < hi; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const PortQuery& query = batch[ui];
      Timer query_timer;
      if (query.policy.deadline_us > 0 &&
          static_cast<std::uint64_t>(query.policy.deadline_us) <=
              ctx.queue_wait_us) {
        // Expired before evaluation: answer NaN without computing or
        // probing the cache. Purely a function of (policy, queue_wait_us),
        // so the miss set is identical on every replay of the batch.
        ++missed_deadline;
        out[ui] = kNaN;
        if (ctx.statuses) (*ctx.statuses)[ui] = QueryStatus::kDeadlineMiss;
        metrics.query_latency.record(query_timer.seconds());
        continue;
      }
      const index_t p = snap.reduced_id(query.p);
      const index_t q = snap.reduced_id(query.q);
      if (p < 0 || q < 0) {
        // Invalid endpoints answer NaN and are never probed or cached —
        // they carry no compute worth saving.
        ++inv;
        out[ui] = kNaN;
        if (ctx.statuses) (*ctx.statuses)[ui] = QueryStatus::kInvalid;
        metrics.query_latency.record(query_timer.seconds());
        continue;
      }
      real_t value = 0.0;
      if (scope && cache->lookup(*scope, query.kind, query.p, query.q,
                                 &value)) {
        ++hits;
      } else {
        // A pure function of (snapshot, kind, p, q): what makes it
        // cacheable.
        value = query.kind == QueryKind::kResponse
                    ? snap.response(p, q, ws)
                    : snap.resistance(p, q, ws);
        reach += ws.reach.size();
        if (scope) {
          ++missed;
          cache->insert(*scope, query.kind, query.p, query.q, value);
        }
      }
      out[ui] = value;
      const int tier =
          std::min(static_cast<int>(query.policy.accuracy_tier), 2);
      ++answered[tier];
      metrics.query_latency.record(query_timer.seconds());
      policy.latency[tier]->record(query_timer.seconds());
    }
    invalid += inv;
    deadline_miss += missed_deadline;
    cache_hits += hits;
    cache_misses += missed;
    reach_columns += reach;
    for (int t = 0; t < 3; ++t) served[t] += answered[t];
  });

  const double batch_seconds = timer.seconds();
  metrics.batches.add(1);
  metrics.queries.add(batch.size());
  metrics.invalid.add(invalid.load());
  metrics.reach_columns.add(reach_columns.load());
  metrics.batch_seconds.record(batch_seconds);
  for (int t = 0; t < 3; ++t) policy.served[t]->add(served[t].load());
  policy.deadline_miss.add(deadline_miss.load());
  if (ctx.stats) {
    BatchStats* stats = ctx.stats;
    stats->queries = batch.size();
    stats->invalid = invalid.load();
    stats->cache_hits = cache_hits.load();
    stats->cache_misses = cache_misses.load();
    stats->deadline_miss = deadline_miss.load();
    stats->reach_columns = reach_columns.load();
    stats->snapshot_version = snap.version();
    stats->seconds = batch_seconds;
  }
  return out;
}

}  // namespace er
