// Per-query QueryPolicy tests (DESIGN.md §4.3). The pinned contracts:
//
//   (a) every tier / backend preference / hedge bit is answered exactly on
//       the snapshot's one factor: bitwise the default-policy answers at
//       1/2/4/8 threads and within 1e-8 of the solve_dc reference (runs
//       under TSan in CI),
//   (b) the result cache keys on (version, kind, pair) only: an answer
//       cached for one tier serves a probe of any other, bitwise,
//   (c) deadline-expired queries answer NaN with QueryStatus::kDeadlineMiss
//       without blocking the rest of the batch — expiry is a pure function
//       of (policy.deadline_us, AnswerContext::queue_wait_us), never of a
//       clock read,
//   (d) old-version (v1) wire frames decode with every policy defaulted,
//       and every route / backend / tier / hedge byte on v1 and v2 frames
//       answers bitwise like answer_on on the same snapshot,
//   (e) the admission queue dispatches deadline-urgent items first.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/admission.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "pg/incremental.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "serve/query_policy.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot.hpp"
#include "serve_test_util.hpp"

namespace er {
namespace {

// ---------------------------------------------------------------------------
// (a) every policy is answered exactly, bitwise at any thread count.
// ---------------------------------------------------------------------------

TEST(QueryPolicy, EveryPolicyIsAnsweredExactlyAcrossThreadCounts) {
  const ServeCase c = make_case(24, 24, 64, 401);
  ReductionOptions opts;
  opts.num_blocks = 8;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);
  const auto plain = mixed_batch(kept_originals(*art.model), 480, 11);

  // Cycle every tier x backend x hedge combination (24 of them) over the
  // batch, under every batch route: none may change an answer.
  std::vector<PortQuery> batch = plain;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    QueryPolicy& pol = batch[i].policy;
    pol.accuracy_tier = static_cast<AccuracyTier>(i % 3);
    pol.backend_pref = static_cast<BackendPref>((i / 3) % 4);
    pol.hedge = (i / 12) % 2 == 1;
  }
  obs::MetricsRegistry plain_reg;
  const auto want = QueryFrontEnd::answer_on(
      *snap, plain, {nullptr, RouteMode::kSharded, nullptr, &plain_reg});
  expect_matches_reference(want, dc_reference(*art.model, plain), "plain");

  for (int threads : {1, 2, 4, 8}) {
    for (RouteMode mode : {RouteMode::kSharded, RouteMode::kMonolithic,
                           RouteMode::kLocalApprox}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " " +
                   to_string(mode));
      obs::MetricsRegistry reg;
      std::optional<ThreadPool> pool;
      if (threads > 1) pool.emplace(threads, &reg);
      BatchStats stats;
      const auto answers = QueryFrontEnd::answer_on(
          *snap, batch, {pool ? &*pool : nullptr, mode, &stats, &reg});
      EXPECT_TRUE(same_bits(answers, want));
      // Per-tier tallies cover every answered query.
      std::uint64_t served = 0;
      for (const char* tier : {"exact", "approx", "fast"})
        served +=
            reg.snapshot().find("er_policy_served_total", {{"tier", tier}})
                ->counter;
      EXPECT_EQ(served, batch.size() - stats.invalid);
    }
  }
}

// ---------------------------------------------------------------------------
// (b) cache entries serve every tier.
// ---------------------------------------------------------------------------

TEST(QueryPolicy, CachedAnswersServeEveryTier) {
  const ServeCase c = make_case(20, 20, 48, 409);
  ReductionOptions opts;
  opts.num_blocks = 6;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  const auto cache =
      std::make_shared<ResultCache>(ResultCacheOptions{}, &reg);
  store.attach_cache(cache);
  const QueryFrontEnd frontend(&store, &reg);

  // Distinct consecutive kept-node pairs: every key is inserted at most
  // once, so hit/miss counts are exact (no intra-batch repeats).
  const auto kept = kept_originals(reducer.model());
  std::vector<PortQuery> fast;
  for (std::size_t i = 0; i + 1 < kept.size() && fast.size() < 120; i += 2) {
    PortQuery query;
    query.kind =
        i % 4 == 0 ? QueryKind::kResistance : QueryKind::kResponse;
    query.p = kept[i];
    query.q = kept[i + 1];
    query.policy.accuracy_tier = AccuracyTier::kFast;
    fast.push_back(query);
  }
  ASSERT_GT(fast.size(), 10u);
  std::vector<PortQuery> exact = fast;
  for (PortQuery& query : exact)
    query.policy.accuracy_tier = AccuracyTier::kExact;

  // Warm the fast tier; the exact-tier probe of the same (kind, p, q)
  // keys then hits fully — every tier's answer is the exact one.
  BatchStats warm, exact_probe;
  const auto fast_answers =
      frontend.answer(fast, {nullptr, RouteMode::kSharded, &warm});
  EXPECT_EQ(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, fast.size());
  const auto exact_answers =
      frontend.answer(exact, {nullptr, RouteMode::kSharded, &exact_probe});
  EXPECT_EQ(exact_probe.cache_misses, 0u);
  EXPECT_EQ(exact_probe.cache_hits, exact.size());
  EXPECT_TRUE(same_bits(fast_answers, exact_answers));
}

// ---------------------------------------------------------------------------
// (c) deadline expiry: pure, per-query, non-blocking.
// ---------------------------------------------------------------------------

TEST(QueryPolicy, ExpiredDeadlinesMissWithoutBlockingTheBatch) {
  const ServeCase c = make_case(18, 18, 40, 419);
  ReductionOptions opts;
  opts.num_blocks = 6;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);
  const auto kept = kept_originals(*art.model);

  const auto plain = mixed_batch(kept, 60, 17);
  std::vector<PortQuery> batch = plain;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i % 3 == 0) batch[i].policy.deadline_us = 10;        // expires
    if (i % 3 == 1) batch[i].policy.deadline_us = 1'000'000; // never does
  }

  obs::MetricsRegistry reg;
  const auto reference = QueryFrontEnd::answer_on(
      *snap, plain, {nullptr, RouteMode::kSharded, nullptr, &reg});

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::optional<ThreadPool> pool;
    if (threads > 1) pool.emplace(threads, &reg);
    BatchStats stats;
    std::vector<QueryStatus> statuses;
    AnswerContext ctx;
    ctx.pool = pool ? &*pool : nullptr;
    ctx.mode = RouteMode::kSharded;
    ctx.stats = &stats;
    ctx.registry = &reg;
    ctx.queue_wait_us = 50;  // injected, not measured: 10 <= 50 expires
    ctx.statuses = &statuses;
    const auto answers = QueryFrontEnd::answer_on(*snap, batch, ctx);
    ASSERT_EQ(statuses.size(), batch.size());
    std::size_t misses = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i % 3 == 0) {
        EXPECT_EQ(statuses[i], QueryStatus::kDeadlineMiss) << "query " << i;
        EXPECT_TRUE(std::isnan(answers[i])) << "query " << i;
        ++misses;
      } else {
        // The rest of the batch answers exactly as the deadline-free twin.
        ASSERT_TRUE(same_bits({answers[i]}, {reference[i]}))
            << "query " << i;
        EXPECT_NE(statuses[i], QueryStatus::kDeadlineMiss) << "query " << i;
      }
    }
    EXPECT_EQ(stats.deadline_miss, misses);
  }

  // With no queue wait, nothing expires (deadline 10us > wait 0).
  BatchStats relaxed;
  AnswerContext relaxed_ctx;
  relaxed_ctx.mode = RouteMode::kSharded;
  relaxed_ctx.stats = &relaxed;
  relaxed_ctx.registry = &reg;
  (void)QueryFrontEnd::answer_on(*snap, batch, relaxed_ctx);
  EXPECT_EQ(relaxed.deadline_miss, 0u);
}

// ---------------------------------------------------------------------------
// (d) v1 wire frames decode with default policies and answer as before.
// ---------------------------------------------------------------------------

TEST(QueryPolicy, OldVersionWireFramesAnswerWithDefaultPolicy) {
  net::QueryBatchRequest req;
  req.route = RouteMode::kSharded;
  req.queries = {{QueryKind::kResistance, 3, 9, {}},
                 {QueryKind::kResponse, 1, 4, {}}};
  // The sender sets non-default policies; a v1 encoding must drop them.
  for (PortQuery& query : req.queries) {
    query.policy.deadline_us = 77;
    query.policy.accuracy_tier = AccuracyTier::kFast;
    query.policy.hedge = true;
  }

  const auto v1_payload =
      net::encode_query_batch(req, net::kMinProtocolVersion);
  const auto v1_frame =
      net::encode_frame(net::Opcode::kErBatch, 42, v1_payload,
                        net::kMinProtocolVersion);
  net::FrameBuffer fb;
  fb.append(v1_frame.data(), v1_frame.size());
  net::Frame frame;
  ASSERT_EQ(fb.next(&frame), net::DecodeStatus::kOk);
  EXPECT_EQ(frame.version, net::kMinProtocolVersion);

  net::QueryBatchRequest decoded;
  ASSERT_TRUE(net::decode_query_batch(frame.payload, &decoded,
                                      frame.version));
  ASSERT_EQ(decoded.queries.size(), req.queries.size());
  for (std::size_t i = 0; i < decoded.queries.size(); ++i) {
    EXPECT_EQ(decoded.queries[i].p, req.queries[i].p);
    EXPECT_EQ(decoded.queries[i].q, req.queries[i].q);
    const QueryPolicy& pol = decoded.queries[i].policy;
    EXPECT_TRUE(pol.deadline_us == 0 &&
                pol.accuracy_tier == AccuracyTier::kExact &&
                pol.backend_pref == BackendPref::kAuto && !pol.hedge)
        << "query " << i;
  }

  // A v2 round-trip preserves the policies verbatim.
  const auto v2_payload = net::encode_query_batch(req);
  net::QueryBatchRequest v2_decoded;
  ASSERT_TRUE(net::decode_query_batch(v2_payload, &v2_decoded));
  for (std::size_t i = 0; i < v2_decoded.queries.size(); ++i) {
    const QueryPolicy& pol = v2_decoded.queries[i].policy;
    EXPECT_EQ(pol.deadline_us, 77u);
    EXPECT_EQ(pol.accuracy_tier, AccuracyTier::kFast);
    EXPECT_TRUE(pol.hedge);
  }

  // Policies select no code, so a v1 client's answers are bitwise those of
  // the policy-free library call.
  const ServeCase c = make_case(16, 16, 24, 421);
  ReductionOptions opts;
  opts.num_blocks = 4;
  const ReductionArtifacts art =
      reduce_network_artifacts(c.net, c.ports, opts);
  const auto snap = ModelSnapshot::build(art);
  const auto kept = kept_originals(*art.model);
  const auto batch = mixed_batch(kept, 80, 23);
  std::vector<PortQuery> wire_twin = batch;  // what a v1 decode yields
  for (PortQuery& query : wire_twin) query.policy = QueryPolicy{};
  const auto want = QueryFrontEnd::answer_on(*snap, batch);
  EXPECT_TRUE(same_bits(want, QueryFrontEnd::answer_on(*snap, wire_twin)));

  // Every route byte x backend x tier x hedge bit, framed at v1 and v2,
  // decodes and answers bitwise like answer_on on the same snapshot: none
  // of those bytes selects a solve path.
  for (const std::uint16_t version :
       {net::kMinProtocolVersion, net::kProtocolVersion})
    for (int route = 0; route < 3; ++route)
      for (int pref = 0; pref < 4; ++pref)
        for (int tier = 0; tier < 3; ++tier)
          for (int hedge = 0; hedge < 2; ++hedge) {
            const QueryPolicy policy{0, static_cast<AccuracyTier>(tier),
                                     static_cast<BackendPref>(pref),
                                     hedge == 1};
            net::QueryBatchRequest sent;
            sent.route = static_cast<RouteMode>(route);
            SCOPED_TRACE("v" + std::to_string(version) + " route " +
                         to_string(sent.route) + " pref " +
                         to_string(policy.backend_pref) + " tier " +
                         to_string(policy.accuracy_tier) + " hedge " +
                         std::to_string(hedge));
            sent.queries = batch;
            for (PortQuery& query : sent.queries) query.policy = policy;
            const auto bytes = net::encode_frame(
                net::Opcode::kErBatch, 7,
                net::encode_query_batch(sent, version), version);
            net::FrameBuffer buf;
            buf.append(bytes.data(), bytes.size());
            net::Frame wire;
            ASSERT_EQ(buf.next(&wire), net::DecodeStatus::kOk);
            net::QueryBatchRequest got;
            ASSERT_TRUE(
                net::decode_query_batch(wire.payload, &got, wire.version));
            EXPECT_EQ(got.route, sent.route);
            AnswerContext ctx;
            ctx.mode = got.route;
            EXPECT_TRUE(same_bits(
                QueryFrontEnd::answer_on(*snap, got.queries, ctx), want));
          }
}

// ---------------------------------------------------------------------------
// (e) deadline-urgent admission.
// ---------------------------------------------------------------------------

TEST(QueryPolicy, AdmissionQueueDispatchesUrgentItemsFirst) {
  net::AdmissionQueue<int> queue(3);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_push(3, /*urgent=*/true));
  // Both levels draw on one capacity bound.
  EXPECT_FALSE(queue.try_push(4));
  EXPECT_FALSE(queue.try_push(5, /*urgent=*/true));
  EXPECT_EQ(queue.depth(), 3u);

  // Urgent first, admission order within a level.
  EXPECT_EQ(queue.pop().value(), 3);
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_TRUE(queue.try_push(6, /*urgent=*/true));
  EXPECT_EQ(queue.pop().value(), 6);
  EXPECT_EQ(queue.pop().value(), 2);

  queue.close();
  EXPECT_FALSE(queue.pop().has_value());
}

}  // namespace
}  // namespace er
